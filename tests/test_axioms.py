import dataclasses
import random

import pytest
from hypothesis import example, given, settings

from mereo import (
    CATALOG_ORDER, AxiomId, CatalogError, ParthoodStructure, Subset,
    check_all, check_axiom, holds, models_up_to_iso,
)
from mereo import axioms
from mereo.axioms import CATALOG
from mereo.core import _bits
from mereo.sums import (
    cover_mask, is_sum_mask, is_sup_mask, sum_candidates, sup_candidates,
)

from conftest import (
    FIXTURE_NAMES, _inclusion_family, _raw_relation, all_fixtures,
    all_relations, differential_structures, fixture, sparse_relations,
    structures_maybe_with_zero,
)
from oracles import _REF_SUBSET_FINDERS, dollar_converse_holds


def sweep(nmax, ambient=()):
    for n in range(1, nmax + 1):
        yield from models_up_to_iso(n, ambient)


def test_catalog_is_complete_and_ordered():
    assert len(CATALOG_ORDER) == 32
    assert CATALOG_ORDER[0] is AxiomId.IRR
    assert CATALOG_ORDER[-1] is AxiomId.UNITY
    verdicts = check_all(fixture("w4"))
    assert [v.axiom for v in verdicts] == list(CATALOG_ORDER)


def test_check_all_runs_each_shared_finder_once(monkeypatch):
    # codes with one finder share the object: the DOLLAR pair is _dollar
    shared = {}
    for code in CATALOG_ORDER:
        shared.setdefault(CATALOG[code].find_violation, []).append(code)
    assert [codes for codes in shared.values() if len(codes) > 1] == [
        [AxiomId.SSP_OV, AxiomId.SSP_EXT], [AxiomId.EXT_OV, AxiomId.EXT_EXT],
        [AxiomId.DOLLAR_EXT, AxiomId.DOLLAR_OV]]
    assert shared[axioms._dollar] == [AxiomId.DOLLAR_EXT, AxiomId.DOLLAR_OV]
    calls = {find: [] for find in shared}

    def counting(find):
        def counted(s):
            calls[find].append(s)
            return find(s)
        return counted

    wrappers = {find: counting(find) for find in shared}
    for code in CATALOG_ORDER:
        info = CATALOG[code]
        monkeypatch.setitem(CATALOG, code, dataclasses.replace(
            info, find_violation=wrappers[info.find_violation]))
    s = fixture("b7")
    verdicts = check_all(s)
    assert [len(calls[find]) for find in shared] == [1] * len(shared)
    assert len(calls[axioms._dollar]) == 1
    monkeypatch.undo()
    assert verdicts == [check_axiom(s, code) for code in CATALOG_ORDER]


def _relations_up_to_twelve(seed):
    """Two raw and two closed relations of each size 1..12 (each pair
    with chance 0.16, plus a loop), and each size's full relation."""
    rng = random.Random(seed)
    for n in range(1, 13):
        yield ParthoodStructure.from_mask(n, (1 << (n * n)) - 1)
        for closed in (False, False, True, True):
            yield _raw_relation(rng, n, closed)


def test_check_all_is_check_axiom_per_code():
    for s in (*all_fixtures(), *_relations_up_to_twelve(37)):
        assert check_all(s) == [check_axiom(s, c) for c in CATALOG_ORDER], s


def test_unknown_code_raises():
    with pytest.raises(CatalogError):
        check_axiom(fixture("w4"), "NOT_AN_AXIOM")


def test_codes_resolve_case_insensitively():
    assert check_axiom(fixture("w4"), "ssp").holds
    assert check_axiom(fixture("w4"), "Ssp_Plus").axiom is AxiomId.SSP_PLUS


def test_w4_verdicts():
    assert check_axiom(fixture("w4"), "SSP").holds
    v = check_axiom(fixture("w4"), "SUP_SUB_SUM")
    assert not v.holds
    assert v.witness[0].label == "1"
    assert isinstance(v.witness[1], Subset)
    assert v.witness[1].labels() == ("o1", "o2")


def test_c2_verdicts():
    v = check_axiom(fixture("c2"), "WSP")
    assert not v.holds
    assert tuple(e.label for e in v.witness) == ("x", "y")
    got = {x.axiom.name: x.holds for x in check_all(fixture("c2"))}
    assert got["IRR"] and got["T"]
    assert not got["WSP"] and not got["S_SUM"] and not got["U_SUM"]


def test_s1_vacuous_cases():
    got = {x.axiom.name: x.holds for x in check_all(fixture("s1"))}
    assert got["NO_ZERO"] and got["EXISTS_EXT"]
    assert got["E_BSUM"] and got["WSP"]
    # the empty set has a supremum but never a sum in the degenerate universe
    assert not got["SUP_SUB_SUM"]


def test_b7_satisfies_everything():
    assert all(v.holds for v in check_all(fixture("b7")))


def test_x6_cprod_witness():
    v = check_axiom(fixture("x6"), "C_PROD")
    assert not v.holds
    assert tuple(e.label for e in v.witness) == ("x", "y")


def test_cycle_witnesses():
    two = ParthoodStructure.build(["a", "b"], [("a", "b"), ("b", "a")])
    v = check_axiom(two, "AC")
    assert not v.holds
    assert tuple(e.label for e in v.witness) == ("a", "b")
    loop = ParthoodStructure.build(["a"], [("a", "a")])
    v = check_axiom(loop, "AC")
    assert tuple(e.label for e in v.witness) == ("a",)
    assert check_axiom(fixture("b7"), "AC").holds


def test_empty_witness_for_missing_required_objects():
    v = check_axiom(fixture("c2"), "EXISTS_EXT")
    assert not v.holds and v.witness == ()
    v = check_axiom(fixture("x6"), "UNITY")
    assert not v.holds and v.witness == ()


def _recheck(s, verdict):
    """Re-evaluating the axiom body on the witness reproduces the violation."""
    a, w = verdict.axiom, verdict.witness
    if w is None or w == ():
        return True
    from mereo.sums import is_sum, is_sup
    if a is AxiomId.IRR:
        return s.part(w[0], w[0])
    if a in (AxiomId.ANTIS, AxiomId.AS):
        return s.part(w[0], w[1]) and s.part(w[1], w[0])
    if a is AxiomId.T:
        return s.part(w[0], w[1]) and s.part(w[1], w[2]) \
            and not s.part(w[0], w[2])
    if a is AxiomId.AC:
        closed = list(w) + [w[0]]
        return all(s.part(p, q) for p, q in zip(closed, closed[1:]))
    if a is AxiomId.NO_ZERO:
        return s.n >= 2 and s.is_zero(w[0])
    if a is AxiomId.WSP:
        part, whole = w
        return s.part(part, whole) and not any(
            s.part(z, whole) and s.ext(z, part) for z in s.universe)
    if a is AxiomId.SSP:
        x, y = w
        return not s.ing(x, y) and not any(
            s.ing(z, x) and s.ext(z, y) for z in s.universe)
    if a is AxiomId.SSP_PLUS:
        x, y = w
        rest = [u for u in s.universe if s.ing(u, x) and s.ext(u, y)]
        return not s.ing(x, y) and not any(
            all(s.ing(u, z) for u in rest) for z in rest)
    if a in (AxiomId.SSP_OV, AxiomId.SSP_EXT):
        x, y = w
        mono = all(s.ov(u, y) for u in s.universe if s.ov(u, x))
        return mono and not s.ing(x, y)
    if a is AxiomId.PPP:
        x, y = w
        px = [u for u in s.universe if s.part(u, x)]
        return bool(px) and all(s.part(u, y) for u in px) and not s.ing(x, y)
    if a in (AxiomId.U_SUM, AxiomId.DIAMOND):
        x, y, sub = w
        first = is_sum(s, x, sub)
        second = is_sup(s, y, sub) if a is AxiomId.DIAMOND else is_sum(s, y, sub)
        return first and second and x != y
    if a is AxiomId.U_SUP:
        x, y, sub = w
        return is_sup(s, x, sub) and is_sup(s, y, sub) and x != y
    if a is AxiomId.S_SUM:
        x, y = w
        return x != y and is_sum(s, x, [y])
    if a is AxiomId.EXT_PP:
        x, y = w
        px = {u.label for u in s.universe if s.part(u, x)}
        py = {u.label for u in s.universe if s.part(u, y)}
        return x != y and px and px == py
    if a is AxiomId.EXT_ING:
        x, y = w
        return x != y and s.ingredienses(x).labels() == s.ingredienses(y).labels()
    if a in (AxiomId.EXT_OV, AxiomId.EXT_EXT):
        x, y = w
        same = all(s.ov(u, x) == s.ov(u, y) for u in s.universe)
        return x != y and same
    if a in (AxiomId.DOLLAR_EXT, AxiomId.DOLLAR_OV):
        x, sub = w
        closure = all(s.ov(u, x) == any(s.ov(u, m) for m in sub)
                      for u in s.universe)
        return is_sum(s, x, sub) != closure
    if a is AxiomId.SUM_SUB_SUP:
        x, sub = w
        return is_sum(s, x, sub) and not is_sup(s, x, sub)
    if a in (AxiomId.SUP_SUB_SUM, AxiomId.DAGGER):
        x, sub = w
        ok = is_sup(s, x, sub) and not is_sum(s, x, sub)
        if a is AxiomId.DAGGER:
            ok = ok and len(sub) > 0
        return ok
    if a is AxiomId.DDAGGER:
        x, sub = w
        return is_sum(s, x, sub) != (len(sub) > 0 and is_sup(s, x, sub))
    if a is AxiomId.C_PROD:
        x, y = w
        common = {u.label for u in s.universe if s.ing(u, x) and s.ing(u, y)}
        return bool(common) and not any(
            {u.label for u in s.universe if s.ing(u, z)} == common
            for z in s.universe)
    if a is AxiomId.C_BSUM:
        x, y = w
        bounded = any(s.ing(x, u) and s.ing(y, u) for u in s.universe)
        return bounded and not any(is_sum(s, z, [x, y]) for z in s.universe)
    if a is AxiomId.E_BSUM:
        x, y = w
        return not any(is_sum(s, z, [x, y]) for z in s.universe)
    if a is AxiomId.E_SUM:
        (sub,) = w
        return len(sub) > 0 and not any(is_sum(s, z, sub) for z in s.universe)
    raise AssertionError(f"no recheck for {a}")


def test_witnesses_reproduce_their_violations():
    samples = all_fixtures()
    samples += [
        ParthoodStructure.build(["a", "b"], [("a", "b"), ("b", "a")]),
        ParthoodStructure.build(["a"], [("a", "a")]),
        ParthoodStructure.build(["a", "b", "c"],
                                [("a", "b"), ("b", "c")]),
        ParthoodStructure.build(["a", "b", "c"],
                                [("a", "c"), ("b", "c"), ("c", "a")]),
    ]
    checked = 0
    for s in samples:
        for v in check_all(s):
            if not v.holds and v.witness:
                assert _recheck(s, v), (s, str(v))
                checked += 1
    assert checked > 40


# -- invariant sweeps ---------------------------------------------------------

def test_wsp_implies_irr_all_relations():
    for s in sweep(4):
        if holds(s, "WSP"):
            assert holds(s, "IRR")


def test_as_and_ssp_imply_wsp_all_relations():
    for s in sweep(4):
        if holds(s, "AS") and holds(s, "SSP"):
            assert holds(s, "WSP")


def test_antis_implies_ext_ing_and_unique_suprema_all_relations():
    # two suprema of one set are ingredienses of each other; conversely,
    # distinct mutual parts x and y are both suprema of {x, y}
    for s in sweep(4):
        if holds(s, "ANTIS"):
            assert holds(s, "EXT_ING")
        assert holds(s, "ANTIS") == holds(s, "U_SUP")


def test_sup_sub_sum_needs_nondegenerate_universe():
    for s in sweep(3):
        if holds(s, "SUP_SUB_SUM"):
            assert s.n >= 2


def test_wsp_equivalences_over_transitive_relations():
    for s in sweep(5, ["T"]):
        wsp = holds(s, "WSP")
        assert wsp == (holds(s, "IRR") and holds(s, "S_SUM"))
        if holds(s, "IRR") and holds(s, "U_SUM"):
            assert wsp


def test_wsp_diamond_by_direction():
    # forward holds over transitive relations; the equivalence needs
    # irreflexivity as well (a reflexive point satisfies the identity
    # sentence while failing supplementation)
    for s in sweep(4, ["T"]):
        if holds(s, "WSP"):
            assert holds(s, "DIAMOND")
    for s in sweep(5, ["T", "IRR"]):
        assert holds(s, "WSP") == holds(s, "DIAMOND")


def test_wsp_does_not_entail_transitivity():
    # frozen refutation: supplementation without transitivity at n=4
    s = ParthoodStructure.build(
        ["a", "b", "c", "d"],
        [("a", "c"), ("b", "c"), ("c", "a"), ("d", "a")])
    assert holds(s, "WSP") and not holds(s, "T")


def test_ssp_equivalences_over_strict_orders():
    for s in sweep(5, ["T", "IRR"]):
        ssp = holds(s, "SSP")
        assert ssp == holds(s, "SSP_OV") == holds(s, "SSP_EXT")
        assert ssp == holds(s, "SUM_SUB_SUP")
        if ssp:
            assert holds(s, "U_SUM") and holds(s, "PPP")
            assert holds(s, "DOLLAR_EXT") and holds(s, "DOLLAR_OV")
        if dollar_converse_holds(s):
            assert ssp


def test_u_sum_equivalences_over_strict_orders():
    for s in sweep(5, ["T", "IRR"]):
        us = holds(s, "U_SUM")
        assert us == holds(s, "EXT_OV") == holds(s, "EXT_EXT")
        if us:
            assert holds(s, "EXT_PP")


def test_ssp_plus_entailments_over_strict_orders():
    for s in sweep(5, ["T", "IRR"]):
        if holds(s, "SSP_PLUS"):
            assert holds(s, "SSP") and holds(s, "DDAGGER")


def test_closure_characterisation_matches_literal_definition():
    # the overlap-closure characterisation of sums, re-evaluated from the
    # definitional oracles without the bitmask shortcuts
    from conftest import o_is_sum, o_labels, o_ov, o_pairs, o_subsets
    for s in sweep(3):
        labels, pairs = o_labels(s), o_pairs(s)
        violated = None
        for x in labels:
            for members in o_subsets(labels):
                lhs = o_is_sum(labels, pairs, x, members)
                rhs = all(o_ov(labels, pairs, u, x)
                          == any(o_ov(labels, pairs, m, u) for m in members)
                          for u in labels)
                if lhs != rhs:
                    violated = (x, members)
                    break
            if violated:
                break
        assert holds(s, "DOLLAR_OV") == (violated is None), s


# -- the (ub, ov) finders against literal seed-style scans --------------------
# Each reference scans every (element, subset) or (element, element)
# pair with the literal is_sum_mask / is_sup_mask definitions or ing_of
# intersections, in the order the catalog promises, so the finders must
# return exactly the same first witness.


def _ref_closure(s, x, mask):
    ing, cover = s.ing_of, cover_mask(s, mask)
    return all(bool(ing[u] & ing[x]) == bool(ing[u] & cover)
               for u in range(s.n))


def _ref_unique(candidates):
    def find(s):
        for mask in range(1, s.full + 1):
            cands = candidates(s, mask)
            if len(cands) > 1:
                return (cands[0], cands[1], ("subset", mask))
        return None
    return find


def _ref_dollar(s):
    for x in range(s.n):
        for mask in range(s.full + 1):
            if is_sum_mask(s, x, mask) != _ref_closure(s, x, mask):
                return (x, ("subset", mask))
    return None


def _ref_dollar_converse(s):
    return all(not _ref_closure(s, x, mask) or is_sum_mask(s, x, mask)
               for x in range(s.n) for mask in range(s.full + 1))


def _ref_diamond(s):
    for mask in range(1, s.full + 1):
        sums = sum_candidates(s, mask)
        if not sums:
            continue
        for x in sums:
            for y in sup_candidates(s, mask):
                if x != y:
                    return (x, y, ("subset", mask))
    return None


def _ref_pairwise(violates, first_mask):
    def find(s):
        for x in range(s.n):
            for mask in range(first_mask, s.full + 1):
                if violates(s, x, mask):
                    return (x, ("subset", mask))
        return None
    return find


def _ref_e_sum(s):
    for mask in range(1, s.full + 1):
        if not sum_candidates(s, mask):
            return (("subset", mask),)
    return None


def _sup_not_sum(s, x, mask):
    return is_sup_mask(s, x, mask) and not is_sum_mask(s, x, mask)


# The pair-quantified finders, as seed-style scans: parthood by reading
# rows, exteriority by intersecting ing_of rows, sums by the literal
# candidate lists.

def _ref_mutual_parts(distinct):
    def find(s):
        for x in range(s.n):
            for y in range(s.n):
                if distinct and x == y:
                    continue
                if s.rows[x] >> y & 1 and s.rows[y] >> x & 1:
                    return (x, y)
        return None
    return find


def _parts(s, x):
    return [u for u in range(s.n) if s.rows[u] >> x & 1]


def _overlappers(s, x):
    return [u for u in range(s.n) if s.ing_of[u] & s.ing_of[x]]


def _ref_ssp_ov(s):
    for x in range(s.n):
        for y in range(s.n):
            if s.ing_up[x] >> y & 1:
                continue
            if all(s.ing_of[u] & s.ing_of[y] for u in _overlappers(s, x)):
                return (x, y)
    return None


def _ref_ssp_ext(s):
    ing = s.ing_of
    for x in range(s.n):
        for y in range(s.n):
            if s.ing_up[x] >> y & 1:
                continue
            if all(not ing[u] & ing[x] for u in range(s.n)
                   if not ing[u] & ing[y]):
                return (x, y)
    return None


def _ref_ppp(s):
    for x in range(s.n):
        px = _parts(s, x)
        for y in range(s.n):
            if s.ing_up[x] >> y & 1:
                continue
            if px and all(s.rows[u] >> y & 1 for u in px):
                return (x, y)
    return None


def _ref_extensional(same):
    def find(s):
        for x in range(s.n):
            for y in range(s.n):
                if x != y and same(s, x, y):
                    return (x, y)
        return None
    return find


def _same_proper_parts(s, x, y):
    px = _parts(s, x)
    return bool(px) and px == _parts(s, y)


def _same_ingredienses(s, x, y):
    return ([u for u in range(s.n) if u == x or s.rows[u] >> x & 1]
            == [u for u in range(s.n) if u == y or s.rows[u] >> y & 1])


def _same_overlappers(s, x, y):
    return _overlappers(s, x) == _overlappers(s, y)


def _same_exteriors(s, x, y):
    ing = s.ing_of
    return all((not ing[u] & ing[x]) == (not ing[u] & ing[y])
               for u in range(s.n))


def _ref_exists_ext(s):
    if s.n < 2:
        return None
    ing = s.ing_of
    for x in range(s.n):
        for y in range(s.n):
            if not ing[x] & ing[y]:
                return None
    return ()


def _ref_wsp(s):
    ing = s.ing_of
    for a in range(s.n):
        for b in _bits(s.rows[a]):
            if not any(not ing[z] & ing[a] for z in _bits(s.parts_in[b])):
                return (a, b)
    return None


def _ref_ssp(s):
    ing = s.ing_of
    for x in range(s.n):
        for y in range(s.n):
            if s.ing_up[x] >> y & 1:
                continue
            if not any(not ing[z] & ing[y] for z in _bits(ing[x])):
                return (x, y)
    return None


def _ref_ssp_plus(s):
    ing = s.ing_of
    for x in range(s.n):
        for y in range(s.n):
            if s.ing_up[x] >> y & 1:
                continue
            rest = 0
            for u in _bits(ing[x]):
                if not ing[u] & ing[y]:
                    rest |= 1 << u
            if not any(not rest & ~ing[z] for z in _bits(rest)):
                return (x, y)
    return None


def _ref_s_sum(s):
    for x in range(s.n):
        for y in range(s.n):
            if x != y and is_sum_mask(s, x, 1 << y):
                return (x, y)
    return None


def _ref_c_prod(s):
    """First (x, y) that overlap while no z has exactly their common
    ingredienses as its own."""
    def ingredienses(x):
        return {u for u in range(s.n) if s.ing(u, x)}
    for x in range(s.n):
        for y in range(s.n):
            common = ingredienses(x) & ingredienses(y)
            if common and not any(ingredienses(z) == common
                                  for z in range(s.n)):
                return (x, y)
    return None


def _ref_pair_sum(bounded):
    def find(s):
        for x in range(s.n):
            for y in range(s.n):
                if bounded and not s.ing_up[x] & s.ing_up[y]:
                    continue
                if not sum_candidates(s, (1 << x) | (1 << y)):
                    return (x, y)
        return None
    return find


_REFERENCE = {
    AxiomId.U_SUM: _ref_unique(sum_candidates),
    AxiomId.U_SUP: _ref_unique(sup_candidates),
    AxiomId.DOLLAR_EXT: _ref_dollar,
    AxiomId.DOLLAR_OV: _ref_dollar,
    AxiomId.DIAMOND: _ref_diamond,
    AxiomId.SUM_SUB_SUP: _ref_pairwise(
        lambda s, x, m: is_sum_mask(s, x, m) and not is_sup_mask(s, x, m), 1),
    AxiomId.SUP_SUB_SUM: _ref_pairwise(_sup_not_sum, 0),
    AxiomId.DAGGER: _ref_pairwise(_sup_not_sum, 1),
    AxiomId.DDAGGER: _ref_pairwise(
        lambda s, x, m: is_sum_mask(s, x, m)
        != (m != 0 and is_sup_mask(s, x, m)), 0),
    AxiomId.E_SUM: _ref_e_sum,
    AxiomId.ANTIS: _ref_mutual_parts(True),
    AxiomId.AS: _ref_mutual_parts(False),
    AxiomId.EXISTS_EXT: _ref_exists_ext,
    AxiomId.WSP: _ref_wsp,
    AxiomId.SSP: _ref_ssp,
    AxiomId.SSP_OV: _ref_ssp_ov,
    AxiomId.SSP_EXT: _ref_ssp_ext,
    AxiomId.SSP_PLUS: _ref_ssp_plus,
    AxiomId.PPP: _ref_ppp,
    AxiomId.EXT_PP: _ref_extensional(_same_proper_parts),
    AxiomId.EXT_ING: _ref_extensional(_same_ingredienses),
    AxiomId.EXT_OV: _ref_extensional(_same_overlappers),
    AxiomId.EXT_EXT: _ref_extensional(_same_exteriors),
    AxiomId.S_SUM: _ref_s_sum,
    AxiomId.C_PROD: _ref_c_prod,
    AxiomId.C_BSUM: _ref_pair_sum(True),
    AxiomId.E_BSUM: _ref_pair_sum(False),
}


def _assert_finders_match_reference(s):
    for code, reference in _REFERENCE.items():
        assert CATALOG[code].find_violation(s) == reference(s), (code, s)
    assert dollar_converse_holds(s) == _ref_dollar_converse(s), s


def test_subset_finders_match_literal_scans_on_all_small_relations():
    failing = set()
    # strict orders hold most of these principles, so the scans run long;
    # they also supply C_BSUM's witness: every bounded pair of every
    # relation on at most 3 elements has a sum
    for s in (*all_relations(3), *sweep(5, ["T", "IRR"])):
        _assert_finders_match_reference(s)
        failing.update(code for code, ref in _REFERENCE.items()
                       if ref(s) is not None)
    assert failing == set(_REFERENCE)       # every finder reports a witness


@settings(max_examples=200, deadline=None)
@given(structures_maybe_with_zero(max_n=6))
def test_subset_finders_match_literal_scans_on_random_relations(s):
    _assert_finders_match_reference(s)


@settings(max_examples=200, deadline=None)
@given(sparse_relations(7, 9))
@example(fixture("b7"))                 # holds SSP_PLUS: every pair scanned
def test_ssp_plus_matches_literal_scan_at_seven_to_nine_elements(s):
    # the finder folds the common upper bounds of each remainder; the
    # scan tests each member of it as the greatest
    assert CATALOG[AxiomId.SSP_PLUS].find_violation(s) == _ref_ssp_plus(s)


@settings(max_examples=200, deadline=None)
@given(sparse_relations(4, 12))
def test_c_prod_matches_literal_scan_at_four_to_twelve_elements(s):
    # the finder looks each pair's common ingredienses up in the set of
    # ingrediens masks; the scan compares them with every element's
    assert CATALOG[AxiomId.C_PROD].find_violation(s) == _ref_c_prod(s)


def test_subset_finders_match_literal_scans_on_fixtures():
    for s in all_fixtures():
        _assert_finders_match_reference(s)


# -- DOLLAR and DIAMOND at the benchmark's catalog sizes ----------------------
# Their finders read every subset at once off the subset planes; the
# literal scans visit every (element, subset) pair.

def _assert_dollar_and_diamond_match_reference(s):
    dollar = _ref_dollar(s)
    assert CATALOG[AxiomId.DOLLAR_EXT].find_violation(s) == dollar, s
    assert CATALOG[AxiomId.DOLLAR_OV].find_violation(s) == dollar, s
    assert CATALOG[AxiomId.DIAMOND].find_violation(s) == _ref_diamond(s), s
    assert dollar_converse_holds(s) == _ref_dollar_converse(s), s


def test_dollar_and_diamond_match_literal_scans_at_catalog_sizes():
    # full families hold both principles, so their scans run to the end;
    # without the atom d, and on raw relations, they fail at varied places
    rng = random.Random(17)
    for n in range(7, 11):
        for _ in range(2):
            for s in (_inclusion_family(rng, n, "abcd"),
                      _inclusion_family(rng, n, "abc"),
                      _raw_relation(rng, n, False),
                      _raw_relation(rng, n, True)):
                _assert_dollar_and_diamond_match_reference(s)


# -- the plane finders against the per-subset-table finders they replaced -----

def test_subset_finders_match_the_table_finders_on_4501_structures():
    # each plane finder returns the first witness the finder it replaced
    # returns, None included, for every subset-quantified code
    checked, failing = 0, set()
    for s in (*differential_structures(), *all_fixtures()):
        for code, reference in _REF_SUBSET_FINDERS.items():
            want = reference(s)
            assert CATALOG[code].find_violation(s) == want, (code, s)
            if want is not None:
                failing.add(code)
        checked += 1
    assert checked == 4501 + len(FIXTURE_NAMES)
    assert failing == set(_REF_SUBSET_FINDERS)


def test_dollar_first_witness_outside_the_ingredienses():
    # a and b share their only part c, so they overlap the same elements:
    # {b} meets the closure condition for a without being summed by it
    s = ParthoodStructure.build(["a", "b", "c"], [("c", "a"), ("c", "b")])
    _assert_dollar_and_diamond_match_reference(s)
    x, (_, mask) = CATALOG[AxiomId.DOLLAR_OV].find_violation(s)
    assert (x, mask) == (0, 0b010) and mask & ~s.ing_of[x]


def test_diamond_least_failing_mask_from_a_later_element():
    # a fails first at {b} (supremum b), c at {a} (supremum a): the witness
    # has the least failing mask, though a is the first element to fail
    s = ParthoodStructure.build(["a", "b", "c"], [("a", "c"), ("b", "a")])
    _assert_dollar_and_diamond_match_reference(s)
    assert not _diamond_fails_at(s, 0, 0b001)
    assert _diamond_fails_at(s, 0, 0b010)
    assert check_axiom(s, "DIAMOND").witness == (
        s.universe[2], s.universe[0], s.subset_from_mask(0b001))


def _diamond_fails_at(s, x, mask):
    return is_sum_mask(s, x, mask) and any(
        y != x for y in sup_candidates(s, mask))
