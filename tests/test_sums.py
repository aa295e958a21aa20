import io
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mereo import (
    DomainError, SumQueryResult, SupQueryResult, TheoryId, UniquenessFault,
    binary_sum, check_all, check_theory, complement, difference, holds,
    is_sum, is_sup, models_up_to_iso, product, product_by_cases, satisfies,
    sum_of, sup_of, theory_axioms,
)
from mereo.cli import main
from mereo.core import ParthoodStructure, _bits
from mereo.sums import (
    is_sum_mask, is_sup_mask, subset_entry, subset_planes, sum_candidates,
    sums_in, sup_candidates, sups_in,
)

from conftest import (
    FIXTURE_DIR, FIXTURE_NAMES, all_fixtures, all_relations,
    differential_structures, fixture, o_is_sum, o_is_sup, o_labels, o_pairs,
    o_subsets, sparse_relations, structures, structures_maybe_with_zero,
)


def labels_of(result):
    return [e.label for e in result.candidates]


def test_is_sum_examples():
    w4 = fixture("w4")
    for e in w4.universe:
        assert is_sum(w4, e, [e])
        assert not is_sum(w4, e, [])
    assert not is_sum(w4, "1", ["o1", "o2"])


def test_sum_of_examples():
    assert labels_of(sum_of(fixture("b7"), ["a", "b"])) == ["ab"]
    assert sum_of(fixture("b7"), ["a", "b"]).unique
    res = sum_of(fixture("w4"), ["o1", "o2"])
    assert labels_of(res) == [] and not res.unique
    # both x and y count {x} as their sum in the two-element chain
    res = sum_of(fixture("c2"), ["x"])
    assert labels_of(res) == ["x", "y"] and not res.unique


def test_sup_of_examples():
    assert labels_of(sup_of(fixture("w4"), ["o1", "o2"])) == ["1"]
    assert labels_of(sup_of(fixture("b7"), ["a", "b", "c"])) == ["abc"]
    for s in map(fixture, ("w4", "b7", "x6")):
        for e in s.universe:
            assert labels_of(sup_of(s, [e])) == [e.label]


@pytest.mark.parametrize("x,y,want", [
    ("ab", "bc", "b"),
    ("a", "ab", "a"),
    ("abc", "ab", "ab"),
])
def test_product_b7(x, y, want):
    assert product(fixture("b7"), x, y).label == want


def test_product_absent_on_x6():
    # the shared pair of atoms has no fusion, so no product
    assert product(fixture("x6"), "x", "y") is None


def test_difference_examples():
    b7, w4 = fixture("b7"), fixture("w4")
    assert difference(b7, "abc", "a").label == "bc"
    assert difference(b7, "a", "abc") is None
    assert difference(w4, "1", "o1") is None


def test_complement_examples():
    b7, w4 = fixture("b7"), fixture("w4")
    assert complement(b7, "a").label == "bc"
    assert complement(b7, "abc") is None
    assert complement(w4, "o1") is None
    assert complement(fixture("x6"), "a") is None      # no unity at all


@pytest.mark.parametrize("name", ["x6", "b7"])
def test_complement_refuses_a_foreign_element_with_or_without_a_unity(name):
    s = fixture(name)
    assert (s.unity() is None) == (name == "x6")
    for x in ("bogus", 99):
        with pytest.raises(DomainError):
            complement(s, x)


def test_complement_is_one_query_that_agrees_with_difference(monkeypatch):
    # complement reads its sum itself, so a traced run counts one query
    # for it, and a fault still names the difference
    def no_difference(*args):
        raise AssertionError("complement called sums.difference")
    monkeypatch.setattr(sys.modules["mereo.sums"], "difference",
                        no_difference)
    for s in all_relations(3):
        u = s.unity()
        for i in range(s.n):
            got = _outcome(complement, s, i)
            if u is None or u.index == i:
                assert got is None
            else:
                assert got == _outcome(difference, s, u, i), (s, i)
    # no relation on three elements gives a complement several sums
    s = ParthoodStructure.from_mask(4, 2202)
    assert _outcome(complement, s, 2) == _outcome(difference, s, 3, 2) \
        == ("fault", "difference", s.universe[:2])


def test_binary_sum_examples():
    assert binary_sum(fixture("b7"), "a", "b").label == "ab"
    assert binary_sum(fixture("w4"), "o1", "o2") is None
    for e in fixture("b7").universe:
        assert binary_sum(fixture("b7"), e, e) == e


def test_uniqueness_fault_is_distinct_from_absence():
    c2 = fixture("c2")
    with pytest.raises(UniquenessFault) as exc:
        binary_sum(c2, "x", "x")
    assert [e.label for e in exc.value.candidates] == ["x", "y"]
    # absence stays a plain None
    assert binary_sum(fixture("w4"), "o1", "o2") is None


@settings(max_examples=80, deadline=None)
@given(structures(max_n=4))
def test_sum_and_sup_match_naive_oracle(s):
    labels, pairs = o_labels(s), o_pairs(s)
    for members in o_subsets(labels):
        for x in labels:
            assert is_sum(s, x, members) == o_is_sum(labels, pairs, x, members)
            assert is_sup(s, x, members) == o_is_sup(labels, pairs, x, members)


@settings(max_examples=100, deadline=None)
@given(structures(max_n=5))
def test_standing_sum_facts(s):
    for x in s.universe:
        assert is_sum(s, x, [x])
        assert is_sum(s, x, s.ingredienses(x))
        if len(s.parts_of(x)):
            assert is_sum(s, x, s.parts_of(x))
        assert not is_sum(s, x, [])
    whole = [e.label for e in s.universe]
    assert {e.label for e in sum_of(s, whole).candidates} \
        == {e.label for e in s.universe if s.is_unity(e)}


def _subset_masks(s):
    return range(1 << s.n)


def test_ssp_gives_sum_within_sup_and_closure_equivalences():
    from oracles import dollar_converse_holds
    for s in map(fixture, ("w4", "b7", "x6", "b3", "s1")):
        assert holds(s, "SSP")
        for mask in _subset_masks(s):
            sums = set(labels_of(sum_of(s, mask)))
            sups = set(labels_of(sup_of(s, mask)))
            assert sums <= sups
        assert holds(s, "DOLLAR_EXT") and holds(s, "DOLLAR_OV")
        assert dollar_converse_holds(s)


def test_ddagger_fixtures_have_coinciding_sums_and_sups():
    for s in map(fixture, ("b7", "b3", "s1", "triples8")):
        assert holds(s, "DDAGGER")
        for mask in range(1, 1 << s.n):
            assert set(labels_of(sum_of(s, mask))) \
                == set(labels_of(sup_of(s, mask)))


def test_grzegorczyk_product_formula_on_gm_fixtures():
    gm = theory_axioms("GM")
    for s in (fixture("b3"), fixture("b7"), fixture("s1")):
        assert satisfies(s, gm)
        for x in s.universe:
            for y in s.universe:
                if s.ov(x, y):
                    assert product_by_cases(s, x, y) == product(s, x, y)


def test_deterministic_candidate_order():
    # candidates come back in universe order
    s = ParthoodStructure.build(["p", "q"], [("p", "q"), ("q", "p")])
    res = sum_of(s, ["p"])
    assert labels_of(res) == ["p", "q"]


# -- the subset planes against the literal candidate lists -------------------
# The test names keep the word "tables" from the per-subset tables the
# planes replaced.

def _plane_candidates(s):
    """Per mask, the sums and the suprema read off the two planes."""
    sums, sups = subset_planes(s), subset_planes(s, True)
    for mask in range(1 << s.n):
        yield mask, ([x for x in range(s.n) if sums[x] >> mask & 1],
                     [x for x in range(s.n) if sups[x] >> mask & 1])


def _assert_tables_match_candidates(s):
    for mask, (sums, sups) in _plane_candidates(s):
        assert sums == sum_candidates(s, mask), (s, mask)
        assert sups == sup_candidates(s, mask), (s, mask)


def test_subset_tables_match_literal_candidates_on_all_small_relations():
    empty_sups = 0
    for s in all_relations(3):
        _assert_tables_match_candidates(s)
        empty_sups += bool(sup_candidates(s, 0))
    assert empty_sups > 0           # structures with a zero were covered


@settings(max_examples=150, deadline=None)
@given(structures_maybe_with_zero(max_n=6))
def test_subset_tables_match_literal_candidates_on_random_relations(s):
    _assert_tables_match_candidates(s)


def _assert_planes_fold_each_subset(s):
    """Each planes entry is a tuple of n ints of at most 2^n bits, and
    bit m of element x's planes is what the (ub, ov) rule reads off
    subset_entry(s, m)."""
    planes = (subset_planes(s), subset_planes(s, True))
    for plane in planes:
        assert type(plane) is tuple and len(plane) == s.n
        assert {type(p) for p in plane} == {int}
        assert all(0 <= p < 1 << (1 << s.n) for p in plane)
    for mask in range(1 << s.n):
        ub, ov = subset_entry(s, mask)
        assert [p >> mask & 1 for p in planes[0]] \
            == [sums_in(s, ub, ov) >> x & 1 for x in range(s.n)], (s, mask)
        assert [p >> mask & 1 for p in planes[1]] \
            == [sups_in(s, ub) >> x & 1 for x in range(s.n)], (s, mask)


@settings(max_examples=100, deadline=None)
@given(st.one_of(structures_maybe_with_zero(max_n=10), sparse_relations(9, 12)))
def test_subset_planes_are_int_tuples_at_every_size_and_fold_each_subset(s):
    # the high submask planes enter above eight elements; every mask, 0
    # and the universe included
    _assert_planes_fold_each_subset(s)


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_subset_tables_of_the_empty_and_full_relations(n):
    empty = ParthoodStructure.from_mask(n, 0)
    full = ParthoodStructure.from_mask(n, (1 << n * n) - 1)
    for s in (empty, full):
        _assert_planes_fold_each_subset(s)
    # each element sums and bounds only its own singleton; in the full
    # relation each sums every nonempty subset and bounds every subset
    assert subset_planes(empty) == subset_planes(empty, True) \
        == tuple(1 << (1 << x) for x in range(n))
    every = (1 << (1 << n)) - 1
    assert subset_planes(full) == (every - 1,) * n
    assert subset_planes(full, True) == (every,) * n


def test_subset_tables_are_built_once_per_structure():
    labels = [e.label for e in fixture("b7").universe]
    s = ParthoodStructure(labels, fixture("b7").rows)
    assert s._subset_planes is None
    sums = subset_planes(s)
    planes = s._subset_planes
    assert planes == [sums, None]
    assert subset_planes(s) is sums
    sups = subset_planes(s, True)
    assert s._subset_planes is planes and planes == [sums, sups]
    assert subset_planes(s, True) is sups
    assert len(sums) == len(sups) == s.n
    # an equal structure built afresh starts without them
    assert ParthoodStructure(labels, fixture("b7").rows)._subset_planes is None


def test_plane_bits_equal_the_literal_sum_and_sup_definitions():
    # every element and every mask of the differential structures and the
    # fixtures, past eight elements too, where SUB multiplies a low and a
    # high submask plane
    sizes = set()
    for s in (*differential_structures(), *all_fixtures()):
        sums, sups = subset_planes(s), subset_planes(s, True)
        masks = range(1 << s.n)
        for x in range(s.n):
            assert sums[x] == sum(is_sum_mask(s, x, m) << m for m in masks), \
                (s, x)
            assert sups[x] == sum(is_sup_mask(s, x, m) << m for m in masks), \
                (s, x)
        sizes.add(s.n)
    assert sizes == set(range(1, 13))


# -- the queries and the algebra against the literal candidate lists ---------

def _ref_unique_sum(s, mask, operation):
    cands = sum_candidates(s, mask)
    if len(cands) > 1:
        raise UniquenessFault(operation, tuple(s.universe[i] for i in cands))
    return s.universe[cands[0]] if cands else None


def _ref_product(s, i, j):
    return _ref_unique_sum(s, s.ing_of[i] & s.ing_of[j], "product")


def _ref_difference(s, i, j):
    mask = 0
    for u in _bits(s.ing_of[i]):
        if not s.ing_of[u] & s.ing_of[j]:
            mask |= 1 << u
    return _ref_unique_sum(s, mask, "difference")


def _ref_complement(s, i):
    u = s.unity()
    if u is None or u.index == i:
        return None
    return _ref_difference(s, u.index, i)


def _ref_binary_sum(s, i, j):
    return _ref_unique_sum(s, (1 << i) | (1 << j), "binary_sum")


def _ref_product_by_cases(s, i, j):
    if s.ing(i, j):
        return s.universe[i]
    if s.ing(j, i):
        return s.universe[j]
    if s.pov(i, j):
        inner = _ref_difference(s, i, j)
        return None if inner is None else _ref_difference(s, i, inner.index)
    return None


_BINARY = ((product, _ref_product), (difference, _ref_difference),
           (binary_sum, _ref_binary_sum),
           (product_by_cases, _ref_product_by_cases))


def _outcome(op, *args):
    """The result, or the operation and candidates of the fault raised."""
    try:
        return op(*args)
    except UniquenessFault as fault:
        return ("fault", fault.operation, fault.candidates)


def _assert_queries_match_candidates(s):
    for mask in range(1 << s.n):
        sums, sups = sum_candidates(s, mask), sup_candidates(s, mask)
        assert sum_of(s, mask) == SumQueryResult(
            tuple(s.universe[i] for i in sums), len(sums) == 1), (s, mask)
        assert sup_of(s, mask) == SupQueryResult(
            tuple(s.universe[i] for i in sups), len(sups) == 1), (s, mask)
        for x in range(s.n):
            assert is_sum(s, x, mask) == (x in sums), (s, x, mask)
            assert is_sup(s, x, mask) == (x in sups), (s, x, mask)
    for i in range(s.n):
        assert _outcome(complement, s, i) == _outcome(_ref_complement, s, i)
        for j in range(s.n):
            for op, ref in _BINARY:
                assert _outcome(op, s, i, j) == _outcome(ref, s, i, j), \
                    (op.__name__, s, i, j)


def test_queries_and_algebra_match_literal_candidates_on_small_structures():
    faults = set()
    for s in all_relations(3):
        _assert_queries_match_candidates(s)
        for i in range(s.n):
            for j in range(s.n):
                for op, _ in _BINARY:
                    found = _outcome(op, s, i, j)
                    if isinstance(found, tuple):
                        faults.add(found[1])
    # every operation built on a unique sum raised its fault somewhere
    assert faults == {"product", "difference", "binary_sum"}
    for n in range(1, 6):
        for s in models_up_to_iso(n, ["T", "IRR"]):
            _assert_queries_match_candidates(s)


@settings(max_examples=100, deadline=None)
@given(structures_maybe_with_zero(max_n=6))
def test_queries_and_algebra_match_literal_candidates_on_random_relations(s):
    _assert_queries_match_candidates(s)


def test_queries_and_algebra_match_literal_candidates_on_fixtures():
    for s in all_fixtures():
        _assert_queries_match_candidates(s)


# -- no production path reaches the literal definitions ----------------------

_LITERAL = ("cover_mask", "is_sum_mask", "is_sup_mask", "sum_candidates",
            "sup_candidates")


def _production_outputs():
    """check_all, theory verdicts, the algebra and every CLI command on
    every fixture, plus two searches over sum axioms."""
    runs = [["implies", "--ambient", "T,IRR", "--from", "DDAGGER",
             "--to", "C_PROD", "--max-n", "5"],
            ["enumerate", "--n", "4", "--theory", "GMU", "--up-to-iso"]]
    outputs = []
    for name in FIXTURE_NAMES:
        s, path = fixture(name), str(FIXTURE_DIR / f"{name}.txt")
        labels = [e.label for e in s.universe]
        pair = f"{labels[0]},{labels[-1]}"
        outputs.append((check_all(s), [check_theory(s, t) for t in TheoryId]))
        outputs.append([_outcome(op, s, i, j) for op, _ in _BINARY
                        for i in range(s.n) for j in range(s.n)])
        outputs.append([_outcome(complement, s, i) for i in range(s.n)])
        runs += [["axioms", path], ["lattice", path, "--tarski"],
                 ["localtrans", path], ["dot", path]]
        runs += [["check", path, "--theory", t.value] for t in TheoryId]
        runs += [[query, path, "--set", subset, *mode]
                 for query in ("sum", "sup")
                 for subset in (pair, ",".join(labels))
                 for mode in ((), ("--json",))]
        runs += [["alg", path, "--op", op, "--args",
                  labels[0] if op == "complement" else pair]
                 for op in ("product", "difference", "complement", "bsum")]
    for argv in runs:
        buf = io.StringIO()
        outputs.append((argv, main(argv, out=buf), buf.getvalue()))
    return outputs


def test_production_paths_never_call_the_literal_definitions(monkeypatch):
    expected = _production_outputs()

    def stub(*args, **kwargs):
        raise AssertionError("a literal sum definition was called")

    literals = {getattr(sys.modules["mereo.sums"], name): name
                for name in _LITERAL}
    replaced = set()
    for modname, module in list(sys.modules.items()):
        if modname != "mereo" and not modname.startswith("mereo."):
            continue
        for key, value in list(vars(module).items()):
            if callable(value) and value in literals:
                monkeypatch.setattr(module, key, stub)
                replaced.add(literals[value])
    assert replaced == set(_LITERAL)
    assert _production_outputs() == expected
