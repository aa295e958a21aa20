import copy
import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import pickle
import random
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mereo import (
    AxiomId, DomainError, ParthoodStructure, SearchResult, SearchSpec,
    TheoryId, canonical_form, check_axiom, count_models, enumerate_models,
    find_model, is_canonical, satisfies, theory_axioms, verify_implication,
)
from mereo import axioms, core, search, sums
from mereo.axioms import CATALOG_ORDER, CatalogError, axiom_id
from mereo.search import (
    _all_masks, _canonical_masks, _down_sets, _poset_classes,
    _transitive_masks, _twin_masks,
)
from conftest import fixture, mask_tuples
from oracles import (
    _REFERENCE, _canonical_form_scan, _is_canonical_scan,
    _literal_split_constraints, _perm_cell_maps, _plain_down_sets, _remap,
    enumerate_model_masks, least_countermodel_size,
)


def _masks(walk):
    """The encodings of a walk that yields each with its rows, lazily."""
    return (m for m, _ in walk)


# -- naive oracle: filter every labelled relation, group by permutation -------

def naive_class_count(n, keep):
    classes = set()
    for mask in range(1 << (n * n)):
        s = ParthoodStructure.from_mask(n, mask)
        if keep(s):
            classes.add(_canonical_form_scan(n, mask))
    return len(classes)


def _relabel(n, mask, p):
    out = 0
    for i in range(n):
        for j in range(n):
            if mask >> (i * n + j) & 1:
                out |= 1 << (p[i] * n + p[j])
    return out


SPO = ("T", "IRR")


# -- reference: every naturally labelled strict partial order -----------------

def _order_compatible_posets(n):
    """Strict partial orders whose parts have higher indices than wholes
    (A006455).

    Every strict partial order is isomorphic to one of these (relabel
    along a linear extension), so their canonical forms are the classes.
    Only strict-lower-triangle cells may hold edges; rows below i and
    row-i cells left of the walk are decided.
    """
    cells = [(i, j) for i in range(1, n) for j in range(i)]
    rows = [0] * n
    out = []

    def walk(k):
        if k == len(cells):
            out.append(sum(rows[i] << (i * n) for i in range(n)))
            return
        i, j = cells[k]
        # skipping i P j is illegal when a decided m gives i P m P j
        legal0 = True
        m = rows[i]
        while m:
            low = m & -m
            if rows[low.bit_length() - 1] >> j & 1:
                legal0 = False
                break
            m ^= low
        if legal0:
            walk(k + 1)
        # adding i P j forces i P z for every decided j P z
        if not rows[j] & ~rows[i]:
            rows[i] |= 1 << j
            walk(k + 1)
            rows[i] &= ~(1 << j)

    walk(0)
    return out


# -- reference: one-point extension with twin pruning only --------------------

def _parent_order(m, parent):
    """The rows and parts_in of the class parent on m elements."""
    full = (1 << m) - 1
    rows = [parent >> (i * m) & full for i in range(m)]
    return rows, [sum(1 << z for z in range(m) if rows[z] >> x & 1)
                  for x in range(m)]


def _twin_pruned_poset_classes(n):
    """The poset classes at n as the one-point extension found them
    before children were ranked: every class at n-1 extended over every
    down-set, twin pruning aside, each child canonicalised."""
    if n == 1:
        return (0,)
    m = n - 1
    full = (1 << m) - 1
    children = set()
    for parent in _twin_pruned_poset_classes(m):
        rows, parts_in = _parent_order(m, parent)
        twins = {t for t in _twin_masks(m, rows, full) if t & (t - 1)}
        for down in _plain_down_sets(parts_in):
            if any(t & ((1 << (down & t).bit_length()) - 1) != down & t
                   for t in twins):
                continue
            children.add(canonical_form(n, sum(
                (r | 1 << m if down >> i & 1 else r) << (i * n)
                for i, r in enumerate(rows))))
    return tuple(sorted(children))


def test_spo_counts_match_naive_oracle():
    # strict partial orders up to isomorphism: 1, 2, 5, 16
    expected = {1: 1, 2: 2, 3: 5, 4: 16}
    for n, want in expected.items():
        assert count_models(n, SPO) == want
        if n <= 3:
            got = naive_class_count(
                n, lambda s: satisfies(s, ["T", "IRR"]))
            assert got == want


def test_labelled_spo_counts_match_naive_filter():
    # all (not up-to-iso) strict partial orders: 1, 3, 19, 219
    expected = {1: 1, 2: 3, 3: 19, 4: 219}
    for n, want in expected.items():
        assert count_models(n, SPO, up_to_iso=False) == want
        if n <= 3:
            naive = sum(
                1 for mask in range(1 << (n * n))
                if satisfies(ParthoodStructure.from_mask(n, mask),
                             ["T", "IRR"]))
            assert naive == want


def test_enumerate_examples():
    assert count_models(3, SPO) == 5
    assert count_models(1, SPO) == 1
    cm = theory_axioms("CM")
    ms = list(enumerate_models(3, cm))
    assert len(ms) == 1
    assert canonical_form(3, ms[0].relation_mask) \
        == canonical_form(3, fixture("b3").relation_mask)
    for n in (2, 4, 5):
        assert count_models(n, cm) == 0


def test_cm_counts_against_naive_oracle_small():
    cm = theory_axioms("CM")
    for n, want in [(1, 1), (2, 0), (3, 1), (4, 0)]:
        assert naive_class_count(n, lambda s: satisfies(s, cm)) == want


def test_canonical_outputs_are_pairwise_nonisomorphic():
    for n in range(1, 5):
        masks = enumerate_model_masks(n, SPO)
        assert masks == sorted(masks)
        for m in masks:
            assert is_canonical(n, m)
            assert canonical_form(n, m) == m
        assert len(set(canonical_form(n, m) for m in masks)) == len(masks)


def test_enumeration_is_deterministic():
    for constraints in (SPO, ("T",), ()):
        for n in (2, 3, 4):
            one = enumerate_model_masks(n, constraints)
            again = enumerate_model_masks(n, constraints)
            assert one == again


def test_find_model_is_deterministic():
    spec = SearchSpec(max_n=5, require=("T", "IRR", "U_SUM"),
                      forbid=("PPP",))
    first, again = find_model(spec), find_model(spec)
    assert first.found == again.found
    assert first.explored == again.explored


def test_yielded_structures_repass_constraints():
    cm = theory_axioms("CM")
    for n in (1, 3):
        for s in enumerate_models(n, cm):
            assert satisfies(s, cm)
    for s in enumerate_models(4, SPO):
        assert satisfies(s, SPO)


def test_find_model_ssp_without_products():
    spec = SearchSpec(max_n=6, require=("T", "IRR", "SSP"),
                      forbid=("C_PROD",))
    r = find_model(spec)
    assert r.found is not None and not r.exhausted
    assert r.found.n == 6
    assert satisfies(r.found, ["T", "IRR", "SSP"])
    assert not satisfies(r.found, ["C_PROD"])
    # the found witness is the crossing-composites structure up to iso
    assert canonical_form(6, r.found.relation_mask) \
        == canonical_form(6, fixture("x6").relation_mask)


def test_find_model_mem_without_dagger():
    spec = SearchSpec(max_n=6, require=theory_axioms("MEM"),
                      forbid=(AxiomId.DAGGER,))
    r = find_model(spec)
    assert r.found is not None and r.found.n <= 6


def test_find_model_u_sum_without_ppp():
    spec = SearchSpec(max_n=5, require=("T", "IRR", "U_SUM"),
                      forbid=("PPP",))
    r = find_model(spec)
    assert r.found is not None and r.found.n <= 5


def test_find_model_exhaustion():
    spec = SearchSpec(max_n=3, require=("T", "IRR"), forbid=("AC",))
    r = find_model(spec)
    assert r.found is None and r.exhausted
    assert r.explored == 1 + 2 + 5


def _count_builds(monkeypatch):
    builds = [0]
    init = ParthoodStructure.__init__

    def counted(self, labels, rows):
        builds[0] += 1
        init(self, labels, rows)

    monkeypatch.setattr(ParthoodStructure, "__init__", counted)
    return builds


def test_each_candidate_is_built_once(monkeypatch):
    # every transitive relation on 4 elements (A006905: 3,994) is built
    # once for its U_SUM check, and a model is handed on as that structure
    builds = _count_builds(monkeypatch)
    masks = enumerate_model_masks(4, ("T", "U_SUM"), up_to_iso=False)
    assert builds[0] == 3994
    builds[0] = 0
    models = list(enumerate_models(4, ("T", "U_SUM"), up_to_iso=False))
    assert builds[0] == 3994
    assert [s.relation_mask for s in models] == masks


def _count_element_ids(monkeypatch):
    made = [0]
    element_id = core.ElementId

    def counted(*args):
        made[0] += 1
        return element_id(*args)

    monkeypatch.setattr(core, "ElementId", counted)
    return made


@pytest.mark.parametrize("spec", [
    SearchSpec(max_n=4, ambient=("T", "IRR"), require=("SSP",),
               forbid=("WSP",)),
    SearchSpec(max_n=4, ambient=("T",), require=("ANTIS",),
               forbid=("U_SUP",)),
    SearchSpec(max_n=4, ambient=("T",), require=("ANTIS",),
               forbid=("U_SUP",), up_to_iso=False),
    SearchSpec(max_n=3, require=("ANTIS",), forbid=("EXT_ING",)),
    SearchSpec(max_n=3, require=("ANTIS",), forbid=("EXT_ING",),
               up_to_iso=False),
], ids=["posets", "transitive", "transitive-labelled", "orderly",
        "all-labelled"])
def test_exhausted_search_builds_no_labels(spec, monkeypatch):
    # the labels an earlier test read on a shared model stay with it
    search._iso_candidates.cache_clear()
    made = _count_element_ids(monkeypatch)
    r = find_model(spec)
    assert r.found is None and r.exhausted and r.explored > 0
    assert made[0] == 0
    # a reported model builds its labels when they are read
    found = find_model(SearchSpec(max_n=3, require=("T", "IRR"),
                                  forbid=("NO_ZERO",))).found
    assert made[0] == 0
    assert [e.label for e in found.universe] == ["a", "b"]
    assert made[0] == 2


def test_search_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(max_n=0)
    with pytest.raises(ValueError):
        SearchSpec(max_n=3, require=("SSP",), forbid=("SSP",))
    # no model of the ambient can violate it, so the search could only
    # walk every class up to max_n
    with pytest.raises(ValueError, match="U_SUM is also in ambient"):
        SearchSpec(max_n=3, ambient=("T", "U_SUM"), forbid=("u_sum",))
    with pytest.raises(ValueError, match="T is also in ambient"):
        verify_implication(["T"], ["WSP"], "T", max_n=2)


def test_verify_implication_resolves_each_code_once(monkeypatch):
    seen = []

    def counted(a):
        seen.append(a)
        return axiom_id(a)

    monkeypatch.setattr(search, "axiom_id", counted)
    verify_implication(["T"], ["WSP", "irr"], "S_SUM", max_n=2)
    by_verify = list(seen)
    seen.clear()
    find_model(SearchSpec(2, ["T"], ["WSP", "irr"], ["S_SUM"]))
    assert by_verify == seen
    # unknown codes are refused ambient first, then hypotheses, then the
    # conclusion
    for args, bad in (((["NO1"], ["NO2"], "NO3"), "NO1"),
                      ((["T"], ["WSP", "NO2"], "NO3"), "NO2"),
                      ((["T"], ["WSP"], "NO3"), "NO3")):
        with pytest.raises(CatalogError,
                           match=f"^unknown axiom code '{bad}'$"):
            verify_implication(*args, max_n=2)

def test_verify_implication_confirms_and_refutes():
    ok = verify_implication(["T"], ["WSP"], "S_SUM", max_n=4)
    assert ok.exhausted and ok.found is None
    refuted = verify_implication(["T", "IRR"], ["SSP"], "C_PROD", max_n=6)
    assert refuted.found is not None
    assert satisfies(refuted.found, ["T", "IRR", "SSP"])
    assert not satisfies(refuted.found, ["C_PROD"])


def test_verify_implication_ssp_plus_gives_coincidence():
    r = verify_implication(["T", "IRR"], ["SSP_PLUS"], "DDAGGER", max_n=5)
    assert r.exhausted and r.found is None


def test_transitive_generation_matches_all_mask_filter():
    # cross-check the pruned walk against the brute filter
    for n in (2, 3):
        pruned = set(enumerate_model_masks(n, ("T",), up_to_iso=False))
        brute = {mask for mask in range(1 << (n * n))
                 if satisfies(ParthoodStructure.from_mask(n, mask), ["T"])}
        assert pruned == brute


def test_order_compatible_path_matches_general_path():
    # the poset classes agree with canonical filtering; T+AS (the same
    # models as SPO) takes the transitive walk and is_canonical
    for n in (1, 2, 3, 4):
        assert enumerate_model_masks(n, SPO) \
            == enumerate_model_masks(n, ("T", "AS"))


def test_poset_classes_match_canonicalised_labelled_posets():
    # the one-point extension finds exactly the classes of the naturally
    # labelled posets, and of every labelled poset from the transitive walk
    for n in range(1, 7):
        want = sorted({canonical_form(n, m)
                       for m in _order_compatible_posets(n)})
        assert list(_poset_classes(n)) == want
        if n <= 5:
            assert want == sorted({canonical_form(n, m) for m
                                   in _masks(_transitive_masks(n, True))})


def test_ranked_extension_matches_twin_pruned_reference():
    # skipping children whose new element is outranked loses no class
    for n in range(1, 8):
        assert _poset_classes(n) == _twin_pruned_poset_classes(n)


def test_down_sets_are_the_twin_pruned_down_sets_with_their_ranks():
    # in the plain generator's order, each with the pair (size, summed
    # part counts) packed in one int and its cells in column n-1
    for n in range(2, 8):
        m = n - 1
        for parent in _poset_classes(m):
            rows, parts_in = _parent_order(m, parent)
            twins = _twin_masks(m, rows, (1 << m) - 1)
            want = []
            for down in _plain_down_sets(parts_in):
                if any(t & ((1 << (down & t).bit_length()) - 1) != down & t
                       for t in twins):
                    continue
                members = [x for x in range(m) if down >> x & 1]
                rank = sum(n * n + parts_in[x].bit_count() for x in members)
                column = sum(1 << (x * n + m) for x in members)
                want.append((down, rank, column))
            assert _down_sets(parts_in, twins, n) == want


def _class_digest(n):
    return hashlib.sha256(
        ",".join(map(str, _poset_classes(n))).encode()).hexdigest()


def test_poset_class_lists_are_pinned():
    # the class tuples themselves, not only their counts (n=9 is in CI)
    assert _class_digest(7) == ("86a4dc375fcd25fe49320d4bc2e8659e"
                                "4f07281865f9e52b868decdc31845c1a")
    assert _class_digest(8) == ("423703e6d03dd178234e75dfb8db2051"
                                "0df9a6830b7d5c206d071428466260b2")


@st.composite
def labelled_strict_orders(draw, min_n=1, max_n=7):
    # the transitive closure of a random relation on a random linear
    # order of the elements is a strict partial order
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    order = draw(st.permutations(range(n)))
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                rows[order[i]] |= 1 << order[j]
    for k in order[::-1]:
        for x in range(n):
            if rows[x] >> k & 1:
                rows[x] |= rows[k]
    return n, sum(r << (x * n) for x, r in enumerate(rows))


@settings(max_examples=150, deadline=None)
@given(labelled_strict_orders())
def test_random_strict_order_has_its_class_in_the_poset_classes(case):
    n, mask = case
    assert satisfies(ParthoodStructure.from_mask(n, mask), SPO)
    assert canonical_form(n, mask) in _poset_classes(n)


def test_poset_classes_canonicalise_each_class_about_once(monkeypatch):
    # 405 classes for n <= 6, 404 of them built by extension; twin
    # pruning alone canonicalised 730 children
    calls = []
    canon = search.canonical_form

    def counted(n, mask, *vouched):
        calls.append(vouched)
        return canon(n, mask, *vouched)

    monkeypatch.setattr(search, "canonical_form", counted)
    _poset_classes.cache_clear()
    assert sum(len(_poset_classes(n)) for n in range(1, 7)) == 405
    assert len(calls) <= 445
    # every child goes with its rows and twins
    assert all(len(v) == 2 and None not in v for v in calls)


def test_poset_walk_hands_canonical_form_the_rows_and_twins_of_each_child(
        monkeypatch):
    # each child of the walks to n=7, recorded as the walk canonicalises
    # it, has the vouched rows and twins and the public path's form
    seen = []
    canon = search.canonical_form

    def recorded(n, mask, rows, twins):
        seen.append((n, mask, rows, twins))
        return canon(n, mask, rows, twins)

    monkeypatch.setattr(search, "canonical_form", recorded)
    for n in range(2, 8):
        # the walk at n alone, its parents read from the cache
        assert _poset_classes.__wrapped__(n) == _poset_classes(n)
    monkeypatch.undo()
    assert len(seen) > 2045
    for n, mask, rows, twins in seen:
        assert rows == _rows(n, mask)
        assert twins == _twin_masks(n, rows, sum(
            1 << x for x, r in enumerate(rows) if r))
        assert canonical_form(n, mask, rows, twins) == canonical_form(n, mask)


@st.composite
def posets_with_a_down_set(draw, max_m=6):
    """A strict order on m elements blown up from one on fewer kinds
    (elements of one kind unrelated, each related to the others as its
    kind is, so twins), as its rows, and one of its down-sets."""
    k, kinds = draw(labelled_strict_orders(max_n=4))
    m = draw(st.integers(min_value=k, max_value=max_m))
    kind = draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))
    rows = [sum(1 << y for y in range(m)
                if kinds >> (kind[x] * k + kind[y]) & 1) for x in range(m)]
    pick = draw(st.integers(0, (1 << m) - 1))
    down = pick | sum(1 << x for x in range(m) if rows[x] & pick)
    return m, rows, down


@settings(max_examples=200, deadline=None)
@given(posets_with_a_down_set())
def test_a_childs_twins_are_its_parents_split_by_the_down_set(case):
    # a new maximal element over a down-set of any strict order, not only
    # over the walk's parents and twin-pruned down-sets: the child's twins
    # derived from the parent's as _poset_classes derives them are
    # _twin_masks' over the child's non-sinks, and canonical_form reads
    # them as its public path does
    m, rows, down = case
    n = m + 1
    twins = _twin_masks(m, rows, (1 << m) - 1)
    new = 1 << m
    child_rows = [r | new if down >> i & 1 else r
                  for i, r in enumerate(rows)] + [0]
    child_twins = [twins[i] & down if down >> i & 1
                   else twins[i] & ~down if rows[i] else 1 << i
                   for i in range(m)] + [new]
    mask = sum(r << (x * n) for x, r in enumerate(child_rows))
    assert child_twins == _twin_masks(n, child_rows, sum(
        1 << x for x, r in enumerate(child_rows) if r))
    assert canonical_form(n, mask, child_rows, child_twins) == (
        canonical_form(n, mask))


def test_census_counts_match_oeis():
    # A000112: unlabelled posets; A006455: naturally labelled posets
    unlabelled = [1, 2, 5, 16, 63, 318, 2045, 16999]
    for n, want in enumerate(unlabelled, start=1):
        assert len(_poset_classes(n)) == want
        assert count_models(n, SPO) == want
    natural = [1, 2, 7, 40, 357, 4824, 96428]
    for n, want in enumerate(natural, start=1):
        assert len(_order_compatible_posets(n)) == want
    # A000595: binary relations; A000273: directed graphs (irreflexive)
    relations = [2, 10, 104, 3044]
    for n, want in enumerate(relations, start=1):
        assert count_models(n, ()) == want
    digraphs = [1, 3, 16, 218, 9608]
    for n, want in enumerate(digraphs, start=1):
        assert count_models(n, ("IRR",)) == want
    # A006905: transitive relations; A001035: labelled posets (the
    # irreflexive transitive relations); A091073: transitive relations up
    # to isomorphism
    transitive = [2, 13, 171, 3994, 154303]
    for n, want in enumerate(transitive, start=1):
        assert sum(1 for _ in _transitive_masks(n, False)) == want
    labelled_posets = [1, 3, 19, 219, 4231, 130023]
    for n, want in enumerate(labelled_posets, start=1):
        assert sum(1 for _ in _transitive_masks(n, True)) == want
    transitive_classes = [2, 8, 39, 242, 1895]
    for n, want in enumerate(transitive_classes, start=1):
        assert count_models(n, ("T",)) == want


# -- refinement canonical form against the n! scan ----------------------------

def test_canonical_form_matches_scan_on_small_relations():
    for n in range(1, 4):
        for mask in range(1 << (n * n)):
            assert canonical_form(n, mask) == _canonical_form_scan(n, mask)


def test_canonical_form_matches_scan_on_posets_and_transitive():
    for n in range(1, 6):
        for mask in _order_compatible_posets(n):
            assert canonical_form(n, mask) == _canonical_form_scan(n, mask)
    for mask in _masks(_transitive_masks(4, False)):
        assert canonical_form(4, mask) == _canonical_form_scan(4, mask)
    # the classes with two or more maximal elements, which are the sinks
    # placed in one cell at the top labels.  The scan is the same on
    # every relabelling, so it runs once per class; at n=7, where it
    # takes about 8 ms, on every 16th class
    for n in range(2, 8):
        full = (1 << n) - 1
        classes = [c for c in _poset_classes(n)
                   if sum(not c >> (x * n) & full for x in range(n)) > 1]
        for i, c in enumerate(classes):
            if n < 7 or i % 16 == 0:
                assert _canonical_form_scan(n, c) == c
            for p in _fixed_relabellings(n):
                assert canonical_form(n, _relabel(n, c, p)) == c


def test_canonical_form_matches_scan_on_tie_heavy_inputs():
    # large automorphism groups: twin pruning must keep the result exact
    n = 7
    loops = sum(1 << (i * n + i) for i in range(n))
    cases = [
        0,
        (1 << (n * n)) - 1,
        loops,
        sum(1 << (i * n) for i in range(1, n)),             # top is 0
        sum(1 << (i * n + n - 1) for i in range(n - 1)),    # top is n-1
    ]
    for mask in cases:
        assert canonical_form(n, mask) == _canonical_form_scan(n, mask)
    # several live branches turn discrete at the same level
    for n in range(5, 8):
        for base in _tie_heavy_relations(n):
            for p in _fixed_relabellings(n):
                mask = _relabel(n, base, p)
                assert canonical_form(n, mask) == _canonical_form_scan(n, mask)


@st.composite
def large_orders_with_loops(draw):
    n, mask = draw(labelled_strict_orders(min_n=9, max_n=12))
    loops = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    mask |= sum(1 << (x * n + x) for x in range(n) if loops >> x & 1)
    return n, mask, draw(st.permutations(range(n)))


# four minimal elements under eight maximal ones, each over its own
# down-set: eight sinks, no two of them twins, which labelled one at a
# time would open up to 8! branches
_WIDE_12 = sum(1 << (x * 12 + 4 + j)
               for j, down in enumerate((1, 2, 4, 8, 3, 6, 12, 9))
               for x in range(4) if down >> x & 1)


@settings(max_examples=100, deadline=None)
@given(large_orders_with_loops())
@example((12, _WIDE_12, list(range(11, -1, -1))))
def test_canonical_form_is_a_relabelling_invariant_minimum_beyond_the_scan(
        case):
    # n = 9..12, where the n! scan cannot run
    n, mask, p = case
    canon = canonical_form(n, mask)
    assert canon <= mask
    assert canonical_form(n, canon) == canon
    assert canonical_form(n, _relabel(n, mask, p)) == canon


def _assert_twin_masks_match_swaps(n, mask, among):
    # twins are the pairs in among whose swap relabels mask to itself
    full = (1 << n) - 1
    succ = [mask >> (x * n) & full for x in range(n)]
    want = [1 << x for x in range(n)]
    for x, y in itertools.combinations(range(n), 2):
        swap = list(range(n))
        swap[x], swap[y] = y, x
        if among >> x & among >> y & 1 and _relabel(n, mask, swap) == mask:
            want[x] |= 1 << y
            want[y] |= 1 << x
    assert _twin_masks(n, succ, among) == want


def test_twin_masks_pair_only_the_given_elements():
    for n in range(1, 4):
        for mask in range(1 << (n * n)):
            for among in range(1 << n):
                _assert_twin_masks_match_swaps(n, mask, among)


@st.composite
def relations_with_twins(draw, min_n=4, max_n=7):
    """A relation on n elements blown up from a relation on n-1 kinds,
    elements of one kind related as their kinds are (a pair of distinct
    ones as the kind to itself, a loop as the kind's loop), so that they
    are twins, with up to two cells flipped after; and a set of the
    elements, half the time all of them."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    k = n - 1
    kind = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    between = draw(st.integers(0, (1 << (k * k)) - 1))
    loops = draw(st.integers(0, (1 << k) - 1))
    mask = 0
    for x in range(n):
        for y in range(n):
            if (loops >> kind[x] if x == y
                    else between >> (kind[x] * k + kind[y])) & 1:
                mask |= 1 << (x * n + y)
    for cell in draw(st.lists(st.integers(0, n * n - 1), max_size=2)):
        mask ^= 1 << cell
    full = (1 << n) - 1
    return n, mask, full if draw(st.booleans()) else draw(st.integers(0, full))


@settings(max_examples=200, deadline=None)
@given(relations_with_twins())
def test_twin_masks_match_swap_relabelling_beyond_three_elements(case):
    _assert_twin_masks_match_swaps(*case)


@st.composite
def relabelled_relations(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * n)) - 1))
    p = draw(st.permutations(range(n)))
    return n, mask, p


@settings(max_examples=150, deadline=None)
@given(relabelled_relations())
def test_canonical_form_is_exact_and_relabelling_invariant(case):
    n, mask, p = case
    canon = canonical_form(n, mask)
    assert canon == _canonical_form_scan(n, mask)
    assert canonical_form(n, _relabel(n, mask, p)) == canon


# -- row-table is_canonical and orderly generation against the scans -----------

def _rows(n, mask):
    full = (1 << n) - 1
    return [mask >> (x * n) & full for x in range(n)]


def test_is_canonical_matches_scan_on_small_relations_and_posets():
    for n in range(1, 5):
        for mask in range(1 << (n * n)):
            want = _is_canonical_scan(n, mask)
            assert is_canonical(n, mask) == want
            assert is_canonical(n, mask, _rows(n, mask)) == want
    # canonical inputs make both sides try every permutation
    for mask in _order_compatible_posets(5):
        for m in (mask, canonical_form(5, mask)):
            assert is_canonical(5, m) == _is_canonical_scan(5, m)


def test_perm_row_tables_list_the_permutations_that_reach_each_bound():
    for n in range(1, 6):
        perms = list(itertools.permutations(range(n)))

        def image(p, v):
            return sum(1 << p[y] for y in range(n) if v >> y & 1)

        def entry(p):
            return (tuple(p.index(label) for label in range(n - 2, -1, -1)),
                    tuple(image(p, row) for row in range(1 << n)))

        blocks = search._perm_row_tables(n)
        assert len(blocks) == n
        for x, (least, ties) in enumerate(blocks):
            # the bound the top-row walk reads too
            assert least is search._leasts(n)[x]
            block = [p for p in perms if p[x] == n - 1]
            # the identity, which leaves every encoding as it is, is not
            # listed
            listed = [p for p in block if p != perms[0]]
            assert len(least) == len(ties) == 1 << n
            for v in range(1 << n):
                loop = v >> x & 1
                assert least[v] == ((1 << v.bit_count() - loop) - 1
                                    | loop << (n - 1))
                assert least[v] == min(image(p, v) for p in block)
                assert list(ties[v]) == [entry(p) for p in listed
                                         if image(p, v) == least[v]]


@st.composite
def larger_relations(draw):
    n = draw(st.integers(min_value=5, max_value=7))
    return n, draw(st.integers(min_value=0, max_value=(1 << (n * n)) - 1))


@settings(deadline=None)
@given(larger_relations())
def test_is_canonical_matches_scan_on_random_relations(case):
    n, mask = case
    for m in (mask, canonical_form(n, mask)):
        want = _is_canonical_scan(n, m)
        assert is_canonical(n, m) == want
        assert is_canonical(n, m, _rows(n, m)) == want


def _tie_heavy_relations(n):
    # relations whose elements tie, several or all of them, on the least
    # top row a relabelling can give them
    def rel(pairs):
        return sum(1 << (i * n + j) for i, j in pairs)
    loops = rel((i, i) for i in range(n))
    cycle = rel((i, (i + 1) % n) for i in range(n))
    return [
        0,
        (1 << (n * n)) - 1,
        loops,
        cycle,
        cycle | loops,
        rel((i, i ^ 1) for i in range(n - n % 2)),          # disjoint 2-cycles
        rel((i, j) for i in range(n) for j in range(i + 1, n)),  # tournament
        # elements whose only successor is themselves, next to sinks
        rel((i, i) for i in range(n // 2)),
        rel((i, i) for i in range(0, n, 3))
        | rel((i, i - k) for i in range(2, n, 3) for k in (1, 2)),
    ]


def _fixed_relabellings(n):
    shuffled = list(range(n))
    random.Random(n).shuffle(shuffled)
    return [list(range(n)), [n - 1 - i for i in range(n)],
            [(i + 1) % n for i in range(n)],
            [0, n - 1] + list(range(1, n - 1)), shuffled]


def _blocks_by_top_label(n, mask):
    # for each element x, over every relabelling that sends x to label
    # n-1: the least top row of the image, and whether some image is
    # smaller than mask
    images = [[] for _ in range(n)]
    for p, cmap in zip(itertools.permutations(range(n)), _perm_cell_maps(n)):
        images[p.index(n - 1)].append(_remap(mask, cmap))
    return [(min(im >> (n - 1) * n for im in block), min(block) < mask)
            for block in images]


def test_is_canonical_matches_scan_on_tie_heavy_inputs():
    paths = set()
    for n in range(5, 8):
        for base in _tie_heavy_relations(n):
            for p in _fixed_relabellings(n):
                mask = _relabel(n, base, p)
                assert is_canonical(n, mask) == _is_canonical_scan(n, mask)
                if n > 6:
                    continue
                # which blocks a top-row bound decides, in element order,
                # up to the first one holding a smaller image
                top = mask >> (n - 1) * n
                tied = skipped = False
                for least, smaller in _blocks_by_top_label(n, mask):
                    if least > top:
                        skipped = True
                    elif least < top:
                        paths.add(("rejected by bound", tied, skipped))
                        break
                    elif smaller:
                        paths.add(("rejected in block", tied, skipped))
                        break
                    else:
                        tied = True
                else:
                    paths.add(("accepted", tied, skipped))
    # a later block rejects by its bound after a tied block was scanned
    # whole, and after a block was skipped; a tied block rejects too
    assert ("rejected by bound", True, False) in paths
    assert ("rejected by bound", False, True) in paths
    assert ("rejected in block", False, False) in paths
    assert ("accepted", True, True) in paths


def test_is_canonical_builds_no_table_above_six_elements(monkeypatch):
    # above IS_CANONICAL_MAX is_canonical defers to canonical_form: the
    # n=8 tables took seconds and 113 MB to build, and n=9 about 1.5 GB
    def no_tables(*args):
        raise AssertionError("a permutation table was built")
    monkeypatch.setattr(search.itertools, "permutations", no_tables)
    before = search._perm_row_tables.cache_info().currsize
    for n in (0, 13):
        with pytest.raises(DomainError,
                           match=f"^universe size {n} outside 1..12$"):
            is_canonical(n, 0)
    for n in range(search.IS_CANONICAL_MAX + 1, 13):
        for base in _tie_heavy_relations(n):
            # every relabelling has the canonical form of base
            canon = canonical_form(n, base)
            assert is_canonical(n, canon, _rows(n, canon))
            for p in _fixed_relabellings(n):
                mask = _relabel(n, base, p)
                assert is_canonical(n, mask) == (mask == canon)
    # the first classes of the n=7 walks that call is_canonical
    n = 7
    walks = [_masks(_canonical_masks(n, False)),
             _masks(_canonical_masks(n, True)),
             (m for m in _masks(_transitive_masks(n, False, top_bound=True))
              if is_canonical(n, m))]
    for walk in walks:
        first = list(itertools.islice(walk, 200))
        assert len(first) == 200 and first == sorted(set(first))
        assert all(canonical_form(n, m) == m for m in first)
    assert search._perm_row_tables.cache_info().currsize == before


def test_canonical_kernels_refuse_input_outside_the_grid():
    for kernel in (canonical_form, is_canonical):
        for mask in (16, -1):
            with pytest.raises(DomainError, match="^relation mask mentions "
                               "cells outside the 2 x 2 grid$"):
                kernel(2, mask)
    for n in (0, 13):
        with pytest.raises(DomainError,
                           match=f"^universe size {n} outside 1..12$"):
            canonical_form(n, 0)
        # vouched rows skip the grid check, not the size check
        with pytest.raises(DomainError,
                           match=f"^universe size {n} outside 1..12$"):
            canonical_form(n, 0, [0] * n)


def test_orderly_generation_matches_canonical_filter():
    for n in range(1, 5):
        for irreflexive in (False, True):
            want = [m for m in _masks(_all_masks(n, irreflexive))
                    if _is_canonical_scan(n, m)]
            assert list(_masks(_canonical_masks(n, irreflexive))) == want


def test_orderly_walk_hands_is_canonical_the_rows_of_each_child(
        monkeypatch):
    scan = search.is_canonical
    calls = []

    def checked(n, mask, *rows):
        assert len(rows) == 1 and list(rows[0]) == _rows(n, mask)
        calls.append(mask)
        return scan(n, mask, *rows)

    monkeypatch.setattr(search, "is_canonical", checked)
    for n in range(1, 5):
        for irreflexive in (False, True):
            calls.clear()
            classes = list(_canonical_masks(n, irreflexive))
            # every class but the root is the child of one call
            assert len(calls) >= len(classes) - 1
            if n == 4:
                # handing rows on changes no call: the walk's counts
                assert (len(calls), len(classes)) \
                    == ((409, 218) if irreflexive else (4806, 3044))


def _is_transitive(n, mask):
    # the literal definition: x P y and y P z give x P z
    def part(x, y):
        return mask >> (x * n + y) & 1
    return all(part(x, z) or not (part(x, y) and part(y, z))
               for x in range(n) for y in range(n) for z in range(n))


def _reference_find(spec):
    # the seed's walk: every relation (every transitive one under T),
    # ascending, kept if canonical; under T and IRR the labelled posets
    # come from the transitive walk, checked against the literal filter
    # below, since the literal filter would visit 2^20 relations at n=5
    irreflexive = AxiomId.IRR in spec.ambient
    transitive = AxiomId.T in spec.ambient
    explored = 0
    for n in range(1, spec.max_n + 1):
        if transitive and irreflexive:
            candidates = _masks(_transitive_masks(n, True))
        else:
            candidates = (m for m in _masks(_all_masks(n, irreflexive))
                          if not transitive or _is_transitive(n, m))
        for mask in candidates:
            if not _is_canonical_scan(n, mask):
                continue
            s = ParthoodStructure.from_mask(n, mask)
            if not satisfies(s, spec.ambient + spec.require):
                continue
            explored += 1
            if not any(satisfies(s, [f]) for f in spec.forbid):
                return s, explored
    return None, explored


def test_find_model_matches_reference_walk():
    claims = [("ANTIS", "U_SUP"), ("AS", "AC"), ("EXT_PP", "U_SUM"),
              ("NO_ZERO", "ANTIS")]
    for ambient in ((), ("IRR",)):
        for hypothesis, conclusion in claims:
            spec = SearchSpec(max_n=3, ambient=ambient,
                              require=(hypothesis,), forbid=(conclusion,))
            got = find_model(spec)
            assert (got.found, got.explored) == _reference_find(spec)


def test_find_model_matches_reference_walk_under_transitivity():
    # two claims exhausted at n<=4, two refuted (at n=4)
    claims = [("U_SUM", "ANTIS"), ("EXT_OV", "U_SUM"),
              ("U_SUM", "SSP_PLUS"), ("WSP", "U_SUM")]
    for hypothesis, conclusion in claims:
        spec = SearchSpec(max_n=4, ambient=("T",),
                          require=(hypothesis,), forbid=(conclusion,))
        got = find_model(spec)
        assert (got.found, got.explored) == _reference_find(spec)


def test_find_model_matches_reference_walk_over_strict_orders():
    # two claims refuted (at n=5 and n=4), two exhausted at n<=5
    claims = [("U_SUM", "PPP"), ("WSP", "SSP"),
              ("SSP_PLUS", "DDAGGER"), ("SSP", "C_PROD")]
    for hypothesis, conclusion in claims:
        spec = SearchSpec(max_n=5, ambient=SPO,
                          require=(hypothesis,), forbid=(conclusion,))
        got = find_model(spec)
        assert (got.found, got.explored) == _reference_find(spec)


# -- residual checks picked once per search -----------------------------------

def _count_catalog_calls(monkeypatch, code):
    """Replace code's CATALOG entry, after import, by one whose finder
    counts its calls."""
    calls = [0]
    info = axioms.CATALOG[code]
    find = info.find_violation

    def counted(s):
        calls[0] += 1
        return find(s)

    monkeypatch.setitem(axioms.CATALOG, code, dataclasses.replace(
        info, find_violation=counted))
    return calls


@pytest.mark.parametrize("ambient,hypothesis,conclusion,max_n", [
    ((), "WSP", "U_SUM", 3), (("IRR",), "ANTIS", "U_SUP", 3),
    (("T",), "WSP", "U_SUM", 4), (("T", "IRR"), "WSP", "SSP", 5),
])
def test_finders_replaced_after_import_see_every_call(
        ambient, hypothesis, conclusion, max_n, monkeypatch):
    # an unwrapped search runs first, so finders kept from an earlier
    # search (or from import) would miss the wrappers
    plain = verify_implication(ambient, [hypothesis], conclusion, max_n)
    required = _count_catalog_calls(monkeypatch, AxiomId[hypothesis])
    forbidden = _count_catalog_calls(monkeypatch, AxiomId[conclusion])
    wrapped = verify_implication(ambient, [hypothesis], conclusion, max_n)
    assert wrapped == plain
    # each explored model passed the hypothesis and met the conclusion
    assert forbidden[0] == plain.explored > 0
    assert required[0] >= plain.explored


@pytest.mark.parametrize("ambient,hypothesis", [
    (["U_SUM"], ["U_SUM"]), ([], ["U_SUM", "U_SUM"]),
    (["U_SUM", "T"], ["u_sum"]),
])
def test_a_code_named_twice_is_checked_once(ambient, hypothesis,
                                            monkeypatch):
    once = ([c for c in ambient if c != "U_SUM"], ["U_SUM"])
    calls = _count_catalog_calls(monkeypatch, AxiomId.U_SUM)
    want = verify_implication(*once, "SSP", 3)
    want_calls, calls[0] = calls[0], 0
    got = verify_implication(ambient, hypothesis, "SSP", 3)
    assert calls[0] == want_calls > 0
    assert got == want
    assert search._split_constraints(ambient + hypothesis)[1] \
        == [AxiomId.U_SUM]


def _filtered_candidates(n, generator, code, up_to_iso):
    """The generator's candidates, taken from the literal walks, kept if
    canonical (up to isomorphism) and if satisfies() accepts every
    constraint."""
    irreflexive = "IRR" in generator
    walk = (_masks(_transitive_masks(n, irreflexive)) if "T" in generator
            else _masks(_all_masks(n, irreflexive)))
    constraints = generator + (code,)
    return [m for m in walk
            if (not up_to_iso or _is_canonical_scan(n, m))
            and satisfies(ParthoodStructure.from_mask(n, m), constraints)]


@pytest.mark.parametrize("up_to_iso", [False, True],
                         ids=["labelled", "up-to-iso"])
@pytest.mark.parametrize("generator", [(), ("IRR",), ("T",), ("T", "IRR")],
                         ids=["all", "IRR", "T", "T+IRR"])
def test_model_masks_match_a_satisfies_filter_for_every_code(generator,
                                                             up_to_iso):
    for code in CATALOG_ORDER:
        for n in range(1, 4):
            got = enumerate_model_masks(n, generator + (code,), up_to_iso)
            assert got == _filtered_candidates(n, generator, code.value,
                                               up_to_iso), (code, n)


# -- the walk chosen from what the constraints entail --------------------------

def _looped_models(code, max_n):
    """The relations with a loop, on at most max_n elements, that satisfy
    code."""
    for n in range(1, max_n + 1):
        diagonal = sum(1 << (i * n + i) for i in range(n))
        for m in range(1 << (n * n)):
            if m & diagonal and satisfies(ParthoodStructure.from_mask(n, m),
                                          [code]):
                yield m


def test_codes_entailing_irr_are_exactly_the_table():
    # the codes that select the irreflexive row besides IRR each have no
    # looped model to n=3 (so none under T either), and every other code
    # but IRR has one on at most two elements, so a new catalog entry
    # must be placed on one side or the other
    (selects,), = [w.selects for w in search._WALKS
                   if w.guarantees == {AxiomId.IRR}]
    assert AxiomId.IRR in selects
    for code in CATALOG_ORDER:
        if code in selects and code is not AxiomId.IRR:
            assert next(_looped_models(code, 3), None) is None, code
        elif code is not AxiomId.IRR:
            assert next(_looped_models(code, 2), None) is not None, code
    # every row selects on T or on that same set of codes
    assert {codes for w in search._WALKS for codes in w.selects} \
        == {frozenset({AxiomId.T}), selects}


def _literal_then_entailed(monkeypatch, run):
    """run()'s result with the walk chosen from the codes as named, then
    from what they entail."""
    with monkeypatch.context() as patch:
        patch.setattr(search, "_split_constraints",
                      _literal_split_constraints)
        literal = run()
    return literal, run()


def test_theories_agree_with_the_literal_split(monkeypatch):
    # MEM and MCM name WSP but not IRR: the literal split walks every
    # transitive relation for them
    def census():
        return [enumerate_model_masks(n, theory_axioms(t), up_to_iso)
                for t in TheoryId for up_to_iso in (True, False)
                for n in range(1, 6 if up_to_iso else 5)]

    literal, entailed = _literal_then_entailed(monkeypatch, census)
    assert entailed == literal


_AMBIENTS = [(), ("IRR",), ("T",), ("T", "IRR")]


@pytest.mark.parametrize("hypotheses,max_n", [
    (CATALOG_ORDER, 3),
    ((AxiomId.AS, AxiomId.AC, AxiomId.WSP, AxiomId.ANTIS), 4),
], ids=["every-code", "order-codes"])
def test_claims_agree_with_the_literal_split(hypotheses, max_n, monkeypatch):
    # the result's witness, explored count and exhaustion, claim by claim
    claims = [(ambient, h, c) for ambient in _AMBIENTS for h in hypotheses
              if h.value not in ambient for c in CATALOG_ORDER
              if c is not h and c.value not in ambient]

    def verdicts():
        return [verify_implication(ambient, [h], c, max_n)
                for ambient, h, c in claims]

    literal, entailed = _literal_then_entailed(monkeypatch, verdicts)
    assert entailed == literal


def test_sets_of_two_codes_agree_with_the_literal_split(monkeypatch):
    # every set of at most two catalog codes, up to isomorphism to n=3
    # and labelled to n=2: sets naming AS, AC or WSP without IRR, or T
    # with IRR, are where the two splits walk or check differently
    sets = [()] + [(c,) for c in CATALOG_ORDER] \
        + list(itertools.combinations(CATALOG_ORDER, 2))

    def census():
        return [enumerate_model_masks(n, codes, up_to_iso) for codes in sets
                for up_to_iso in (True, False)
                for n in range(1, 4 if up_to_iso else 3)]

    literal, entailed = _literal_then_entailed(monkeypatch, census)
    assert len(sets) == 529 and entailed == literal


# -- laws every recorded claim obeys --------------------------------------------

def _recorded_claims():
    """(ambient, from, to) -> (max_n, countermodel size or None) for each
    claim of the benchmark's claim pool."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "claims.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["fields"][:5] == ["ambient", "from", "to", "max_n",
                                 "countermodel_n"]
    return {tuple(c[:3]): (c[3], c[4]) for c in doc["claims"]}


def _law_breaks(claims):
    """(closure triples, ambient pairs, claims breaking a law) of a table
    (ambient, from, to) -> (max_n, countermodel size or None)."""

    def refutes_by(key, size):
        # the claim at key is refuted at most at size, unless it was not
        # searched that far
        max_n, got = claims[key]
        return size > max_n or got is not None and got <= size

    # closure: A => B exhausted to k makes every countermodel of A => C
    # at a size s <= k one of B => C, refuted by s
    by_hypothesis = {}
    for (ambient, a, c), (_, s) in claims.items():
        by_hypothesis.setdefault((ambient, a), []).append((c, s))
    triples, broken = 0, []
    for (ambient, a, b), (k, exhausted) in claims.items():
        if exhausted is not None:
            continue
        for c, s in by_hypothesis[ambient, a]:
            if c == b or (ambient, b, c) not in claims:
                continue
            triples += 1
            if s is not None and s <= k \
                    and not refutes_by((ambient, b, c), s):
                broken.append((ambient, a, b, c))
    # ambient monotonicity: a countermodel under T or IRR is one under
    # no ambient
    pairs = 0
    for (ambient, a, c), (_, s) in claims.items():
        if ambient and ("", a, c) in claims:
            pairs += 1
            if s is not None and not refutes_by(("", a, c), s):
                broken.append((ambient, a, c))
    return triples, pairs, broken


def test_recorded_claims_obey_closure_and_ambient_monotonicity():
    assert _law_breaks(_recorded_claims()) == (10_594, 1_800, [])


def _live_claims(max_n):
    """(ambient, from, to) -> least countermodel size or None, searched
    live for every claim of one code to another under no ambient, IRR
    and T (the ambient's own code may be the hypothesis, never the
    conclusion), and the claims whose result is wrong: a size other than
    the labelled brute force's, `exhausted` set with a countermodel or
    clear without one, or a countermodel that _REFERENCE does not find a
    model of ambient and hypothesis violating the conclusion."""
    sizes, wrong = {}, []
    for ambient in ("", "IRR", "T"):
        ambients = [ambient] if ambient else []
        for a in CATALOG_ORDER:
            given = ambients + [a.value]
            for c in CATALOG_ORDER:
                if c is a or c.value == ambient:
                    continue
                r = verify_implication(ambients, [a], c, max_n)
                s = r.found
                key = (ambient, a.value, c.value)
                sizes[key] = None if s is None else s.n
                if sizes[key] != least_countermodel_size(given, c, max_n) \
                        or r.exhausted != (s is None):
                    wrong.append(key)
                elif s is not None and (
                        any(_REFERENCE[axiom_id(code)](s) is not None
                            for code in given)
                        or _REFERENCE[c](s) is None):
                    wrong.append(key)
    return sizes, wrong


def test_live_claims_obey_the_laws_and_the_labelled_brute_force():
    # every claim searched live to three elements against the labelled
    # brute force over all 530 relations with n <= 3
    sizes, wrong = _live_claims(3)
    assert len(sizes) == 2_914 and wrong == []
    assert _law_breaks({key: (3, size) for key, size in sizes.items()}) \
        == (22_725, 1_922, [])
    assert list(sizes.values()).count(None) == 776


# -- the table of walks --------------------------------------------------------

def _row(codes):
    """The row of the table of walks that the generating codes select."""
    return search._split_constraints(codes)[0]


_ROW_CODES = [SPO, ("T",), ("IRR",), ()]


def test_the_table_has_one_row_per_generating_ambient():
    assert [_row(codes) for codes in _ROW_CODES] == list(search._WALKS)
    assert [sorted(c.value for c in w.guarantees) for w in search._WALKS] \
        == [["AC", "ANTIS", "AS", "IRR", "T"], ["T"], ["IRR"], []]
    assert all(len(w.counts) == 8 for w in search._WALKS)


def test_each_row_counts_the_classes_its_walk_yields():
    # all relations to n=4, IRR and T to n=5, posets to n=8
    for codes, top in zip(_ROW_CODES, (8, 5, 5, 4)):
        walk = _row(codes)
        assert [sum(1 for _ in walk.iso(n)) for n in range(1, top + 1)] \
            == list(walk.counts[:top]), codes


def test_every_guaranteed_code_holds_on_every_relation_of_its_walk():
    # by the literal finders, on every class and every labelled relation
    # of each row up to n=4
    checked = 0
    for walk in search._WALKS:
        finders = [_REFERENCE[code] for code in walk.guarantees]
        for n in range(1, 5):
            for generate in (walk.iso, walk.labelled):
                for m, rows in generate(n):
                    s = ParthoodStructure.from_mask(n, m)
                    assert rows == s.rows
                    assert all(find(s) is None for find in finders), (n, m)
                    checked += bool(finders)
    # the classes and the relations of the posets, T and IRR rows to n=4
    assert checked == (24 + 242) + (291 + 4180) + (238 + 4165)


# -- the row-by-row transitive walk against the literal filter ----------------

def test_transitive_walk_matches_literal_filter():
    for n in range(1, 5):
        for irreflexive in (False, True):
            want = [m for m in _masks(_all_masks(n, irreflexive))
                    if _is_transitive(n, m)]
            assert list(_masks(_transitive_masks(n, irreflexive))) == want


def test_transitive_walk_is_lazy():
    # checked first, so a walk that builds a list fails here instead of
    # hanging on the n=7 space below
    walk = _transitive_masks(3, False)
    assert iter(walk) is walk
    assert list(itertools.islice(_masks(_transitive_masks(7, False)), 5)) \
        == [0, 1, 2, 3, 4]


def test_top_row_bound_drops_only_non_canonical_relations():
    for n in range(1, 6):
        bounded = list(_masks(_transitive_masks(n, False, True)))
        assert [m for m in bounded if is_canonical(n, m)] \
            == [m for m in _masks(_transitive_masks(n, False))
                if is_canonical(n, m)]
    # at n=5 it keeps 34,179 of the 154,303 transitive relations
    assert len(bounded) < sum(1 for _ in _transitive_masks(5, False)) / 4


def test_orderly_generation_is_lazy(monkeypatch):
    # collecting and sorting the n=6 classes would take far more calls
    calls = 0
    scan = search.is_canonical

    def counted(n, mask, *rows):
        nonlocal calls
        calls += 1
        if calls > 2000:
            raise AssertionError("orderly generation is not lazy")
        return scan(n, mask, *rows)

    monkeypatch.setattr(search, "is_canonical", counted)
    assert next(_masks(_canonical_masks(6, False))) == 0


# -- up-to-iso walks shared across the searches of a process ------------------

def _counted_is_canonical(monkeypatch, fail_after=None, masks=None):
    """Count the is_canonical calls, and list their encodings in masks
    if given."""
    calls = [0]
    scan = search.is_canonical

    def counted(n, mask, *rows):
        calls[0] += 1
        if masks is not None:
            masks.append(mask)
        if fail_after is not None and calls[0] > fail_after:
            raise RuntimeError("stopped mid-walk")
        return scan(n, mask, *rows)

    monkeypatch.setattr(search, "is_canonical", counted)
    return calls


def _unshared_iso_walk(n, constraints):
    """The classes a shared walk over the generating codes must yield,
    found without one."""
    if "T" in constraints and "IRR" in constraints:
        return list(_poset_classes(n))
    if "T" in constraints:
        return [m for m in _masks(_transitive_masks(n, False))
                if is_canonical(n, m)]
    return list(_masks(_canonical_masks(n, "IRR" in constraints)))


def _iso_walk(n, codes):
    """The walk _iso_candidates shares at size n for the generating
    codes, None if it shares none."""
    return search._iso_candidates(n, _row(codes))


_SLOTS = ("n", "full", "_labels", "rows", "parts_in", "ing_of", "ing_up",
          "ov_of")


def _assert_built_afresh(s, n, mask):
    """s equals a fresh, validated build of the encoding slot by slot,
    each of its masks a tuple; what s has filled on first use (its
    universe, label index and subset planes) equals what the fresh
    build fills, and nothing of s is filled here."""
    want = ParthoodStructure.from_mask(n, mask)
    for slot in _SLOTS:
        assert getattr(s, slot) == getattr(want, slot), slot
    assert [type(f) for f in mask_tuples(s)] == [tuple] * 5
    if s._universe is not None:
        assert s._universe == want.universe
    if s._label_index is not None:
        want.index(want._labels[0])
        assert s._label_index == want._label_index
    if s._subset_planes is not None:
        _assert_kept_planes(s._subset_planes, n, mask)


def _kept(walk):
    """The structures the walk keeps, one per class in walk order, and
    none if it is not shared: every read of the walk's store goes
    through here."""
    return [] if walk is None else walk._kept


def _kept_planes(walk):
    """The subset planes list of each kept class, None where none is
    kept."""
    return [s._subset_planes for s in _kept(walk)]


def _assert_store_aligned(walk, n, want):
    """A shared walk keeps a prefix of the classes want, in order: a
    structure of each, equal to a fresh build, with its default labels
    shared and, as no caller here reads them, unread, holding None or
    that class's subset planes; and all of want, with room for both
    planes of each, is within the budget."""
    if walk is None:
        return
    kept = _kept(walk)
    assert len(kept) <= len(want)
    for s, mask in zip(kept, want):
        _assert_built_afresh(s, n, mask)
        assert s._labels is core._DEFAULT_LABEL_TUPLES[n]
        assert s._universe is None and s._label_index is None
    assert _store_bytes(walk) <= len(want) * _per_class(n) \
        <= search.WALK_BUDGET_BYTES


def _class_bytes(s):
    """What keeping s costs, recounted by sys.getsizeof: the structure
    and its slot in a list, each of its mask tuples, whose values are
    small ints a process shares, like its full mask and its default
    labels; its universe with each ElementId and its label index, if
    read; its planes list, if it has one, with each tuple filled in it
    and each plane int."""
    size = sys.getsizeof(s) + 8
    assert 0 <= s.full < 256
    for f in mask_tuples(s):
        assert all(0 <= v < 256 for v in f)
        size += sys.getsizeof(f)
    if s._universe is not None:
        size += sys.getsizeof(s._universe)
        size += sum(map(sys.getsizeof, s._universe))
    if s._label_index is not None:
        size += sys.getsizeof(s._label_index)
    planes = s._subset_planes
    if planes is not None:
        assert type(planes) is list and len(planes) == 2
        size += sys.getsizeof(planes)
        for entry in planes:
            if entry is not None:
                assert type(entry) is tuple
                size += sys.getsizeof(entry) + sum(map(sys.getsizeof, entry))
    return size


def _store_bytes(walk):
    """What the walk keeps, recounted by sys.getsizeof."""
    return sum(map(_class_bytes, _kept(walk)))


def _per_class(n):
    """One class with both its planes, recounted by sys.getsizeof: the
    full relation's, on n <= 8 elements, whose planes are as wide as any
    (the full relation's elements each sum every nonempty subset and
    bound every subset)."""
    full = ParthoodStructure.from_mask(n, (1 << (n * n)) - 1)
    sums.subset_planes(full)
    sums.subset_planes(full, True)
    return _class_bytes(full)


def _assert_kept_planes(planes, n, mask):
    """planes is a list of two entries, at least one filled, and each
    filled one is a read-only tuple equal, plane by plane, to the same
    planes of a fresh build of the encoding."""
    fresh = ParthoodStructure.from_mask(n, mask)
    assert type(planes) is list and len(planes) == 2
    assert planes != [None, None]
    for sups, got in enumerate(planes):
        if got is not None:
            assert got == sums.subset_planes(fresh, bool(sups))
            with pytest.raises(TypeError):
                got[0] = 0


def test_shared_walk_calls_is_canonical_only_past_what_was_found(monkeypatch):
    search._iso_candidates.cache_clear()
    calls = _counted_is_canonical(monkeypatch)
    full = list(_masks(_canonical_masks(4, False)))
    full_calls, calls[0] = calls[0], 0
    # no ambient: refuted at n=4 after 290 explored models
    spec = SearchSpec(max_n=4, require=("ANTIS",), forbid=("DAGGER",))
    first = find_model(spec)
    assert first.found is not None and first.found.n == 4
    assert first.explored == 290
    assert 0 < calls[0] < full_calls
    calls[0] = 0
    again = find_model(spec)
    assert calls[0] == 0
    assert (again.found, again.explored) == (first.found, first.explored)
    # an exhaustive search finishes the walk; after it, nothing is recomputed
    assert enumerate_model_masks(4, ()) == full
    calls[0] = 0
    assert enumerate_model_masks(4, ()) == full
    assert calls[0] == 0


@pytest.mark.parametrize("constraints", [(), ("IRR",), ("T",)])
def test_interleaved_consumers_see_one_sequence(constraints):
    search._iso_candidates.cache_clear()
    n = 4
    want = _unshared_iso_walk(n, constraints)
    # consumer k reads k+1 values a round, so each passes the end of the
    # shared list at different times
    walk = _iso_walk(n, constraints)
    streams = [walk.checked(()) for _ in range(3)]
    seen = [[] for _ in streams]
    live = True
    while live:
        live = False
        for k, it in enumerate(streams):
            chunk = list(itertools.islice(it, k + 1))
            seen[k] += chunk
            live |= bool(chunk)
    assert [[s.relation_mask for s in got] for got in seen] == [want] * 3
    # the consumer that found a class built the walk's structure for it,
    # and every consumer was handed that structure
    kept = _kept(walk)
    assert len(kept) == len(want)
    for m, k, structures in zip(want, kept, zip(*seen)):
        assert all(s is k for s in structures)
        _assert_built_afresh(k, n, m)
    assert enumerate_model_masks(n, constraints) == want


@pytest.mark.parametrize("constraints", [(), ("IRR",), ("T",)])
def test_a_walk_that_raises_leaves_no_truncated_list(constraints,
                                                      monkeypatch):
    search._iso_candidates.cache_clear()
    n = 4
    want = _unshared_iso_walk(n, constraints)
    _counted_is_canonical(monkeypatch, fail_after=100)
    with pytest.raises(RuntimeError, match="mid-walk"):
        enumerate_model_masks(n, constraints)
    walk = _iso_walk(n, constraints)
    kept = len(_kept(walk))
    assert 0 < kept < len(want)
    _assert_store_aligned(walk, n, want)
    monkeypatch.undo()
    # the next search starts the walk again and skips the kept classes,
    # building none of them twice
    builds = _count_builds(monkeypatch)
    assert enumerate_model_masks(n, constraints) == want
    assert builds[0] == len(want) - kept
    _assert_store_aligned(walk, n, want)
    assert enumerate_model_masks(n, constraints) == want
    assert len(_kept(walk)) == len(want)


_ISO_KEYS = [
    (n, has_t, has_irr) for n in range(1, 5)
    for has_t in (False, True) for has_irr in (False, True)
] + [(n, True, True) for n in (5, 6)]


def _generating_codes(key):
    _, has_t, has_irr = key
    return ["T"] * has_t + ["IRR"] * has_irr


@pytest.mark.parametrize("has_t, has_irr, top", [
    (False, False, 4), (False, True, 4), (True, False, 5), (True, True, 6),
], ids=["orderly", "orderly-IRR", "T", "posets"])
def test_walks_hand_on_the_split_rows_of_each_class(has_t, has_irr, top):
    # the rows yielded with each class are the split of its encoding, and
    # the structure kept for it equals a from_mask build field by field
    search._iso_candidates.cache_clear()
    for n in range(1, top + 1):
        codes = _generating_codes((n, has_t, has_irr))
        walk = _iso_walk(n, codes)
        yielded = list(walk._start())
        assert [m for m, _ in yielded] == _unshared_iso_walk(n, codes)
        for m, rows in yielded:
            assert type(rows) is tuple and rows == tuple(_rows(n, m))
        assert walk is not None
        assert len(list(walk.checked(()))) == len(yielded)
        assert [mask_tuples(s) for s in _kept(walk)] \
            == [mask_tuples(ParthoodStructure.from_mask(n, m))
                for m, _ in yielded]


def test_labelled_walks_hand_on_the_split_rows_of_each_relation():
    for n in range(1, 4):
        for walk in (_all_masks, _transitive_masks):
            for irreflexive in (False, True):
                for m, rows in walk(n, irreflexive):
                    assert type(rows) is tuple
                    assert rows == tuple(_rows(n, m))
        for codes in ((), ("T",)):
            for s in enumerate_models(n, codes, up_to_iso=False):
                want = ParthoodStructure.from_mask(n, s.relation_mask)
                assert mask_tuples(s) == mask_tuples(want)


@pytest.mark.parametrize("key", _ISO_KEYS)
def test_second_pass_structures_equal_fresh_builds(key):
    search._iso_candidates.cache_clear()
    walk = _iso_walk(key[0], _generating_codes(key))
    first = list(walk.checked(()))
    second = list(walk.checked(()))
    n = key[0]
    want = _unshared_iso_walk(n, _generating_codes(key))
    assert [s.relation_mask for s in first] == want
    assert len(second) == len(want) == len(_kept(walk))
    # both passes are handed the structure the walk keeps for each class
    for m, s, t, k in zip(want, first, second, _kept(walk)):
        assert s is t is k
        _assert_built_afresh(s, n, m)
        assert s._subset_planes is None
    _assert_store_aligned(walk, n, want)


def _count_table_builds(monkeypatch):
    """Count the subset planes the axiom finders build, not read: each
    entry of a planes list filled."""
    builds = [0]
    planes = axioms.subset_planes

    def counted(s, sups=False):
        builds[0] += s._subset_planes is None or s._subset_planes[sups] is None
        return planes(s, sups)

    monkeypatch.setattr(axioms, "subset_planes", counted)
    return builds


def test_a_repeated_search_builds_no_structure(monkeypatch):
    builds = [0]
    init = ParthoodStructure.__init__

    def counted(self, *args, **kwargs):
        builds[0] += 1
        init(self, *args, **kwargs)

    count_models(4, ["U_SUM"])
    monkeypatch.setattr(ParthoodStructure, "__init__", counted)
    table_builds = _count_table_builds(monkeypatch)
    assert count_models(4, ["U_SUM"]) == count_models(4, ["U_SUM"]) > 0
    assert builds[0] == 0
    assert table_builds[0] == 0


@pytest.mark.parametrize("key", _ISO_KEYS)
def test_second_pass_structures_carry_the_kept_subset_tables(key):
    search._iso_candidates.cache_clear()
    n = key[0]
    # U_SUM reads every candidate's sum planes, so the first search keeps
    # all
    first = count_models(n, ["U_SUM"] + _generating_codes(key))
    walk = _iso_walk(key[0], _generating_codes(key))
    want = _unshared_iso_walk(n, _generating_codes(key))
    assert len(_kept(walk)) == len(want)
    assert None not in _kept_planes(walk)
    second = list(walk.checked(()))
    assert len(second) == len(want)
    for i, (m, s) in enumerate(zip(want, second)):
        assert s is _kept(walk)[i]
        planes = s._subset_planes
        assert planes is _kept_planes(walk)[i]
        assert planes[0] is not None
        assert sums.subset_planes(s) is planes[0]
        _assert_kept_planes(planes, n, m)
        # the supremum planes a later search fills go into the same list
        assert sums.subset_planes(s, True) is planes[1] is not None
        assert _kept(walk)[i]._subset_planes is planes
    _assert_store_aligned(walk, n, want)
    assert count_models(n, ["U_SUM"] + _generating_codes(key)) == first


def test_a_walk_above_eight_elements_keeps_nothing(monkeypatch):
    # no row counts the classes on nine elements, so no walk there is
    # shared; here a chain and an antichain stand for the posets' classes
    n = 9
    chain = sum(1 << (i * n + j) for i in range(n) for j in range(i + 1, n))
    want = [0, chain]
    search._iso_candidates.cache_clear()
    assert [_iso_walk(n, codes) for codes in _ROW_CODES] == [None] * 4
    monkeypatch.setattr(_row(SPO), "iso", lambda k: (
        (m, tuple(_rows(k, m))) for m in want))
    seen = []
    for _ in range(2):
        got = list(enumerate_models(n, SPO))
        assert [s.relation_mask for s in got] == want
        for s, m in zip(got, want):
            # built by this search, so nothing is filled yet
            assert s._subset_planes is None
            _assert_built_afresh(s, n, m)
            sums.subset_planes(s)   # planes a shared walk would keep
        seen += got
    assert len({id(s) for s in seen}) == 2 * len(want)
    assert _iso_walk(n, SPO) is None


@pytest.mark.parametrize("n", range(1, 10))
def test_walk_costs_are_one_class_and_one_table_pair_by_getsizeof(n):
    # a walk is shared iff its row's class count at n, each class costing
    # both its planes, fits the budget; no row counts classes above eight
    search._iso_candidates.cache_clear()
    for walk in search._WALKS:
        if n <= 8:
            assert search._class_bytes(n) == _per_class(n)
            assert (search._iso_candidates(n, walk) is not None) == (
                walk.counts[n - 1] * _per_class(n)
                <= search.WALK_BUDGET_BYTES)
        else:
            assert len(walk.counts) == 8
            assert search._iso_candidates(n, walk) is None
    search._iso_candidates.cache_clear()


@pytest.mark.parametrize("constraints", [(), ("IRR",), ("T",)])
def test_a_walk_that_raises_keeps_its_tables_aligned(constraints,
                                                     monkeypatch):
    search._iso_candidates.cache_clear()
    n = 4
    codes = constraints + ("U_SUM",)
    want = enumerate_model_masks(n, codes)
    classes = _unshared_iso_walk(n, constraints)
    search._iso_candidates.cache_clear()
    _counted_is_canonical(monkeypatch, fail_after=100)
    with pytest.raises(RuntimeError, match="mid-walk"):
        enumerate_model_masks(n, codes)
    walk = _iso_walk(n, constraints)
    kept = len(_kept(walk))
    assert 0 < kept < len(classes)
    # the consumer checked U_SUM on every class the walk kept
    assert None not in _kept_planes(walk)
    _assert_store_aligned(walk, n, classes)
    monkeypatch.undo()
    builds = _count_table_builds(monkeypatch)
    assert enumerate_model_masks(n, codes) == want
    _assert_store_aligned(walk, n, classes)
    assert None not in _kept_planes(walk)
    # after the raise, only the classes past the kept ones built planes
    assert builds[0] == len(_kept(walk)) - kept == len(classes) - kept


def test_a_search_that_stops_keeps_the_tables_of_its_last_class(
        monkeypatch):
    # a forbid check runs on the model the search is handed, the
    # structure the walk keeps, so the planes it builds stay with the
    # class, the one where the search stops included
    search._iso_candidates.cache_clear()
    spec = SearchSpec(max_n=4, require=("ANTIS",), forbid=("DAGGER",))
    found = find_model(spec).found
    walk = _iso_walk(4, ())
    want = _unshared_iso_walk(4, ())
    last = want.index(found.relation_mask)
    assert last == len(_kept(walk)) - 1 and found is _kept(walk)[last]
    # DAGGER read both planes of every explored model, the last one too
    explored = [i for i, m in enumerate(want[:last + 1])
                if satisfies(ParthoodStructure.from_mask(4, m), ["ANTIS"])]
    planes = _kept_planes(walk)
    assert explored[-1] == last
    assert all(None not in planes[i] for i in explored)
    assert found._subset_planes is planes[last]
    _assert_kept_planes(planes[last], 4, found.relation_mask)
    # the same search stops there again, reading the planes it kept
    table_builds = _count_table_builds(monkeypatch)
    assert find_model(spec).found is found
    assert table_builds[0] == 0
    count_models(4, ["ANTIS", "U_SUM"])
    assert _kept_planes(walk)[last] is planes[last]
    _assert_store_aligned(walk, 4, want)


def test_tables_the_walk_checks_build_are_kept_at_once():
    # the required DAGGER runs on the walk's kept structures, so their
    # planes stay there even for the class where the search stops, and
    # the model it hands on carries them
    search._iso_candidates.cache_clear()
    spec = SearchSpec(max_n=4, require=("DAGGER",), forbid=("ANTIS",))
    result = find_model(spec)
    found = result.found
    assert (found.n, result.explored) == (2, 8)
    walk = _iso_walk(2, ())
    want = _unshared_iso_walk(2, ())
    assert len(_kept(walk)) == want.index(found.relation_mask) + 1
    assert None not in _kept_planes(walk)
    assert found is _kept(walk)[-1]
    assert found._subset_planes is _kept_planes(walk)[-1]
    assert None not in found._subset_planes
    _assert_store_aligned(walk, 2, want)
    # a consumer that is handed a class and never resumes keeps them too
    search._iso_candidates.cache_clear()
    walk = _iso_walk(3, ())
    model = next(walk.checked(axioms.violation_finders(["U_SUM"])))
    assert _kept_planes(walk)[-1] is model._subset_planes is not None
    _assert_store_aligned(walk, 3, _unshared_iso_walk(3, ()))


def test_searches_over_one_walk_share_each_structure():
    search._iso_candidates.cache_clear()
    want = _unshared_iso_walk(3, ())
    ours = list(enumerate_models(3, ()))
    theirs = list(enumerate_models(3, ()))
    assert [a.relation_mask for a in ours] == want
    # both are handed the structure the walk keeps for each class, which
    # equals a fresh build slot by slot
    assert all(a is b is k for a, b, k in zip(ours, theirs,
                                              _kept(_iso_walk(3, ()))))
    for a, m in zip(ours, want):
        assert a._subset_planes is None and a._universe is None
        _assert_built_afresh(a, 3, m)
    # what one search fills on a model, the other reads, and it equals
    # what a fresh build fills
    for a in ours:
        sums.subset_planes(a)
        a.universe
    for b, m in zip(theirs, want):
        assert b._subset_planes is not None and b._universe is not None
        _assert_built_afresh(b, 3, m)
    search._iso_candidates.cache_clear()


@pytest.fixture
def walk_budget(monkeypatch):
    """Set the byte budget of the walks made from here on; the walks
    made under it are dropped afterwards."""
    def set_budget(budget):
        monkeypatch.setattr(search, "WALK_BUDGET_BYTES", budget)
        search._iso_candidates.cache_clear()
    yield set_budget
    search._iso_candidates.cache_clear()


@pytest.mark.parametrize("budget", [0, 1500, 4000])
@pytest.mark.parametrize("key", [k for k in _ISO_KEYS if k[0] <= 4])
def test_a_bounded_walk_gives_the_unbounded_models(key, budget, walk_budget):
    n = key[0]
    codes = _generating_codes(key)
    searches = [codes, codes + ["U_SUM"]]
    search._iso_candidates.cache_clear()
    want = [enumerate_model_masks(n, c) for c in searches]
    classes = _unshared_iso_walk(n, codes)
    walk_budget(budget)
    walk = _iso_walk(n, codes)
    shared = len(classes) * _per_class(n) <= budget
    assert (walk is not None) == shared
    for _ in range(2):
        assert [enumerate_model_masks(n, c) for c in searches] == want
        _assert_store_aligned(walk, n, classes)
    assert len(_kept(walk)) == len(classes) * shared


def test_an_over_budget_walk_keeps_nothing_and_walks_afresh(monkeypatch,
                                                            walk_budget):
    n = 4
    classes = _unshared_iso_walk(n, ())
    search._iso_candidates.cache_clear()
    checked = []
    _counted_is_canonical(monkeypatch, masks=checked)
    want = enumerate_model_masks(n, ["U_SUM"])
    cold_checked = checked[:]
    # U_SUM reads every class's sum planes: 53 of the 3,044 classes fit
    walk_budget(50_000)
    assert _iso_walk(n, ()) is None and 50_000 // _per_class(n) == 53
    builds = _count_builds(monkeypatch)
    table_builds = _count_table_builds(monkeypatch)
    rounds = []
    for _ in range(2):
        checked.clear()
        builds[0] = table_builds[0] = 0
        got = list(enumerate_models(n, ["U_SUM"]))
        assert [s.relation_mask for s in got] == want
        # each search walks, builds and checks every class itself
        assert checked == cold_checked
        assert builds[0] == table_builds[0] == len(classes)
        rounds.append(got)
    assert all(a is not b for a, b in zip(*rounds))


@pytest.mark.parametrize("budget", [1000, 4000])
@pytest.mark.parametrize("key", [k for k in _ISO_KEYS if k[0] <= 4])
def test_a_walk_is_shared_whole_or_not_at_all(key, budget, monkeypatch,
                                             walk_budget):
    n = key[0]
    codes = _generating_codes(key)
    search._iso_candidates.cache_clear()
    checked = []
    _counted_is_canonical(monkeypatch, masks=checked)
    want = enumerate_model_masks(n, codes)
    cold_checked = checked[:]
    walk_budget(budget)
    walk = _iso_walk(n, codes)
    shared = len(want) * _per_class(n) <= budget
    assert (walk is not None) == shared
    rounds = []
    for _ in range(2):
        checked.clear()
        assert enumerate_model_masks(n, codes) == want
        rounds.append(checked[:])
    assert len(_kept(walk)) == len(want) * shared
    # a shared walk is walked once, an unshared one by every search
    assert rounds == [cold_checked, [] if shared else cold_checked]
    _assert_store_aligned(walk, n, want)


@pytest.mark.parametrize("budget", [0, 3000])
def test_interleaved_consumers_of_a_bounded_walk_see_one_sequence(
        budget, walk_budget):
    n = 4
    want = _unshared_iso_walk(n, ("IRR",))
    walk_budget(budget)
    assert _iso_walk(n, ("IRR",)) is None
    streams = [enumerate_models(n, ("IRR",)) for _ in range(3)]
    seen = [[] for _ in streams]
    live = True
    while live:
        live = False
        for k, it in enumerate(streams):
            chunk = list(itertools.islice(it, k + 1))
            seen[k] += chunk
            live |= bool(chunk)
    assert [[s.relation_mask for s in got] for got in seen] == [want] * 3
    # each search built a structure of its own for every class
    handed = [s for got in seen for s in got]
    assert len({id(s) for s in handed}) == len(handed)


# Residual codes a consumer may check, none of which changes the walk a
# search picks; the first four read the subset planes of every structure
# they check.
_RESIDUAL_POOL = ("U_SUM", "DAGGER", "E_SUM", "DIAMOND", "ANTIS", "SSP",
                  "C_PROD")
_READS_TABLES = frozenset(_RESIDUAL_POOL[:4])


@functools.lru_cache(maxsize=None)
def _walk_verdicts(key):
    """The classes of the walk at key, found without a shared walk, and
    for each code of the pool those of them it holds on, by check_axiom
    on a fresh build."""
    n = key[0]
    want = _unshared_iso_walk(n, _generating_codes(key))
    structures = [ParthoodStructure.from_mask(n, m) for m in want]
    holds = {code: {s.relation_mask for s in structures
                    if check_axiom(s, code).holds}
             for code in _RESIDUAL_POOL}
    return want, holds


def _consumer(n, codes, residual, forbid):
    """Each model of a search over the walk of the generating codes
    checking the residual codes, with whether the forbid code holds on
    it, checked on the model as find_model checks its forbid codes."""
    models = enumerate_models(n, codes + residual)
    finders = axioms.violation_finders([forbid] if forbid else [])
    for s in models:
        yield s, [find(s) is None for find in finders]


@settings(max_examples=60, deadline=None)
@example(key=(3, False, False), budget=60_000,
         consumers=[([], "U_SUM"), (["ANTIS"], None), (["SSP"], "DAGGER")],
         steps=[(0, 5), (2, 3), (1, 40)])
@given(key=st.sampled_from([k for k in _ISO_KEYS if k[0] <= 4]),
       budget=st.integers(0, 60_000),
       consumers=st.lists(st.tuples(
           st.lists(st.sampled_from(_RESIDUAL_POOL), max_size=2, unique=True),
           st.one_of(st.none(), st.sampled_from(_RESIDUAL_POOL))),
           min_size=3, max_size=3),
       steps=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 150)),
                      max_size=12))
def test_any_interleaving_of_consumers_under_any_budget(key, budget,
                                                        consumers, steps):
    # consumer k checks a drawn set of residual codes on the walk and a
    # drawn forbid code on each model it is handed; each advances by the
    # drawn steps, then all run to the end in turn
    n = key[0]
    codes = _generating_codes(key)
    want, holds = _walk_verdicts(key)
    search._iso_candidates.cache_clear()
    try:
        with mock.patch.object(search, "WALK_BUDGET_BYTES", budget):
            walk = _iso_walk(n, codes)
            streams = [_consumer(n, codes, residual, forbid)
                       for residual, forbid in consumers]
            seen = [[] for _ in streams]
            for k, count in steps + [(k, None) for k in range(3)]:
                seen[k] += itertools.islice(streams[k], count)
                assert _store_bytes(walk) <= budget
            for (residual, forbid), got in zip(consumers, seen):
                models = [m for m in want
                          if all(m in holds[c] for c in residual)]
                assert [s.relation_mask for s, _ in got] == models
                assert [verdicts for _, verdicts in got] == [
                    [m in holds[forbid]] if forbid else [] for m in models]
            # a shared walk hands every consumer the structure it keeps
            # for each class; each unshared search builds its own
            handed = [s for got in seen for s, _ in got]
            if walk is None:
                assert len({id(s) for s in handed}) == len(handed)
            else:
                by_mask = {k.relation_mask: k for k in _kept(walk)}
                assert all(s is by_mask[s.relation_mask] for s in handed)
            for s in handed:
                if s._subset_planes is not None:
                    _assert_kept_planes(s._subset_planes, n, s.relation_mask)
            _assert_store_aligned(walk, n, want)
            # a consumer whose first check reads planes keeps every class's
            if any(set(residual) <= _READS_TABLES if residual
                   else forbid in _READS_TABLES
                   for residual, forbid in consumers):
                assert None not in _kept_planes(walk)
    finally:
        search._iso_candidates.cache_clear()


def test_every_consumer_is_handed_the_kept_structure():
    search._iso_candidates.cache_clear()
    walk = _iso_walk(3, ())
    ours = enumerate_models(3, ["U_SUM"])
    theirs = walk.checked(())
    seen = [[], []]
    for k in itertools.cycle((0, 1, 1)):
        s = next((ours, theirs)[k], None)
        if s is None:
            break
        seen[k].append(s)
    seen[0] += ours
    seen[1] += theirs
    want = _unshared_iso_walk(3, ())
    assert [s.relation_mask for s in seen[1]] == want
    assert len(seen[0]) == count_models(3, ["U_SUM"]) > 0
    # each is the structure the walk keeps for its class, equal to a
    # fresh build, with the sum planes the U_SUM search built on it
    kept = _kept(walk)
    assert len(kept) == len(want)
    assert all(s is k for s, k in zip(seen[1], kept))
    by_mask = {k.relation_mask: k for k in kept}
    for s in seen[0]:
        assert s is by_mask[s.relation_mask]
        assert s._subset_planes[0] is not None
    for k, m in zip(kept, want):
        _assert_built_afresh(k, 3, m)


def _live_structures():
    """How many structures the process holds, by the garbage collector,
    which tracks every instance however it was made."""
    gc.collect()
    return sum(type(o) is ParthoodStructure for o in gc.get_objects())


def test_a_repeated_search_builds_and_copies_nothing(monkeypatch):
    search._iso_candidates.cache_clear()
    first = list(enumerate_models(4, ["U_SUM"]))
    assert len(first) == 25
    builds = _count_builds(monkeypatch)
    live = _live_structures()
    again = list(enumerate_models(4, ["U_SUM"]))
    # 3,044 classes checked, and the 25 that pass handed on as kept
    assert builds[0] == 0 and _live_structures() == live
    assert len(again) == 25 and all(a is b for a, b in zip(first, again))
    # the counters see a copy and a build
    twins = [copy.copy(first[0]), ParthoodStructure.from_mask(1, 0)]
    assert builds[0] == 2 and _live_structures() == live + len(twins)


def test_comparing_models_builds_no_labels(monkeypatch):
    # equality and hashing read the label strings and the rows, so a
    # model compared with another, or reported in a SearchResult that is,
    # builds no ElementId
    search._iso_candidates.cache_clear()
    made = _count_element_ids(monkeypatch)
    models = list(enumerate_models(4, SPO))
    fresh = [ParthoodStructure.from_mask(4, s.relation_mask) for s in models]
    assert models == fresh and models[0] != models[1]
    assert [hash(s) for s in models] == [hash(t) for t in fresh]
    assert len(set(models + fresh)) == len(models) == 16
    assert SearchResult(models[-1], 3, False) \
        == SearchResult(fresh[-1], 3, False)
    assert SearchResult(models[-1], 3, False) \
        != SearchResult(models[-2], 3, False)
    assert made[0] == 0
    assert all(s._universe is None for s in models + fresh)


def test_a_kept_structure_pickles_and_copies_to_a_fresh_build(monkeypatch):
    search._iso_candidates.cache_clear()
    assert count_models(4, ["U_SUM"]) == 25     # planes on every class
    kept = _kept(_iso_walk(4, ()))[::300]
    assert len(kept) == 11 and None not in _kept_planes(_iso_walk(4, ()))
    builds = _count_builds(monkeypatch)
    for s in kept:
        copies = (pickle.loads(pickle.dumps(s)), copy.copy(s),
                  copy.deepcopy(s))
        for y in copies:
            assert type(y) is ParthoodStructure and y is not s and y == s
            assert mask_tuples(y) == mask_tuples(s)
            # the masks were derived again; what fills on first use is
            # left to fill again
            assert y._subset_planes is None and y._universe is None
            assert sums.subset_planes(y) == sums.subset_planes(s)
    assert builds[0] == 3 * len(kept)


def test_shared_models_with_their_labels_read_stay_within_the_budget():
    # every walk the table shares, with the universe and the label index
    # of every model read and both planes of every class built: the
    # labels stay on the structures the walk keeps
    search._iso_candidates.cache_clear()
    largest = []
    try:
        for codes, walk in zip(_ROW_CODES, search._WALKS):
            for n in range(1, len(walk.counts) + 1):
                shared = _iso_walk(n, codes)
                if shared is None:
                    continue
                for s in shared.checked(()):
                    assert [e.label for e in s.universe] \
                        == list(core.DEFAULT_LABELS[:n])
                    assert s.index(s._labels[-1]) == n - 1
                    sums.subset_planes(s)
                    sums.subset_planes(s, True)
                kept = _kept(shared)
                assert len(kept) == walk.counts[n - 1]
                assert all(s._universe is not None
                           and s._label_index is not None for s in kept)
                largest.append((_store_bytes(shared), n, codes))
                assert largest[-1][0] <= search.WALK_BUDGET_BYTES
    finally:
        search._iso_candidates.cache_clear()
    # posets to 7 elements, T to 5, IRR and all relations to 4; the
    # largest two, 4.09 and 4.19 MB, are the posets on 7 elements and
    # all relations on 4
    assert len(largest) == 7 + 5 + 4 + 4
    assert [(n, codes) for _, n, codes in sorted(largest)[-2:]] \
        == [(7, SPO), (4, ())]


_GENERATING = [(), ("T",), ("IRR",), ("T", "IRR")]


@pytest.mark.parametrize("up_to_iso", [True, False])
@pytest.mark.parametrize("codes", _GENERATING)
@pytest.mark.parametrize("n", [-1, 0, 13])
def test_enumeration_refuses_sizes_outside_the_cap_before_walking(
        n, codes, up_to_iso, monkeypatch):
    _forbid_walks(monkeypatch)
    with pytest.raises(DomainError,
                       match=rf"universe size {n} outside 1\.\.12$"):
        count_models(n, codes, up_to_iso)


def _forbid_walks(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("a walk was started")

    for name in ("_iso_candidates", "_poset_classes", "_canonical_masks",
                 "_transitive_masks", "_all_masks"):
        monkeypatch.setattr(search, name, no_walk)


@pytest.mark.parametrize("codes", _GENERATING)
def test_a_search_past_the_cap_is_refused_before_walking(codes, monkeypatch):
    _forbid_walks(monkeypatch)
    with pytest.raises(ValueError, match=r"^max_n must be at most 12$"):
        SearchSpec(max_n=13, ambient=codes)
    with pytest.raises(ValueError, match=r"^max_n must be at most 12$"):
        verify_implication(codes, ["WSP"], "SSP", max_n=13)
    assert SearchSpec(max_n=12, ambient=codes).max_n == 12


def test_claims_agree_forwards_backwards_and_cold():
    # refuted and exhausted claims under each generating ambient, max_n 4
    claims = [
        ((), "ANTIS", "DAGGER"), ((), "ANTIS", "U_SUP"), ((), "AS", "IRR"),
        ((), "AC", "DAGGER"), (("IRR",), "SSP", "C_PROD"),
        (("IRR",), "ANTIS", "U_SUP"), (("T",), "ANTIS", "C_PROD"),
        (("T",), "U_SUM", "ANTIS"), (("T",), "WSP", "U_SUM"),
        (("T", "IRR"), "SSP_PLUS", "DDAGGER"), (("T", "IRR"), "WSP", "SSP"),
    ]
    specs = [SearchSpec(max_n=4, ambient=a, require=(h,), forbid=(c,))
             for a, h, c in claims]

    def run(spec):
        r = find_model(spec)
        return r.found, r.explored, r.exhausted

    search._iso_candidates.cache_clear()
    forwards = [run(spec) for spec in specs]
    backwards = [run(spec) for spec in reversed(specs)][::-1]
    cold = []
    for spec in specs:
        search._iso_candidates.cache_clear()
        cold.append(run(spec))
    assert forwards == backwards == cold
    assert any(found is None for found, _, _ in cold)
    assert any(found is not None and found.n == 4 for found, _, _ in cold)
