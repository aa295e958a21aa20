import random

import pytest

from mereo import (
    DomainError, ElementId, OrderError, ParthoodStructure, adjoin_zero,
    check_theory, enumerate_models, holds, lattice_report, satisfies,
    tarski_check, theory_axioms,
)
from mereo.lattice import zero_report

from conftest import all_fixtures, fixture
from oracles import _first_joinless_mask, _ref_lattice_report
from tables import _closure, _inclusion_family


def test_adjoin_zero_shapes():
    z = adjoin_zero(fixture("b7"))
    assert z.n == 8
    z = adjoin_zero(fixture("s1"))
    assert z.n == 2
    z = adjoin_zero(fixture("w4"))
    assert z.n == 5
    # three coatoms directly beneath the top
    top = z.join_of_set(z.full)
    coatoms = [i for i in range(z.n)
               if i != top and z.leq(i, top)
               and not any(z.leq(i, k) and z.leq(k, top)
                           and k not in (i, top) for k in range(z.n))]
    assert len(coatoms) == 3
    for mask in (1 << z.n, -1):
        with pytest.raises(DomainError,
                           match="^subset mask mentions foreign elements$"):
            z.join_of_set(mask)


def test_adjoin_zero_requires_strict_order():
    bad = ParthoodStructure.build(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(OrderError):
        adjoin_zero(bad)
    chainlike = ParthoodStructure.build(
        ["a", "b", "c"], [("a", "b"), ("b", "c")])   # not transitive
    with pytest.raises(OrderError):
        adjoin_zero(chainlike)


def test_zero_label_avoids_collision():
    s = ParthoodStructure.build(["0", "x"], [("0", "x")])
    z = adjoin_zero(s)
    assert z.elements[-1].label == "0'"


def test_zero_label_naming_an_element_is_refused():
    # labels compare as their str forms, as in ParthoodStructure
    s = ParthoodStructure.build(["a", "b", "ab", "1"],
                                [("a", "ab"), ("b", "ab")])
    for label in ("a", "ab", 1):
        with pytest.raises(DomainError, match="already an element"):
            adjoin_zero(s, label)
    assert adjoin_zero(s, "z").elements[-1].label == "z"
    # and the zero's label is stored as its str form, as every label is
    assert adjoin_zero(s, 5).elements[-1] == ElementId(4, "5")


def test_round_trip_base_recovery():
    for name in ("w4", "b7", "s1", "x6"):
        s = fixture(name)
        z = adjoin_zero(s)
        assert z.base is s
        assert z.elements[:-1] == s.universe
        # restricted to the base, the extended order is the ingrediens order
        for x in range(s.n):
            for y in range(s.n):
                assert z.leq(x, y) == s.ing(x, y)
        zero = z.zero_index
        assert all(z.leq(zero, i) for i in range(z.n))


def test_lattice_report_b7_is_boolean():
    r = lattice_report(adjoin_zero(fixture("b7")))
    assert r.is_lattice and r.is_distributive and r.is_complemented
    assert r.is_boolean and r.is_complete
    assert r.witness is None


def test_lattice_report_w4_fails_distributivity():
    r = lattice_report(adjoin_zero(fixture("w4")))
    assert r.is_lattice and not r.is_distributive
    assert not r.is_boolean and r.is_complete
    assert tuple(e.label for e in r.witness) == ("o1", "o2", "o3")


def test_lattice_report_c2_lacks_complements():
    r = lattice_report(adjoin_zero(fixture("c2")))
    assert r.is_lattice and r.is_distributive and not r.is_complemented
    assert not r.is_boolean
    assert tuple(e.label for e in r.witness) == ("x",)


def test_meets_joins_against_naive_bound_scan():
    for name in ("w4", "b7", "x6", "chain4"):
        z = adjoin_zero(fixture(name))
        n = z.n
        le = [[z.leq(i, j) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                lower = [k for k in range(n) if le[k][i] and le[k][j]]
                glb = [k for k in lower
                       if all(le[m][k] for m in lower)]
                assert z.meet(i, j) == (glb[0] if glb else None)
                upper = [k for k in range(n) if le[i][k] and le[j][k]]
                lub = [k for k in upper
                       if all(le[k][m] for m in upper)]
                assert z.join(i, j) == (lub[0] if lub else None)


def test_boolean_iff_report_components():
    for s in all_fixtures():
        from mereo import holds
        if not (holds(s, "T") and holds(s, "IRR")):
            continue
        r = lattice_report(adjoin_zero(s))
        assert r.is_boolean == (r.is_lattice and r.is_distributive
                                and r.is_complemented)
        assert r.is_complete == r.is_lattice      # finite carrier


def test_tarski_examples():
    assert tarski_check(fixture("b7"))     # both sides hold
    assert tarski_check(fixture("w4"))     # both sides fail
    assert tarski_check(fixture("c2"))     # both sides fail
    # a raw relation is not classical and not an order: both sides fail
    loop = ParthoodStructure.build(["a", "b"], [("a", "b"), ("b", "a")])
    assert tarski_check(loop)


def test_zero_report_is_none_exactly_off_strict_orders():
    # every relation up to n=3, loops and cycles included
    for n in range(1, 4):
        for mask in range(1 << (n * n)):
            s = ParthoodStructure.from_mask(n, mask)
            report = zero_report(s)
            order = holds(s, "T") and holds(s, "IRR")
            assert (report is not None) == order
            if order:
                assert report == lattice_report(adjoin_zero(s))
            assert tarski_check(s) == (check_theory(s, "CM").holds == (
                order and report.is_boolean and report.is_complete))


def test_tarski_sweep_to_5():
    for n in range(1, 6):
        for s in enumerate_models(n, ["T", "IRR"]):
            assert tarski_check(s), s


def test_gmu_matches_boolean_adjunction_to_5():
    gmu = theory_axioms("GMU")
    for n in range(1, 6):
        for s in enumerate_models(n, ["T", "IRR"]):
            assert satisfies(s, gmu) == lattice_report(adjoin_zero(s)).is_boolean, s


def test_cm_cardinality_law_to_6():
    cm = theory_axioms("CM")
    for n in range(1, 7):
        for s in enumerate_models(n, cm):
            assert s.n in (1, 3, 7)
            r = lattice_report(adjoin_zero(s))
            assert r.is_boolean and r.is_complete


# -- completeness against the literal scan over every subset -----------------

def _assert_completeness_matches_scan(s):
    z = adjoin_zero(s)
    assert lattice_report(z).is_complete == (
        _first_joinless_mask(z) is None), s


def _random_strict_order(rng, n):
    """The transitive closure of a random relation along a random linear
    order of n elements."""
    rank = rng.sample(range(n), n)
    p = rng.uniform(0.1, 0.4)
    mask = sum(1 << (i * n + j) for i in range(n) for j in range(n)
               if rank[i] < rank[j] and rng.random() < p)
    return ParthoodStructure.from_mask(n, _closure(n, mask))


def _strict_orders():
    """The poset classes to 5 elements, seeded strict orders of 8 to 11
    elements and the fixtures that are strict orders."""
    for n in range(1, 6):
        yield from enumerate_models(n, ["T", "IRR"])
    rng = random.Random(29)
    for n in range(8, 12):
        for _ in range(5):
            yield _random_strict_order(rng, n)
    for s in all_fixtures():
        if holds(s, "T") and holds(s, "IRR"):
            yield s


def test_completeness_matches_literal_scan():
    for s in _strict_orders():
        _assert_completeness_matches_scan(s)


def test_incomplete_adjunctions_fail_the_lattice_laws_first():
    # a finite poset with a bottom and a join for every pair is complete,
    # so the lattice laws set the witness of every incomplete adjunction
    incomplete = 0
    for s in _strict_orders():
        r = lattice_report(adjoin_zero(s))
        if not r.is_complete:
            incomplete += 1
            assert not r.is_lattice, s
            assert r.witness is not None and len(r.witness) == 2, s
    assert incomplete > 0


# -- the report from one meet and join table, against the law-by-law scan ----

def _inclusion_families():
    """Seeded 4-atom inclusion families, 25 of each size from 4 to 12."""
    rng = random.Random(35)
    for n in range(4, 13):
        for _ in range(25):
            yield _inclusion_family(rng, n, "abcd")


def _report_inputs():
    """Every poset class to 6 elements, 1,800 seeded strict orders of 7 to
    12 elements, the inclusion families and the fixtures that are strict
    orders."""
    for n in range(1, 7):
        yield from enumerate_models(n, ["T", "IRR"])
    rng = random.Random(35)
    for n in range(7, 13):
        for _ in range(300):
            yield _random_strict_order(rng, n)
    yield from _inclusion_families()
    for s in all_fixtures():
        if holds(s, "T") and holds(s, "IRR"):
            yield s


def test_lattice_report_matches_law_by_law_scan():
    patterns = {}
    for s in _report_inputs():
        z = adjoin_zero(s)
        r = lattice_report(z)
        ref = _ref_lattice_report(z)
        assert r == ref, s     # field by field, witness included
        key = (r.is_lattice, r.is_distributive, r.is_complemented)
        patterns[key] = patterns.get(key, 0) + 1
    # the lattice laws fail first, or distributivity, complementation,
    # both or neither fails
    assert set(patterns) == {
        (False, False, False), (True, True, True), (True, True, False),
        (True, False, True), (True, False, False)}, patterns
