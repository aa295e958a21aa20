import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mereo import (
    ParthoodStructure, holds, is_acyclic, is_locally_transitive,
    enumerate_models, paths_between, weakparts,
)
from mereo.axioms import _find_cycle

from conftest import all_fixtures, all_relations, fixture, structures
from oracles import _locally_transitive_by_paths, _ref_find_cycle


def test_acyclicity_examples():
    two = ParthoodStructure.build(["a", "b"], [("a", "b"), ("b", "a")])
    v = is_acyclic(two)
    assert not v.holds and tuple(e.label for e in v.cycle) == ("a", "b")
    assert is_acyclic(fixture("orch")).holds
    assert is_acyclic(fixture("b7")).holds


def test_acyclic_covers_loops_and_mutual_parts():
    loop = ParthoodStructure.build(["a"], [("a", "a")])
    v = is_acyclic(loop)
    assert not v.holds and tuple(e.label for e in v.cycle) == ("a",)
    # agreement with the catalog verdicts on the short cycles
    for s in (loop,
              ParthoodStructure.build(["a", "b"], [("a", "b"), ("b", "a")]),
              fixture("b7"), fixture("orch"), fixture("chain4")):
        assert is_acyclic(s).holds <= holds(s, "IRR")
        assert is_acyclic(s).holds <= holds(s, "AS")
        if holds(s, "IRR") and holds(s, "T"):
            assert is_acyclic(s).holds


def _assert_cycle_matches_full_search(s):
    cycle = _ref_find_cycle(s)
    assert _find_cycle(s) == cycle, s
    v = is_acyclic(s)
    assert v.holds == (cycle is None), s
    if cycle is not None:
        assert v.cycle == tuple(s.universe[i] for i in cycle), s


def test_find_cycle_matches_full_search():
    # every relation to 3 elements, then seeded random relations of 4 to
    # 12 elements, sparse to dense and loop-free, so that cycles close at
    # varied levels
    for s in all_relations(3):
        _assert_cycle_matches_full_search(s)
    rng = random.Random(35)
    for n in range(4, 13):
        for _ in range(200):
            p = rng.uniform(0.02, 0.3)
            mask = sum(1 << cell for cell in range(n * n)
                       if cell % (n + 1) and rng.random() < p)
            _assert_cycle_matches_full_search(
                ParthoodStructure.from_mask(n, mask))


def test_local_transitivity_examples():
    assert is_locally_transitive(fixture("chain4")).holds
    v = is_locally_transitive(fixture("chain4_gap"))
    assert not v.holds
    assert [e.label for e in v.path.nodes] == ["x", "z1", "z2", "y"]
    assert tuple(e.label for e in v.triple) == ("x", "z1", "z2")
    assert is_locally_transitive(fixture("orch")).holds


def test_witness_path_is_checkable():
    v = is_locally_transitive(fixture("chain4_gap"))
    assert v.path.valid_in(fixture("chain4_gap"))
    a, b, c = v.triple
    s = fixture("chain4_gap")
    assert s.part(a, b) and s.part(b, c) and not s.part(a, c)


def test_paths_between_chain4():
    got = [str(p) for p in paths_between(fixture("chain4"), "x", "y", 4)]
    assert got == ["x -> z1 -> z2 -> y", "x -> z1 -> y",
                   "x -> z2 -> y", "x -> y"]
    # shorter cap trims the longest path
    got3 = [str(p) for p in paths_between(fixture("chain4"), "x", "y", 3)]
    assert got3 == ["x -> z1 -> y", "x -> z2 -> y", "x -> y"]


def test_paths_between_orch():
    got = [str(p) for p in paths_between(fixture("orch"), "u", "z", 3)]
    assert got == ["u -> y -> z"]
    assert paths_between(fixture("orch"), "u", "z", 2) == []


def test_paths_between_self_is_empty_on_acyclic():
    for s in (fixture("b7"), fixture("chain4"), fixture("orch")):
        for e in s.universe:
            assert paths_between(s, e, e) == []


def test_paths_validation():
    with pytest.raises(ValueError):
        paths_between(fixture("orch"), "u", "z", 0)


def _local_transitivity_cases():
    """Every relation with n <= 3, the transitive classes with n <= 4
    (loops allowed) and the fixtures."""
    yield from all_relations(3)
    for n in range(1, 5):
        yield from enumerate_models(n, ["T"])
    yield from all_fixtures()


def test_local_transitivity_matches_path_enumeration():
    # verdict, witness path and triple, transitive relations included
    for s in _local_transitivity_cases():
        assert is_locally_transitive(s) == _locally_transitive_by_paths(s), s


@settings(max_examples=100, deadline=None)
@given(structures(max_n=6))
def test_local_transitivity_matches_path_enumeration_on_random_relations(s):
    assert is_locally_transitive(s) == _locally_transitive_by_paths(s)


def _complete_but_one(n):
    """Every pair on n elements, loops included, except (n-2) P (n-1)."""
    full = (1 << n) - 1
    rows = [full] * n
    rows[n - 2] &= ~(1 << (n - 1))
    return ParthoodStructure([f"e{i}" for i in range(n)], rows)


def test_first_failing_path_ends_the_walk(monkeypatch):
    # the pair (e0, e1) has thousands of paths; the walk reaches one with
    # the gap e7 P e0 P e8 within a few row scans and stops there
    s = _complete_but_one(9)
    calls = 0
    real_elems = weakparts._ELEMS

    class CountingElems:
        """Counts each row scan: one lookup of a row's elements."""

        def __getitem__(self, mask):
            nonlocal calls
            calls += 1
            return real_elems[mask]

    monkeypatch.setattr(weakparts, "_ELEMS", CountingElems())
    got = is_locally_transitive(s)
    monkeypatch.undo()
    assert got == _locally_transitive_by_paths(s)
    assert [e.label for e in got.path.nodes] == [
        "e0", "e2", "e3", "e4", "e5", "e6", "e8", "e7", "e1"]
    assert calls <= 2 * s.n


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_violations_persist_under_edge_additions(data):
    # a locally non-transitive witness stays violating when edges are
    # added anywhere else in the structure
    base = fixture("chain4_gap")
    v = is_locally_transitive(base)
    assert not v.holds
    witness_nodes = [e.label for e in v.path.nodes]
    a, b, c = (e.label for e in v.triple)
    labels = [e.label for e in base.universe]
    extra = data.draw(st.sets(st.tuples(st.sampled_from(labels),
                                        st.sampled_from(labels)),
                              max_size=4))
    pairs = {(p.label, w.label) for p, w in base.pairs()}
    # keep the witness intact: never add the missing closure edge
    extra = {(p, w) for p, w in extra if (p, w) != (a, c) and p != w}
    grown = ParthoodStructure.build(labels, sorted(pairs | extra))
    # the witness path still exists and its node set still violates
    assert all(grown.part(p, q)
               for p, q in zip(witness_nodes, witness_nodes[1:]))
    assert grown.part(a, b) and grown.part(b, c) and not grown.part(a, c)
    got = is_locally_transitive(grown)
    assert not got.holds
