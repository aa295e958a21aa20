import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mereo import (
    MAX_UNIVERSE_SIZE, DomainError, ElementId, ParthoodStructure, holds,
    is_sum, is_sup, sum_of, sup_of,
)
from mereo.axioms import transitivity_gap
from mereo.cli import serialize
from mereo.core import _ELEMS
from mereo.sums import subset_entry

from conftest import (
    all_fixtures, all_relations, fixture, o_ing, o_labels, o_ov, o_pairs,
    o_pov, structures,
)


def test_ing_examples():
    w4 = fixture("w4")
    assert w4.ing("o1", "1")
    assert not w4.ing("o1", "o2")
    for e in w4.universe:
        assert w4.ing(e, e)


def test_ext_ov_examples():
    w4 = fixture("w4")
    assert w4.ext("o1", "o2")
    assert not w4.ext("o1", "o1")
    assert not w4.ext("o1", "1")
    assert w4.ov("o1", "1")
    assert not w4.ov("o2", "o3")
    # common part a makes the two composites of x6 overlap and cross
    x6 = fixture("x6")
    assert x6.ov("x", "y")
    assert x6.pov("x", "y")


def test_pov_examples():
    w4 = fixture("w4")
    assert not w4.pov("o1", "o1")
    assert not w4.pov("o1", "1")


def test_zero_unity():
    w4, s1 = fixture("w4"), fixture("s1")
    assert w4.is_unity("1")
    assert not w4.is_zero("o1")
    assert s1.is_zero("e") and s1.is_unity("e")
    assert w4.unity().label == "1"
    assert w4.zero() is None
    assert s1.zero().label == "e"


def test_atoms():
    assert fixture("w4").atoms().labels() == ("o1", "o2", "o3")
    assert fixture("b7").atoms().labels() == ("a", "b", "c")
    assert fixture("s1").atoms().labels() == ("e",)


def test_domain_errors():
    w4, b7 = fixture("w4"), fixture("b7")
    with pytest.raises(DomainError):
        w4.ing("o1", "nope")
    with pytest.raises(DomainError):
        w4.ing(b7.element("a"), "o1")
    with pytest.raises(DomainError):
        w4.subset("o1", "zz")
    with pytest.raises(DomainError):
        ParthoodStructure.build(["a", "a"])
    with pytest.raises(DomainError):
        ParthoodStructure.build([])
    with pytest.raises(DomainError):
        ParthoodStructure.build(list("abcdefghijklm"))  # cap is 12
    # a relation mask has exactly n * n cells
    for mask in (1 << 10, 1 << 4, -1):
        with pytest.raises(DomainError):
            ParthoodStructure.from_mask(2, mask)
    assert ParthoodStructure.from_mask(2, (1 << 4) - 1).rows == (3, 3)
    for n in (13, -1, 0):
        with pytest.raises(DomainError, match="universe size"):
            ParthoodStructure.from_mask(n, 0)
    # labels are distinct as the strings they are stored as
    with pytest.raises(DomainError, match="distinct"):
        ParthoodStructure([1, "1"], [0b10, 0])
    with pytest.raises(DomainError, match="distinct"):
        ParthoodStructure.build([1, "1"])
    assert ParthoodStructure([1, 2], [0b10, 0]).index("1") == 0

    # the row count is checked before any row's bits, and a foreign bit
    # (or a negative row) is refused in whichever row it sits
    with pytest.raises(DomainError, match="one row per element"):
        ParthoodStructure(["a", "b"], [0b100])
    with pytest.raises(DomainError, match="one row per element"):
        ParthoodStructure(["a", "b"], [0, 0b100, 0])
    for rows in ([0b100, 0], [0, 0b100], [0, -1]):
        with pytest.raises(DomainError, match="foreign elements"):
            ParthoodStructure(["a", "b"], rows)


def test_build_looks_pair_labels_up_as_strings():
    # pair labels resolve as the strings the labels are stored as, as in
    # the constructor; a label that names no element is still refused
    s = ParthoodStructure.build([1, 2], [(1, 2)])
    assert s == ParthoodStructure([1, 2], [0b10, 0])
    assert s.part("1", "2") and not s.part("2", "1")
    assert ParthoodStructure.build(["1", "2"], [(1, "2")]) == s
    with pytest.raises(DomainError, match="undeclared label 3"):
        ParthoodStructure.build([1, 2], [(3, 2)])
    with pytest.raises(DomainError, match="undeclared label 'c'"):
        ParthoodStructure.build([1, 2], [(1, "c")])


def test_resolution_refusals():
    w4, b7 = fixture("w4"), fixture("b7")
    for x, message in ((4, "index 4 out of range"),
                       (-1, "index -1 out of range"),
                       (1.5, "cannot resolve element 1.5"),
                       (None, "cannot resolve element None")):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            w4.index(x)
    # a Subset of another structure: by its mask, else by its members
    with pytest.raises(DomainError,
                       match="^subset mentions foreign elements$"):
        w4.subset_mask(b7.subset("ab", "ac", "abc"))
    with pytest.raises(DomainError, match="^element a not in universe$"):
        w4.subset_mask(b7.subset("a", "b"))
    # a mask with a bit past the universe, or a negative one, which the
    # element table would read from its end
    for mask in (1 << 4, -1, 1 << MAX_UNIVERSE_SIZE):
        for query in (w4.subset_mask, w4.subset_from_mask,
                      lambda m: sum_of(w4, m), lambda m: sup_of(w4, m),
                      lambda m: is_sum(w4, "1", m),
                      lambda m: is_sup(w4, "1", m),
                      lambda m: subset_entry(w4, m),
                      lambda m: transitivity_gap(w4, m)):
            with pytest.raises(DomainError,
                               match="^subset mask mentions foreign "
                                     "elements$"):
                query(mask)
    for pair in (("c", "a"), ("a", "c")):
        with pytest.raises(DomainError, match="^undeclared label 'c'$"):
            ParthoodStructure.build(["a", "b"], [pair])


def test_element_table_lists_every_mask():
    assert len(_ELEMS) == 1 << MAX_UNIVERSE_SIZE
    for m, elements in enumerate(_ELEMS):
        assert elements == tuple(i for i in range(12) if m >> i & 1)


def test_subsets_in_encoding_order_and_membership():
    w4 = fixture("w4")
    subsets = list(w4.subsets())
    assert [s.mask for s in subsets] == list(range(16))
    assert [str(s) for s in subsets[:6]] == [
        "{}", "{1}", "{o1}", "{1, o1}", "{o2}", "{1, o2}"]
    s = w4.subset("o1", "1")
    assert w4.element("o1") in s and w4.element("1") in s
    assert w4.element("o2") not in s
    assert fixture("b7").element("a") not in s

# -- labels built on first use -------------------------------------------------

def _label_queries(labels, rows):
    """Each label-reading query, as a check against ElementIds built
    eagerly from labels."""
    eager = tuple(ElementId(i, str(l)) for i, l in enumerate(labels))
    n = len(eager)
    edges = [(eager[i], eager[j]) for i in range(n) for j in range(n)
             if rows[i] >> j & 1]

    def resolve(s):
        for e in eager:
            for key in (e.label, e, e.index):
                assert s.index(key) == e.index
                assert s.element(key) == e
            with pytest.raises(DomainError):
                s.index(ElementId(e.index, e.label + "'"))

    def subset(s):
        assert s.subset(*(e.label for e in eager)).members == eager
        assert s.subset(*range(n)).members == eager
        assert s.subset(*eager[::-1]).members == eager
        assert s.subset().members == ()

    def identity(s):
        twin = ParthoodStructure(list(labels), list(rows))
        assert s == twin
        assert hash(s) == hash(twin)
        renamed = [e.label + "'" for e in eager]
        assert s != ParthoodStructure(renamed, rows)
        assert s != ParthoodStructure(list(labels), [r ^ 1 for r in rows])

    def text(s):
        shown = ", ".join(f"{p.label}<{w.label}" for p, w in edges)
        assert repr(s) == ("ParthoodStructure(["
                           + ", ".join(e.label for e in eager) + "]"
                           + (f"; {shown})" if shown else ")"))
        assert serialize(s) == "".join(
            ["elements: " + " ".join(e.label for e in eager) + "\n"]
            + [f"part: {p.label} < {w.label}\n" for p, w in edges])

    return eager, (resolve, subset, identity, text)


def _check_lazy_labels(labels, rows):
    """Every query agrees with the eager labels on a fresh structure,
    with the universe read before it and read after it, even when the
    caller's label list changes after construction."""
    eager, queries = _label_queries(labels, rows)
    for query in queries:
        for universe_first in (True, False):
            given = list(labels)
            s = ParthoodStructure(given, rows)
            given.clear()
            if universe_first:
                assert s.universe == eager
            query(s)
            assert s.universe == eager


def test_lazy_labels_match_eager_on_fixtures():
    for s in all_fixtures():
        _check_lazy_labels(o_labels(s), s.rows)


def test_lazy_labels_match_eager_on_small_relations():
    for s in all_relations(3):
        _check_lazy_labels(o_labels(s), s.rows)


@st.composite
def labelled_relations(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    labels = draw(st.lists(st.text("abxy01'_", min_size=1, max_size=3),
                           min_size=n, max_size=n, unique=True))
    rows = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                         min_size=n, max_size=n))
    return labels, rows


@settings(max_examples=150, deadline=None)
@given(labelled_relations())
def test_lazy_labels_match_eager_on_random_relations(case):
    _check_lazy_labels(*case)


def test_raw_relations_are_allowed():
    # no well-formedness is imposed: loops and cycles construct fine
    s = ParthoodStructure.build(["a", "b"], [("a", "a"), ("a", "b"), ("b", "a")])
    assert s.part("a", "a") and s.part("b", "a")
    assert not holds(s, "IRR")


def test_mask_round_trip():
    for s in all_fixtures():
        again = ParthoodStructure.from_mask(s.n, s.relation_mask,
                                            [e.label for e in s.universe])
        assert again == s


def _literal_masks(n, mask):
    """rows, parts_in, ing_of, ing_up and ov_of read off the relation's
    cells one by one, as their definitions state them."""
    def part(x, y):
        return mask >> (x * n + y) & 1

    def ing(x, y):
        return x == y or part(x, y)

    def collect(test):
        return tuple(sum(1 << y for y in range(n) if test(x, y))
                     for x in range(n))

    return (collect(part),
            collect(lambda x, z: part(z, x)),
            collect(lambda x, z: ing(z, x)),
            collect(ing),
            collect(lambda x, u: any(ing(z, u) and ing(z, x)
                                     for z in range(n))))


def _built_masks(s):
    return s.rows, s.parts_in, s.ing_of, s.ing_up, s.ov_of


def test_one_pass_build_matches_definitions_on_small_relations():
    for s in all_relations(3):
        assert _built_masks(s) == _literal_masks(s.n, s.relation_mask)


@st.composite
def relations_up_to_the_cap(draw):
    # dense and sparse masks on every universe size the constructor allows
    n = draw(st.integers(min_value=1, max_value=MAX_UNIVERSE_SIZE))
    cells = n * n
    if draw(st.booleans()):
        mask = draw(st.integers(min_value=0, max_value=(1 << cells) - 1))
    else:
        cell = st.integers(min_value=0, max_value=cells - 1)
        mask = sum({1 << c for c in draw(st.lists(cell, max_size=2 * n))})
    return n, mask


@settings(max_examples=200, deadline=None)
@given(relations_up_to_the_cap())
def test_one_pass_build_matches_definitions_on_random_relations(case):
    n, mask = case
    want = _literal_masks(n, mask)
    full = (1 << n) - 1
    rows = [mask >> (i * n) & full for i in range(n)]
    assert _built_masks(ParthoodStructure.from_mask(n, mask)) == want
    assert _built_masks(ParthoodStructure(
        [f"e{i}" for i in range(n)], rows)) == want


@settings(max_examples=150, deadline=None)
@given(structures(max_n=5))
def test_derived_relations_match_naive_oracle(s):
    labels, pairs = o_labels(s), o_pairs(s)
    for x in labels:
        for y in labels:
            assert s.ing(x, y) == o_ing(pairs, x, y)
            assert s.ov(x, y) == o_ov(labels, pairs, x, y)
            assert s.ext(x, y) == (not o_ov(labels, pairs, x, y))
            assert s.pov(x, y) == o_pov(labels, pairs, x, y)


@settings(max_examples=150, deadline=None)
@given(structures(max_n=5))
def test_complementarity_and_symmetry(s):
    for x in s.universe:
        for y in s.universe:
            assert s.ext(x, y) == (not s.ov(x, y))
            assert s.ext(x, y) == s.ext(y, x)
            assert s.ov(x, y) == s.ov(y, x)
            assert s.pov(x, y) == s.pov(y, x)


@settings(max_examples=150, deadline=None)
@given(structures(max_n=5))
def test_overlap_disjunction_law_all_structures(s):
    # ov(x,y) iff x=y or xPy or yPx or pov(x,y), with no ambient assumptions
    for x in s.universe:
        for y in s.universe:
            rhs = (x == y or s.part(x, y) or s.part(y, x) or s.pov(x, y))
            assert s.ov(x, y) == rhs


@settings(max_examples=150, deadline=None)
@given(structures(max_n=5, transitive=True, irreflexive=True))
def test_non_ingrediens_disjunction_law_strict_orders(s):
    # not ing(x,y) iff ext(x,y) or pov(x,y) or yPx, given irr and as
    for x in s.universe:
        for y in s.universe:
            rhs = s.ext(x, y) or s.pov(x, y) or s.part(y, x)
            assert (not s.ing(x, y)) == rhs


@settings(max_examples=150, deadline=None)
@given(structures(max_n=5))
def test_corrected_exteriority_equivalence(s):
    # ext(x,y) iff x != y, neither part of the other, and no common part;
    # holds of every raw relation once the reflexive-conjunct typo is fixed
    for x in s.universe:
        for y in s.universe:
            common_part = any(s.part(z, x) and s.part(z, y)
                              for z in s.universe)
            rhs = (x != y and not s.part(x, y) and not s.part(y, x)
                   and not common_part)
            assert s.ext(x, y) == rhs


@settings(max_examples=100, deadline=None)
@given(structures(max_n=5))
def test_ing_reflexive_and_order_properties(s):
    assert all(s.ing(x, x) for x in s.universe)
    antis_p = holds(s, "ANTIS")
    ing_antisym = all(not (s.ing(x, y) and s.ing(y, x))
                      for x in s.universe for y in s.universe if x != y)
    assert antis_p == ing_antisym
    t_p = holds(s, "T")
    ing_trans = all(not (s.ing(x, y) and s.ing(y, z)) or s.ing(x, z)
                    for x in s.universe for y in s.universe
                    for z in s.universe)
    if t_p:
        assert ing_trans
    # the converse needs asymmetry: a mutual-part pair fails transitivity
    # of the raw relation while identity absorbs it at the ingrediens level
    if holds(s, "AS"):
        assert t_p == ing_trans


def test_ing_transitive_without_t_on_mutual_parts():
    # frozen falsifying example for the unrestricted equivalence
    s = ParthoodStructure.build(
        ["a", "b", "c"], [("b", "a"), ("b", "c"), ("c", "a"), ("c", "b")])
    assert not holds(s, "T") and holds(s, "IRR")
    ing_trans = all(not (s.ing(x, y) and s.ing(y, z)) or s.ing(x, z)
                    for x in s.universe for y in s.universe
                    for z in s.universe)
    assert ing_trans
