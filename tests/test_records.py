"""The value records are immutable slotted classes.  They keep the
dataclass repr, compare and hash by their field tuple within one class
only, take their fields by position or keyword, and survive pickle and
copy."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import mereo
from mereo import (
    AcyclicityVerdict, AxiomId, CatalogError, ElementId, LatticeReport,
    LocalTransitivityVerdict, ParthoodStructure, PartPath, SearchResult,
    SearchSpec, Subset, SumQueryResult, SupQueryResult, TheoryId,
    TheoryVerdict, Verdict, check_axiom, check_theory, is_acyclic,
    is_locally_transitive, verify_implication,
)
from mereo.axioms import AxiomInfo
from mereo.search import _iso_candidates, _split_constraints, enumerate_models
from mereo.sums import subset_planes
from mereo.theories import theory_axioms

from conftest import fixture, mask_tuples

A, B = ElementId(0, "a"), ElementId(1, "b")
A_REPR = "ElementId(index=0, label='a')"
B_REPR = "ElementId(index=1, label='b')"

# (maker of a fresh record, its field names in order, its repr as the
# dataclass versions printed it)
RECORDS = [
    (lambda: ElementId(0, "a"), ("index", "label"), A_REPR),
    (lambda: Subset((A, B), 3), ("members", "mask"),
     f"Subset(members=({A_REPR}, {B_REPR}), mask=3)"),
    (lambda: Verdict(AxiomId.IRR, True), ("axiom", "holds", "witness"),
     "Verdict(axiom=<AxiomId.IRR: 'IRR'>, holds=True, witness=None)"),
    (lambda: Verdict(AxiomId.T, False, (A, Subset((B,), 2))),
     ("axiom", "holds", "witness"),
     "Verdict(axiom=<AxiomId.T: 'T'>, holds=False, witness="
     f"({A_REPR}, Subset(members=({B_REPR},), mask=2)))"),
    (lambda: TheoryVerdict(TheoryId.SPO, False,
                           Verdict(AxiomId.IRR, False, (A,))),
     ("theory", "holds", "failing"),
     "TheoryVerdict(theory=<TheoryId.SPO: 'SPO'>, holds=False, failing="
     f"Verdict(axiom=<AxiomId.IRR: 'IRR'>, holds=False, witness=({A_REPR},)))"),
    (lambda: SumQueryResult((A,), True), ("candidates", "unique"),
     f"SumQueryResult(candidates=({A_REPR},), unique=True)"),
    (lambda: SupQueryResult((A, B), False), ("candidates", "unique"),
     f"SupQueryResult(candidates=({A_REPR}, {B_REPR}), unique=False)"),
    (lambda: LatticeReport(True, True, False, False, True, (A, B)),
     ("is_lattice", "is_distributive", "is_complemented", "is_boolean",
      "is_complete", "witness"),
     "LatticeReport(is_lattice=True, is_distributive=True, "
     "is_complemented=False, is_boolean=False, is_complete=True, "
     f"witness=({A_REPR}, {B_REPR}))"),
    (lambda: SearchSpec(3, ["T"], ("IRR",), ["SSP"]),
     ("max_n", "ambient", "require", "forbid"),
     "SearchSpec(max_n=3, ambient=(<AxiomId.T: 'T'>,), "
     "require=(<AxiomId.IRR: 'IRR'>,), forbid=(<AxiomId.SSP: 'SSP'>,))"),
    (lambda: SearchResult(ParthoodStructure.build("ab", [("a", "b")]), 3,
                          False),
     ("found", "explored", "exhausted"),
     "SearchResult(found=ParthoodStructure([a, b]; a<b), explored=3, "
     "exhausted=False)"),
    (lambda: PartPath((A, B)), ("nodes",),
     f"PartPath(nodes=({A_REPR}, {B_REPR}))"),
    (lambda: AcyclicityVerdict(False, (A, B)), ("holds", "cycle"),
     f"AcyclicityVerdict(holds=False, cycle=({A_REPR}, {B_REPR}))"),
    (lambda: LocalTransitivityVerdict(False, PartPath((A, B)), (A, B, A)),
     ("holds", "path", "triple"),
     f"LocalTransitivityVerdict(holds=False, path=PartPath(nodes=({A_REPR}, "
     f"{B_REPR})), triple=({A_REPR}, {B_REPR}, {A_REPR}))"),
]

IDS = [text.split("(", 1)[0] + str(i) for i, (_, _, text) in enumerate(RECORDS)]
records = pytest.mark.parametrize("make,fields,text", RECORDS, ids=IDS)


@records
def test_repr_is_the_dataclass_text(make, fields, text):
    assert repr(make()) == text


@records
def test_equal_records_compare_and_hash_equal(make, fields, text):
    x, y = make(), make()
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert hash(x) == hash(tuple(getattr(x, f) for f in fields))


@records
def test_a_record_is_not_its_field_tuple(make, fields, text):
    x = make()
    values = tuple(getattr(x, f) for f in fields)
    assert x != values and values != x


def test_records_of_different_classes_are_unequal():
    assert SumQueryResult((A,), True) != SupQueryResult((A,), True)
    assert SupQueryResult((A,), True) != SumQueryResult((A,), True)
    assert len({SumQueryResult((A,), True), SupQueryResult((A,), True)}) == 2
    assert Verdict(AxiomId.IRR, True) != Verdict(AxiomId.T, True)


@records
def test_fields_cannot_be_assigned_or_deleted(make, fields, text):
    x = make()
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(x, f, 1)
        with pytest.raises(AttributeError):
            delattr(x, f)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert not hasattr(x, "__dict__")
    assert repr(x) == text


@records
def test_keyword_construction(make, fields, text):
    x = make()
    assert type(x)(**{f: getattr(x, f) for f in fields}) == x


def test_defaults():
    assert Verdict(axiom=AxiomId.IRR, holds=True).witness is None
    assert TheoryVerdict(TheoryId.CM, True).failing is None
    assert LatticeReport(True, True, True, True, True).witness is None
    assert SearchSpec(2) == SearchSpec(2, (), (), ())
    assert AcyclicityVerdict(holds=True).cycle is None
    v = LocalTransitivityVerdict(True)
    assert v.path is None and v.triple is None


def test_element_ids_order_by_index_then_label():
    b0, a1, b1 = ElementId(0, "b"), ElementId(1, "a"), ElementId(1, "b")
    assert sorted([b1, a1, b0]) == [b0, a1, b1]
    assert b0 < a1 < b1 and b0 <= b0 and b1 > a1 and a1 >= a1
    assert not a1 < b0 and not b1 <= a1
    with pytest.raises(TypeError):
        A < (0, "b")
    with pytest.raises(TypeError):
        Verdict(AxiomId.IRR, True) < Verdict(AxiomId.T, True)


PROTOCOLS = pytest.mark.parametrize("protocol",
                                    range(pickle.HIGHEST_PROTOCOL + 1))


@records
@PROTOCOLS
def test_pickle_round_trip(make, fields, text, protocol):
    x = make()
    y = pickle.loads(pickle.dumps(x, protocol))
    assert type(y) is type(x) and y == x and repr(y) == text


def _filled_structures():
    """A structure with its labels read and both its subset planes built,
    the one a shared walk keeps for a class, with the planes list a
    search built on it, and one of nine elements with its planes built,
    of 512 bits each."""
    s = ParthoodStructure.build(["é", 'q"x', "c"], [("é", "q\"x")])
    s.element("c")
    subset_planes(s)
    subset_planes(s, True)
    assert s._universe is not None and s._label_index is not None
    spo = theory_axioms("SPO")
    for t in enumerate_models(3, spo, up_to_iso=True):
        subset_planes(t)
    kept = list(enumerate_models(3, spo, up_to_iso=True))[-1]
    assert kept is _iso_candidates(3, _split_constraints(spo)[0])._kept[-1]
    assert type(kept._subset_planes) is list
    assert type(kept._subset_planes[0]) is tuple
    # each element a part of the next
    large = ParthoodStructure.from_mask(
        9, sum(1 << (9 * i + i + 1) for i in range(8)))
    assert subset_planes(large)[-1].bit_length() > 256
    assert subset_planes(large, True)[-1].bit_length() > 256
    return [s, kept, large]


@PROTOCOLS
def test_structures_with_filled_caches_pickle_and_copy(protocol):
    for s in _filled_structures():
        for y in (pickle.loads(pickle.dumps(s, protocol)),
                  pickle.loads(pickle.dumps(SearchResult(s, 1, False),
                                            protocol)).found,
                  copy.copy(s), copy.deepcopy(s)):
            assert type(y) is ParthoodStructure and y == s
            assert repr(y) == repr(s) and hash(y) == hash(s)
            assert y is not s and mask_tuples(y) == mask_tuples(s)
            # the caches filled on first use are filled again
            assert subset_planes(y) == subset_planes(s)
            assert subset_planes(y, True) == subset_planes(s, True)
            assert y.element(s._labels[-1]) == s.element(s._labels[-1])


@records
def test_copy_round_trip(make, fields, text):
    x = make()
    for y in (copy.copy(x), copy.deepcopy(x)):
        assert type(y) is type(x) and y == x and repr(y) == text


def test_search_spec_refusals_in_order():
    # a max_n that is not an int is refused before its range is read,
    # not left to fail inside a search's range()
    for max_n, name in ((2.0, "float"), (2.5, "float"), (0.0, "float"),
                        ("3", "str"), (None, "NoneType")):
        with pytest.raises(TypeError,
                           match=f"^max_n must be an int, not {name}$"):
            SearchSpec(max_n, ["T"], ["IRR"], ["IRR", "T"])
    with pytest.raises(TypeError, match="^max_n must be an int, not float$"):
        verify_implication((), ["U_SUM"], "S_SUM", max_n=3.0)
    with pytest.raises(ValueError, match="max_n must be at least 1"):
        SearchSpec(0, ["T"], ["IRR"], ["IRR", "T"])
    with pytest.raises(CatalogError):
        SearchSpec(3, require=["T"], forbid=["T", "NOPE"])
    with pytest.raises(ValueError, match="require and forbid overlap"):
        SearchSpec(3, ["T"], ["T"], ["T"])
    with pytest.raises(ValueError,
                       match="forbid code T, IRR is also in ambient"):
        SearchSpec(3, ["IRR", "T"], (), ["T", "IRR"])


def test_verdicts_print_as_one_line():
    w4, c2 = fixture("w4"), fixture("c2")
    cyclic = ParthoodStructure.build(["a", "b", "c"],
                                     [("a", "b"), ("b", "c"), ("c", "a")])
    # the Verdict forms, the first as in the README
    assert str(check_axiom(w4, "SUP_SUB_SUM")) \
        == "SUP_SUB_SUM: fails, witness (1, {o1, o2})"
    assert str(check_axiom(w4, "T")) == "T: holds"
    assert str(check_axiom(c2, "EXISTS_EXT")) == "EXISTS_EXT: fails"
    assert str(check_theory(w4, "T3")) == "T3: holds"
    assert str(check_theory(c2, "CM")) == "CM: fails at U_SUM"
    assert str(is_acyclic(w4)) == "acyclic"
    assert str(is_acyclic(cyclic)) == "cyclic, witness [a, b, c]"
    assert str(is_locally_transitive(w4)) == "locally transitive"
    assert str(is_locally_transitive(fixture("chain4_gap"))) == (
        "not locally transitive on path [x -> z1 -> z2 -> y], "
        "triple (x, z1, z2)")

def test_axiom_info_is_the_only_dataclass():
    # AxiomInfo stays a dataclass: perfbench/tracing.py wraps each
    # catalog checker through dataclasses.is_dataclass and
    # dataclasses.replace.
    classes = set()
    for info in pkgutil.iter_modules(mereo.__path__, "mereo."):
        module = importlib.import_module(info.name)
        classes |= {obj for obj in vars(module).values()
                    if isinstance(obj, type)
                    and obj.__module__.startswith("mereo")}
    assert {type(make()) for make, _, _ in RECORDS} <= classes
    assert {c for c in classes if dataclasses.is_dataclass(c)} == {AxiomInfo}
