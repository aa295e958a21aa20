"""`--json` output is written by `cli._dumps`, which must give the text of
`json.dumps(doc, indent=2)`, with each structure in a document written as
its model document (the oracle `_model_doc`).  `_dumps` escapes each
label of a structure once; it and `serialize` read labels off the rows in
the order of `ParthoodStructure.pairs()`."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mereo import ParthoodStructure, TheoryId
from mereo import cli
from mereo.cli import _dumps, main, serialize

from conftest import FIXTURE_DIR, all_relations
from oracles import _model_doc


def indented(doc):
    return json.dumps(doc, indent=2, default=_model_doc)


# -- the writer against json --------------------------------------------------

CHARACTERS = st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),
    st.characters(max_codepoint=0x7f),
    st.sampled_from("é ￿\U0001f600"),
    st.characters(),
    st.characters(categories=["Cs"]),           # lone surrogates
)
TEXT = st.text(CHARACTERS, max_size=8)
INTS = st.one_of(st.integers(-3, 3), st.integers(),
                 st.integers(-(10 ** 40), 10 ** 40))
LEAVES = st.one_of(TEXT, INTS, st.booleans(), st.none())
TREES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=24)


@settings(deadline=None)
@given(TREES)
def test_dumps_is_json_dumps_with_indent_2(doc):
    assert _dumps(doc) == indented(doc)


@pytest.mark.parametrize("doc", [
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], [{}, ()]],
    {"": {"": [[[]]]}}, 0, -1, 10 ** 30, -(2 ** 100), True, False, None,
    "", "\ud800", "q\"x\\", "é", [True, 1, None, "1"],
])
def test_dumps_edge_cases(doc):
    assert _dumps(doc) == indented(doc)


@st.composite
def structures(draw):
    """A structure of 1 to 12 elements with labels drawn from TEXT: the
    empty relation, the full one or any other."""
    n = draw(st.integers(1, 12))
    labels = draw(st.lists(TEXT, min_size=n, max_size=n, unique=True))
    full = (1 << n) - 1
    rows = draw(st.one_of(
        st.just([0] * n), st.just([full] * n),
        st.lists(st.integers(0, full), min_size=n, max_size=n)))
    return ParthoodStructure(labels, rows)


@settings(deadline=None)
@given(structures(), st.integers(0, 2))
def test_dumps_writes_a_structure_as_its_model_document(s, depth):
    newline = "\n" + "  " * depth
    want = json.dumps(_model_doc(s), indent=2).replace("\n", newline)
    assert _dumps(s, newline) == want


@pytest.mark.parametrize("doc", [
    1.5, float("nan"), {1, 2}, frozenset(), b"x", object(),
    [1, 2.0], {"a": [{"b": {3}}]}, {1: "a"}, {None: 1},
])
def test_dumps_refuses_other_values(doc):
    with pytest.raises(TypeError):
        _dumps(doc)


# -- every --json command against json.dumps ---------------------------------

def run(argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def run_both(argv, monkeypatch):
    """The run of a command line and the run of it with `json.dumps(doc,
    indent=2)` writing the document, a structure in it as its
    `_model_doc`, which must agree."""
    ours = run(argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "_dumps", indented)
        theirs = run(argv)
    assert ours == theirs, argv
    return ours


def file_command_lines(path, labels):
    pair = ",".join(labels[:2])
    lines = [("check", path, "--theory", t.value) for t in TheoryId]
    lines += [("axioms", path), ("axioms", path, "--only", "T,SSP"),
              ("sum", path, "--set", pair), ("sup", path, "--set", pair),
              ("sum", path, "--set", ",".join(labels)),
              ("sup", path, "--set", labels[-1]),
              ("lattice", path), ("lattice", path, "--tarski"),
              ("localtrans", path)]
    for op in cli._ALG_OPS:
        args = labels[0] if op == "complement" else pair
        lines.append(("alg", path, "--op", op, "--args", args))
    return [line + ("--json",) for line in lines]


def fixture_labels(path):
    return cli.load_structure(str(path))[1]._labels


@pytest.mark.parametrize("path", sorted(FIXTURE_DIR.glob("*.txt")),
                         ids=lambda p: p.stem)
def test_json_commands_on_every_fixture(path, monkeypatch):
    labels = fixture_labels(path)
    if len(labels) == 1:
        labels = labels * 2
    for argv in file_command_lines(str(path), labels):
        code, out = run_both(argv, monkeypatch)
        assert code in (0, 1) and out.endswith("}\n")


def test_json_commands_on_escaped_labels(tmp_path, monkeypatch):
    path = tmp_path / "escapes.txt"
    path.write_text('elements: é q"x b\\s\n'
                    'part: é < q"x\npart: b\\s < q"x\n', encoding="utf-8")
    labels = fixture_labels(path)
    assert labels == ("é", 'q"x', "b\\s")
    for argv in file_command_lines(str(path), labels):
        code, out = run_both(argv, monkeypatch)
        assert code in (0, 1) and out.isascii()


@pytest.mark.parametrize("theory", [t.value for t in TheoryId])
def test_json_enumerate_up_to_iso(theory, monkeypatch):
    for n in range(1, 7 if theory == "SPO" else 6):
        code, out = run_both(("enumerate", "--n", str(n), "--theory", theory,
                              "--up-to-iso", "--json"), monkeypatch)
        assert code == 0 and json.loads(out)["n"] == n
    if theory == "SPO":
        # A000112(6): the strict partial orders on 6 elements
        assert len(json.loads(out)["models"]) == 318


def test_json_enumerate_with_no_models(monkeypatch):
    code, out = run_both(("enumerate", "--n", "2", "--theory", "GM",
                          "--up-to-iso", "--json"), monkeypatch)
    assert code == 0 and json.loads(out)["models"] == []
    assert '\n  "models": []\n}\n' in out


def test_json_enumerate_labelled_and_count_only(monkeypatch):
    for extra in ((), ("--count-only",), ("--count-only", "--up-to-iso")):
        code, _ = run_both(("enumerate", "--n", "3", "--theory", "SPO",
                            "--json") + extra, monkeypatch)
        assert code == 0


def test_json_implies_found_and_exhausted(monkeypatch):
    code, out = run_both(("implies", "--ambient", "T", "--from", "U_SUM",
                          "--to", "SSP", "--max-n", "5", "--json"),
                         monkeypatch)
    assert code == 1 and json.loads(out)["countermodel"] is not None
    code, out = run_both(("implies", "--from", "U_SUM", "--to", "S_SUM",
                          "--max-n", "4", "--json"), monkeypatch)
    assert code == 0 and json.loads(out)["exhausted"] is True


# -- the label-pair walk against the ElementId construction ------------------

def old_serialize(s):
    lines = ["elements: " + " ".join(e.label for e in s.universe)]
    lines += [f"part: {p.label} < {w.label}" for p, w in s.pairs()]
    return "\n".join(lines) + "\n"


def label_cases():
    yield from all_relations(3)
    for labels in (["é", 'q"x', "b\\s"], [" ", "x y", "\U0001f600"]):
        for mask in range(0, 1 << 9, 37):
            yield ParthoodStructure.from_mask(3, mask, labels)
    yield ParthoodStructure(list("abcdefghijkl"),
                            [(1 << 12) - 1] * 12)


def test_label_pairs_match_the_element_id_construction():
    count = 0
    for s in label_cases():
        fresh = ParthoodStructure(s._labels, s.rows)
        assert _dumps(fresh) == indented(_model_doc(s))
        assert serialize(fresh) == old_serialize(s)
        assert fresh._universe is None          # no ElementId was built
        count += 1
    assert count == 2 + 16 + 512 + 2 * 14 + 1
