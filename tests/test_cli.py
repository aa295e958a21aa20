import argparse
import io
import json
import random
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mereo import ParthoodStructure, cli
from mereo.cli import (
    ParseError, _build_parser, _covering_pairs, load_structure, main,
    parse_structure, serialize,
)

from conftest import FIXTURE_DIR, GOLDEN_DIR, fixture, structures
from oracles import _parse_structure_lines


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


# -- file format ---------------------------------------------------------------

def test_parse_examples():
    s = parse_structure("elements: x y\npart: x < y")
    assert s == fixture("c2")
    s = parse_structure(
        "elements: u o1 o2 o3\npart: o1 < u\npart: o2 < u\npart: o3 < u")
    assert [e.label for e in s.universe] == ["u", "o1", "o2", "o3"]
    assert s.is_unity("u")


def test_parse_error_reports_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_structure("elements: a\npart: a < b")
    assert exc.value.line_no == 2
    assert "undeclared" in str(exc.value) and "'b'" in str(exc.value)
    with pytest.raises(ParseError):
        parse_structure("part: a < b")
    with pytest.raises(ParseError):
        parse_structure("elements: a\nwhat: ever")
    with pytest.raises(ParseError):
        parse_structure("elements: a a")
    with pytest.raises(ParseError):
        parse_structure("elements: a\npart: a <")


def test_labels_containing_a_comma_are_refused(tmp_path, capsys):
    # --set and --args split on commas, so such a label could never be named
    with pytest.raises(ParseError) as exc:
        parse_structure("elements: a,b c")
    assert exc.value.line_no == 1 and "','" in str(exc.value)
    bad = tmp_path / "comma.txt"
    bad.write_text("elements: a,b c\npart: c < a,b\n")
    for argv in (("check", str(bad), "--theory", "SPO"),
                 ("sum", str(bad), "--set", "a,b")):
        code, out = run_cli(*argv)
        assert code == 2 and out == ""
        assert "parse error: line 1" in capsys.readouterr().err


def test_comments_blanks_and_duplicates_are_tolerated():
    text = "# hi\n\nelements: a b\n\npart: a < b\npart: a < b\n# bye\n"
    s = parse_structure(text)
    assert s == fixture("c2") or [e.label for e in s.universe] == ["a", "b"]
    assert s.part("a", "b")


def test_round_trip_all_fixture_files(fixture_files):
    assert len(fixture_files) == 10
    for path in fixture_files:
        text = path.read_text()
        s = parse_structure(text)
        again = parse_structure(serialize(s))
        assert again == s, path


@settings(max_examples=80, deadline=None)
@given(structures(max_n=5))
def test_round_trip_random_structures(s):
    assert parse_structure(serialize(s)) == s


def _parsed(parse, text):
    """The labels and rows parse makes of text, or the line number and
    message of its ParseError."""
    try:
        s = parse(text)
    except ParseError as exc:
        return exc.line_no, str(exc)
    return s._labels, s.rows


# declared, undeclared, empty, and labels an elements line must refuse
_LABELS = st.sampled_from(["a", "b", "c", "ab", "q", "z", "", "a,b", "a<b",
                           "<"])
_PART_LINES = st.builds(
    "part:{}{}{}{}".format, st.sampled_from(["", " ", "  "]), _LABELS,
    st.sampled_from([" < ", " < ", "<", " ", " < x < ", " << "]), _LABELS)
_LINES = st.one_of(
    st.sampled_from(["", "   ", "\t", "# a comment", "  # part: a < b",
                     "<", "elements", "part", "what: ever", "elements:"]),
    st.lists(_LABELS, max_size=4).map(
        lambda labels: "elements: " + " ".join(labels)),
    _PART_LINES)
_STRUCTURE_FILES = st.builds(
    lambda head, lines, endings: "".join(
        line + end for line, end in zip(head + lines, endings)),
    st.sampled_from([[], ["elements: a b c"], ["elements: a b ab c"]]),
    st.lists(_LINES, max_size=8),
    st.lists(st.sampled_from(["\n", "\r\n", "\r", ""]),
             min_size=9, max_size=9))


@settings(max_examples=400, deadline=None)
@given(_STRUCTURE_FILES)
@example("elements: a b\npart: q < z\n")     # the part side is named first
@example("# c\r\n\r\nelements: a b\r\npart: a < b\r\n")
def test_parser_matches_the_line_by_line_oracle(text):
    assert _parsed(parse_structure, text) \
        == _parsed(_parse_structure_lines, text)


def test_files_read_as_bytes_parse_as_text_mode_reads(tmp_path,
                                                      fixture_files):
    # text mode turns \r\n and \r into \n; splitlines takes all three
    for path in fixture_files:
        text = path.read_text(encoding="utf-8")
        for end in ("\n", "\r\n", "\r"):
            copy = tmp_path / path.name
            copy.write_bytes(text.replace("\n", end).encode("utf-8"))
            with open(copy, encoding="utf-8") as fh:
                want = _parse_structure_lines(fh.read())
            name, s = load_structure(str(copy))
            assert name == path.stem and s == want
            assert s._labels == want._labels


_NOT_UTF8 = pytest.mark.parametrize("data,line_no", [
    (b"elements: a b\npart: a < \xff\n", 2),
    (b"\xfe", 1),
    # a line ends at \r and \r\n too; the sequence is cut after its lead
    (b"# \xc3\xa9\r\r\nelements: a b\rpart: a < \xe2\x82\n", 4),
])


def _stdin(monkeypatch, data):
    """Make stdin a text stream over data, as a process's stdin is."""
    monkeypatch.setattr(sys, "stdin",
                        io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                         errors="surrogateescape"))


@_NOT_UTF8
def test_a_file_that_is_not_utf8_is_a_parse_error(data, line_no, tmp_path,
                                                  capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        load_structure(str(bad))
    assert exc.value.line_no == line_no
    code, out = run_cli("check", str(bad), "--theory", "SPO")
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: line {line_no}: not UTF-8 (byte 0x")
    assert "Traceback" not in err


# -- commands ------------------------------------------------------------------

def fx(name):
    return str(FIXTURE_DIR / f"{name}.txt")


def test_check_exit_codes():
    code, out = run_cli("check", fx("w4"), "--theory", "T3")
    assert code == 0 and "result: holds" in out
    # codes resolve case-insensitively
    code, _ = run_cli("check", fx("w4"), "--theory", "t3")
    assert code == 0
    code, out = run_cli("check", fx("w4"), "--theory", "MSPO_DDAG")
    assert code == 1 and "fails at DDAGGER" in out
    code, _ = run_cli("check", fx("w4"), "--theory", "NOPE")
    assert code == 2


def test_axioms_only_selection():
    code, out = run_cli("axioms", fx("w4"), "--only", "SSP,IRR,T")
    assert code == 0 and "summary: 3/3 hold" in out
    code, out = run_cli("axioms", fx("w4"))
    assert code == 1
    assert "summary: 25/32 hold" in out


@pytest.mark.parametrize("only", [",", " , ,", ""])
@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_axioms_only_naming_no_codes_is_a_usage_error(only, mode, capsys):
    code, out = run_cli("axioms", fx("w4"), "--only", only, *mode)
    assert code == 2 and out == ""
    assert "--only names no axiom codes" in capsys.readouterr().err


def test_sum_and_sup_outputs():
    code, out = run_cli("sum", fx("w4"), "--set", "o1,o2")
    assert code == 1 and out == "no sum\n"
    code, out = run_cli("sup", fx("w4"), "--set", "o1,o2")
    assert code == 0 and out == "supremum: 1\n"
    code, out = run_cli("sum", fx("c2"), "--set", "x")
    assert code == 0 and out == "sum candidates: x, y (not unique)\n"


def test_alg_outputs():
    code, out = run_cli("alg", fx("b7"), "--op", "product", "--args", "ab,bc")
    assert code == 0 and out == "product: b\n"
    code, out = run_cli("alg", fx("w4"), "--op", "difference",
                        "--args", "1,o1")
    assert code == 0 and out == "difference: absent\n"
    code, out = run_cli("alg", fx("c2"), "--op", "bsum", "--args", "x,x")
    assert code == 1 and "ambiguous" in out
    code, _ = run_cli("alg", fx("b7"), "--op", "complement", "--args", "a,b")
    assert code == 2


def test_sum_sup_and_alg_call_the_library_through_the_cli_module(
        monkeypatch):
    # the commands look the operations up when they run, so a function
    # replaced in mereo.cli (as the benchmark tracer does) is the one
    # called
    names = ("sum_of", "sup_of", "product", "difference", "complement",
             "binary_sum")
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(cli, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(cli, name, counted)
    b7 = fx("b7")
    assert run_cli("sum", b7, "--set", "a,b") == (0, "sum: ab\n")
    assert run_cli("sup", b7, "--set", "a,b") == (0, "supremum: ab\n")
    for op, args, result in (("product", "ab,bc", "b"),
                             ("difference", "abc,a", "bc"),
                             ("complement", "a", "bc"),
                             ("bsum", "a,c", "ac")):
        assert run_cli("alg", b7, "--op", op, "--args", args) \
            == (0, f"{op}: {result}\n")
    assert calls == dict.fromkeys(names, 1)


def test_alg_op_choices_in_help_and_errors(capsys):
    choices = ("product", "difference", "complement", "bsum")
    code, out = run_cli("alg", "--help")
    assert code == 0
    assert out.startswith("usage: mereo alg ")
    assert " --op {product,difference,complement,bsum} " in out
    code, out = run_cli("alg", fx("b7"), "--op", "join", "--args", "a,b")
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    # quoted up to Python 3.13, bare from 3.14
    quoted = ", ".join(f"'?{c}'?" for c in choices)
    assert re.search(r"^mereo alg: error: argument --op: invalid choice: "
                     rf"'join' \(choose from {quoted}\)$", err, re.M)


def test_enumerate_count():
    code, out = run_cli("enumerate", "--n", "3", "--theory", "CM",
                        "--count-only", "--up-to-iso")
    assert code == 0 and out.strip() == "1"
    code, out = run_cli("enumerate", "--n", "3", "--theory", "SPO",
                        "--count-only", "--up-to-iso")
    assert code == 0 and out.strip() == "5"
    # A000112 at the command-line cap
    code, out = run_cli("enumerate", "--n", "7", "--theory", "SPO",
                        "--up-to-iso", "--count-only")
    assert code == 0 and out.strip() == "2045"
    code, _ = run_cli("enumerate", "--n", "9", "--theory", "SPO",
                      "--count-only")
    assert code == 2


def test_enumerate_mem_and_mcm_at_the_command_line_cap():
    # both name WSP, which entails IRR, so they walk the strict partial
    # orders instead of every transitive relation
    for theory, classes in (("MEM", "31"), ("MCM", "8")):
        code, out = run_cli("enumerate", "--n", "7", "--theory", theory,
                            "--up-to-iso", "--count-only")
        assert code == 0 and out.strip() == classes


@pytest.mark.parametrize("option, value", [("--n", "0"), ("--n", "8"),
                                           ("--max-n", "0"),
                                           ("--max-n", "8"),
                                           ("--max-n", "-1")])
@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_search_sizes_outside_the_cap_are_usage_errors(option, value, mode,
                                                       capsys):
    if option == "--n":
        argv = ("enumerate", "--n", value, "--theory", "SPO")
    else:
        argv = ("implies", "--ambient", "T", "--from", "U_SUM", "--to",
                "SSP", "--max-n", value)
    assert run_cli(*argv, *mode) == (2, "")
    assert capsys.readouterr().err == f"error: {option} must be within 1..7\n"


def test_enumerate_structures_parse_back():
    code, out = run_cli("enumerate", "--n", "3", "--theory", "SPO",
                        "--up-to-iso")
    assert code == 0
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 5
    for block in blocks:
        parse_structure(block)
    # without the isomorphism filter every labelling shows up
    code, out = run_cli("enumerate", "--n", "2", "--theory", "SPO",
                        "--count-only")
    assert code == 0 and out.strip() == "3"


def test_enumerate_output_is_deterministic():
    first = run_cli("enumerate", "--n", "4", "--theory", "T3", "--up-to-iso")
    again = run_cli("enumerate", "--n", "4", "--theory", "T3", "--up-to-iso")
    assert first == again and first[0] == 0
    # there is no thread pool to size any more
    code, out = run_cli("enumerate", "--n", "4", "--theory", "T3",
                        "--workers", "3")
    assert code == 2 and out == ""


def test_implies_outputs():
    code, out = run_cli("implies", "--ambient", "T", "--from", "WSP",
                        "--to", "S_SUM", "--max-n", "4")
    assert code == 0 and "exhausted" in out
    code, out = run_cli("implies", "--ambient", "T,IRR", "--from", "SSP",
                        "--to", "C_PROD", "--max-n", "6")
    assert code == 1 and "countermodel found (n=6)" in out
    parse_structure(out.split(":\n", 1)[1])


@pytest.mark.parametrize("hypothesis", [",", " , ,", ""])
@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_implies_from_naming_no_codes_is_a_usage_error(hypothesis, mode,
                                                        capsys):
    code, out = run_cli("implies", "--from", hypothesis, "--to", "SSP",
                        "--max-n", "2", *mode)
    assert code == 2 and out == ""
    assert "--from names no axiom codes" in capsys.readouterr().err


@pytest.mark.parametrize("ambient", [",", " , ,", ""])
@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_implies_ambient_naming_no_codes_is_a_usage_error(ambient, mode,
                                                           capsys):
    code, out = run_cli("implies", "--ambient", ambient, "--from", "WSP",
                        "--to", "SSP", "--max-n", "2", *mode)
    assert code == 2 and out == ""
    assert "--ambient names no axiom codes" in capsys.readouterr().err


@pytest.mark.parametrize("hypothesis,conclusion", [
    ("U_SUM", "U_SUM"), ("WSP,U_SUM", "U_SUM"), ("u_sum", "U_SUM"),
])
@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_implies_conclusion_among_hypotheses_is_a_usage_error(
        hypothesis, conclusion, mode, capsys):
    code, out = run_cli("implies", "--from", hypothesis, "--to", conclusion,
                        "--max-n", "2", *mode)
    assert code == 2 and out == ""
    assert "--to U_SUM is also a hypothesis" in capsys.readouterr().err


@pytest.mark.parametrize("ambient", ["U_SUM", "T,U_SUM", "u_sum"])
@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_implies_conclusion_in_ambient_is_a_usage_error(ambient, mode,
                                                        capsys):
    code, out = run_cli("implies", "--ambient", ambient, "--from", "WSP",
                        "--to", "U_SUM", *mode)
    assert code == 2 and out == ""
    assert "--to U_SUM is also an ambient axiom" in capsys.readouterr().err


def test_lattice_and_tarski():
    code, out = run_cli("lattice", fx("b7"))
    assert code == 0 and "boolean: yes" in out
    code, out = run_cli("lattice", fx("w4"))
    assert code == 1 and "distributive: no" in out
    code, out = run_cli("lattice", fx("w4"), "--tarski")
    assert code == 0 and "tarski: agree" in out


def test_lattice_on_a_raw_relation(tmp_path):
    cyc = tmp_path / "cyc.txt"
    cyc.write_text("elements: a b\npart: a < b\npart: b < a\n")
    code, out = run_cli("lattice", str(cyc))
    assert code == 1 and "not a strict order" in out
    # both correspondence sides fail, so they still agree
    code, out = run_cli("lattice", str(cyc), "--tarski")
    assert code == 0 and "tarski: agree" in out


def _count_calls(monkeypatch, fn):
    """Count calls to fn through every binding of it in a mereo module."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "mereo" or name.startswith("mereo."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("name", ["b7", "w4"])
@pytest.mark.parametrize("flags", [(), ("--json",), ("--tarski",),
                                   ("--tarski", "--json")])
def test_lattice_scans_the_zero_adjunction_once(name, flags, monkeypatch):
    from mereo import lattice, theories
    reports = _count_calls(monkeypatch, lattice.lattice_report)
    checks = _count_calls(monkeypatch, theories.check_theory)
    code, _ = run_cli("lattice", fx(name), *flags)
    assert reports[0] == 1
    if "--tarski" in flags:
        assert checks[0] == 1
        monkeypatch.undo()
        assert code == (0 if lattice.tarski_check(fixture(name)) else 1)
    else:
        assert checks[0] == 0


@pytest.mark.parametrize("name", ["b7", "w4"])
@pytest.mark.parametrize("flags", [(), ("--json",), ("--tarski",),
                                   ("--tarski", "--json")])
def test_lattice_checks_the_order_once(name, flags, monkeypatch):
    import dataclasses
    from mereo.axioms import CATALOG, AxiomId
    want = run_cli("lattice", fx(name), *flags)
    calls = {}
    for code in (AxiomId.T, AxiomId.IRR):
        info = CATALOG[code]

        def counted(s, code=code, find=info.find_violation):
            calls[code] = calls.get(code, 0) + 1
            return find(s)

        monkeypatch.setitem(CATALOG, code, dataclasses.replace(
            info, find_violation=counted))
    assert run_cli("lattice", fx(name), *flags) == want
    # once for the lattice side, and once more for the classical
    # mereology side with --tarski
    checks = 2 if "--tarski" in flags else 1
    assert calls == {AxiomId.T: checks, AxiomId.IRR: checks}


def test_localtrans_outputs():
    code, out = run_cli("localtrans", fx("chain4"))
    assert code == 0
    code, out = run_cli("localtrans", fx("chain4_gap"))
    assert code == 1
    assert "witness path: x -> z1 -> z2 -> y" in out
    assert "witness triple: (x, z1, z2)" in out


def test_localtrans_reports_a_cycle(tmp_path):
    cyclic = tmp_path / "cyc.txt"
    cyclic.write_text("elements: a b c d\npart: a < b\npart: b < c\n"
                      "part: c < a\npart: c < d\n")
    code, out = run_cli("localtrans", str(cyclic))
    assert code == 1
    assert out == ("structure: cyc\nacyclic: no\ncycle: [a, b, c]\n"
                   "locally-transitive: yes\n")
    code, out = run_cli("localtrans", str(cyclic), "--json")
    assert code == 1
    assert json.loads(out)["cycle"] == ["a", "b", "c"]


def test_a_structure_is_read_from_stdin_as_dash(monkeypatch):
    _stdin(monkeypatch, (FIXTURE_DIR / "c2.txt").read_bytes())
    assert run_cli("check", "-", "--theory", "SPO") == (
        0, "structure: -\ntheory: SPO [T, IRR]\nresult: holds\n")


@_NOT_UTF8
def test_stdin_that_is_not_utf8_is_a_parse_error(data, line_no, monkeypatch,
                                                 capsys):
    # the text stream decodes with surrogateescape, as under the C
    # locale, so only the bytes show what is not UTF-8
    _stdin(monkeypatch, data)
    with pytest.raises(ParseError) as exc:
        load_structure("-")
    assert exc.value.line_no == line_no
    _stdin(monkeypatch, data)
    code, out = run_cli("check", "-", "--theory", "SPO")
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: line {line_no}: not UTF-8 (byte 0x")
    assert "Traceback" not in err


def test_closed_stdin_is_an_input_error(monkeypatch, capsys):
    # Python sets sys.stdin to None when the process starts with it closed
    monkeypatch.setattr(sys, "stdin", None)
    code, out = run_cli("check", "-", "--theory", "SPO")
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err == "error: standard input is closed\n"


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("elements: a\npart: a < b\n")
    code, _ = run_cli("check", str(bad), "--theory", "SPO")
    assert code == 2
    code, _ = run_cli("check", str(tmp_path / "missing.txt"),
                      "--theory", "SPO")
    assert code == 2


# -- machine-readable output ----------------------------------------------------

def test_json_check_parses_back():
    code, out = run_cli("check", fx("w4"), "--theory", "MSPO_DDAG", "--json")
    doc = json.loads(out)
    assert code == 1
    assert doc["structure"] == "w4"
    assert doc["theory"] == "MSPO_DDAG"
    assert doc["holds"] is False
    assert doc["failed_axiom"] == "DDAGGER"
    assert doc["witness"]["elements"] == ["1"]
    assert doc["witness"]["subsets"] == [["o1", "o2"]]


def test_json_axioms_witness_labels_resolve():
    code, out = run_cli("axioms", fx("w4"), "--json")
    doc = json.loads(out)
    labels = {"1", "o1", "o2", "o3"}
    assert len(doc["results"]) == 32
    for entry in doc["results"]:
        if entry["witness"] is not None:
            assert set(entry["witness"]["elements"]) <= labels
            for sub in entry["witness"]["subsets"]:
                assert set(sub) <= labels


def test_json_sum_and_enumerate():
    _, out = run_cli("sum", fx("c2"), "--set", "x", "--json")
    doc = json.loads(out)
    assert doc["candidates"] == ["x", "y"] and doc["unique"] is False
    _, out = run_cli("enumerate", "--n", "3", "--theory", "CM", "--json",
                     "--up-to-iso")
    doc = json.loads(out)
    assert len(doc["models"]) == 1


def test_json_implies():
    _, out = run_cli("implies", "--ambient", "T,IRR", "--from", "SSP_PLUS",
                     "--to", "SSP", "--max-n", "4", "--json")
    doc = json.loads(out)
    assert doc["exhausted"] is True and doc["countermodel"] is None


def test_json_implies_transitive_countermodel():
    # the lazy transitive walk stops at the first countermodel; the
    # figures match perfbench/claims.json
    code, out = run_cli("implies", "--ambient", "T", "--from", "U_SUM",
                        "--to", "SSP", "--max-n", "5", "--json")
    doc = json.loads(out)
    assert code == 1 and doc["exhausted"] is False
    assert len(doc["countermodel"]["elements"]) == 5
    assert doc["explored"] == 61


# -- dot export ------------------------------------------------------------------

def naive_covers(s: ParthoodStructure):
    """Covering pairs of the ingrediens order, recomputed from scratch."""
    out = []
    for x in s.universe:
        for y in s.universe:
            if x == y or not s.ing(x, y) or s.ing(y, x):
                continue
            strictly_between = any(
                z != x and z != y
                and s.ing(x, z) and not s.ing(z, x)
                and s.ing(z, y) and not s.ing(y, z)
                for z in s.universe)
            if not strictly_between:
                out.append((x.label, y.label))
    return out


@pytest.mark.parametrize("name", ["w4", "b7", "chain4", "x6", "s1"])
def test_dot_contains_exactly_the_covering_edges(name):
    s = fixture(name)
    code, out = run_cli("dot", fx(name))
    assert code == 0
    got = [line.strip() for line in out.splitlines() if "->" in line]
    want = [f'"{p}" -> "{w}";' for p, w in naive_covers(s)]
    assert got == want


def _labels(pairs):
    return [(p.label, w.label) for p, w in pairs]


def test_covering_pairs_match_the_naive_scan():
    # every relation up to n=3, then seeded ones with loops and cycles
    for n in range(1, 4):
        for mask in range(1 << (n * n)):
            s = ParthoodStructure.from_mask(n, mask)
            assert _labels(_covering_pairs(s)) == naive_covers(s), s
    rng = random.Random(41)
    for n in range(4, 12):
        for density in (0.1, 0.25, 0.5):
            for _ in range(8):
                mask = sum(1 << c for c in range(n * n)
                           if rng.random() < density)
                s = ParthoodStructure.from_mask(n, mask)
                assert _labels(_covering_pairs(s)) == naive_covers(s), s


def test_dot_full_draws_raw_relation():
    code, out = run_cli("dot", fx("chain4"), "--full")
    got = {line.strip() for line in out.splitlines() if "->" in line}
    assert f'"x" -> "z2";' in got
    assert len(got) == 6


def _dot_ids(line):
    """The quoted IDs on one DOT line, unescaped."""
    ids = re.findall(r'"((?:[^"\\]|\\.)*)"', line)
    return [re.sub(r"\\(.)", r"\1", i) for i in ids]


def test_dot_escapes_quotes_and_backslashes(tmp_path):
    path = tmp_path / "quoted.txt"
    path.write_text('elements: a"b c\\d e\\"\n'
                    'part: a"b < c\\d\npart: c\\d < e\\"\n')
    code, out = run_cli("dot", str(path))
    assert code == 0
    lines = [line.strip() for line in out.splitlines()]
    nodes = [_dot_ids(line) for line in lines
             if line.endswith(";") and "->" not in line and "=" not in line]
    edges = [_dot_ids(line) for line in lines if "->" in line]
    assert nodes == [['a"b'], ['c\\d'], ['e\\"']]
    assert edges == [['a"b', 'c\\d'], ['c\\d', 'e\\"']]
    assert '"a\\"b" -> "c\\\\d";' in lines


# -- golden outputs ---------------------------------------------------------------

GOLDEN_CASES = {
    "w4_check_t3.txt": ["check", fx("w4"), "--theory", "T3"],
    "w4_check_mspo_ddag.txt": ["check", fx("w4"), "--theory", "MSPO_DDAG"],
    "w4_supsubsum.txt": ["axioms", fx("w4"), "--only", "SUP_SUB_SUM"],
    "w4_sum_o1o2.txt": ["sum", fx("w4"), "--set", "o1,o2"],
    "w4_sup_o1o2.txt": ["sup", fx("w4"), "--set", "o1,o2"],
    "w4_dot.txt": ["dot", fx("w4")],
    "w4_lattice_tarski.txt": ["lattice", fx("w4"), "--tarski"],
    "b7_axioms.txt": ["axioms", fx("b7")],
    "chain4_gap_localtrans.txt": ["localtrans", fx("chain4_gap")],
    "x6_axioms_cprod.txt": ["axioms", fx("x6"), "--only", "SSP,C_PROD"],
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_CASES))
def test_golden_outputs_are_byte_stable(golden):
    argv = GOLDEN_CASES[golden]
    _, first = run_cli(*argv)
    _, second = run_cli(*argv)
    assert first == second
    assert first == (GOLDEN_DIR / golden).read_text()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mereo.cli", "check", fx("w4"),
         "--theory", "T3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "result: holds" in proc.stdout


# -- one parser per process ------------------------------------------------------

def test_help_goes_to_out(capsys):
    for argv, usage in ((["--help"], "usage: mereo "),
                        (["check", "--help"], "usage: mereo check ")):
        code, out = run_cli(*argv)
        assert code == 0 and out.startswith(usage)
        assert capsys.readouterr() == ("", "")


def test_parser_is_built_once_per_process(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _build_parser.cache_clear()
    for i in range(20):
        argv = (("check", fx("w4"), "--theory", "T3") if i % 2
                else ("dot", fx("c2")))
        assert run_cli(*argv)[0] == 0
    assert built.count("mereo") == 1


def _cli_lines():
    """Every subcommand in text and --json mode, a usage error, a
    catalog error and --help."""
    w4, c2 = fx("w4"), fx("c2")
    lines = [
        ("check", w4, "--theory", "T3"),
        ("axioms", c2, "--only", "WSP,SSP"),
        ("sum", w4, "--set", "o1,o2"),
        ("sup", w4, "--set", "o1,o2"),
        ("alg", w4, "--op", "product", "--args", "o1,1"),
        ("enumerate", "--n", "3", "--theory", "SPO", "--up-to-iso"),
        ("implies", "--ambient", "T", "--from", "U_SUM", "--to", "SSP",
         "--max-n", "4"),
        ("lattice", w4, "--tarski"),
        ("localtrans", c2),
    ]
    lines += [line + ("--json",) for line in lines]
    return lines + [
        ("dot", w4),
        ("check", w4),                          # argparse usage error
        ("check", w4, "--theory", "NOPE"),      # CatalogError
        ("--help",),
    ]


def test_cached_parser_answers_as_a_fresh_one(capsys):
    lines = _cli_lines()

    def run(order, fresh):
        results = {}
        for argv in order:
            if fresh:
                _build_parser.cache_clear()
            code, out = run_cli(*argv)
            results[argv] = (code, out, capsys.readouterr().err)
        return results

    forwards = run(lines, fresh=False)
    assert forwards == run(lines[::-1], fresh=False)
    assert forwards == run(lines, fresh=True)
    codes = [forwards[argv][0] for argv in lines]
    assert codes[-4:] == [0, 2, 2, 0]
    assert set(codes) == {0, 1, 2}
    assert "error: unknown theory code" in forwards[lines[-2]][2]
    assert "required: --theory" in forwards[lines[-3]][2]


def _error_lines():
    """Command lines whose errors and help come from argparse, or that
    spell options the way argparse also accepts."""
    w4 = fx("w4")
    return [
        ("check", w4, "--theory", "T3", "--bogus"),
        ("chek", w4),
        ("-h", "check"),
        ("check", "-h"),
        (),
        ("check", w4, "--theory=T3"),
        ("check", w4, "--the", "T3"),
        ("implies", "--from", "U_SUM", "--to", "SSP", "--max-n", "x"),
        ("alg", w4, "--op", "join", "--args", "o1,o2"),
        ("check", "--theory", "T3", "--", w4),
        ("implies", "--from", "U_SUM", "--to", "SSP", "--max-n", "-1"),
        ("sum", w4, "--set", "-x"),
        ("check", w4, "--theory", "T1", "--theory", "T3"),
        ("check", "-", "--theory", "T3"),       # w4 on standard input
    ]


def test_direct_dispatch_answers_as_the_nested_parse(capsys, monkeypatch):
    errors = _error_lines()
    lines = _cli_lines() + errors
    parser = _build_parser()[0]
    whole = []
    parse_args = parser.parse_args

    def counted(argv):
        whole.append(tuple(argv))
        return parse_args(argv)

    monkeypatch.setattr(parser, "parse_args", counted)

    def run():
        results = []
        for argv in lines:
            _stdin(monkeypatch, (FIXTURE_DIR / "w4.txt").read_bytes())
            code, out = run_cli(*argv)
            results.append((code, out, capsys.readouterr().err))
        return results

    direct = run()
    # only these reach the top-level parser: no command first, or
    # arguments the command's parser leaves over
    assert set(whole) == {("--help",), errors[0], errors[1], errors[2], ()}
    _build_parser()[1].clear()      # every line now takes the nested parse
    try:
        nested = run()
    finally:
        _build_parser.cache_clear()
    assert len(whole) == 5 + len(lines)
    assert direct == nested
    answers = direct[-len(errors):]
    assert [code for code, _, _ in answers] == [2, 2, 0, 0, 2, 0, 0, 2, 2, 0,
                                                2, 2, 0, 0]
    assert answers[0][2].endswith(
        "mereo: error: unrecognized arguments: --bogus\n")
    assert "invalid choice: 'chek'" in answers[1][2]
    assert answers[2][1].startswith("usage: mereo [-h]")
    assert answers[3][1].startswith("usage: mereo check ")
    assert answers[10][2] == "error: --max-n must be within 1..7\n"
    assert answers[11][2].endswith(
        "mereo sum: error: argument --set: expected one argument\n")
    assert answers[12][1] == run_cli(*lines[0])[1]
    assert answers[13][1].startswith("structure: -\ntheory: T3 ")


# -- the exact route -------------------------------------------------------------

def _benchmark_and_readme_shapes():
    """One line of every shape `perfbench/workloads.py` and the README
    send."""
    w4, b7 = fx("w4"), fx("b7")
    return [
        ("check", w4, "--theory", "T3"),
        ("check", w4, "--theory", "T3", "--json"),
        ("axioms", w4, "--json"),
        ("axioms", w4, "--only", "SUP_SUB_SUM"),
        ("sum", w4, "--set", "o1,o2", "--json"),
        ("sup", w4, "--set", "o1,o2"),
        ("alg", b7, "--op", "product", "--args", "ab,bc", "--json"),
        ("enumerate", "--n", "3", "--theory", "SPO", "--up-to-iso", "--json"),
        ("enumerate", "--n", "3", "--theory", "CM", "--up-to-iso",
         "--count-only", "--json"),
        ("implies", "--ambient", "T", "--from", "U_SUM", "--to", "SSP",
         "--max-n", "4", "--json"),
        ("implies", "--from", "WSP", "--to", "SSP", "--max-n", "3"),
        ("lattice", w4, "--tarski", "--json"),
        ("localtrans", fx("chain4_gap"), "--json"),
        ("dot", b7),
    ]


def test_benchmark_and_readme_lines_make_no_argparse_pass(monkeypatch):
    monkeypatch.chdir(FIXTURE_DIR.parent)
    readme = [tuple(line.split()[1:]) for line, _ in _readme_command_lines()]
    passes = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        passes.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for argv in _benchmark_and_readme_shapes() + readme:
        assert run_cli(*argv)[0] in (0, 1), argv
    assert passes == []
    assert run_cli("check", fx("w4"), "--theory=T3")[0] == 0
    assert passes == ["mereo check"]


# Values argparse converts, checks or takes as given, and tokens it reads
# in ways the exact route leaves to it.
_PLAIN_TOKENS = ("", "x", "3", "+5", " 5", "5_0", "T3", "SPO", "U_SUM",
                 "product", "join", "o1,o2")
_AWKWARD_TOKENS = ("-", "--", "-h", "--help", "-1", "-x")


@st.composite
def _command_lines(draw):
    """A command followed by tokens drawn at random, or by a well-formed
    tail with a few edits: a token deleted, an option given again with a
    value, or a token inserted.  The tokens are the command's declared
    option strings, their abbreviations and `--opt=value` spellings, and
    the plain and awkward tokens above."""
    shapes = {argv[0]: argv[1:] for argv in _benchmark_and_readme_shapes()}
    name = draw(st.sampled_from(sorted(shapes)))
    actions = _build_parser()[2][name][0]
    options = sorted(actions)
    token = st.sampled_from(
        options + list(_PLAIN_TOKENS) + list(_AWKWARD_TOKENS)
        + [o[:k] for o in options for k in (3, len(o) - 1)]
        + [o + "=" + v for o in options for v in ("3", "T3")])
    if draw(st.integers(0, 3)) == 0:
        return [name] + draw(st.lists(token, max_size=8))
    tokens = list(shapes[name])
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("delete", "repeat", "insert")))
        at = draw(st.integers(0, len(tokens)))
        if edit == "delete" and tokens:
            del tokens[min(at, len(tokens) - 1)]
        elif edit == "repeat":          # at either end, between options
            option = draw(st.sampled_from(options))
            given = [option] if actions[option].nargs == 0 else [
                option, draw(st.sampled_from(_PLAIN_TOKENS))]
            tokens = tokens + given if draw(st.booleans()) else given + tokens
        else:
            tokens.insert(at, draw(token))
    return [name] + tokens


@settings(max_examples=600, deadline=None)
@given(_command_lines())
@example(["check", "w4.txt", "--theory", "T1", "--theory", "T3", "--json"])
@example(["implies", "--from", "U_SUM", "--to", "SSP", "--max-n", "+5"])
@example(["implies", "--from", "U_SUM", "--to", "SSP", "--max-n", " 5"])
@example(["implies", "--from", "U_SUM", "--to", "SSP", "--max-n", "5_0"])
@example(["alg", "", "--op", "product", "--args", ""])
def test_exact_route_answers_as_the_command_parser(argv):
    _, commands, grammars = _build_parser()
    if cli._exact_namespace(grammars[argv[0]], argv[1:]) is None:
        return                      # left to argparse, which answers as ever
    want, extras = commands[argv[0]].parse_known_args(argv[1:])
    assert extras == []
    want.command = argv[0]
    assert vars(cli._parse_args(argv)) == vars(want)


@pytest.mark.parametrize("argv", [
    ("check", "w4.txt", "--theory=T3"),
    ("check", "w4.txt", "--the", "T3"),
    ("check", "w4.txt", "--theory", "T3", "--"),
    ("check", "-", "--theory", "T3"),
    ("check", "w4.txt", "--theory", "T3", "-h"),
    ("check", "w4.txt", "--theory"),
    ("check", "w4.txt", "--theory", "--json"),
    ("check", "w4.txt"),
    ("check", "--theory", "T3"),
    ("check", "w4.txt", "w4.txt", "--theory", "T3"),
    ("implies", "--from", "U_SUM", "--to", "SSP", "--max-n", "-1"),
    ("implies", "--from", "U_SUM", "--to", "SSP", "--max-n", "x"),
    ("implies", "--from", "U_SUM", "--to", "SSP", "--max-n", "5", "--n", "3"),
    ("alg", "w4.txt", "--op", "join", "--args", "o1,o2"),
    ("sum", "w4.txt", "--set", "-x"),
    ("enumerate", "--n", "3", "--theory", "SPO", "x"),
])
def test_exact_route_leaves_other_spellings_to_argparse(argv):
    assert cli._exact_namespace(_build_parser()[2][argv[0]], argv[1:]) is None


def _readme_command_lines():
    """The command lines of the README's "Command line" block, each
    with the comment after it."""
    text = (FIXTURE_DIR.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    assert len(lines) == 10 and all(l.startswith("mereo ") for l in lines)
    return [tuple(part.strip() for part in (l + "#").split("#")[:2])
            for l in lines]


@pytest.mark.parametrize("line, comment", _readme_command_lines())
def test_readme_command_lines_give_what_their_comments_say(line, comment,
                                                            monkeypatch):
    monkeypatch.chdir(FIXTURE_DIR.parent)
    code, out = run_cli(*line.split()[1:])
    status = re.search(r"\bexit (\d)", comment)
    if status:
        assert code == int(status.group(1))
    else:
        assert code in (0, 1) and out
    for quoted in re.findall(r'"([^"]*)"', comment):
        assert quoted in out.splitlines()
