"""Command-line surface: structure files, verdict reports, diagram export.

Structure file format, one structure per file::

    # comment
    elements: a b ab
    part: a < ab
    part: b < ab

Commands (see --help for options):

    check FILE --theory ID        theory membership verdict
    axioms FILE [--only IDS]      axiom catalog report
    sum FILE --set LABELS         sum candidates of a subset
    sup FILE --set LABELS         supremum candidates of a subset
    alg FILE --op OP --args LABELS   product/difference/complement/bsum
    enumerate --n K --theory ID   labelled models (--up-to-iso: up to iso)
    implies --ambient IDS --from IDS --to ID --max-n K   countermodel search
    lattice FILE [--tarski]       lattice laws of the zero adjunction
    localtrans FILE               acyclicity and local transitivity
    dot FILE [--full]             DOT digraph (covering edges of ingrediens)

Exit status: 0 verdict holds, 1 verdict fails, 2 usage or parse error.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from types import SimpleNamespace
from typing import Optional, Sequence

from .axioms import (
    AxiomId, CatalogError, Verdict, axiom_id, check_all, check_axiom,
)
from .core import ElementId, MereologyError, ParthoodStructure, Subset, _ELEMS
from .lattice import tarski_agrees, zero_report
from .search import (
    SEARCH_MAX, SearchSpec, enumerate_models, find_model,
)
from .sums import (
    UniquenessFault, binary_sum, complement, difference, product, sum_of,
    sup_of,
)
from .theories import TheoryId, check_theory, theory_axioms, theory_id
from .weakparts import is_acyclic, is_locally_transitive


class ParseError(MereologyError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


# -- structure files ----------------------------------------------------------

def parse_structure(text: str) -> ParthoodStructure:
    """The structure a structure file's text describes.

    `part:` lines, almost every line of a file, are tested first, and each
    of their labels costs one dict lookup; the undeclared label is named
    only when a lookup fails.  Raises ParseError with the line number of
    the first fault."""
    labels: Optional[list[str]] = None
    index: dict[str, int] = {}
    rows: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("part:"):
            if labels is None:
                raise ParseError(line_no, "part line before elements line")
            sides = line[5:].split("<")
            if len(sides) != 2:
                raise ParseError(line_no, "expected 'part: A < B'")
            part, whole = sides[0].strip(), sides[1].strip()
            if not part or not whole:
                raise ParseError(line_no, "expected 'part: A < B'")
            try:
                rows[index[part]] |= 1 << index[whole]
            except KeyError as exc:
                raise ParseError(line_no, f"undeclared label "
                                 f"{exc.args[0]!r}") from None
        elif not line or line[0] == "#":
            continue
        elif line.startswith("elements:"):
            if labels is not None:
                raise ParseError(line_no, "duplicate elements line")
            labels = line[9:].split()
            if not labels:
                raise ParseError(line_no, "elements line needs labels")
            index = {label: i for i, label in enumerate(labels)}
            if len(index) != len(labels):
                raise ParseError(line_no, "duplicate label")
            if any("<" in l for l in labels):
                raise ParseError(line_no, "labels may not contain '<'")
            # --set and --args name elements in comma-separated lists
            if any("," in l for l in labels):
                raise ParseError(line_no, "labels may not contain ','")
            rows = [0] * len(labels)
        else:
            raise ParseError(line_no, f"unrecognised line {line!r}")
    if labels is None:
        raise ParseError(1, "missing elements line")
    return ParthoodStructure(labels, rows)


def _label_pairs(s: ParthoodStructure, parts: Sequence[str],
                 wholes: Sequence[str]) -> list[str]:
    """parts[x] + wholes[y] for each pair x P y of the relation,
    part-major and each part's wholes ascending, the order of
    `s.pairs()`."""
    pairs = []
    for x, r in enumerate(s.rows):
        part = parts[x]
        for y in _ELEMS[r]:
            pairs.append(part + wholes[y])
    return pairs


def serialize(s: ParthoodStructure) -> str:
    labels = s._labels
    lines = ["elements: " + " ".join(labels)]
    lines += _label_pairs(s, ["part: " + l + " < " for l in labels], labels)
    return "\n".join(lines) + "\n"


def _decode(data: bytes) -> str:
    """The bytes of a structure file as text, or a ParseError at the
    line of the first byte that is not UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line parse_structure would number: the lines before the
        # bad byte, plus its own
        line_no = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise ParseError(line_no, f"not UTF-8 (byte 0x{data[exc.start]:02x})"
                         ) from None


# One entry per distinct file content.  A process that runs several
# commands on a file, as the benchmark's catalog workload runs 18, parses
# it once; a one-shot process pays one lookup.  An entry holds a file's
# bytes and a structure of at most MAX_UNIVERSE_SIZE elements with what
# it filled on first use.
@functools.lru_cache(maxsize=16)
def _cached_parse(data: bytes) -> ParthoodStructure:
    """The structure that a structure file with these bytes describes,
    parsed on the first call for this content and shared by every later
    one.  A ParseError, a not-UTF-8 one included, is raised again on
    every call, as nothing is cached for it."""
    return parse_structure(_decode(data))


def load_structure(path: str) -> tuple[str, ParthoodStructure]:
    """The display name of a structure file (its base name without
    `.txt`, or `-` for standard input) and the structure it describes.

    The file is read on every call, and its bytes key a bounded cache
    (`_cached_parse`): commands on the same file content in one process
    share one parsed structure, and with it the universe, the label
    index and the subset planes that the structure fills on first use.
    Structures are immutable and their queries pure, so sharing one
    changes no output; a rewritten file has new bytes and is parsed
    afresh."""
    # bytes decoded at once; splitlines takes \r\n and \r as text mode would
    if path == "-":
        if sys.stdin is None:           # the process started with it closed
            raise OSError("standard input is closed")
        return "-", _cached_parse(sys.stdin.buffer.read())
    with open(path, "rb") as fh:
        data = fh.read()
    name = path.rsplit("/", 1)[-1]
    if name.endswith(".txt"):
        name = name[:-4]
    return name, _cached_parse(data)


# -- report rendering ---------------------------------------------------------

def _witness_text(witness: tuple) -> str:
    return "(" + ", ".join(str(w) for w in witness) + ")"


def _witness_json(witness: Optional[tuple]):
    if witness is None:
        return None
    elements, subsets = [], []
    for w in witness:
        if isinstance(w, Subset):
            subsets.append(list(w.labels()))
        else:
            elements.append(w.label)
    return {"elements": elements, "subsets": subsets}


def _verdict_json(v: Verdict):
    return {"axiom": v.axiom.value, "holds": v.holds,
            "witness": _witness_json(v.witness)}


_escape = json.encoder.encode_basestring_ascii


# One entry per label tuple and indent: `enumerate` and `implies` write
# only default-labelled structures, one shared label tuple per size
# (1..12), at one indent each, so a process needs at most 12 x 2 entries.
@functools.lru_cache(maxsize=24)
def _frame(labels: tuple[str, ...], newline: str) -> tuple:
    """(parts, wholes, opening, separator, closing, empty) of a model
    document with these labels whose closing brace follows `newline`:
    each part's `[`-prefix and each whole's `]`-suffix, escaped, and the
    text around the pairs, the `"elements"` block included."""
    inner = newline + "  "
    item = inner + "  "
    cell = item + "  "
    escaped = [_escape(l) for l in labels]
    head = ("{" + inner + '"elements": [' + item + ("," + item).join(escaped)
            + inner + "]," + inner + '"parts": ')
    return (tuple("[" + cell + l + "," + cell for l in escaped),
            tuple(l + item + "]" for l in escaped),
            head + "[" + item, "," + item, inner + "]" + newline + "}",
            head + "[]" + newline + "}")


def _dumps(doc, newline: str = "\n") -> str:
    """The text of `json.dumps(doc, indent=2)` for a document of list,
    tuple, str-keyed dict, str, int, bool, None and ParthoodStructure, a
    structure written as its model document {"elements": [labels],
    "parts": [[part, whole], ...]}; any other value, float included,
    raises TypeError.  CPython's `json` falls back to its pure-Python
    encoder whenever `indent` is set; this writer makes one string per
    container instead and escapes the str items of a list without a
    call.  A structure's escaped labels, pair prefixes and suffixes and
    the text around its pairs come from `_frame`, cached per label tuple
    and indent, so each structure costs one walk over its pairs
    (`_label_pairs`) and one join.  `newline` is the line break and
    indent that precede the document's closing bracket."""
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        inner = newline + "  "
        items = [_escape(x) if isinstance(x, str) else _dumps(x, inner)
                 for x in doc]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        inner = newline + "  "
        items = []
        for key, value in doc.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not "
                                f"{type(key).__name__}")
            items.append(_escape(key) + ": " + _dumps(value, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(doc, ParthoodStructure):
        parts, wholes, opening, separator, closing, empty = _frame(
            doc._labels, newline)
        pairs = _label_pairs(doc, parts, wholes)
        # n >= 1: only the parts may be empty
        return opening + separator.join(pairs) + closing if pairs else empty
    if isinstance(doc, str):
        return _escape(doc)
    if doc is None:
        return "null"
    if doc is True:
        return "true"
    if doc is False:
        return "false"
    if isinstance(doc, int):
        return int.__repr__(doc)
    raise TypeError(f"Object of type {type(doc).__name__} "
                    "is not JSON serializable")


def _emit(out, text: str):
    out.write(text + "\n")


# -- subcommands ---------------------------------------------------------------

def _comma_list(spec: str) -> list[str]:
    """The nonblank items of a comma-separated option value, stripped."""
    return [item.strip() for item in spec.split(",") if item.strip()]


def _axiom_list(spec: str, option: str) -> tuple[AxiomId, ...]:
    codes = tuple(axiom_id(c) for c in _comma_list(spec))
    if not codes:
        raise CatalogError(f"{option} names no axiom codes")
    return codes


def _size_within_cap(option: str, n: int) -> None:
    if not 1 <= n <= SEARCH_MAX:
        raise CatalogError(f"{option} must be within 1..{SEARCH_MAX}")


def _cmd_check(args, out) -> int:
    name, s = load_structure(args.file)
    tid = theory_id(args.theory)
    tv = check_theory(s, tid)
    axioms = ", ".join(a.value for a in theory_axioms(tid))
    if args.json:
        doc = {"structure": name, "theory": tid.value, "holds": tv.holds,
               "failed_axiom": None if tv.holds else tv.failing.axiom.value,
               "witness": None if tv.holds else _witness_json(tv.failing.witness)}
        _emit(out, _dumps(doc))
    else:
        _emit(out, f"structure: {name}")
        _emit(out, f"theory: {tid.value} [{axioms}]")
        if tv.holds:
            _emit(out, "result: holds")
        else:
            _emit(out, f"result: fails at {tv.failing.axiom.value}")
            if tv.failing.witness:
                _emit(out, f"witness: {_witness_text(tv.failing.witness)}")
    return 0 if tv.holds else 1


def _cmd_axioms(args, out) -> int:
    codes = None if args.only is None else _axiom_list(args.only, "--only")
    name, s = load_structure(args.file)
    if codes:
        verdicts = [check_axiom(s, c) for c in codes]
    else:
        verdicts = check_all(s)
    if args.json:
        doc = {"structure": name,
               "results": [_verdict_json(v) for v in verdicts]}
        _emit(out, _dumps(doc))
    else:
        _emit(out, f"structure: {name}")
        width = max(len(v.axiom.value) for v in verdicts)
        for v in verdicts:
            line = f"{v.axiom.value:<{width}}  {'pass' if v.holds else 'fail'}"
            if not v.holds and v.witness:
                line += f"  witness: {_witness_text(v.witness)}"
            _emit(out, line)
        held = sum(v.holds for v in verdicts)
        _emit(out, f"summary: {held}/{len(verdicts)} hold")
    return 0 if all(v.holds for v in verdicts) else 1


def _subset_report(args, out, query, key: str, word: str) -> int:
    """Print the sum or supremum candidates of the --set subset."""
    name, s = load_structure(args.file)
    subset = s.subset(*_comma_list(args.set))
    res = query(s, subset)
    if args.json:
        _emit(out, _dumps({"structure": name, "query": key,
                           "set": list(subset.labels()),
                           "candidates": [e.label for e in res.candidates],
                           "unique": res.unique}))
    elif not res.candidates:
        _emit(out, f"no {word}")
    elif res.unique:
        _emit(out, f"{word}: {res.candidates[0].label}")
    else:
        _emit(out, f"{word} candidates: "
              + ", ".join(e.label for e in res.candidates)
              + " (not unique)")
    return 0 if res.candidates else 1


def _cmd_sum(args, out) -> int:
    return _subset_report(args, out, sum_of, "sum", "sum")


def _cmd_sup(args, out) -> int:
    return _subset_report(args, out, sup_of, "sup", "supremum")


_ALG_OPS = ("product", "difference", "complement", "bsum")


def _cmd_alg(args, out) -> int:
    name, s = load_structure(args.file)
    labels = _comma_list(args.args)
    need = 1 if args.op == "complement" else 2
    if len(labels) != need:
        raise CatalogError(f"{args.op} needs {need} argument(s)")
    op = {"product": product, "difference": difference,
          "complement": complement, "bsum": binary_sum}[args.op]
    try:
        res = op(s, *labels)
    except UniquenessFault as fault:
        result, ambiguous = None, [e.label for e in fault.candidates]
    else:
        result, ambiguous = None if res is None else res.label, None
    if args.json:
        _emit(out, _dumps({"structure": name, "op": args.op, "args": labels,
                           "result": result, "ambiguous": ambiguous}))
    else:
        text = (f"ambiguous ({', '.join(ambiguous)})" if ambiguous is not None
                else "absent" if result is None else result)
        _emit(out, f"{args.op}: {text}")
    return 0 if ambiguous is None else 1


def _cmd_enumerate(args, out) -> int:
    _size_within_cap("--n", args.n)
    constraints = theory_axioms(args.theory)
    models = enumerate_models(args.n, constraints, up_to_iso=args.up_to_iso)
    if args.count_only:
        count = sum(1 for _ in models)
        if args.json:
            _emit(out, _dumps({"n": args.n, "theory": args.theory.upper(),
                               "up_to_iso": args.up_to_iso,
                               "count": count}))
        else:
            _emit(out, str(count))
        return 0
    if args.json:
        _emit(out, _dumps({"n": args.n, "theory": args.theory.upper(),
                           "models": list(models)}))
        return 0
    for i, m in enumerate(models):
        if i:
            _emit(out, "")
        out.write(serialize(m))
    return 0


def _cmd_implies(args, out) -> int:
    _size_within_cap("--max-n", args.max_n)
    ambient = () if args.ambient is None \
        else _axiom_list(args.ambient, "--ambient")
    hypothesis = _axiom_list(getattr(args, "from"), "--from")
    conclusion = axiom_id(args.to)
    if conclusion in hypothesis:
        raise CatalogError(f"--to {conclusion.value} is also a hypothesis "
                           "in --from")
    if conclusion in ambient:
        raise CatalogError(f"--to {conclusion.value} is also an ambient "
                           "axiom in --ambient")
    spec = SearchSpec(max_n=args.max_n, ambient=ambient,
                      require=hypothesis, forbid=(conclusion,))
    res = find_model(spec)
    if args.json:
        doc = {"ambient": [a.value for a in ambient],
               "hypothesis": [a.value for a in hypothesis],
               "conclusion": conclusion.value,
               "max_n": args.max_n,
               "explored": res.explored,
               "exhausted": res.exhausted,
               "countermodel": res.found}
        _emit(out, _dumps(doc))
        return 1 if res.found else 0
    if res.found is None:
        _emit(out, f"exhausted: no countermodel up to n={args.max_n}")
        return 0
    _emit(out, f"countermodel found (n={res.found.n}):")
    out.write(serialize(res.found))
    return 1


def _cmd_lattice(args, out) -> int:
    name, s = load_structure(args.file)
    report = zero_report(s)
    ok_order = report is not None
    agreed = (tarski_agrees(check_theory(s, TheoryId.CM), report)
              if args.tarski else None)
    laws = [] if not report else [
        ("lattice", report.is_lattice),
        ("distributive", report.is_distributive),
        ("complemented", report.is_complemented),
        ("boolean", report.is_boolean),
        ("complete", report.is_complete)]
    if args.json:
        doc = {"structure": name, "order": ok_order}
        if report:
            doc.update(laws)
            doc["witness"] = _witness_json(report.witness)
        if args.tarski:
            doc["tarski"] = "agree" if agreed else "disagree"
        _emit(out, _dumps(doc))
    else:
        _emit(out, f"structure: {name} (+0: {s.n + 1} elements)"
              if ok_order else f"structure: {name} (not a strict order)")
        for key, val in laws:
            _emit(out, f"{key}: {'yes' if val else 'no'}")
        if report and report.witness:
            _emit(out, f"witness: {_witness_text(report.witness)}")
        if args.tarski:
            _emit(out, f"tarski: {'agree' if agreed else 'disagree'}")
    if args.tarski:
        return 0 if agreed else 1
    return 0 if report and report.is_boolean else 1


def _cmd_localtrans(args, out) -> int:
    name, s = load_structure(args.file)
    acy = is_acyclic(s)
    loc = is_locally_transitive(s)
    if args.json:
        doc = {"structure": name,
               "acyclic": acy.holds,
               "cycle": None if acy.holds else [e.label for e in acy.cycle],
               "locally_transitive": loc.holds,
               "path": None if loc.holds else [e.label for e in loc.path.nodes],
               "triple": None if loc.holds else [e.label for e in loc.triple]}
        _emit(out, _dumps(doc))
    else:
        _emit(out, f"structure: {name}")
        _emit(out, f"acyclic: {'yes' if acy.holds else 'no'}")
        if not acy.holds:
            _emit(out, "cycle: [" + ", ".join(e.label for e in acy.cycle) + "]")
        _emit(out, f"locally-transitive: {'yes' if loc.holds else 'no'}")
        if not loc.holds:
            _emit(out, f"witness path: {loc.path}")
            _emit(out, "witness triple: ("
                  + ", ".join(e.label for e in loc.triple) + ")")
    return 0 if acy.holds and loc.holds else 1


def _covering_pairs(s: ParthoodStructure) -> list[tuple[ElementId, ElementId]]:
    """Covering pairs of the ingrediens relation: x strictly beneath y
    with nothing strictly between, x-major."""
    below = [s.ing_of[y] & ~s.ing_up[y] for y in range(s.n)]
    covered = []
    for b in below:
        between = 0
        for z in _ELEMS[b]:
            between |= below[z]
        covered.append(b & ~between)
    u = s.universe
    return [(u[x], u[y]) for x in range(s.n) for y in range(s.n)
            if covered[y] >> x & 1]


def _dot_id(e: ElementId) -> str:
    """A quoted DOT ID for the label, with backslash and quote escaped."""
    return '"' + e.label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _cmd_dot(args, out) -> int:
    name, s = load_structure(args.file)
    edges = s.pairs() if args.full else _covering_pairs(s)
    _emit(out, "digraph parthood {")
    _emit(out, "  rankdir=BT;")
    for e in s.universe:
        _emit(out, f"  {_dot_id(e)};")
    for p, w in edges:
        _emit(out, f"  {_dot_id(p)} -> {_dot_id(w)};")
    _emit(out, "}")
    return 0


# -- argument parsing -----------------------------------------------------------

# One row per argument: (option strings, dest, kind, type, choices,
# required, default, help); kind is "store" or "store_true", and a
# positional has no option strings.
_FILE = ((), "file", "store", None, None, True, None, None)
_JSON = (("--json",), "json", "store_true", None, None, False, False,
         "machine-readable output")
_CODES = "comma-separated axiom codes"
_LABELS = "comma-separated labels"

# Every command as (name, handler, help, arguments), in the order
# `--help` lists them: the one declaration that `_exact_namespace` reads
# and `_build_parser` builds the argparse parser from.
_COMMANDS = (
    ("check", _cmd_check, "check a theory against a structure", (
        _FILE,
        (("--theory",), "theory", "store", None, None, True, None,
         "|".join(t.value for t in TheoryId)),
        _JSON)),
    ("axioms", _cmd_axioms, "evaluate the axiom catalog", (
        _FILE,
        (("--only",), "only", "store", None, None, False, None, _CODES),
        _JSON)),
    ("sum", _cmd_sum, "sum candidates of a subset", (
        _FILE,
        (("--set",), "set", "store", None, None, True, None, _LABELS),
        _JSON)),
    ("sup", _cmd_sup, "supremum candidates of a subset", (
        _FILE,
        (("--set",), "set", "store", None, None, True, None, _LABELS),
        _JSON)),
    ("alg", _cmd_alg, "algebraic operation", (
        _FILE,
        (("--op",), "op", "store", None, _ALG_OPS, True, None, None),
        (("--args",), "args", "store", None, None, True, None, _LABELS),
        _JSON)),
    ("enumerate", _cmd_enumerate, "enumerate models of a theory", (
        (("--n",), "n", "store", int, None, True, None, None),
        (("--theory",), "theory", "store", None, None, True, None, None),
        (("--count-only",), "count_only", "store_true", None, None, False,
         False, None),
        (("--up-to-iso",), "up_to_iso", "store_true", None, None, False,
         False, None),
        _JSON)),
    ("implies", _cmd_implies,
     "bounded countermodel search for an implication", (
        (("--ambient",), "ambient", "store", None, None, False, None, _CODES),
        (("--from",), "from", "store", None, None, True, None,
         "comma-separated hypothesis codes"),
        (("--to",), "to", "store", None, None, True, None, "conclusion code"),
        (("--max-n",), "max_n", "store", int, None, False, SEARCH_MAX, None),
        _JSON)),
    ("lattice", _cmd_lattice, "lattice laws of the zero adjunction", (
        _FILE,
        (("--tarski",), "tarski", "store_true", None, None, False, False,
         "compare against classical-mereology membership"),
        _JSON)),
    ("localtrans", _cmd_localtrans,
     "acyclicity and local transitivity verdicts", (_FILE, _JSON)),
    ("dot", _cmd_dot, "DOT export of the covering digraph", (
        _FILE,
        (("--full",), "full", "store_true", None, None, False, False,
         "draw the raw relation instead of covering edges"))),
)


def _grammar(func, arguments) -> tuple:
    """(defaults, options, positionals, required) of one command for
    `_exact_namespace`: the values a line starts from, its option
    strings to their rows, its positional rows in order, and the dests a
    line must give."""
    defaults = {"func": func}
    defaults.update((row[1], row[6]) for row in arguments)
    return (defaults, {o: row for row in arguments for o in row[0]},
            tuple(row for row in arguments if not row[0]),
            frozenset(row[1] for row in arguments if row[5]))


_GRAMMARS = {name: _grammar(func, arguments)
             for name, func, _, arguments in _COMMANDS}


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The `mereo` argparse parser, built from `_COMMANDS` for the first
    line `_exact_namespace` leaves to argparse and shared by every later
    one; argparse is imported only here.  It holds only constant
    defaults (no output stream, nothing mutable), so one call's result
    never depends on an earlier call's."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="mereo",
        description="finite-model checks for parthood structures")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text, arguments in _COMMANDS:
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        for options, dest, kind, convert, choices, required, default, text \
                in arguments:
            kwargs = {"action": kind, "default": default, "help": text}
            if kind == "store":
                kwargs.update(type=convert, choices=choices)
            if options:
                p.add_argument(*options, dest=dest, required=required,
                               **kwargs)
            else:
                p.add_argument(dest, **kwargs)
    return parser


def _exact_namespace(command: str, argv: Sequence[str]):
    """The namespace argparse gives `argv` after `command`, or None for
    a line left to argparse (`_parse_args` says which)."""
    defaults, options, positionals, required = _GRAMMARS[command]
    values = dict(defaults)
    unfilled = iter(positionals)
    seen = set()
    tokens = iter(argv)
    for token in tokens:
        if token[:1] != "-":
            row = next(unfilled, None)          # None: one positional too many
        else:
            row = options.get(token)
            if row is not None and row[2] == "store":
                token = next(tokens, "-")       # "-": the value is missing
                if token[:1] == "-":
                    return None
        if row is None:
            return None
        _, dest, kind, convert, choices = row[:5]
        if kind == "store_true":
            values[dest] = True
        else:
            try:                                # the table's types are int
                value = token if convert is None else convert(token)
            except (TypeError, ValueError):
                return None
            if choices is not None and value not in choices:
                return None
            values[dest] = value
        seen.add(dest)
    if not required <= seen:                    # positionals are required too
        return None
    return SimpleNamespace(**values)


def _parse_args(argv: Optional[Sequence[str]]):
    """The namespace of one command line.

    When argv starts with a command name, `_exact_namespace` reads the
    tail in one loop, from the command's rows in `_COMMANDS`, if each
    token is an option the command declares, spelled exactly, or a
    positional that does not start with `-`.  An option's value is the
    next token; it is converted by the option's type and checked against
    its choices, and a repeated option keeps its last value, as in
    argparse.  Every other line is parsed once, whole, by the argparse
    parser (`_build_parser`), with its usage and messages: no command
    first, a `-` token the command does not declare (`-h`, `--`, `-`, an
    abbreviation, `--opt=value`, an unknown option), a value that is
    missing or starts with `-`, a conversion that raises, a value
    outside the choices, too many or too few positionals, or a required
    option left out."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _GRAMMARS:
        args = _exact_namespace(argv[0], argv[1:])
        if args is not None:
            args.command = argv[0]
            return args
    return _build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Run one command line and return its exit status.

    Reports and `--help` text go to `out` (default: stdout); usage and
    error messages go to stderr.  A line whose options are spelled
    exactly is read from the command table without argparse; every
    other line (`-h`, `--opt=value`, abbreviations, `--`, values
    starting with `-`, lines in error) is parsed once by an argparse
    parser, built on the first such line and kept for the process
    (`_parse_args`).  Commands on the same file content in one
    process share one parsed structure, from a bounded cache keyed by
    the file's bytes (`load_structure`); a one-shot process pays one
    lookup.  So `main` is cheap and safe to call repeatedly in-process.
    """
    out = out or sys.stdout
    try:
        with contextlib.redirect_stdout(out):
            args = _parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (MereologyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
