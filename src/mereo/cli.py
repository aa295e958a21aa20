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
    enumerate --n K --theory ID   models up to isomorphism
    implies --ambient IDS --from IDS --to ID --max-n K   countermodel search
    lattice FILE [--tarski]       lattice laws of the zero adjunction
    localtrans FILE               acyclicity and local transitivity
    dot FILE [--full]             DOT digraph (covering edges of ingrediens)

Exit status: 0 verdict holds, 1 verdict fails, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import Optional, Sequence

from .axioms import (
    AxiomId, CatalogError, Verdict, axiom_id, check_all, check_axiom,
)
from .core import ElementId, MereologyError, ParthoodStructure, Subset, _bits
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
    labels: Optional[list[str]] = None
    index: dict[str, int] = {}
    rows: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("elements:"):
            if labels is not None:
                raise ParseError(line_no, "duplicate elements line")
            labels = line[len("elements:"):].split()
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
        elif line.startswith("part:"):
            if labels is None:
                raise ParseError(line_no, "part line before elements line")
            body = line[len("part:"):]
            sides = body.split("<")
            if len(sides) != 2:
                raise ParseError(line_no, "expected 'part: A < B'")
            part, whole = sides[0].strip(), sides[1].strip()
            if not part or not whole:
                raise ParseError(line_no, "expected 'part: A < B'")
            for label in (part, whole):
                if label not in index:
                    raise ParseError(line_no, f"undeclared label {label!r}")
            rows[index[part]] |= 1 << index[whole]
        else:
            raise ParseError(line_no, f"unrecognised line {line!r}")
    if labels is None:
        raise ParseError(1, "missing elements line")
    return ParthoodStructure(labels, rows)


def serialize(s: ParthoodStructure) -> str:
    lines = ["elements: " + " ".join(e.label for e in s.universe)]
    lines += [f"part: {p.label} < {w.label}" for p, w in s.pairs()]
    return "\n".join(lines) + "\n"


def load_structure(path: str) -> tuple[str, ParthoodStructure]:
    if path == "-":
        return "-", parse_structure(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    name = path.rsplit("/", 1)[-1]
    if name.endswith(".txt"):
        name = name[:-4]
    return name, parse_structure(text)


# -- report rendering ---------------------------------------------------------

def _witness_text(witness: Optional[tuple]) -> str:
    if not witness:
        return ""
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


def _model_doc(s: ParthoodStructure):
    return {"elements": [e.label for e in s.universe],
            "parts": [[p.label, w.label] for p, w in s.pairs()]}


def _emit(out, text: str):
    out.write(text + "\n")


# -- subcommands ---------------------------------------------------------------

def _cmd_check(args, out) -> int:
    name, s = load_structure(args.file)
    tid = theory_id(args.theory)
    tv = check_theory(s, tid)
    axioms = ", ".join(a.value for a in theory_axioms(tid))
    if args.json:
        doc = {"structure": name, "theory": tid.value, "holds": tv.holds,
               "failed_axiom": None if tv.holds else tv.failing.axiom.value,
               "witness": None if tv.holds else _witness_json(tv.failing.witness)}
        _emit(out, json.dumps(doc, indent=2))
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
        _emit(out, json.dumps(doc, indent=2))
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


def _parse_set(s: ParthoodStructure, spec: str) -> Subset:
    labels = [l.strip() for l in spec.split(",") if l.strip()]
    return s.subset(*labels)


def _subset_query(query, key: str, word: str):
    """A command printing the sum or supremum candidates of a subset."""
    def command(args, out) -> int:
        name, s = load_structure(args.file)
        subset = _parse_set(s, args.set)
        res = query(s, subset)
        if args.json:
            _emit(out, json.dumps({"structure": name, "query": key,
                                   "set": list(subset.labels()),
                                   "candidates": [e.label
                                                  for e in res.candidates],
                                   "unique": res.unique}, indent=2))
        elif not res.candidates:
            _emit(out, f"no {word}")
        elif res.unique:
            _emit(out, f"{word}: {res.candidates[0].label}")
        else:
            _emit(out, f"{word} candidates: "
                  + ", ".join(e.label for e in res.candidates)
                  + " (not unique)")
        return 0 if res.candidates else 1
    return command


_cmd_sum = _subset_query(sum_of, "sum", "sum")
_cmd_sup = _subset_query(sup_of, "sup", "supremum")


_ALG_OPS = ("product", "difference", "complement", "bsum")


def _cmd_alg(args, out) -> int:
    name, s = load_structure(args.file)
    labels = [l.strip() for l in args.args.split(",") if l.strip()]
    need = 1 if args.op == "complement" else 2
    if len(labels) != need:
        raise CatalogError(f"{args.op} needs {need} argument(s)")
    try:
        if args.op == "product":
            res = product(s, *labels)
        elif args.op == "difference":
            res = difference(s, *labels)
        elif args.op == "complement":
            res = complement(s, labels[0])
        else:
            res = binary_sum(s, *labels)
    except UniquenessFault as fault:
        if args.json:
            _emit(out, json.dumps({"structure": name, "op": args.op,
                                   "args": labels, "result": None,
                                   "ambiguous":
                                   [e.label for e in fault.candidates]},
                                  indent=2))
        else:
            _emit(out, f"{args.op}: ambiguous ("
                  + ", ".join(e.label for e in fault.candidates) + ")")
        return 1
    if args.json:
        _emit(out, json.dumps({"structure": name, "op": args.op,
                               "args": labels,
                               "result": None if res is None else res.label,
                               "ambiguous": None}, indent=2))
    else:
        _emit(out, f"{args.op}: {'absent' if res is None else res.label}")
    return 0


def _cmd_enumerate(args, out) -> int:
    if not 1 <= args.n <= SEARCH_MAX:
        raise CatalogError(f"--n must be within 1..{SEARCH_MAX}")
    constraints = theory_axioms(args.theory)
    models = enumerate_models(args.n, constraints, up_to_iso=args.up_to_iso)
    if args.count_only:
        count = sum(1 for _ in models)
        if args.json:
            _emit(out, json.dumps({"n": args.n, "theory": args.theory.upper(),
                                   "up_to_iso": args.up_to_iso,
                                   "count": count}, indent=2))
        else:
            _emit(out, str(count))
        return 0
    if args.json:
        _emit(out, json.dumps({"n": args.n, "theory": args.theory.upper(),
                               "models": [_model_doc(m) for m in models]},
                              indent=2))
        return 0
    first = True
    for m in models:
        if not first:
            _emit(out, "")
        out.write(serialize(m))
        first = False
    return 0


def _axiom_list(spec: str, required: str = "") -> tuple[AxiomId, ...]:
    codes = tuple(axiom_id(c.strip()) for c in spec.split(",") if c.strip())
    if required and not codes:
        raise CatalogError(f"{required} names no axiom codes")
    return codes


def _cmd_implies(args, out) -> int:
    if not 1 <= args.max_n <= SEARCH_MAX:
        raise CatalogError(f"--max-n must be within 1..{SEARCH_MAX}")
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
               "countermodel": None if res.found is None
               else _model_doc(res.found)}
        _emit(out, json.dumps(doc, indent=2))
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
    if args.json:
        doc = {"structure": name, "order": ok_order}
        if report:
            doc.update({"lattice": report.is_lattice,
                        "distributive": report.is_distributive,
                        "complemented": report.is_complemented,
                        "boolean": report.is_boolean,
                        "complete": report.is_complete,
                        "witness": _witness_json(report.witness)})
        if args.tarski:
            doc["tarski"] = "agree" if agreed else "disagree"
        _emit(out, json.dumps(doc, indent=2))
    else:
        _emit(out, f"structure: {name} (+0: {s.n + 1} elements)"
              if ok_order else f"structure: {name} (not a strict order)")
        if report:
            for key, val in [("lattice", report.is_lattice),
                             ("distributive", report.is_distributive),
                             ("complemented", report.is_complemented),
                             ("boolean", report.is_boolean),
                             ("complete", report.is_complete)]:
                _emit(out, f"{key}: {'yes' if val else 'no'}")
            if report.witness:
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
        _emit(out, json.dumps(doc, indent=2))
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
        for z in _bits(b):
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

@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The `mereo` parser, built on first use and shared by every `main`
    call.  It holds only constant defaults (no output stream, nothing
    mutable), so one call's result never depends on an earlier call's."""
    parser = argparse.ArgumentParser(
        prog="mereo",
        description="finite-model checks for parthood structures")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p = sub.add_parser("check", help="check a theory against a structure")
    p.add_argument("file")
    p.add_argument("--theory", required=True,
                   help="|".join(t.value for t in TheoryId))
    add_json(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("axioms", help="evaluate the axiom catalog")
    p.add_argument("file")
    p.add_argument("--only", help="comma-separated axiom codes")
    add_json(p)
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("sum", help="sum candidates of a subset")
    p.add_argument("file")
    p.add_argument("--set", required=True, help="comma-separated labels")
    add_json(p)
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("sup", help="supremum candidates of a subset")
    p.add_argument("file")
    p.add_argument("--set", required=True, help="comma-separated labels")
    add_json(p)
    p.set_defaults(func=_cmd_sup)

    p = sub.add_parser("alg", help="algebraic operation")
    p.add_argument("file")
    p.add_argument("--op", required=True, choices=_ALG_OPS)
    p.add_argument("--args", required=True, help="comma-separated labels")
    add_json(p)
    p.set_defaults(func=_cmd_alg)

    p = sub.add_parser("enumerate", help="enumerate models of a theory")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theory", required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--up-to-iso", action="store_true")
    add_json(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("implies",
                       help="bounded countermodel search for an implication")
    p.add_argument("--ambient", help="comma-separated axiom codes")
    p.add_argument("--from", required=True, dest="from",
                   help="comma-separated hypothesis codes")
    p.add_argument("--to", required=True, help="conclusion code")
    p.add_argument("--max-n", type=int, default=SEARCH_MAX)
    add_json(p)
    p.set_defaults(func=_cmd_implies)

    p = sub.add_parser("lattice", help="lattice laws of the zero adjunction")
    p.add_argument("file")
    p.add_argument("--tarski", action="store_true",
                   help="compare against classical-mereology membership")
    add_json(p)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("localtrans",
                       help="acyclicity and local transitivity verdicts")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(func=_cmd_localtrans)

    p = sub.add_parser("dot", help="DOT export of the covering digraph")
    p.add_argument("file")
    p.add_argument("--full", action="store_true",
                   help="draw the raw relation instead of covering edges")
    p.set_defaults(func=_cmd_dot)

    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Run one command line and return its exit status.

    Reports and `--help` text go to `out` (default: stdout); usage and
    error messages go to stderr.  The argument parser is built once per
    process, so `main` is cheap and safe to call repeatedly in-process.
    """
    out = out or sys.stdout
    try:
        with contextlib.redirect_stdout(out):
            args = _build_parser().parse_args(argv)
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
