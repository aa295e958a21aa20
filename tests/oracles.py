"""Literal definitions the kernels are tested against: in mereo.search,
the canonical forms, by applying every one of the n! relabellings to
every set cell of the encoding, the down-sets of a strict partial order,
each with no twin pruning or rank, and the choice of walk, by the codes
as named; in mereo.axioms, the shortest part-cycle, by a full
breadth-first search from each start and a pass over every path back
to it; in mereo.lattice, completeness, by asking for the join of every
subset, and the lattice report, by finding each law's bounds again
wherever it needs them; in mereo.weakparts, local transitivity, by listing every
part-path of every pair; in mereo.cli, structure files, by testing each
line's kind in file order and each label's declaration before its use,
and the model document `--json` writes for a structure, from its
ElementId pairs.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional

from mereo.axioms import AxiomId, axiom_id, transitivity_gap
from mereo.cli import ParseError
from mereo.core import ParthoodStructure, _bits
from mereo.lattice import LatticeReport, ZeroedStructure
from mereo.weakparts import LocalTransitivityVerdict, paths_between


@functools.lru_cache(maxsize=None)
def _perm_cell_maps(n: int) -> tuple[tuple[int, ...], ...]:
    """For each permutation p of range(n), the map cell -> permuted cell."""
    maps = []
    for p in itertools.permutations(range(n)):
        maps.append(tuple(p[i] * n + p[j] for i in range(n) for j in range(n)))
    return tuple(maps)


def _remap(mask: int, cmap: tuple[int, ...]) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << cmap[low.bit_length() - 1]
        mask ^= low
    return out


def _canonical_form_scan(n: int, mask: int) -> int:
    """Minimal relation encoding over all n! universe permutations: the
    definition of the canonical form, the oracle for canonical_form."""
    return min(_remap(mask, cmap) for cmap in _perm_cell_maps(n))


def _is_canonical_scan(n: int, mask: int) -> bool:
    """True iff no permutation gives a smaller encoding, by remapping every
    set cell under each of the n! cell maps: the oracle for is_canonical."""
    for cmap in _perm_cell_maps(n)[1:]:
        if _remap(mask, cmap) < mask:
            return False
    return True


def _plain_down_sets(parts_in) -> list[int]:
    """Every down-set (a set holding the parts of each member) of a strict
    partial order given by parts_in[x], the parts of x; the empty set
    first: the oracle for search._down_sets, which lists only those that
    take the lowest members of each class of twins, with their ranks.

    Elements are added in an order listing parts before wholes (a part
    has fewer parts than its whole), so x can join exactly the down-sets
    already found that hold all of its parts.
    """
    downs = [0]
    for x in sorted(range(len(parts_in)),
                    key=lambda x: parts_in[x].bit_count()):
        downs += [d | 1 << x for d in downs if not parts_in[x] & ~d]
    return downs


def _literal_split_constraints(constraints):
    """Whether T and IRR are named, and the other codes, each once, in the
    order first named: the walk chosen from the codes alone, the oracle
    for search._split_constraints, which reads what they entail."""
    axs = dict.fromkeys(axiom_id(a) for a in constraints)
    residual = [a for a in axs if a not in (AxiomId.T, AxiomId.IRR)]
    return AxiomId.T in axs, AxiomId.IRR in axs, residual


def _first_joinless_mask(z) -> Optional[int]:
    """The first subset mask of the zero adjunction z, in encoding order,
    with no join, by join_of_set on every one of the 2^n masks; None if
    z is complete: the oracle for lattice_report's is_complete."""
    for mask in range(1 << z.n):
        if z.join_of_set(mask) is None:
            return mask
    return None


def _ref_find_cycle(s: ParthoodStructure) -> Optional[tuple[int, ...]]:
    """Shortest part-cycle through the lowest-index element on one, if any,
    by a full breadth-first search from each start and then a pass over
    every element with an edge back to it: the oracle for _find_cycle."""
    n = s.n
    for start in range(n):
        if s.rows[start] >> start & 1:
            return (start,)
        prev = [-1] * n
        seen = 1 << start
        queue = [start]
        while queue:
            nxt = []
            for u in queue:
                for v in _bits(s.rows[u] & ~seen):
                    seen |= 1 << v
                    prev[v] = u
                    nxt.append(v)
            queue = nxt
        # any reached v with an edge back to start closes a cycle
        best = None
        for v in range(n):
            if v != start and seen >> v & 1 and s.rows[v] >> start & 1:
                path = [v]
                while path[-1] != start:
                    path.append(prev[path[-1]])
                path.reverse()
                if best is None or len(path) < len(best):
                    best = path
        if best is not None:
            return tuple(best)
    return None


def _ref_lattice_report(z: ZeroedStructure) -> LatticeReport:
    """lattice_report before its meet and join tables: each law finds
    the bounds it needs again, five per distributivity triple and two
    per complement candidate; the oracle for lattice_report."""
    n = z.n
    witness: Optional[tuple] = None

    is_lattice = True
    for i in range(n):
        for j in range(i + 1, n):
            if z.meet(i, j) is None or z.join(i, j) is None:
                is_lattice = False
                if witness is None:
                    witness = (z.elements[i], z.elements[j])
                break
        if not is_lattice:
            break

    is_distributive = is_lattice
    if is_lattice:
        for x in range(n):
            for y in range(n):
                for w in range(n):
                    lhs = z.meet(x, z.join(y, w))
                    rhs = z.join(z.meet(x, y), z.meet(x, w))
                    if lhs != rhs:
                        is_distributive = False
                        witness = (z.elements[x], z.elements[y],
                                   z.elements[w])
                        break
                if not is_distributive:
                    break
            if not is_distributive:
                break

    is_complemented = is_lattice
    if is_lattice:
        bottom = z.zero_index
        top = z.join_of_set(z.full)
        for x in range(n):
            if not any(z.meet(x, y) == bottom and z.join(x, y) == top
                       for y in range(n)):
                is_complemented = False
                if witness is None:
                    witness = (z.elements[x],)
                break

    return LatticeReport(
        is_lattice=is_lattice,
        is_distributive=is_distributive,
        is_complemented=is_complemented,
        is_boolean=is_lattice and is_distributive and is_complemented,
        is_complete=is_lattice,
        witness=witness,
    )


def _locally_transitive_by_paths(s) -> LocalTransitivityVerdict:
    """The verdict of the definition: for each pair x P y, in (x, y)
    order, every part-path from x to y, in paths_between's order, until
    one whose node set has a transitivity gap: the oracle for
    is_locally_transitive."""
    for x in s.universe:
        for y in s.universe:
            if not s.part(x, y):
                continue
            for path in paths_between(s, x, y):
                gap = transitivity_gap(
                    s, sum(1 << e.index for e in path.nodes))
                if gap is not None:
                    triple = tuple(s.universe[k] for k in gap)
                    return LocalTransitivityVerdict(False, path, triple)
    return LocalTransitivityVerdict(True)


def _parse_structure_lines(text: str) -> ParthoodStructure:
    """The structure a structure file's text describes, each line tested
    for blank, comment, elements and part in that order and each label
    looked up as declared before it is used: the oracle for
    cli.parse_structure."""
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


def _model_doc(s: ParthoodStructure) -> dict:
    """The model document of a structure, {"elements": [labels], "parts":
    [[part, whole], ...]} in the order of `s.pairs()`, built from its
    ElementIds: the oracle for cli._dumps on a structure."""
    return {"elements": [e.label for e in s.universe],
            "parts": [[p.label, w.label] for p, w in s.pairs()]}
