"""Parthood without assumed transitivity: acyclicity plus local transitivity.

In this regime the relation is only required to have no closed part
cycles, and transitivity is demanded just locally: whenever x is a part
of y, the relation restricted to the node set of any part-path from x
to y must be transitive.  Paths are simple directed part-chains; the
direct edge counts as the trivial path.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .axioms import _find_cycle, transitivity_gap
from .core import ElementId, ElementLike, ParthoodStructure, _ELEMS
from .core import _Record, _set


class PartPath(_Record):
    """A chain x, z1, ..., zn, y with each consecutive pair in the relation."""

    __slots__ = ("nodes",)

    def __init__(self, nodes: tuple[ElementId, ...]):
        _set(self, "nodes", nodes)

    def __str__(self) -> str:
        return " -> ".join(e.label for e in self.nodes)

    def valid_in(self, s: ParthoodStructure) -> bool:
        return all(s.part(a, b) for a, b in zip(self.nodes, self.nodes[1:]))


class AcyclicityVerdict(_Record):
    __slots__ = ("holds", "cycle")

    def __init__(self, holds: bool,
                 cycle: Optional[tuple[ElementId, ...]] = None):
        _set(self, "holds", holds)
        _set(self, "cycle", cycle)

    def __str__(self) -> str:
        if self.holds:
            return "acyclic"
        return "cyclic, witness [" + ", ".join(e.label for e in self.cycle) + "]"


class LocalTransitivityVerdict(_Record):
    __slots__ = ("holds", "path", "triple")

    def __init__(self, holds: bool, path: Optional[PartPath] = None,
                 triple: Optional[tuple[ElementId, ElementId,
                                        ElementId]] = None):
        _set(self, "holds", holds)
        _set(self, "path", path)
        _set(self, "triple", triple)

    def __str__(self) -> str:
        if self.holds:
            return "locally transitive"
        trip = ", ".join(e.label for e in self.triple)
        return f"not locally transitive on path [{self.path}], triple ({trip})"


def is_acyclic(s: ParthoodStructure) -> AcyclicityVerdict:
    """No directed cycle in the part digraph (self-loops and mutual
    parts are the length-1 and length-2 cases)."""
    cycle = _find_cycle(s)
    if cycle is None:
        return AcyclicityVerdict(True)
    return AcyclicityVerdict(False, tuple(s.universe[i] for i in cycle))


def _simple_paths(s: ParthoodStructure, x: int, y: int,
                  max_len: int) -> Iterator[tuple[int, ...]]:
    """Simple part-paths from x to y with at most max_len nodes, in
    lexicographic node order, each yielded as the walk reaches it."""
    def walk(path, seen):
        for nxt in _ELEMS[s.rows[path[-1]]]:
            if nxt == y:
                yield path + (y,)
            elif not seen >> nxt & 1 and len(path) + 2 <= max_len:
                yield from walk(path + (nxt,), seen | 1 << nxt)

    if x != y and max_len >= 2:
        yield from walk((x,), 1 << x)


def paths_between(s: ParthoodStructure, x: ElementLike, y: ElementLike,
                  max_len: Optional[int] = None) -> list[PartPath]:
    """All simple part-paths from x to y up to max_len nodes (default:
    the universe size, the longest a simple path can be)."""
    if max_len is None:
        max_len = s.n
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    i, j = s.index(x), s.index(y)
    return [PartPath(tuple(s.universe[k] for k in nodes))
            for nodes in _simple_paths(s, i, j, max_len)]


def is_locally_transitive(s: ParthoodStructure) -> LocalTransitivityVerdict:
    """For every pair x P y and every part-path from x to y, the relation
    restricted to the path's node set is transitive.

    A transitive relation holds at once: every restriction of it is
    transitive.  Any other relation walks each pair's paths in turn and
    stops at the first whose node set has a gap."""
    if transitivity_gap(s, s.full) is None:
        return LocalTransitivityVerdict(True)
    for x in range(s.n):
        for y in _ELEMS[s.rows[x]]:
            for nodes in _simple_paths(s, x, y, s.n):
                gap = transitivity_gap(s, sum(1 << k for k in nodes))
                if gap is not None:
                    path = PartPath(tuple(s.universe[k] for k in nodes))
                    triple = tuple(s.universe[k] for k in gap)
                    return LocalTransitivityVerdict(False, path, triple)
    return LocalTransitivityVerdict(True)
