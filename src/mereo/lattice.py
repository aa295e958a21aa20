"""Zero adjunction and lattice-theoretic verification.

A parthood structure whose relation is a strict partial order induces
the partial order "is an ingrediens of"; adjoining a fresh bottom
element beneath everything yields a bounded poset whose lattice laws
are then checked.  Each pair's meet and join is found once, by scanning
for bounds, never through the sum machinery, and every law reads that
one meet table and one join table, so these verdicts are an independent
cross-check of the sums.  Completeness follows from the lattice laws.

The one correspondence verified here: a structure models classical
mereology exactly when its zero adjunction is a non-degenerate complete
Boolean lattice, both sides evaluated independently: each checks that
the relation is a strict partial order (T and IRR) itself.
"""

from __future__ import annotations

from typing import Optional

from .axioms import AxiomId, holds
from .core import (DomainError, ElementId, MereologyError,
                   ParthoodStructure, _bits, _Record, _set)
from .theories import TheoryId, TheoryVerdict, check_theory


class OrderError(MereologyError):
    """Zero adjunction needs the ingrediens relation to be a partial order."""


DEFAULT_ZERO_LABEL = "0"


class ZeroedStructure:
    """A parthood structure with a fresh bottom element adjoined.

    Elements are indexed 0..n with the zero last, so the base structure
    is recovered by dropping the final index.  below[i] is the bitmask
    of elements at or beneath i in the extended order.
    """

    __slots__ = ("base", "n", "elements", "below", "above", "full")

    def __init__(self, base: ParthoodStructure, zero_label: str):
        self.base = base
        n = base.n + 1
        self.n = n
        zero = n - 1
        self.elements = base.universe + (ElementId(zero, zero_label),)
        self.full = (1 << n) - 1
        below = [base.ing_of[i] | (1 << zero) for i in range(base.n)]
        below.append(1 << zero)
        self.below = tuple(below)
        # at or above a base element: its wholes and itself, never the
        # zero; at or above the zero: everything
        self.above = base.ing_up + (self.full,)

    @property
    def zero_index(self) -> int:
        return self.n - 1

    def leq(self, i: int, j: int) -> bool:
        return bool(self.below[j] >> i & 1)

    def meet(self, i: int, j: int) -> Optional[int]:
        lower = self.below[i] & self.below[j]
        for k in _bits(lower):
            if not lower & ~self.below[k]:
                return k
        return None

    def join(self, i: int, j: int) -> Optional[int]:
        return self.join_of_set((1 << i) | (1 << j))

    def join_of_set(self, mask: int) -> Optional[int]:
        upper = self.full
        for i in _bits(mask):
            upper &= self.above[i]
        # the least upper bound, if any
        for k in _bits(upper):
            if not upper & ~self.above[k]:
                return k
        return None


class LatticeReport(_Record):
    __slots__ = ("is_lattice", "is_distributive", "is_complemented",
                 "is_boolean", "is_complete", "witness")

    def __init__(self, is_lattice: bool, is_distributive: bool,
                 is_complemented: bool, is_boolean: bool, is_complete: bool,
                 witness: Optional[tuple] = None):
        _set(self, "is_lattice", is_lattice)
        _set(self, "is_distributive", is_distributive)
        _set(self, "is_complemented", is_complemented)
        _set(self, "is_boolean", is_boolean)
        _set(self, "is_complete", is_complete)
        _set(self, "witness", witness)  # the first failing law's assignment


def adjoin_zero(s: ParthoodStructure,
                zero_label: Optional[str] = None) -> ZeroedStructure:
    if not (holds(s, AxiomId.T) and holds(s, AxiomId.IRR)):
        raise OrderError(
            "zero adjunction needs a transitive irreflexive relation")
    taken = {e.label for e in s.universe}
    if zero_label is None:
        zero_label = DEFAULT_ZERO_LABEL
        while zero_label in taken:
            zero_label += "'"
    elif str(zero_label) in taken:
        raise DomainError(f"zero label {zero_label!r} is already an element")
    return ZeroedStructure(s, str(zero_label))


def lattice_report(z: ZeroedStructure) -> LatticeReport:
    n = z.n
    span = range(n)
    els = z.elements
    # Each pair's meet and join is found once, by scanning for bounds, and
    # every law reads these tables.  Row i starts as [i] * n, since i is
    # its own meet and join; pairs i < j fill the rest in order.
    #
    # Completeness is the lattice verdict.  The adjunction is finite with
    # the zero as its bottom.  If every pair has a join, every nonempty
    # subset has one, by joining in its members one at a time, and the
    # empty subset's join is the zero.  Conversely, if every subset has a
    # join, each pair's meet is the join of its common lower bounds: the
    # pair's two elements bound that set from above, so its join lies in
    # it and is its greatest member.  An incomplete adjunction keeps the
    # lattice laws' failing pair as its witness.
    meet = [[i] * n for i in span]
    join = [[i] * n for i in span]
    for i in span:
        for j in range(i + 1, n):
            m, u = z.meet(i, j), z.join(i, j)
            if m is None or u is None:
                return LatticeReport(False, False, False, False, False,
                                     (els[i], els[j]))
            meet[i][j] = meet[j][i] = m
            join[i][j] = join[j][i] = u

    # the witness is the first failing assignment of the first law to fail
    bad = next(((x, y, w) for x in span for y in span for w in span
                if meet[x][join[y][w]] != join[meet[x][y]][meet[x][w]]),
               None)
    bottom, top = z.zero_index, z.join_of_set(z.full)
    lone = next(((x,) for x in span
                 if not any(meet[x][y] == bottom and join[x][y] == top
                            for y in span)), None)
    first = bad or lone
    return LatticeReport(
        is_lattice=True,
        is_distributive=bad is None,
        is_complemented=lone is None,
        is_boolean=first is None,
        is_complete=True,
        witness=None if first is None else tuple(els[k] for k in first),
    )


def zero_report(s: ParthoodStructure) -> Optional[LatticeReport]:
    """The lattice_report of s's zero adjunction, or None when s is not a
    strict partial order."""
    try:
        z = adjoin_zero(s)
    except OrderError:
        return None
    return lattice_report(z)


def tarski_check(s: ParthoodStructure) -> bool:
    """Both sides of the classical-mereology correspondence agree on s.

    Left side: s models classical mereology.  Right side: s is a strict
    partial order whose zero adjunction is a non-degenerate complete
    Boolean lattice.  The sides share no verdict: each checks the order
    axioms T and IRR itself, and sums and lattice bounds are evaluated
    independently.
    """
    return tarski_agrees(check_theory(s, TheoryId.CM), zero_report(s))


def tarski_agrees(cm: TheoryVerdict,
                  report: Optional[LatticeReport]) -> bool:
    """tarski_check given s's classical mereology verdict and its
    zero_report.  The adjunction has at least two elements, so it is
    non-degenerate, and a Boolean report is a lattice, so complete."""
    rhs = report is not None and report.is_boolean
    return cm.holds == rhs
