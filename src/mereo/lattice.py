"""Zero adjunction and lattice-theoretic verification.

A parthood structure whose relation is a strict partial order induces
the partial order "is an ingrediens of"; adjoining a fresh bottom
element beneath everything yields a bounded poset whose lattice laws
are then checked by scanning for bounds -- meets and joins are found
by scanning candidates, and completeness by finding a least element in
each distinct upper-bound set, never computed through the sum
machinery, so these verdicts are an independent cross-check of it.

The one correspondence verified here: a structure models classical
mereology exactly when its zero adjunction is a non-degenerate complete
Boolean lattice, both sides evaluated independently: each checks that
the relation is a strict partial order (T and IRR) itself.
"""

from __future__ import annotations

from typing import Optional

from .axioms import AxiomId, holds
from .core import ElementId, MereologyError, ParthoodStructure, _bits
from .core import _Record, _set
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
        return self._least(upper)

    def _least(self, elements: int) -> Optional[int]:
        """The least element of the set elements, if any."""
        for k in _bits(elements):
            if not elements & ~self.above[k]:
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
    if zero_label is None:
        zero_label = DEFAULT_ZERO_LABEL
        taken = {e.label for e in s.universe}
        while zero_label in taken:
            zero_label += "'"
    return ZeroedStructure(s, zero_label)


def lattice_report(z: ZeroedStructure) -> LatticeReport:
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
                        if witness is None:
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

    # For a finite carrier completeness follows from the lattice laws,
    # but it is still checked directly: each subset's join is the least
    # of its upper bounds, and folding in one element's up-set at a time
    # collects the distinct upper-bound sets of all 2^n subsets.  It needs
    # no witness of its own: with the zero below everything and a join for
    # every pair, every finite subset has a join, so an incomplete
    # adjunction has already failed the lattice laws, which set one.
    uppers = {z.full}
    for a in z.above:
        uppers |= {u & a for u in uppers}
    is_complete = all(z._least(u) is not None for u in uppers)

    return LatticeReport(
        is_lattice=is_lattice,
        is_distributive=is_distributive,
        is_complemented=is_complemented,
        is_boolean=is_lattice and is_distributive and is_complemented,
        is_complete=is_complete,
        witness=witness,
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
    non-degenerate."""
    rhs = report is not None and report.is_boolean and report.is_complete
    return cm.holds == rhs
