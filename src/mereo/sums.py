"""Mereological sum and supremum queries, and the algebraic operations.

x is a sum of S iff every member of S is an ingrediens of x and every
ingrediens of x overlaps some member of S.  x is a supremum of S iff x
is an upper bound of S (under ingrediens) below every upper bound.
Raw structures may give a set several sums, so the query operations
return every candidate instead of assuming uniqueness; product,
difference, complement and binary sum distinguish "absent" (no
candidate, returned as None) from "ambiguous" (several candidates,
raised as UniquenessFault).

This module owns the rule deciding both.  A subset enters it as its
pair (ub, ov), its common upper bounds and the elements overlapping it,
from `subset_entry` for one subset or `subset_tables` for all, and
`sums_in` / `sups_in` read the sums and suprema off the pair.  The
literal definitions (`cover_mask`, `is_sum_mask`, `is_sup_mask`,
`sum_candidates`, `sup_candidates`) are oracles for the tests only.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import (
    ElementId, ElementLike, MereologyError, ParthoodStructure, SubsetLike,
    _bits, _Record, _set,
)


class UniquenessFault(MereologyError):
    """An operation needing a unique sum found several candidates."""

    def __init__(self, operation: str, candidates: tuple[ElementId, ...]):
        self.operation = operation
        self.candidates = candidates
        labels = ", ".join(e.label for e in candidates)
        super().__init__(f"{operation}: several candidates ({labels})")


class SumQueryResult(_Record):
    __slots__ = ("candidates", "unique")

    def __init__(self, candidates: tuple[ElementId, ...], unique: bool):
        _set(self, "candidates", candidates)
        _set(self, "unique", unique)


class SupQueryResult(_Record):
    __slots__ = ("candidates", "unique")
    __init__ = SumQueryResult.__init__


# -- the (ub, ov) kernel ----------------------------------------------------

def subset_entry(s: ParthoodStructure, subset_mask: int) -> tuple[int, int]:
    """The pair (ub, ov) of one subset, folded over its members."""
    ub, ov = s.full, 0
    for i in _bits(subset_mask):
        ub &= s.ing_up[i]
        ov |= s.ov_of[i]
    return ub, ov


def subset_tables(s: ParthoodStructure) \
        -> tuple[Sequence[int], Sequence[int]]:
    """Per-subset tables (ub, ov), indexed by subset mask m: two integer
    sequences of 2^n entries, which callers only read.

    ub[m] is the set of common upper bounds of m under ingrediens
    (ub[0] is the whole universe) and ov[m] the set of elements
    overlapping some member of m (ov[0] is empty).  With them every
    subset question is a few mask operations:

      x sums m            iff  ub[m] has x and ing_of[x] & ~ov[m] == 0
      x is a sup of m     iff  ub[m] has x and ub[m] & ~ing_up[x] == 0
      u Ov x <-> u Ov m   iff  ov[m] == ov_of[x]

    Both tables are built by doubling over the elements, 2^n entries
    each, once per structure: the result is kept in the structure's
    `_subset_tables` slot, where a shared up-to-isomorphism walk of at
    most eight elements may have set them already, packed read-only
    into two bytes objects.  Entry m equals `subset_entry(s, m)`.
    """
    tables = s._subset_tables
    if tables is None:
        ub, ov = [s.full], [0]
        for up, reach in zip(s.ing_up, s.ov_of):
            ub += [u & up for u in ub]
            ov += [o | reach for o in ov]
        tables = s._subset_tables = (ub, ov)
    return tables


def sums_in(s: ParthoodStructure, ub_m: int, ov_m: int) -> int:
    """The sums of a subset with entry (ub_m, ov_m), as a mask."""
    ing, gaps, out = s.ing_of, ~ov_m, 0
    while ub_m:
        low = ub_m & -ub_m
        if not ing[low.bit_length() - 1] & gaps:
            out |= low
        ub_m ^= low
    return out


def sups_in(s: ParthoodStructure, ub_m: int) -> int:
    """The suprema of a subset with upper bounds ub_m, as a mask."""
    up, out, rest = s.ing_up, 0, ub_m
    while rest:
        low = rest & -rest
        if not ub_m & ~up[low.bit_length() - 1]:
            out |= low
        rest ^= low
    return out


# -- literal mask-level definitions (oracles only) ----------------------------

def cover_mask(s: ParthoodStructure, subset_mask: int) -> int:
    """Union of the ingrediens sets of the subset's members."""
    cover = 0
    for i in _bits(subset_mask):
        cover |= s.ing_of[i]
    return cover


def is_sum_mask(s: ParthoodStructure, x: int, subset_mask: int) -> bool:
    ing = s.ing_of
    if subset_mask & ~ing[x]:
        return False
    cover = cover_mask(s, subset_mask)
    for u in _bits(ing[x]):
        if not ing[u] & cover:
            return False
    return True


def is_sup_mask(s: ParthoodStructure, x: int, subset_mask: int) -> bool:
    ing = s.ing_of
    if subset_mask & ~ing[x]:
        return False
    x_up = s.ing_up[x]
    for u in range(s.n):
        if not subset_mask & ~ing[u] and not x_up >> u & 1:
            return False
    return True


def sum_candidates(s: ParthoodStructure, subset_mask: int) -> list[int]:
    return [x for x in range(s.n) if is_sum_mask(s, x, subset_mask)]


def sup_candidates(s: ParthoodStructure, subset_mask: int) -> list[int]:
    return [x for x in range(s.n) if is_sup_mask(s, x, subset_mask)]


# -- public query operations ------------------------------------------------

def is_sum(s: ParthoodStructure, x: ElementLike, subset: SubsetLike) -> bool:
    return s.element(x) in sum_of(s, subset).candidates


def is_sup(s: ParthoodStructure, x: ElementLike, subset: SubsetLike) -> bool:
    return s.element(x) in sup_of(s, subset).candidates


def sum_of(s: ParthoodStructure, subset: SubsetLike) -> SumQueryResult:
    ub, ov = subset_entry(s, s.subset_mask(subset))
    elems = s.subset_from_mask(sums_in(s, ub, ov)).members
    return SumQueryResult(elems, len(elems) == 1)


def sup_of(s: ParthoodStructure, subset: SubsetLike) -> SupQueryResult:
    ub, _ = subset_entry(s, s.subset_mask(subset))
    elems = s.subset_from_mask(sups_in(s, ub)).members
    return SupQueryResult(elems, len(elems) == 1)


# -- algebraic operations ----------------------------------------------------

def _unique_sum(s: ParthoodStructure, subset_mask: int,
                operation: str) -> Optional[ElementId]:
    sums = sums_in(s, *subset_entry(s, subset_mask))
    if sums & (sums - 1):
        raise UniquenessFault(operation, s.subset_from_mask(sums).members)
    return s.universe[sums.bit_length() - 1] if sums else None


def product(s: ParthoodStructure, x: ElementLike,
            y: ElementLike) -> Optional[ElementId]:
    """Unique sum of the common ingredienses of x and y, if any."""
    i, j = s.index(x), s.index(y)
    return _unique_sum(s, s.ing_of[i] & s.ing_of[j], "product")


def difference(s: ParthoodStructure, x: ElementLike,
               y: ElementLike) -> Optional[ElementId]:
    """Unique sum of the ingredienses of x exterior to y, if any."""
    i, j = s.index(x), s.index(y)
    return _unique_sum(s, s.ing_of[i] & ~s.ov_of[j], "difference")


def complement(s: ParthoodStructure, x: ElementLike) -> Optional[ElementId]:
    """difference(unity, x); absent without a unity or for x = unity."""
    u = s.unity()
    if u is None or u.index == s.index(x):
        return None
    return difference(s, u, x)


def binary_sum(s: ParthoodStructure, x: ElementLike,
               y: ElementLike) -> Optional[ElementId]:
    """Unique sum of the pair {x, y}, if any."""
    mask = (1 << s.index(x)) | (1 << s.index(y))
    return _unique_sum(s, mask, "binary_sum")


def product_by_cases(s: ParthoodStructure, x: ElementLike,
                     y: ElementLike) -> Optional[ElementId]:
    """Case formula for the product of overlapping objects.

    Returns x when x Ing y, y when y Ing x, and x - (x - y) when the two
    cross.  Exterior pairs have no product.  On structures with the
    super-supplementation axioms this agrees with product() wherever the
    pair overlaps; on raw structures it may not.
    """
    i, j = s.index(x), s.index(y)
    if s.ing(i, j):
        return s.universe[i]
    if s.ing(j, i):
        return s.universe[j]
    if s.pov(i, j):
        inner = difference(s, i, j)
        if inner is None:
            return None
        return difference(s, i, inner)
    return None
