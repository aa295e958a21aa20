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
from `subset_entry`, and `sums_in` / `sups_in` read the sums and
suprema off the pair.  For every subset at once, `subset_planes` gives
each element one int of 2^n bits, set at the subsets it sums (or is a
supremum of), made by `meeting` from the planes of submasks: a few
big-int operations per element, at every size.  The literal
definitions (`cover_mask`, `is_sum_mask`, `is_sup_mask`,
`sum_candidates`, `sup_candidates`) are oracles for the tests only.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import (
    MAX_UNIVERSE_SIZE, ElementId, ElementLike, MereologyError,
    ParthoodStructure, SubsetLike, _bits, _Record, _set,
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


def subset_planes(s: ParthoodStructure, sups: bool = False) \
        -> tuple[int, ...]:
    """The per-element subset planes of s: one int of 2^n bits per
    element x, whose bit m says that x sums the subset m (x is a
    supremum of m if sups).  Callers only read them.

    With SUB(S) the plane of the submasks of S, x bounds m iff
    SUB(ing_of[x]) has m, and

      sums[x] = meeting(ing_of[x], ing_of[x], ov_of)
      sups[x] = SUB(ing_of[x]) & ~OR(SUB(ing_of[y]) for y not in ing_up[x])

    x sums m iff x bounds m and m meets ov_of[z], the elements
    overlapping z, for every ingrediens z of x; x is a supremum of m iff
    x bounds m and no y that x is not an ingrediens of does.  Each tuple
    is made once per structure, on first use, and kept in the list in
    the structure's `_subset_planes` slot, where a shared
    up-to-isomorphism walk may have set it already.  Bit m of sums[x]
    equals `is_sum_mask(s, x, m)`, and of sups[x] `is_sup_mask(s, x, m)`.
    """
    planes = s._subset_planes
    if planes is None:
        planes = s._subset_planes = [None, None]
    got = planes[sups]
    if got is None:
        got = planes[sups] = _sup_planes(s) if sups else _sum_planes(s)
    return got


def _sum_planes(s: ParthoodStructure) -> tuple[int, ...]:
    # meeting(ing, ing, ov_of) for each ing, inlined: a call per element
    # would add a fifth to the time of making them at four elements
    low, high, elems, elems_high = _LOW, _HIGH, _ELEMS, _ELEMS_HIGH
    made, ov_of = [], s.ov_of
    for ing in s.ing_of:
        missed = 0
        for z in elems[ing & 255] + elems_high[ing >> 8]:
            apart = ing & ~ov_of[z]
            missed |= low[apart & 255] * high[apart >> 8]
        made.append(low[ing & 255] * high[ing >> 8] & ~missed)
    return tuple(made)


def _sup_planes(s: ParthoodStructure) -> tuple[int, ...]:
    low, high, elems, elems_high = _LOW, _HIGH, _ELEMS, _ELEMS_HIGH
    full = s.full
    bounds = [low[ing & 255] * high[ing >> 8] for ing in s.ing_of]
    made = []
    for bound, up in zip(bounds, s.ing_up):
        missed, above = 0, full ^ up
        for y in elems[above & 255] + elems_high[above >> 8]:
            missed |= bounds[y]
        made.append(bound & ~missed)
    return tuple(made)


def meeting(within: int, meets: int, ov_of: Sequence[int]) -> int:
    """The plane of the subsets of within that meet ov_of[z] for every z
    in meets: SUB(within) less SUB(within & ~ov_of[z]) for each z."""
    low, high = _LOW, _HIGH
    missed = 0
    for z in _ELEMS[meets & 255] + _ELEMS_HIGH[meets >> 8]:
        apart = within & ~ov_of[z]
        missed |= low[apart & 255] * high[apart >> 8]
    return low[within & 255] * high[within >> 8] & ~missed


def _elements(mask: int) -> tuple[int, ...]:
    """The elements of mask, ascending."""
    return _ELEMS[mask & 255] + _ELEMS_HIGH[mask >> 8]


def _by_bits(first: int, count: int) \
        -> tuple[list[int], list[tuple[int, ...]]]:
    """For each a below 2^count, the plane of the submasks of a << first
    and the elements of a << first, doubled over the elements i from
    first: the plane of a | 1 << (i - first) is that of a ORed with
    itself shifted by 1 << i, the mask value of element i, and its
    elements are a's and i."""
    planes, elements = [1], [()]
    for i in range(first, first + count):
        planes += [p | p << (1 << i) for p in planes]
        elements += [t + (i,) for t in elements]
    return planes, elements


# The submasks of S are its low byte's times its high bits' as masks
# whose low byte is 0, so SUB(S) = _LOW[S & 255] * _HIGH[S >> 8], the
# product of the planes of the two parts: the low plane's bits lie below
# 256 and the high one's at multiples of 256, so no two bit products
# meet and nothing carries.  _ELEMS and _ELEMS_HIGH list the elements of
# the same two parts, so the kernels visit a mask's elements without a
# loop over its bits.
_LOW, _ELEMS = _by_bits(0, 8)
_HIGH, _ELEMS_HIGH = _by_bits(8, MAX_UNIVERSE_SIZE - 8)


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
    """difference(unity, x), every element an ingrediens of the unity;
    absent without a unity or for x = unity."""
    i = s.index(x)
    u = s.unity()
    if u is None or u.index == i:
        return None
    return _unique_sum(s, s.full & ~s.ov_of[i], "difference")


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
