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
`sums_in` / `sups_in` read the sums and suprema off the pair.
`subset_tables` doubles byte planes with `bytes.translate`, one plane
per table up to eight elements and two above, so every size runs one
C-speed kernel.  The
literal definitions (`cover_mask`, `is_sum_mask`, `is_sup_mask`,
`sum_candidates`, `sup_candidates`) are oracles for the tests only.
"""

from __future__ import annotations

import functools
import sys
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
    each, once per structure, and kept in the structure's
    `_subset_tables` slot, where a shared up-to-isomorphism walk may
    have set them already.  Each doubling is one `bytes.translate` of a
    byte plane through the byte map of an element's mask (`_doubled`).
    Up to eight elements every entry fits a byte, and the tables are
    the two bytes objects; above, each is a list of ints joined from two
    byte planes (`_joined`).  Entry m equals `subset_entry(s, m)`.
    """
    tables = s._subset_tables
    if tables is None:
        build = _doubled if s.full < 256 else _joined
        tables = s._subset_tables = (build(s.full, s.ing_up, _and_map),
                                     build(0, s.ov_of, _or_map))
    return tables


def _doubled(first: int, masks: Sequence[int], byte_map) -> bytes:
    """The 2^len(masks) bytes whose entry m folds byte_map(masks[i]) over
    the bits i of m, starting from the byte first."""
    plane = bytes((first,))
    for mask in masks:
        plane += plane.translate(byte_map(mask))
    return plane


# Two byte planes hold every entry of a table.
assert MAX_UNIVERSE_SIZE <= 16


def _joined(first: int, masks: Sequence[int], byte_map) -> list[int]:
    """`_doubled` for entries of up to 16 bits, as a list of ints.

    AND and OR act bit by bit, so bits 0-7 and bits 8-15 are doubled as
    two independent byte planes, then interleaved low byte first and
    read as 16-bit ints.  The readers get a list, not the array: with
    array("H") tables the whole catalog of checks took 21-31% longer at
    9 to 11 elements (2-core Xeon, Python 3.11.7).
    """
    # imported here, so a process that builds no table above eight
    # elements does not load the module (about 0.15 MB of peak RSS)
    from array import array
    low = _doubled(first & 255, [mask & 255 for mask in masks], byte_map)
    high = _doubled(first >> 8, [mask >> 8 for mask in masks], byte_map)
    pairs = bytearray(2 * len(low))
    pairs[0::2] = low
    pairs[1::2] = high
    table = array("H", pairs)
    if sys.byteorder == "big":
        table.byteswap()
    return table.tolist()


# Byte b of _EVERY_BYTE is b, and mask * _EACH_BYTE repeats the byte
# mask 256 times, so one integer operation makes a whole byte map.  A
# mask is below 256, so each cache below holds at most 256 maps.
_EVERY_BYTE = int.from_bytes(bytes(range(256)), "little")
_EACH_BYTE = int.from_bytes(bytes([1]) * 256, "little")


@functools.lru_cache(maxsize=None)
def _and_map(mask: int) -> bytes:
    """The byte map b -> b & mask, for bytes.translate."""
    return (_EVERY_BYTE & mask * _EACH_BYTE).to_bytes(256, "little")


@functools.lru_cache(maxsize=None)
def _or_map(mask: int) -> bytes:
    """The byte map b -> b | mask, for bytes.translate."""
    return (_EVERY_BYTE | mask * _EACH_BYTE).to_bytes(256, "little")


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
