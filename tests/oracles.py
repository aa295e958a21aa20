"""Literal definitions the canonical-form kernels in mereo.search are
tested against: every one of the n! relabellings is applied to every set
cell of the encoding.
"""

from __future__ import annotations

import functools
import itertools


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
