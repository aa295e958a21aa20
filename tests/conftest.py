"""Shared helpers: the fixture structures, naive definitional oracles and
structure strategies.

The oracle functions re-derive every relation from the raw (part, whole)
pair list with plain set logic, independently of the package's bitmask
code paths, so they can stand as expected-value generators in tests.
"""

from __future__ import annotations

import functools
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from mereo import ParthoodStructure
from mereo.cli import load_structure
from mereo.search import _poset_classes
from oracles import enumerate_model_masks

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FIXTURE_NAMES = tuple(sorted(p.stem for p in FIXTURE_DIR.glob("*.txt")))


# -- the checked-in structures ------------------------------------------------

@functools.lru_cache(maxsize=None)
def fixture(name: str) -> ParthoodStructure:
    """The structure in fixtures/<name>.txt, loaded once per process."""
    return load_structure(str(FIXTURE_DIR / f"{name}.txt"))[1]


def all_fixtures() -> list[ParthoodStructure]:
    """Every fixture structure, in file-name order."""
    return [fixture(name) for name in FIXTURE_NAMES]


def mask_tuples(s: ParthoodStructure) -> tuple[tuple[int, ...], ...]:
    """The relation and the four element masks a structure derives from
    it at construction: rows, parts_in, ing_of, ing_up and ov_of."""
    return s.rows, s.parts_in, s.ing_of, s.ing_up, s.ov_of


# -- naive oracles ------------------------------------------------------------

def o_pairs(s: ParthoodStructure) -> set[tuple[str, str]]:
    return {(p.label, w.label) for p, w in s.pairs()}


def o_labels(s: ParthoodStructure) -> list[str]:
    return [e.label for e in s.universe]


def o_ing(pairs, x, y) -> bool:
    return x == y or (x, y) in pairs


def o_ov(labels, pairs, x, y) -> bool:
    return any(o_ing(pairs, z, x) and o_ing(pairs, z, y) for z in labels)


def o_pov(labels, pairs, x, y) -> bool:
    return (x != y and (x, y) not in pairs and (y, x) not in pairs
            and any((z, x) in pairs and (z, y) in pairs for z in labels))


def o_is_sum(labels, pairs, x, members) -> bool:
    members = list(members)
    if not all(o_ing(pairs, m, x) for m in members):
        return False
    return all(any(o_ov(labels, pairs, u, m) for m in members)
               for u in labels if o_ing(pairs, u, x))


def o_is_sup(labels, pairs, x, members) -> bool:
    members = list(members)
    if not all(o_ing(pairs, m, x) for m in members):
        return False
    bounds = [u for u in labels
              if all(o_ing(pairs, m, u) for m in members)]
    return all(o_ing(pairs, x, u) for u in bounds)


def o_subsets(labels):
    for r in range(len(labels) + 1):
        yield from itertools.combinations(labels, r)


# -- random structures --------------------------------------------------------

def _closure(n: int, mask: int) -> int:
    rows = [(mask >> (i * n)) & ((1 << n) - 1) for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = rows[i]
            for j in range(n):
                if rows[i] >> j & 1:
                    acc |= rows[j]
            if acc != rows[i]:
                rows[i] = acc
                changed = True
    return sum(rows[i] << (i * n) for i in range(n))


@st.composite
def structures(draw, max_n=5, transitive=False, irreflexive=False):
    n = draw(st.integers(min_value=1, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * n)) - 1))
    if transitive:
        mask = _closure(n, mask)
    if irreflexive:
        for i in range(n):
            mask &= ~(1 << (i * n + i))
        if transitive:
            mask = _closure(n, mask)
            for i in range(n):
                mask &= ~(1 << (i * n + i))          # cycles may re-add loops
            # re-closing an irreflexive projection can leave broken chains;
            # drop to the largest transitive irreflexive sub-relation instead
            rows = [(mask >> (i * n)) & ((1 << n) - 1) for i in range(n)]
            ok = all(not rows[j] & ~rows[i]
                     for i in range(n) for j in range(n) if rows[i] >> j & 1)
            if not ok:
                mask = 0
    return ParthoodStructure.from_mask(n, mask)


def all_relations(max_n):
    """Every relation on 1..max_n elements, as structures."""
    for n in range(1, max_n + 1):
        for mask in range(1 << (n * n)):
            yield ParthoodStructure.from_mask(n, mask)


_COMPOSITES = ["".join(c) for k in (2, 3, 4)
               for c in itertools.combinations("abcd", k)]


def _inclusion_family(rng, n, atoms):
    """The given atoms and n - len(atoms) composites of abcd under strict
    inclusion, in shuffled order."""
    labels = list(atoms) + rng.sample(_COMPOSITES, n - len(atoms))
    rng.shuffle(labels)
    return ParthoodStructure.build(labels, [
        (x, y) for x in labels for y in labels if set(x) < set(y)])


def _raw_relation(rng, n, closed):
    """Each ordered pair of distinct elements with chance 0.16, plus a
    loop; transitively closed when closed."""
    mask = sum(1 << cell for cell in range(n * n)
               if cell % (n + 1) and rng.random() < 0.16)
    mask |= 1 << (rng.randrange(n) * (n + 1))
    return ParthoodStructure.from_mask(n, _closure(n, mask) if closed else mask)


def differential_structures():
    """The classes of all relations on up to four elements, the poset
    classes on five and six elements, and on each of 5 to 12 elements 80
    seeded raw relations, half of them closed, and 40 seeded 4-atom
    inclusion families: 4,501 structures."""
    for n in range(1, 5):
        for m in enumerate_model_masks(n, ()):
            yield ParthoodStructure.from_mask(n, m)
    for n in (5, 6):
        for m in _poset_classes(n):
            yield ParthoodStructure.from_mask(n, m)
    rng = random.Random(38)
    for n in range(5, 13):
        for i in range(80):
            yield _raw_relation(rng, n, i % 2)
        for _ in range(40):
            yield _inclusion_family(rng, n, "abcd")


@st.composite
def structures_maybe_with_zero(draw, max_n=5):
    """Random relations, half of them transitively closed; about half get
    element 0 as an ingrediens of everything, so the empty subset has a
    supremum."""
    s = draw(structures(max_n=max_n, transitive=draw(st.booleans())))
    if not draw(st.booleans()):
        return s
    rows = list(s.rows)
    rows[0] |= s.full & ~1
    return ParthoodStructure([e.label for e in s.universe], rows)


@st.composite
def sparse_relations(draw, min_n, max_n):
    """Random relations on min_n..max_n elements, each pair present with
    chance 1/2, 1/4 or 1/8; half of them transitively closed."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    mask = (1 << (n * n)) - 1
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        mask &= draw(st.integers(min_value=0, max_value=(1 << (n * n)) - 1))
    if draw(st.booleans()):
        mask = _closure(n, mask)
    return ParthoodStructure.from_mask(n, mask)


@pytest.fixture(scope="session")
def fixture_files():
    return sorted(FIXTURE_DIR.glob("*.txt"))
