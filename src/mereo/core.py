"""Finite parthood structures and their derived relations.

A structure is a finite universe together with an arbitrary binary
"part of" relation.  Nothing is assumed about the relation at
construction time: it may violate irreflexivity, transitivity, or any
other law, because the axiom checkers must be able to exhibit
violations and the model search must range over all relations.

The relation and its derived element masks are precomputed as bitmasks
at construction (bit i of an element mask corresponds to universe index
i) and never change afterwards.  _ELEMS[m], made at import, is the
tuple of the elements of mask m, ascending, for every m below
2^MAX_UNIVERSE_SIZE; every module lists a mask's elements through it.
The masks come from one pass over the rows, which checks each row and,
for every element of it, updates that element's parts and overlaps;
only `ing_of` is read off the parts afterwards.  What only some
callers read is filled on first use instead: the `ElementId` tuple
`universe` and the label index, which only naming, reporting and
printing need, and the per-element subset planes (`_subset_planes`)
that `sums.subset_planes` builds for the subset-quantified axioms.  Each
depends only on the labels or the relation given at construction, so
filling it never changes an answer, and a search candidate that is
never reported never builds its labels.  All queries are pure.

A structure can also be made from the five derived mask tuples of an
earlier build of the same relation (`_fields`, `_from_fields`), with
nothing checked, derived or copied: a shared up-to-isomorphism walk of
`search` hands each search such a copy of a class that passes its
checks, with the subset planes kept for it.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Optional, Sequence, Union

# Universe size cap keeping 2^n subset scans tractable.
MAX_UNIVERSE_SIZE = 12

DEFAULT_LABELS = "abcdefghijkl"

# The default label tuple of each size, shared by every structure that
# from_mask or _from_fields makes with default labels.
_DEFAULT_LABEL_TUPLES = tuple(tuple(DEFAULT_LABELS[:n])
                              for n in range(MAX_UNIVERSE_SIZE + 1))


class MereologyError(Exception):
    """Base class for errors raised by this package."""


class DomainError(MereologyError):
    """An element or label does not belong to the structure's universe."""


_set = object.__setattr__


class _Record:
    """An immutable value record over the fields its class names in
    `__slots__`, set once by its `__init__` with `_set`.  The repr is the
    dataclass one; two records are equal, and hash alike, when their
    classes are the same and their field tuples equal.  Records are not
    dataclasses because making a dataclass execs its generated methods,
    which would be most of the package's own import time."""

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __reduce__(self):
        return self.__class__, self._astuple()


@functools.total_ordering
class ElementId(_Record):
    """A universe element: contiguous index plus a unique display label,
    ordered by (index, label)."""

    __slots__ = ("index", "label")

    def __init__(self, index: int, label: str):
        _set(self, "index", index)
        _set(self, "label", label)

    def __str__(self) -> str:
        return self.label

    def __eq__(self, other):
        if other.__class__ is ElementId:
            return self.index == other.index and self.label == other.label
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.index, self.label))

    def __lt__(self, other):
        if other.__class__ is ElementId:
            return (self.index, self.label) < (other.index, other.label)
        return NotImplemented


class Subset(_Record):
    """A set of elements of one structure's universe; may be empty.

    `mask` is the characteristic bit vector (bit i = element of index i),
    `members` the elements in universe order.
    """

    __slots__ = ("members", "mask")

    def __init__(self, members: tuple[ElementId, ...], mask: int):
        _set(self, "members", members)
        _set(self, "mask", mask)

    def __iter__(self) -> Iterator[ElementId]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, e: object) -> bool:
        return e in self.members

    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.members)

    def __str__(self) -> str:
        return "{" + ", ".join(self.labels()) + "}"


ElementLike = Union[ElementId, str, int]
SubsetLike = Union[Subset, int, Iterable[ElementLike]]


def _element_lists() -> tuple[tuple[int, ...], ...]:
    """The elements of each mask below 2^MAX_UNIVERSE_SIZE, ascending,
    doubled over the elements: those of m | 1 << i, m below 1 << i, are
    m's and i."""
    elements = [()]
    for i in range(MAX_UNIVERSE_SIZE):
        elements += [t + (i,) for t in elements]
    return tuple(elements)


# _ELEMS[m]: the elements of mask m, ascending.  A negative m would
# quietly read an entry from the end, so every public entry point
# refuses a mask outside the universe before any lookup.
_ELEMS = _element_lists()


def _check_grid(n: int, mask: int) -> None:
    """Refuse a universe size outside 1..MAX_UNIVERSE_SIZE, or a relation
    encoding with a set cell outside the n x n grid (or a negative one)."""
    if not 1 <= n <= MAX_UNIVERSE_SIZE:
        raise DomainError(
            f"universe size {n} outside 1..{MAX_UNIVERSE_SIZE}")
    if mask >> (n * n):         # nonzero for a negative mask too
        raise DomainError("relation mask mentions cells outside the "
                          f"{n} x {n} grid")


class ParthoodStructure:
    """A finite universe with an explicit binary part-of relation.

    Rows of the incidence table are stored as integers: bit j of
    `rows[x]` means "x is a part of y_j".  Derived masks:

      parts_in[x]  -- {z : z P x}, the parts of x
      ing_of[x]    -- {z : z Ing x} = parts_in[x] | {x}
      ing_up[x]    -- {u : x Ing u} = rows[x] | {x}
      ov_of[x]     -- {u : u Ov x}

    One pass over the rows checks each row against the universe and
    derives the masks: row x sets ing_up[x], puts x into parts_in[y] for
    each y in rows[x], and ORs ing_up[x] into ov_of[x] and each such
    ov_of[y], as u Ov y iff u is in ing_up[z] for some z Ing y.  ing_of
    is then parts_in plus each element itself.

    Labels are stored as their `str()` forms, which must be pairwise
    distinct; `universe` and the label index are built from them on
    first use.  `_subset_planes` holds the list [sums, sups] that
    `sums.subset_planes` fills, each entry None until it is first read
    and then a tuple of n ints: None until that makes the list or a
    shared up-to-isomorphism walk sets the list it kept.
    """

    __slots__ = (
        "n", "_labels", "_universe", "_label_index",
        "rows", "parts_in", "ing_of", "ing_up", "ov_of", "full",
        "_subset_planes",
    )

    def __init__(self, labels: Sequence[str], rows: Sequence[int]):
        n = len(labels)
        if not 1 <= n <= MAX_UNIVERSE_SIZE:
            raise DomainError(
                f"universe size {n} outside 1..{MAX_UNIVERSE_SIZE}")
        # from_mask's default labels are shared, and distinct already
        if labels is not _DEFAULT_LABEL_TUPLES[n]:
            labels = tuple(map(str, labels))
            if len(set(labels)) != n:
                raise DomainError("labels must be pairwise distinct")
        if len(rows) != n:
            raise DomainError("relation table must have one row per element")
        full = (1 << n) - 1
        rows = tuple(rows)
        # one pass over the rows checks them and derives the masks
        parts_in = [0] * n
        ing_up = [0] * n
        ov_of = [0] * n
        for x, r in enumerate(rows):
            if r & ~full:
                raise DomainError("relation row mentions foreign elements")
            bit = 1 << x
            up = ing_up[x] = r | bit
            ov_of[x] |= up
            for y in _ELEMS[r]:
                parts_in[y] |= bit
                ov_of[y] |= up
        self.n = n
        self.full = full
        self._labels = labels
        self._universe = None
        self._label_index = None
        self.rows = rows
        self.parts_in = tuple(parts_in)
        self.ing_of = tuple([p | 1 << x for x, p in enumerate(parts_in)])
        self.ing_up = tuple(ing_up)
        self.ov_of = tuple(ov_of)
        self._subset_planes = None

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, labels: Sequence[str],
              parts: Iterable[tuple[str, str]] = ()) -> "ParthoodStructure":
        """Build from labels and (part, whole) label pairs."""
        index = {str(l): i for i, l in enumerate(labels)}
        rows = [0] * len(labels)
        for part, whole in parts:
            p, w = index.get(str(part)), index.get(str(whole))
            if p is None:
                raise DomainError(f"undeclared label {part!r}")
            if w is None:
                raise DomainError(f"undeclared label {whole!r}")
            rows[p] |= 1 << w
        return cls(labels, rows)

    @classmethod
    def from_mask(cls, n: int, mask: int,
                  labels: Optional[Sequence[str]] = None) -> "ParthoodStructure":
        """Build from the row-major relation encoding (bit i*n+j = i P j)."""
        if not 1 <= n <= MAX_UNIVERSE_SIZE or mask >> (n * n):
            _check_grid(n, mask)    # raises; the inline test spares a call
        if labels is None:
            labels = _DEFAULT_LABEL_TUPLES[n]
        rows = [(mask >> (i * n)) & ((1 << n) - 1) for i in range(n)]
        return cls(labels, rows)

    def _fields(self) -> tuple[tuple[int, ...], ...]:
        """The derived mask tuples rows, parts_in, ing_of, ing_up and
        ov_of, in that order, that _from_fields reads back."""
        return self.rows, self.parts_in, self.ing_of, self.ing_up, self.ov_of

    @classmethod
    def _from_fields(cls, n: int, fields: Sequence[tuple[int, ...]],
                     labels: Optional[tuple[str, ...]] = None
                     ) -> "ParthoodStructure":
        """A fresh structure sharing the five tuples of _fields of a
        structure of size n with these labels (default labels if None).
        Nothing is checked, derived or copied: the tuples are immutable,
        and were checked when that structure was built."""
        s = cls.__new__(cls)
        s.n = n
        s.full = (1 << n) - 1
        s._labels = _DEFAULT_LABEL_TUPLES[n] if labels is None else labels
        s._universe = None
        s._label_index = None
        s.rows, s.parts_in, s.ing_of, s.ing_up, s.ov_of = fields
        s._subset_planes = None
        return s

    def __reduce__(self):
        """Pickle and copy the labels and the five derived mask tuples.
        What is filled on first use is left out, and is filled again
        when next read."""
        return self._from_fields, (self.n, self._fields(), self._labels)

    @property
    def universe(self) -> tuple[ElementId, ...]:
        """The elements in index order, built on first use."""
        universe = self._universe
        if universe is None:
            universe = self._universe = tuple(
                ElementId(i, l) for i, l in enumerate(self._labels))
        return universe

    @property
    def relation_mask(self) -> int:
        """Row-major encoding of the relation (bit i*n+j = i P j)."""
        n = self.n
        return sum(self.rows[i] << (i * n) for i in range(n))

    # -- element / subset resolution --------------------------------------

    def index(self, x: ElementLike) -> int:
        if isinstance(x, ElementId):
            i = x.index
            if 0 <= i < self.n and self.universe[i] == x:
                return i
            raise DomainError(f"element {x} not in universe")
        if isinstance(x, str):
            label_index = self._label_index
            if label_index is None:
                label_index = self._label_index = {
                    l: i for i, l in enumerate(self._labels)}
            try:
                return label_index[x]
            except KeyError:
                raise DomainError(f"no element labelled {x!r}") from None
        if isinstance(x, int):
            if 0 <= x < self.n:
                return x
            raise DomainError(f"index {x} out of range")
        raise DomainError(f"cannot resolve element {x!r}")

    def element(self, x: ElementLike) -> ElementId:
        return self.universe[self.index(x)]

    def subset_mask(self, s: SubsetLike) -> int:
        if isinstance(s, Subset):
            if s.mask & ~self.full:
                raise DomainError("subset mentions foreign elements")
            for e in s.members:
                self.index(e)
            return s.mask
        if isinstance(s, int):
            if s & ~self.full:
                raise DomainError("subset mask mentions foreign elements")
            return s
        mask = 0
        for x in s:
            mask |= 1 << self.index(x)
        return mask

    def subset(self, *xs: ElementLike) -> Subset:
        return self.subset_from_mask(self.subset_mask(xs))

    def subset_from_mask(self, mask: int) -> Subset:
        if mask & ~self.full:
            raise DomainError("subset mask mentions foreign elements")
        universe = self.universe
        return Subset(tuple([universe[i] for i in _ELEMS[mask]]), mask)

    def subsets(self) -> Iterator[Subset]:
        """All subsets in increasing characteristic-vector encoding."""
        for mask in range(1 << self.n):
            yield self.subset_from_mask(mask)

    # -- primitive and derived relations ----------------------------------

    def part(self, x: ElementLike, y: ElementLike) -> bool:
        """x P y: the raw relation."""
        return bool(self.rows[self.index(x)] >> self.index(y) & 1)

    def ing(self, x: ElementLike, y: ElementLike) -> bool:
        """x is an ingrediens of y: x = y or x P y."""
        i, j = self.index(x), self.index(y)
        return i == j or bool(self.rows[i] >> j & 1)

    def ov(self, x: ElementLike, y: ElementLike) -> bool:
        """x and y overlap: some z is an ingrediens of both."""
        return bool(self.ing_of[self.index(x)] & self.ing_of[self.index(y)])

    def ext(self, x: ElementLike, y: ElementLike) -> bool:
        """x and y are exterior to one another: no common ingrediens."""
        return not self.ov(x, y)

    def pov(self, x: ElementLike, y: ElementLike) -> bool:
        """x and y cross: distinct, neither a part of the other, common part."""
        i, j = self.index(x), self.index(y)
        if i == j or self.rows[i] >> j & 1 or self.rows[j] >> i & 1:
            return False
        return bool(self.parts_in[i] & self.parts_in[j])

    def is_zero(self, x: ElementLike) -> bool:
        """x is an ingrediens of everything."""
        return self.ing_up[self.index(x)] == self.full

    def is_unity(self, x: ElementLike) -> bool:
        """everything is an ingrediens of x."""
        return self.ing_of[self.index(x)] == self.full

    def zero(self) -> Optional[ElementId]:
        for i in range(self.n):
            if self.ing_up[i] == self.full:
                return self.universe[i]
        return None

    def unity(self) -> Optional[ElementId]:
        for i in range(self.n):
            if self.ing_of[i] == self.full:
                return self.universe[i]
        return None

    def atoms(self) -> Subset:
        """Elements with no parts."""
        mask = 0
        for i in range(self.n):
            if not self.parts_in[i]:
                mask |= 1 << i
        return self.subset_from_mask(mask)

    def ingredienses(self, x: ElementLike) -> Subset:
        return self.subset_from_mask(self.ing_of[self.index(x)])

    def parts_of(self, x: ElementLike) -> Subset:
        return self.subset_from_mask(self.parts_in[self.index(x)])

    def pairs(self) -> list[tuple[ElementId, ElementId]]:
        """All (part, whole) pairs in universe order."""
        universe = self.universe
        out = []
        for i in range(self.n):
            for j in _ELEMS[self.rows[i]]:
                out.append((universe[i], universe[j]))
        return out

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ParthoodStructure)
                and self.rows == other.rows
                and self.universe == other.universe)

    def __hash__(self) -> int:
        return hash((self.universe, self.rows))

    def __repr__(self) -> str:
        edges = ", ".join(f"{p}<{w}" for p, w in self.pairs())
        return (f"ParthoodStructure([{', '.join(e.label for e in self.universe)}]"
                + (f"; {edges})" if edges else ")"))
