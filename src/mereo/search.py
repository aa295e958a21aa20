"""Bounded model enumeration and countermodel search.

Structures are identified with the row-major encoding of their relation
(bit i*n+j set iff element i is a part of element j).  The canonical
form of a structure is its encoding minimised over all n! permutations
of the universe.  canonical_form finds it by refining an ordered
partition, the sinks taking the top labels as one cell; is_canonical,
which only has to find one smaller relabelling, reads per-n tables of
the permutations grouped by the element sent to the top label up to six
elements, and defers to canonical_form above.  Their docstrings give
the methods; the literal n! scans that define both are test oracles,
kept outside the package.  Output is ordered by increasing universe
size, then increasing canonical encoding, so searches return
minimal-size witnesses and enumeration is deterministic.

Generation prunes by structural constraints where it can.  Transitive
relations are walked row by row, lazily and in ascending order, each
row drawn only from the values that keep the decided rows transitive
(_transitive_masks); irreflexivity empties the diagonal; and up to
isomorphism under T alone the walk skips each subtree where a decided
row puts is_canonical's block bound below the top row.  Strict partial
orders are walked as their isomorphism classes, each built from a class
one element smaller by a new maximal element over a down-set.  The
down-sets are listed with their ranks, twin-pruned as they are listed
(_down_sets), and one that leaves the new element outranked by another
maximal element is skipped, so each class is canonicalised about once
(_poset_classes, memoised per size: 428 canonical forms for the 405
classes up to n=6, 20,855 for 16,999 at n=8), each handed its rows and
twins, which the walk holds, so canonical_form neither splits a child
nor searches its twins again.  Without transitivity an orderly walk down
from the full relation generates only canonical encodings
(_canonical_masks).  Every walk yields each encoding with its rows as a
tuple (_Rowed), the rows the walk decided or split once, and
is_canonical under T alone and every build read them.

One table, _WALKS, has a row per walk (strict partial orders,
transitive, irreflexive and all relations): the codes that select it
and those it guarantees, its generators and its class counts.  A search
walks the first row its constraints select (AS, AC and WSP each entail
IRR) and checks the other codes on what it yields, each once, cheapest
first; each model is handed on with the subset planes its checks
built or found, its labels built only when read.  An up-to-isomorphism
walk is shared by every search in the process if its row counts at most
WALK_MAX_CLASSES classes at its size (_iso_candidates, _SharedWalk):
every search is then handed the one structure the walk keeps for each
class, and the walk is over once it keeps as many as its row counts.
Otherwise, and for every labelled walk, each search builds its own.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Optional, Sequence

from .axioms import AxiomId, AxiomLike, axiom_id, violation_finders
from .core import (_DEFAULT_LABEL_TUPLES, _ELEMS, MAX_UNIVERSE_SIZE,
                   ParthoodStructure, _Record, _check_grid, _set)

# Invariant sweeps default to universes of size at most 5; command-line
# searches cap at 7.
DEFAULT_SWEEP_MAX = 5
SEARCH_MAX = 7


class SearchSpec(_Record):
    """Models of at most `max_n` elements where the `ambient` codes are
    assumed, `require` hold and `forbid` fail.  The ambient and required
    codes together choose the walk that generates candidates; the forbid
    codes are checked on what it yields."""

    __slots__ = ("max_n", "ambient", "require", "forbid")

    def __init__(self, max_n: int, ambient: Iterable[AxiomLike] = (),
                 require: Iterable[AxiomLike] = (),
                 forbid: Iterable[AxiomLike] = ()):
        if isinstance(max_n, bool) or not isinstance(max_n, int):
            raise TypeError(f"max_n must be an int, not "
                            f"{type(max_n).__name__}")
        if max_n < 1:
            raise ValueError("max_n must be at least 1")
        if max_n > MAX_UNIVERSE_SIZE:
            raise ValueError(f"max_n must be at most {MAX_UNIVERSE_SIZE}")
        ambient = tuple(axiom_id(a) for a in ambient)
        require = tuple(axiom_id(a) for a in require)
        forbid = tuple(axiom_id(a) for a in forbid)
        if set(require) & set(forbid):
            raise ValueError("require and forbid overlap")
        both = [a.value for a in forbid if a in ambient]
        if both:
            raise ValueError(f"forbid code {', '.join(both)} is also in "
                             "ambient")
        _set(self, "max_n", max_n)
        _set(self, "ambient", ambient)
        _set(self, "require", require)
        _set(self, "forbid", forbid)


class SearchResult(_Record):
    __slots__ = ("found", "explored", "exhausted")

    def __init__(self, found: Optional[ParthoodStructure], explored: int,
                 exhausted: bool):
        _set(self, "found", found)
        _set(self, "explored", explored)
        _set(self, "exhausted", exhausted)


# -- canonical forms ----------------------------------------------------------

def _twin_masks(n: int, succ: list[int], among: int) -> list[int]:
    """twins[x], for x in the set among: the members y of among such that
    swapping x and y is an automorphism of the relation (x included).
    twins[x] is {x} for x outside among."""
    twins = [1 << x for x in range(n)]
    pool = _ELEMS[among]
    for i, x in enumerate(pool):
        for y in pool[i + 1:]:
            sx = succ[x]
            if (sx >> x ^ sx >> y) & 1:
                sx ^= 1 << x | 1 << y
            if sx != succ[y]:
                continue
            for w in range(n):
                if (succ[w] >> x ^ succ[w] >> y) & 1 and w != x and w != y:
                    break
            else:
                twins[x] |= 1 << y
                twins[y] |= 1 << x
    return twins


def canonical_form(n: int, mask: int,
                   rows: Optional[Sequence[int]] = None,
                   twins: Optional[Sequence[int]] = None) -> int:
    """Minimal relation encoding over all universe permutations.

    Equal to the minimum over all n! relabellings, but found row by row,
    from the most significant row down.  A branch is an ordered partition
    of the elements into cells, each owning a contiguous range of labels.

    The sinks, the elements with an empty row, go first, into one cell
    spanning the top h labels.  (An element whose only successor is
    itself is not a sink.)  Wherever a non-sink is labelled its row is
    nonzero, and wherever a sink is labelled its row is 0, so the minimum
    puts the h sinks at the top h labels, where every order of them
    gives the same h zero rows.  The labellings that reach the minimum so
    far are therefore exactly those of the partition [non-sinks, sinks],
    and the rows are found from label n-h-1 down.  If every element is a
    sink, the form is 0.

    At each label, the owner is the cell whose label range holds it;
    above it are the elements labelled already, as singleton cells, and
    the cells the sinks have been refined into.  The label
    goes to some element x of the owner, and x's row can be no less than
    its successors packed at the bottom of every cell, the owner less x
    included, plus its loop.  Only the choices that reach the least such
    row over all branches survive, and each survivor refines every cell,
    those above the owner too, into x's successors (low labels) and the
    rest (high labels), which is exactly the set of labellings attaining
    that row.  Candidates that are twins (their swap is an automorphism)
    lead to equal encodings, so one per twin class is tried.  Only
    non-sinks are candidates, and a sink is never the twin of a non-sink
    (their swap would move a nonempty row to the sink's place), so twins
    are sought among the non-sinks only.  The level minima are the rows
    of the result.

    rows, if given, are the rows of mask (rows[x] the successors of x),
    and twins, if given, are _twin_masks(n, rows, the non-sinks), both
    vouched for by the caller: the poset walk holds them already.
    Raises DomainError for n outside 1..MAX_UNIVERSE_SIZE, or, when rows
    are not given, a mask with a cell outside the n x n grid.
    """
    _check_grid(n, mask if rows is None else 0)
    full = (1 << n) - 1
    if rows is None:
        rows = [mask >> (x * n) & full for x in range(n)]
    sinks = 0
    for x, s in enumerate(rows):
        if not s:
            sinks |= 1 << x
    rest = full ^ sinks
    if twins is None:
        twins = _twin_masks(n, rows, rest)
    top = n - sinks.bit_count()         # the sinks take labels top..n-1
    # cells as (first label, members), low first
    branches = [[(0, rest), (top, sinks)] if sinks else [(0, rest)]]
    out = 0
    for label in range(top - 1, -1, -1):
        # the owner is the last cell starting at or below label; live
        # branches share cell boundaries (equal rows fix the split
        # sizes), so it has one index in all of them
        lead = branches[0]
        k = len(lead) - 1
        while lead[k][0] > label:
            k -= 1
        best = -1
        picks = []
        for cells in branches:
            owner = cells[k][1]
            tried = 0
            for x in _ELEMS[owner]:
                low = 1 << x
                if tried & low:
                    continue
                tried |= twins[x]
                s = rows[x]
                others = s & ~low
                row = s & low and 1 << label
                for first, members in cells:
                    common = others & members
                    if common:
                        row |= ((1 << common.bit_count()) - 1) << first
                if row < best or best < 0:
                    best = row
                    picks = [(cells, low, s)]
                elif row == best:
                    picks.append((cells, low, s))
        out |= best << (label * n)
        if not label:
            break
        branches = []
        for cells, low, s in picks:
            start, owner = cells[k]
            split = cells[:k]
            if owner != low:
                split.append((start, owner ^ low))
            split.append((label, low))
            split += cells[k + 1:]
            refined = []
            for first, members in split:
                inner = members & s
                if inner and inner != members:
                    refined.append((first, inner))
                    refined.append((first + inner.bit_count(),
                                    members ^ inner))
                else:
                    refined.append((first, members))
            branches.append(refined)
    return out


# The largest universe is_canonical reads permutation tables for: they
# beat canonical_form on the n=6 walk under T alone (8.6-9.8 s against
# 42-51 s), but lose on every walk at n=7 and 8, and the n=8 ones take
# seconds and 113 MB to build (2-core Intel Xeon, Python 3.11.7).
IS_CANONICAL_MAX = 6


@functools.lru_cache(maxsize=None)
def _leasts(n: int) -> tuple[tuple[int, ...], ...]:
    """least[x][v] = (2^k - 1) | [x in v] 2^(n-1), k the members of row
    v other than x: the least p(v) over the permutations p that send x
    to label n-1, as k distinct labels below n-1 sum to at least 2^k - 1,
    with equality iff p sends those members to labels 0..k-1."""
    return tuple(tuple((1 << v.bit_count() - (v >> x & 1)) - 1
                       | (v >> x & 1) << n - 1 for v in range(1 << n))
                 for x in range(n))


# A permutation p in those tables: the elements it sends to labels n-2
# down to 0, and its map row -> p(row); and a block of them.
_Perm = tuple[tuple[int, ...], tuple[int, ...]]
_Block = tuple[tuple[int, ...], tuple[tuple[_Perm, ...], ...]]


@functools.lru_cache(maxsize=None)
def _perm_row_tables(n: int) -> tuple[_Block, ...]:
    """Block x, for each element x, of the permutations p of range(n)
    that send x to label n-1, the identity excepted: the pair (least,
    ties), least = _leasts(n)[x] and ties[v], for each row v (bit j of a
    row is element j), the p with p(v) = least[v] in permutation order,
    each as the elements it sends to labels n-2 down to 0 and its map
    row -> p(row) over all 2^n rows.  So p is listed under the 2n rows
    made of the elements it sends to its k lowest labels, k = 0..n-1,
    with and without x."""
    size = 1 << n
    ties = [[[] for _ in range(size)] for _ in range(n)]
    perms = itertools.permutations(range(n))
    next(perms)                                 # the identity
    for p in perms:
        sources = [0] * n
        for y, label in enumerate(p):
            sources[n - 1 - label] = y
        rowmap = [0] * size
        for row in range(1, size):
            low = row & -row
            rowmap[row] = rowmap[row ^ low] | 1 << p[low.bit_length() - 1]
        x = sources[0]
        entry = (tuple(sources[1:]), tuple(rowmap))
        block = ties[x]
        lowest = 0              # the elements p sends to its k lowest labels
        for k in range(n):
            block[lowest].append(entry)
            block[lowest | 1 << x].append(entry)
            lowest |= 1 << sources[n - 1 - k]
    return tuple(zip(_leasts(n), (tuple(map(tuple, b)) for b in ties)))


def is_canonical(n: int, mask: int,
                 rows: Optional[Sequence[int]] = None) -> bool:
    """True iff no relabelling gives a smaller encoding.

    Under p, the row at label L of the image is p applied to the row of
    the element p sends to L.  Encodings compare from the most
    significant row, label n-1, so the permutations are taken in blocks
    by the element x they send there.  Every image in block x has p(row
    of x) at the top, which is at least least(x) = (2^k - 1) | [x P x]
    2^(n-1), k the successors of x other than x (_leasts), and reaches
    it exactly under the block's permutations that send those
    successors to labels 0..k-1 (_perm_row_tables).  So against the top
    row t of mask itself:

    - least(x) < t: those permutations give an image smaller than mask
      in its top row, so mask is not canonical;
    - least(x) > t: every image in block x is larger than mask in its
      top row, so none of its (n-1)! permutations can be smaller;
    - least(x) = t: only the permutations that reach least(x) tie the
      top row, every other one being larger there; those are compared
      with mask row by row from label n-2 down, so most are decided by
      one table lookup.

    Each step decides exactly what the literal scan over all n!
    relabellings would, so the result is the same on every input.
    Blocks are taken in element order, the bound of each read with one
    index as it is reached.  Above IS_CANONICAL_MAX elements, where no
    table is built, the result is canonical_form(n, mask) == mask.
    rows, if given, are the rows of mask (rows[x] the successors of x),
    which the caller vouches for: the walks hold them already.
    Raises DomainError for n outside 1..MAX_UNIVERSE_SIZE, or, when rows
    are not given, a mask with a cell outside the n x n grid.
    """
    if not 1 <= n <= IS_CANONICAL_MAX:
        return canonical_form(n, mask) == mask
    blocks = _perm_row_tables(n)
    if rows is None:
        _check_grid(n, mask)
        full = (1 << n) - 1
        rows = [mask >> (x * n) & full for x in range(n)]
    t = rows[-1]
    below = rows[-2::-1]                # the rows at labels n-2 down to 0
    for s, (least, ties) in zip(rows, blocks):
        bound = least[s]
        if bound != t:
            if bound < t:
                return False
            continue
        for sources, rowmap in ties[s]:
            for want, y in zip(below, sources):
                got = rowmap[rows[y]]
                if got != want:
                    if got < want:
                        return False
                    break
    return True


# -- raw generators -----------------------------------------------------------

# An encoding and its rows (rows[x] the successors of x), as walks yield them
_Rowed = tuple[int, tuple[int, ...]]


def _split(n: int, masks: Iterable[int]) -> Iterator[_Rowed]:
    """Each encoding of masks with its rows, split from it."""
    full = (1 << n) - 1
    return ((m, tuple([m >> (i * n) & full for i in range(n)]))
            for m in masks)


def _all_masks(n: int, irreflexive: bool) -> Iterator[_Rowed]:
    """Every relation encoding with its rows, ascending; diagonal empty if
    irreflexive."""
    diagonal = sum(1 << (i * n + i) for i in range(n)) if irreflexive else 0
    return _split(n, (m for m in range(1 << (n * n)) if not m & diagonal))


def _canonical_masks(n: int, irreflexive: bool) -> Iterator[_Rowed]:
    """The canonical relation encodings, ascending and lazily, each with
    its rows; diagonal empty if irreflexive.

    Orderly generation (Read, Every one a winner, 1978, in complement
    form): setting the lowest empty cell of a canonical encoding other
    than the full relation gives a canonical encoding.  So the canonical
    encodings form a tree under the full relation, and the children of a
    node whose lowest empty cell is z are its canonical copies with one
    cell k < z cleared.  Every encoding below the child at k keeps the
    node's cells from k up, so a post-order walk taking children from
    the highest k down yields ascending order.  Each node keeps its
    rows, and a child's are its parent's with one bit cleared, handed to
    is_canonical with the child and yielded with it.
    """
    cells = [(i, j) for i in range(n) for j in range(n)
             if not (irreflexive and i == j)]
    bits = [1 << (i * n + j) for i, j in cells]
    root = sum(bits)
    full = (1 << n) - 1
    root_rows = [full ^ (irreflexive << i) for i in range(n)]
    # (node, its rows, its untried cells below)
    stack = [(root, root_rows, len(bits))]
    while stack:
        mask, rows, k = stack.pop()
        while k:
            k -= 1
            child = mask ^ bits[k]
            i, j = cells[k]
            child_rows = rows.copy()
            child_rows[i] ^= 1 << j
            if is_canonical(n, child, child_rows):
                stack.append((mask, rows, k))
                stack.append((child, child_rows, k))
                break
        else:
            yield mask, tuple(rows)


def _transitive_masks(n: int, irreflexive: bool,
                      top_bound: bool = False) -> Iterator[_Rowed]:
    """All transitive relations on n elements, ascending and lazily,
    each with its rows; diagonal empty if irreflexive.

    Whole rows are decided from the most significant (element n-1) down,
    each taking its values in increasing order.  Row i ranges over the
    subsets of upper, the intersection of the decided rows that contain
    i (x P i and i P z force x P z), and a value r is kept iff it
    contains the row of every decided element it contains (i P d and
    d P z force i P z).  So each pair of rows is checked once, when the
    later of the two is decided.

    With top_bound, a value r of row i is also dropped, with every
    relation below it, when least(i), read at r from _leasts(n)[i], is
    below the top row (r itself for i = n-1).  That is is_canonical's
    block bound: some relabelling sending i to the top label gives a
    smaller encoding, so only non-canonical relations are dropped, and
    an up-to-isomorphism walk keeps its canonical members in the same
    order.
    """
    full = (1 << n) - 1
    rows = [0] * n
    uppers = [0] * n
    prefix = [0] * (n + 1)      # prefix[i]: encoding of the rows above i
    leasts = _leasts(n) if top_bound else None

    def upper_of(i: int) -> int:
        upper = full ^ (1 << i) if irreflexive else full
        for d in range(i + 1, n):
            if rows[d] >> i & 1:
                upper &= rows[d]
        return upper

    i = n - 1
    uppers[i] = upper_of(i)
    r = 0
    while True:
        for d in _ELEMS[r >> (i + 1) << (i + 1)]:
            if rows[d] & ~r:
                break
        else:
            if top_bound and leasts[i][r] < (rows[n - 1] if i < n - 1
                                             else r):
                pass                # least(i) below the top row: skip
            elif i == 0:
                rows[0] = r
                yield prefix[1] | r, tuple(rows)
            else:
                rows[i] = r
                prefix[i] = prefix[i + 1] | r << (i * n)
                i -= 1
                uppers[i] = upper_of(i)
                r = 0
                continue
        while r == uppers[i]:       # row i exhausted: next value above
            i += 1
            if i == n:
                return
            r = rows[i]
        r = (r - uppers[i]) & uppers[i]


def _down_sets(parts_in: Sequence[int], twins: Sequence[int],
               n: int) -> list[tuple[int, int, int]]:
    """The down-sets (sets holding the parts of each member) of a strict
    order on n-1 elements, parts_in[x] the parts of x, that take the
    lowest members of each class of twins (twins[x]), the empty set first,
    as (down, rank, column): rank sums n*n + |parts_in[z]| over the
    members z, so orders as (|down|, the sum of those |parts_in[z]|), and
    column has bit x*n + n-1 for each member x.  Elements join parts
    before wholes, twins lowest first (a part has fewer parts than its
    whole, a twin as many), so x joins exactly the down-sets found so far
    that hold its parts and lower twins, and no other is ever extended.
    """
    top = n - 1
    downs = [(0, 0, 0)]
    for x in sorted(range(top), key=lambda x: parts_in[x].bit_count()):
        need = parts_in[x] | twins[x] & ((1 << x) - 1)
        bit = 1 << x
        weight = n * n + parts_in[x].bit_count()
        cell = 1 << (x * n + top)
        downs += [(d | bit, r + weight, c | cell) for d, r, c in downs
                  if not need & ~d]
    return downs


@functools.lru_cache(maxsize=None)
def _poset_classes(n: int) -> tuple[int, ...]:
    """The canonical encodings of the strict partial orders on n elements,
    ascending: one per isomorphism class (A000112).

    Removing a maximal element from a strict partial order leaves one, so
    every class at n is a class at n-1 plus a new maximal element n-1
    whose parts form a down-set.  Each class at n-1 is widened to n
    columns and extended over each of its down-sets, the empty one
    included, and the children are canonicalised and deduplicated.
    Twins (elements whose swap is an automorphism) are interchangeable,
    so of the down-sets that take k members of a class of twins only the
    one taking the k lowest is extended (_down_sets lists no other).

    Most children are not built at all: a maximal element y ranks
    (|parts(y)|, the sum of |parts(z)| over the parts z of y), and a
    child whose new element some other maximal element outranks is
    skipped (the invariant test of McKay's canonical augmentation,
    Isomorph-free exhaustive generation, J. Algorithms 26, 1998).  The
    other maximal elements of a child are the parent's maximal elements
    outside the down-set, with the parts they had in the parent, so
    their ranks are found once per parent.  No class is lost.  Rank is
    kept by isomorphisms, and a class at n has a maximal element c of
    top rank.  Removing c leaves a class at n-1, some parent P, and
    sends c's parts to a down-set D of P; the child of P over D is in
    the class, and its new element, c's image, has top rank.  Twin
    pruning may extend instead the down-set D' that some product s of
    twin swaps sends D to, but s, an automorphism of P that fixes the
    new element, maps the child over D onto the child over D', so there
    too the new element has top rank and the child is kept.
    """
    if n == 1:
        return (0,)
    m = n - 1
    full = (1 << m) - 1
    children = set()
    for parent in _poset_classes(m):
        rows = [parent >> (i * m) & full for i in range(m)]
        base = 0                        # the parent widened to n columns
        parts_in = [0] * m
        for i, r in enumerate(rows):
            base |= r << (i * n)
            for y in _ELEMS[r]:
                parts_in[y] |= 1 << i
        # each maximal element with its _down_sets' rank
        maximal = [(sum(n * n + parts_in[z].bit_count()
                        for z in _ELEMS[parts_in[y]]), 1 << y)
                   for y in range(m) if not rows[y]]
        twins = _twin_masks(m, rows, full)
        # each child's rows, and its twins among its non-sinks: a twin
        # swap of the child fixes the new element, so is a twin swap of
        # the parent that keeps down (both in it or neither); a sink
        # outside down stays a sink, its own only twin
        outside = [t if r else 1 << i
                   for i, (r, t) in enumerate(zip(rows, twins))]
        new = 1 << m
        rows.append(0)                  # the new element's row
        for down, rank, column in _down_sets(parts_in, twins, n):
            for r, y in maximal:
                if r > rank and not down & y:
                    break
            else:
                child_rows = rows.copy()
                child_twins = [t & ~down for t in outside]
                child_twins.append(new)
                for i in _ELEMS[down]:
                    child_rows[i] |= new
                    child_twins[i] = twins[i] & down
                children.add(canonical_form(n, base | column, child_rows,
                                            child_twins))
    return tuple(sorted(children))


# -- enumeration ---------------------------------------------------------------

class _Walk:
    """A row of _WALKS: one way of walking the relations on n elements.

    selects is a tuple of code sets, and the row serves constraints that
    name a code of each.  Every relation the walk yields satisfies the
    codes of guarantees, so no search checks them.  iso(n) yields one
    canonical encoding per class, labelled(n) every encoding, ascending
    and each with its rows.  counts[n - 1] is iso(n)'s length, n <= 8.
    """

    __slots__ = ("selects", "guarantees", "iso", "labelled", "counts")

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields):
            setattr(self, name, value)


# IRR and the codes that entail it, each failing on a loop x P x
_LOOPLESS = frozenset({
    AxiomId.IRR,
    AxiomId.AS,     # x and x are mutual parts
    AxiomId.AC,     # the loop is a part-cycle of length 1
    AxiomId.WSP,    # x is a part of x, yet every part of x overlaps x
})

# The walks, most constrained first.  Each generator looks its walk
# function up by name when it runs, so a replaced one is seen.
_WALKS = (
    _Walk(  # strict partial orders
        (frozenset({AxiomId.T}), _LOOPLESS),
        frozenset({
            AxiomId.T, AxiomId.IRR,     # each class is a strict order
            AxiomId.AS,     # mutual parts would give a loop by T
            AxiomId.ANTIS,  # so would distinct mutual parts
            AxiomId.AC,     # so would a part-cycle
        }),
        lambda n: _split(n, _poset_classes(n)),
        lambda n: _transitive_masks(n, True),
        (1, 2, 5, 16, 63, 318, 2045, 16999)),                   # A000112
    _Walk(  # transitive relations
        (frozenset({AxiomId.T}),),
        frozenset({AxiomId.T}),         # each relation is transitive
        # its canonical members, under is_canonical's top-row bound
        lambda n: (got for got in _transitive_masks(n, False, top_bound=True)
                   if is_canonical(n, *got)),
        lambda n: _transitive_masks(n, False),
        (2, 8, 39, 242, 1895, 19051, 246895, 4145108)),         # A091073
    _Walk(  # irreflexive relations
        (_LOOPLESS,),
        frozenset({AxiomId.IRR}),       # each diagonal is empty
        lambda n: _canonical_masks(n, True),
        lambda n: _all_masks(n, True),
        (1, 3, 16, 218, 9608, 1540944, 882033440,
         1793359192848)),                                       # A000273
    _Walk(  # all relations
        (),
        frozenset(),
        lambda n: _canonical_masks(n, False),
        lambda n: _all_masks(n, False),
        (2, 10, 104, 3044, 291968, 96928992, 112282908928,
         458297100061728)),                                     # A000595
)


def _split_constraints(constraints: Sequence[AxiomLike]):
    """The row of _WALKS for the constraints, the first whose selecting
    codes they name, and the codes its walk does not guarantee, each
    once, in the order first named."""
    axs = dict.fromkeys(axiom_id(a) for a in constraints)
    walk = next(w for w in _WALKS
                if all(not codes.isdisjoint(axs) for codes in w.selects))
    return walk, [a for a in axs if a not in walk.guarantees]


# The most classes a walk may keep to be shared: every row's count up to
# 3,044 (all relations on four elements) is shared, and none from 9,608
# (irreflexive relations on five).  4,096 classes of eight elements,
# each with both planes, take 7.7 MB (Python 3.11).
WALK_MAX_CLASSES = 4096


def _passing(n: int, walk: Iterable[_Rowed],
             finders) -> Iterator[ParthoodStructure]:
    """A structure built from the rows of each item of the walk, in
    order, if every finder passes it."""
    labels = _DEFAULT_LABEL_TUPLES[n]
    for _, rows in walk:
        s = ParthoodStructure(labels, rows)
        for find in finders:
            if find(s) is not None:
                break
        else:
            yield s


class _SharedWalk:
    """One lazy walk of canonical encodings at size n, shared whole by
    every consumer in the process.

    It keeps one structure per class found (_kept), built from the rows
    the walk yields by the consumer that passed the end, and is over once
    it keeps count of them, its row's class count.
    checked(finders) runs a consumer's checks on each kept structure and
    hands on the kept structure itself for each class that passes, so a
    class costs one structure however many consumers read it.  Subset
    planes that any consumer builds on it stay with it: each planes entry
    is filled once with a tuple of ints that depends only on the
    relation, so every consumer reads the same planes.

    If the walk raises, the classes found stay, and the next consumer to
    pass the end starts it again, skipping as many encodings as are
    kept.  A walk that ends short of its count raises too (its
    StopIteration, raised in checked, is a RuntimeError there), so a
    failed walk never reads as a finished one.  One thread is assumed:
    two threads advancing the walk at once would fail.
    """

    __slots__ = ("_n", "_count", "_start", "_kept", "_walk")

    def __init__(self, n: int, count: int, start):
        self._n = n
        self._count = count
        self._start = start     # () -> the walk from its first encoding
        self._kept: list[ParthoodStructure] = []
        self._walk: Optional[Iterator[_Rowed]] = None

    def _next(self) -> _Rowed:
        """The walk's next encoding and rows past the kept classes."""
        if self._walk is None:
            self._walk = itertools.islice(self._start(), len(self._kept),
                                          None)
        try:
            return next(self._walk)
        except BaseException:
            self._walk = None
            raise

    def checked(self, finders) -> Iterator[ParthoodStructure]:
        """The kept structure of each class of the walk that every
        finder passes, in walk order."""
        kept = self._kept
        labels = _DEFAULT_LABEL_TUPLES[self._n]
        for i in range(self._count):
            if i == len(kept):
                kept.append(ParthoodStructure(labels, self._next()[1]))
            s = kept[i]
            for find in finders:
                if find(s) is not None:
                    break
            else:
                yield s


@functools.lru_cache(maxsize=None)
def _iso_candidates(n: int, walk: _Walk) -> Optional[_SharedWalk]:
    """The walk an up-to-isomorphism search over the row walk reads at
    size n, one for every search in the process, if the row counts at
    most WALK_MAX_CLASSES classes at n; None if not.  No row counts the
    classes above eight elements, so no walk there is shared."""
    counts = walk.counts
    if n <= len(counts) and counts[n - 1] <= WALK_MAX_CLASSES:
        return _SharedWalk(n, counts[n - 1], lambda: walk.iso(n))
    return None


def enumerate_models(n: int, constraints: Sequence[AxiomLike] = (),
                     up_to_iso: bool = True) -> Iterator[ParthoodStructure]:
    """Every relation on n elements satisfying the constraints.

    One representative per isomorphism class when up_to_iso, the one
    with the canonical (minimal) encoding; ordered by increasing
    encoding.  Every model comes with the subset planes its checks
    against the residual axioms filled or found; its labels are filled
    only if read.  The row of _WALKS the constraints select gives the
    candidates.  Up to isomorphism, if _iso_candidates shares the walk,
    the checks run on the structure it keeps for each class and that
    structure is the model; a search that stops early leaves the rest of
    the walk undone.  Otherwise, and for labelled walks, the walk runs
    lazily per search, and every candidate is built from the rows it
    yields.

    Raises DomainError for n outside 1..MAX_UNIVERSE_SIZE before any
    walk starts.
    """
    _check_grid(n, 0)
    walk, residual = _split_constraints(constraints)
    finders = violation_finders(residual)
    shared = _iso_candidates(n, walk) if up_to_iso else None
    if shared is not None:
        yield from shared.checked(finders)
    else:
        yield from _passing(n, walk.iso(n) if up_to_iso else walk.labelled(n),
                            finders)


def count_models(n: int, constraints: Sequence[AxiomLike] = (),
                 up_to_iso: bool = True) -> int:
    """How many models enumerate_models yields for the same arguments."""
    return sum(1 for _ in enumerate_models(n, constraints, up_to_iso))


# -- search -------------------------------------------------------------------

def find_model(spec: SearchSpec) -> SearchResult:
    """First canonical structure satisfying ambient plus require and
    violating every forbid entry; sizes are searched in increasing order.
    Every code is kept by isomorphisms, so it is also the least labelled
    such structure of the least size.

    `explored` counts the structures that met ambient plus require and
    were tested against the forbid list, whose checkers are read from
    the catalog once, when the search starts.
    """
    explored = 0
    constraints = spec.ambient + spec.require
    forbid = violation_finders(spec.forbid)
    for n in range(1, spec.max_n + 1):
        for s in enumerate_models(n, constraints):
            explored += 1
            if all(find(s) is not None for find in forbid):
                return SearchResult(s, explored, False)
    return SearchResult(None, explored, True)


def verify_implication(ambient: Sequence[AxiomLike],
                       hypothesis: Sequence[AxiomLike],
                       conclusion: AxiomLike,
                       max_n: int = DEFAULT_SWEEP_MAX) -> SearchResult:
    """Search for a model of ambient plus hypothesis violating the conclusion.

    Exhausted with nothing found is a bounded confirmation of the
    implication; a find is a refutation with a concrete witness.
    """
    return find_model(SearchSpec(max_n, ambient, hypothesis, (conclusion,)))
