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
classes up to n=6, 20,855 for 16,999 at n=8).  Without transitivity an
orderly walk down from the full relation generates only canonical
encodings (_canonical_masks).

Each up-to-isomorphism walk is shared by every search in the process,
one per universe size and generating axioms (T, IRR, both or neither),
and keeps its classes within a byte budget (_iso_candidates,
_SharedWalk); labelled walks are not shared.  The walk is chosen from
what the constraints entail: AS, AC and WSP each entail IRR
(_ENTAILS_IRR), and a walk of strict partial orders guarantees AS, AC
and ANTIS as well as T and IRR.  The other codes are checked on what it
yields, each once, cheapest first in an order fixed when a walk starts,
and each model is handed on as a fresh structure with the subset tables
its checks built or found.  Labels are built only when read.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import sys
from typing import Iterable, Iterator, Optional, Sequence

from .axioms import AxiomId, AxiomLike, axiom_id, violation_finders
from .core import (MAX_UNIVERSE_SIZE, ParthoodStructure, _Record,
                   _check_grid, _set)

# Invariant sweeps default to universes of size at most 5; command-line
# searches cap at 7.
DEFAULT_SWEEP_MAX = 5
SEARCH_MAX = 7


class SearchSpec(_Record):
    """Models of at most `max_n` elements where the `ambient` codes are
    assumed, `require` hold and `forbid` fail.  The ambient and required
    codes together choose the walk that generates candidates; the forbid
    codes are checked on what it yields."""

    __slots__ = ("max_n", "ambient", "require", "forbid", "up_to_iso")

    def __init__(self, max_n: int, ambient: Iterable[AxiomLike] = (),
                 require: Iterable[AxiomLike] = (),
                 forbid: Iterable[AxiomLike] = (), up_to_iso: bool = True):
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
        _set(self, "up_to_iso", up_to_iso)


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
    pool = []
    while among:
        low = among & -among
        pool.append(low.bit_length() - 1)
        among ^= low
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


def canonical_form(n: int, mask: int) -> int:
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

    Raises DomainError for n outside 1..MAX_UNIVERSE_SIZE or a mask
    with a cell outside the n x n grid.
    """
    _check_grid(n, mask)
    if not mask:
        return 0
    full = (1 << n) - 1
    succ = [mask >> (x * n) & full for x in range(n)]
    sinks = 0
    for x, s in enumerate(succ):
        if not s:
            sinks |= 1 << x
    rest = full ^ sinks
    twins = _twin_masks(n, succ, rest)
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
            free = owner
            while free:
                low = free & -free
                free ^= low
                if tried & low:
                    continue
                x = low.bit_length() - 1
                tried |= twins[x]
                s = succ[x]
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
    which the caller vouches for: the orderly walk holds them already.
    Raises DomainError for n outside 1..MAX_UNIVERSE_SIZE, or, when rows
    are not given, a mask with a cell outside the n x n grid.
    """
    if not 1 <= n <= IS_CANONICAL_MAX:
        return canonical_form(n, mask) == mask
    blocks = _perm_row_tables(n)
    if rows is None:
        if mask >> (n * n):
            _check_grid(n, mask)    # raises; the inline test spares a call
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

def _all_masks(n: int, irreflexive: bool) -> Iterator[int]:
    """Every relation encoding, ascending; diagonal empty if irreflexive."""
    diagonal = sum(1 << (i * n + i) for i in range(n)) if irreflexive else 0
    return (m for m in range(1 << (n * n)) if not m & diagonal)


def _canonical_masks(n: int, irreflexive: bool,
                     after: int = -1) -> Iterator[int]:
    """The canonical relation encodings above after, ascending and
    lazily; diagonal empty if irreflexive.

    Orderly generation (Read, Every one a winner, 1978, in complement
    form): setting the lowest empty cell of a canonical encoding other
    than the full relation gives a canonical encoding.  So the canonical
    encodings form a tree under the full relation, and the children of a
    node whose lowest empty cell is z are its canonical copies with one
    cell k < z cleared.  Every encoding below the child at k keeps the
    node's cells from k up, so a post-order walk taking children from
    the highest k down yields ascending order.  No encoding in a subtree
    is above its root, so a child at or below after is skipped, subtree
    and all, without an is_canonical call.  Each node keeps its rows, and
    a child's are its parent's with one bit cleared, handed to
    is_canonical with the child.
    """
    cells = [(i, j) for i in range(n) for j in range(n)
             if not (irreflexive and i == j)]
    bits = [1 << (i * n + j) for i, j in cells]
    root = sum(bits)
    full = (1 << n) - 1
    root_rows = [full ^ (irreflexive << i) for i in range(n)]
    # (node, its rows, its untried cells below)
    stack = [(root, root_rows, len(bits))] if root > after else []
    while stack:
        mask, rows, k = stack.pop()
        while k:
            k -= 1
            child = mask ^ bits[k]
            if child <= after:
                continue
            i, j = cells[k]
            child_rows = rows.copy()
            child_rows[i] ^= 1 << j
            if is_canonical(n, child, child_rows):
                stack.append((mask, rows, k))
                stack.append((child, child_rows, k))
                break
        else:
            yield mask


def _transitive_masks(n: int, irreflexive: bool,
                      top_bound: bool = False) -> Iterator[int]:
    """All transitive relations on n elements, ascending and lazily;
    diagonal empty if irreflexive.

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
        above = r >> (i + 1) << (i + 1)
        while above:
            low = above & -above
            if rows[low.bit_length() - 1] & ~r:
                break
            above ^= low
        else:
            if top_bound and leasts[i][r] < (rows[n - 1] if i < n - 1
                                             else r):
                pass                # least(i) below the top row: skip
            elif i == 0:
                yield prefix[1] | r
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
            while r:
                low = r & -r
                parts_in[low.bit_length() - 1] |= 1 << i
                r ^= low
        maximal = [(sum(n * n + parts_in[z].bit_count() for z in range(m)
                        if parts_in[y] >> z & 1), 1 << y)  # _down_sets' rank
                   for y in range(m) if not rows[y]]
        for down, rank, column in _down_sets(
                parts_in, _twin_masks(m, rows, full), n):
            for r, y in maximal:
                if r > rank and not down & y:
                    break
            else:
                children.add(canonical_form(n, base | column))
    return tuple(sorted(children))


# -- enumeration ---------------------------------------------------------------

# The codes that entail IRR on every structure, so a search naming one
# walks only irreflexive relations.  Each fails on a loop x P x:
_ENTAILS_IRR = frozenset({
    AxiomId.AS,     # x and x are mutual parts
    AxiomId.AC,     # the loop is a part-cycle of length 1
    AxiomId.WSP,    # x is a part of x, yet every part of x overlaps x
})

# The codes a walk of strict partial orders guarantees: T and IRR, and
# what they entail (a cycle or mutual parts would give a loop by T).
_POSET_CODES = frozenset({AxiomId.T, AxiomId.IRR, AxiomId.AS, AxiomId.AC,
                          AxiomId.ANTIS})


def _split_constraints(constraints: Sequence[AxiomLike]):
    """Whether the walk is to guarantee T and IRR, and the codes it does
    not guarantee, each once, in the order first named.

    IRR is guaranteed when it or a code in _ENTAILS_IRR is named; with
    both T and IRR, the codes they entail are guaranteed too.
    """
    axs = dict.fromkeys(axiom_id(a) for a in constraints)
    has_t = AxiomId.T in axs
    has_irr = AxiomId.IRR in axs or not _ENTAILS_IRR.isdisjoint(axs)
    walked = (_POSET_CODES if has_t and has_irr
              else (AxiomId.T, AxiomId.IRR))
    residual = [a for a in axs if a not in walked]
    return has_t, has_irr, residual


# What one shared walk of up to eight elements may keep of its
# classes' structures and tables, in bytes, made a class cap by
# _SharedWalk: 13,066 at n=4, where the walk of all relations has 3,044.
WALK_BUDGET_BYTES = 8 << 20


def _passing(structures: Iterable[ParthoodStructure],
             finders) -> Iterator[ParthoodStructure]:
    """The structures that every finder passes, in order."""
    for s in structures:
        for find in finders:
            if find(s) is not None:
                break
        else:
            yield s


class _SharedWalk:
    """One lazy walk of canonical encodings at size n, kept as it is read
    so that every consumer in the process reads the same classes: only
    the consumer that passes the end advances the walk and builds a
    class's structure, and only the first check to read a class's subset
    tables builds those.

    _kept holds one structure per class found, built with from_mask by
    the consumer that found it and never handed out.  checked(finders)
    runs a consumer's checks on each kept structure, so a class they
    reject costs no structure; a class that passes is yielded as a fresh
    _from_fields copy, sharing the kept structure's field tuples and
    carrying its tables, if it has them.  Tables a check builds on a
    kept structure stay there at once.  A consumer's checks on the copy
    may build tables too (find_model's forbid check does): when the
    consumer asks for the next class, they go to the kept structure if
    it still has none.  Every table up to eight elements is a read-only
    bytes object, so the copies and the kept structure may share them;
    what else a copy fills on first use is its own.

    The walk keeps at most _cap classes, worked out when it is made: each
    kept class reserves room for its tables, so a pair filled later
    always fits and the kept bytes stay within WALK_BUDGET_BYTES whatever
    the consumers read.  Up to eight elements every kept value is one
    of the ints below 256 that every process shares, and
    the labels are the shared default tuple, so by sys.getsizeof a class
    costs its structure, five tuples of n ints, a pair of 2^n-byte
    tables and a list slot: 642 bytes at n=4, a cap of 13,066.  Past the
    cap, no class is kept: the consumer that reached it takes over the
    live walk, later ones restart it past the kept classes, and each
    builds, checks and hands on every structure from there on.
    start(after) walks only the encodings above after, the last kept
    class's (-1 for none), so a restart checks nothing the kept classes
    cover.  The cap is 0 where the universe mask no longer fits a byte,
    the test sums.subset_tables makes: above eight elements, whatever
    the walk, values and table entries fit neither the shared ints nor
    a byte.

    If the walk raises, the classes already found stay; the next
    consumer to pass the end restarts the walk past the kept classes,
    so a failed walk never reads as a finished one.  One thread
    is assumed: the walk is a generator, and two threads advancing it at
    once would fail.
    """

    __slots__ = ("_n", "_start", "_kept", "_walk", "_done", "_cap")

    def __init__(self, n: int, start):
        self._n = n
        self._start = start     # after -> the walk past encoding after
        self._kept: list[ParthoodStructure] = []
        self._walk: Optional[Iterator[int]] = None
        self._done = False
        # a kept structure, its five tuples and its slot in _kept, and a
        # pair of tables
        zeros = (0,) * n
        sample = ParthoodStructure._from_fields(n, (zeros,) * 5)
        pair = (bytes(1 << n),) * 2
        size = sum(map(sys.getsizeof, (sample, *(zeros,) * 5, pair, *pair)))
        self._cap = (WALK_BUDGET_BYTES // (size + 8)
                     if (1 << n) - 1 < 256 else 0)   # subset_tables' test

    def _next_mask(self) -> Optional[int]:
        """The walk's next encoding; None once the walk is over."""
        if self._walk is None:
            self._walk = self._restart()
        try:
            return next(self._walk)
        except StopIteration:
            self._done = True
            self._walk = None
            return None
        except BaseException:
            self._walk = None
            raise

    def __iter__(self) -> Iterator[ParthoodStructure]:
        return self.checked(())

    def checked(self, finders) -> Iterator[ParthoodStructure]:
        """A fresh structure for each class of the walk that every
        finder passes, in walk order; the finders run on the kept
        structures."""
        n = self._n
        kept = self._kept
        copy = ParthoodStructure._from_fields
        build = ParthoodStructure.from_mask
        cap = self._cap
        i = 0
        while True:
            if i < len(kept):
                s = kept[i]
            elif self._done:
                return
            elif i >= cap:
                break
            else:
                m = self._next_mask()
                if m is None:
                    return
                s = build(n, m)
                kept.append(s)
            i += 1
            for find in finders:
                if find(s) is not None:
                    break
            else:
                t = copy(n, s._fields())
                t._subset_tables = s._subset_tables
                yield t
                if s._subset_tables is None:
                    s._subset_tables = t._subset_tables
        # past the cap: the rest of the walk, unshared
        walk, self._walk = self._walk, None
        yield from _passing((build(n, m) for m in walk or self._restart()),
                            finders)

    def _restart(self) -> Iterator[int]:
        """The walk past the last kept class."""
        kept = self._kept
        return self._start(kept[-1].relation_mask if kept else -1)


@functools.lru_cache(maxsize=None)
def _iso_candidates(n: int, has_t: bool, has_irr: bool) -> _SharedWalk:
    """The canonical structures an up-to-isomorphism search walks at size
    n, shared by every search in the process: the memoised poset classes
    under T and IRR, the orderly walk without T, and the canonical
    members of the labelled transitive walk under T alone, walked with
    its top-row bound."""
    if has_t and has_irr:
        def posets(after):
            classes = _poset_classes(n)
            return iter(classes[bisect.bisect_right(classes, after):])
        return _SharedWalk(n, posets)
    if not has_t:
        return _SharedWalk(n, lambda after: _canonical_masks(n, has_irr,
                                                             after))
    return _SharedWalk(n, lambda after: (m for m in _transitive_masks(
        n, False, top_bound=True) if m > after and is_canonical(n, m)))


def enumerate_models(n: int, constraints: Sequence[AxiomLike] = (),
                     up_to_iso: bool = True) -> Iterator[ParthoodStructure]:
    """Every relation on n elements satisfying the constraints.

    One representative per isomorphism class when up_to_iso, the one
    with the canonical (minimal) encoding; ordered by increasing
    encoding.  Every model is a fresh structure, with the subset tables
    its checks against the residual axioms filled or found; its labels
    are filled only if read.  Up to isomorphism the candidates come
    from the shared walk of _iso_candidates, which runs the checks on
    the structure it keeps for each class and hands on a fresh copy of
    it, with its tables, only for a class that passes; a search that
    stops early leaves the rest of the walk undone.  Labelled walks (all
    relations, or the transitive ones) run lazily per search, build
    every candidate and hand on the models they check.

    Raises DomainError for n outside 1..MAX_UNIVERSE_SIZE before any
    walk starts.
    """
    _check_grid(n, 0)
    has_t, has_irr, residual = _split_constraints(constraints)
    finders = violation_finders(residual)
    if up_to_iso:
        yield from _iso_candidates(n, has_t, has_irr).checked(finders)
    else:
        walk = _transitive_masks if has_t else _all_masks
        yield from _passing((ParthoodStructure.from_mask(n, m)
                             for m in walk(n, has_irr)), finders)


def enumerate_model_masks(n: int, constraints: Sequence[AxiomLike] = (),
                          up_to_iso: bool = True) -> list[int]:
    """Relation encodings of every model of the constraints, ascending.

    With up_to_iso, exactly the canonical (minimal-encoding)
    representative of each isomorphism class is kept.
    """
    return [s.relation_mask for s in enumerate_models(n, constraints,
                                                      up_to_iso)]


def count_models(n: int, constraints: Sequence[AxiomLike] = (),
                 up_to_iso: bool = True) -> int:
    return sum(1 for _ in enumerate_models(n, constraints, up_to_iso))


def models_up_to_iso(n: int, constraints: Iterable[AxiomLike] = ()) \
        -> list[ParthoodStructure]:
    """The canonical models of exactly size n, by increasing encoding."""
    return list(enumerate_models(n, constraints))


# -- search -------------------------------------------------------------------

def find_model(spec: SearchSpec) -> SearchResult:
    """First canonical structure satisfying ambient plus require and
    violating every forbid entry; sizes are searched in increasing order.

    `explored` counts the structures that met ambient plus require and
    were tested against the forbid list, whose checkers are read from
    the catalog once, when the search starts.
    """
    explored = 0
    constraints = spec.ambient + spec.require
    forbid = violation_finders(spec.forbid)
    for n in range(1, spec.max_n + 1):
        for s in enumerate_models(n, constraints, spec.up_to_iso):
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
