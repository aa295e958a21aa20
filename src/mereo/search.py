"""Bounded model enumeration and countermodel search.

Structures are identified with the row-major encoding of their relation
(bit i*n+j set iff element i is a part of element j).  The canonical
form of a structure is its encoding minimised over all n! permutations
of the universe.  canonical_form computes it exactly without trying
every permutation: the sinks (elements with an empty row) take the top
labels together, as one cell of an ordered partition, since every
minimal labelling puts them there; it then labels the other elements
from the most significant row down, keeps only the choices that reach
the least row at each level, refines every cell of the partition after
each choice, and tries one element per class of twins (McKay & Piperno,
Practical graph isomorphism II, adapted to this minimal encoding).
is_canonical, which only has to find one smaller relabelling, keeps a
per-n table for each permutation (the element sent to each label, and a
2^n-entry map relabelling a row), grouped by the element sent to the top
label.  The least top row a block can reach is read from a table by
that element's row, so a block whose bound is below the encoding's top
row rejects at once, one above it is skipped whole, and in a tied block
only the permutations that reach the bound, listed per row, are
compared with the encoding, from the second row down, where most cost
one lookup.  The orderly walk hands it the rows it already holds.
It takes 1 to 8 elements.  The literal n! scans that define both are
test oracles, kept outside the package.  Output is ordered by increasing
universe size, then increasing canonical encoding, so searches return
minimal-size witnesses and enumeration is deterministic.

Generation prunes by structural constraints where it can: transitive
relations are walked row by row, lazily and in ascending order, each
row drawn only from the values that keep the decided rows transitive
(_transitive_masks); and irreflexivity empties the diagonal.  Up to
isomorphism under T alone, that walk also skips each subtree where a
decided row's least relabelled top row, is_canonical's block bound, is
below the top row, since none of its relations is canonical.
Up-to-isomorphism searches over strict partial orders walk the
isomorphism classes themselves, built from the classes one element
smaller by adding a new maximal element over each down-set, skipping
the down-sets that leave the new element outranked by another maximal
element, so each class is canonicalised about once (_poset_classes,
memoised per size: 428 canonical forms for the 405 classes up to n=6,
20,855 for 16,999 at n=8).  Up-to-isomorphism searches
without transitivity generate only canonical encodings, by an orderly
walk down from the full relation (_canonical_masks), instead of testing
all 2^(n*n) relations.
Each up-to-isomorphism walk is shared by every search in the process,
one per universe size and generating axioms (T, IRR, both or neither):
a later search calls is_canonical only past the classes an earlier one
found, and makes each class's structure from kept field tuples
instead of building it, within a byte budget per walk, and none above
IS_CANONICAL_MAX elements (_iso_candidates; _SharedWalk says what is
kept and what it costs).  Labelled walks are not shared.
The walk is chosen from what the constraints entail, not only from the
codes named: AS, AC and WSP each entail IRR (_ENTAILS_IRR), and a walk
of strict partial orders guarantees AS, AC and ANTIS as well as T and
IRR.  Remaining constraint axioms are checked on the survivors, each
code once, in an order fixed once per search: their checkers are read
from the catalog and sorted cheapest first when a walk starts, not for
every candidate.  Each search checks its own structures, and a model is
handed on as the structure its check ran on, with the subset tables
that check built or the walk handed it.  Labels are built only when
read, so a rejected candidate never builds them.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import sys
from typing import Iterable, Iterator, Optional, Sequence

from .axioms import AxiomId, AxiomLike, axiom_id, violation_finders
from .core import (MAX_UNIVERSE_SIZE, DomainError, ParthoodStructure,
                   _Record, _check_grid, _set)

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
    pool = [x for x in range(n) if among >> x & 1]
    for i, x in enumerate(pool):
        for y in pool[i + 1:]:
            sx = succ[x]
            if (sx >> x ^ sx >> y) & 1:
                sx ^= 1 << x | 1 << y
            if sx != succ[y]:
                continue
            if all((succ[w] >> x ^ succ[w] >> y) & 1 == 0
                   for w in range(n) if w != x and w != y):
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
    sinks = sum(1 << x for x, s in enumerate(succ) if not s)
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
                    row |= ((1 << (others & members).bit_count()) - 1) << first
                if row < best or best < 0:
                    best = row
                    picks = [(cells, low, s)]
                elif row == best:
                    picks.append((cells, low, s))
        out |= best << (label * n)
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


# The largest universe is_canonical takes: its tables hold n! row maps of
# 2^n entries each, which at n=8 take 1.5-1.8 s to build, in a process
# peaking at 113 MB (2-core Intel Xeon, Python 3.11.7), and at n=9 would
# take over 1.5 GB.
IS_CANONICAL_MAX = 8


# A permutation p in those tables: the elements it sends to labels n-2
# down to 0, and its map row -> p(row).
_Perm = tuple[tuple[int, ...], tuple[int, ...]]


@functools.lru_cache(maxsize=None)
def _perm_row_tables(n: int) -> tuple[tuple[tuple[int, ...],
                                            tuple[tuple[_Perm, ...], ...]],
                                      ...]:
    """Block x, for each element x, of the permutations p of range(n)
    that send x to label n-1, the identity excepted: the pair (least,
    ties), each indexed by a row v (bit j of a row is element j).

    least[v] = (2^k - 1) | [x in v] 2^(n-1), k the members of v other
    than x, is the least p(v) in the block, and ties[v] lists, in
    permutation order, the permutations with p(v) = least[v]: each as
    the elements it sends to labels n-2 down to 0, and the map
    row -> p(row) over all 2^n rows.  p(v) = least[v] iff p sends the
    other members of v to labels 0..k-1, since the bits of k distinct
    labels below n-1 sum to at least 2^k - 1, with equality only there.
    So p is listed under the 2n rows made of the elements it sends to
    its k lowest labels, k = 0..n-1, with and without x.

    Refuses n outside 1..IS_CANONICAL_MAX before building anything.
    """
    if not 1 <= n <= IS_CANONICAL_MAX:
        raise DomainError(f"is_canonical takes 1 to {IS_CANONICAL_MAX} "
                          f"elements, not {n}")
    size = 1 << n
    loop_bit = n - 1
    leasts = [tuple((1 << v.bit_count() - (v >> x & 1)) - 1
                    | (v >> x & 1) << loop_bit for v in range(size))
              for x in range(n)]
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
    return tuple((least, tuple(map(tuple, block)))
                 for least, block in zip(leasts, ties))


def is_canonical(n: int, mask: int,
                 rows: Optional[Sequence[int]] = None) -> bool:
    """True iff no relabelling gives a smaller encoding.

    Under p, the row at label L of the image is p applied to the row of
    the element p sends to L.  Encodings compare from the most
    significant row, label n-1, so the permutations are taken in blocks
    by the element x they send there.  Every image in block x has p(row
    of x) at the top, which is at least least(x) = (2^k - 1) | [x P x]
    2^(n-1), k the successors of x other than x, and reaches it exactly
    under the block's permutations that send those successors to labels
    0..k-1 (_perm_row_tables).  So against the top row t of mask itself:

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
    index as it is reached.  rows, if given, are the rows of mask
    (rows[x] the successors of x), which the caller vouches for: the
    orderly walk holds them already.  Raises DomainError for n outside
    1..IS_CANONICAL_MAX, or, when rows are not given, a mask with a cell
    outside the n x n grid.
    """
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
    relation below it, when least(i), read at r from block i of
    _perm_row_tables, is below the top row (r itself for i = n-1).
    That is is_canonical's block bound: some relabelling sending i to
    the top label gives a smaller encoding, so only non-canonical
    relations are dropped, and an up-to-isomorphism walk keeps its
    canonical members in the same order.  So top_bound, like
    is_canonical, takes 1 to IS_CANONICAL_MAX elements.
    """
    full = (1 << n) - 1
    rows = [0] * n
    uppers = [0] * n
    prefix = [0] * (n + 1)      # prefix[i]: encoding of the rows above i
    if top_bound:
        leasts = [least for least, _ in _perm_row_tables(n)]

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


def _down_sets(parts_in: Sequence[int]) -> list[int]:
    """Every down-set (a set holding the parts of each member) of a strict
    partial order given by parts_in[x], the parts of x; the empty set
    first.

    Elements are added in an order listing parts before wholes (a part
    has fewer parts than its whole), so x can join exactly the down-sets
    already found that hold all of its parts.
    """
    downs = [0]
    for x in sorted(range(len(parts_in)),
                    key=lambda x: parts_in[x].bit_count()):
        downs += [d | 1 << x for d in downs if not parts_in[x] & ~d]
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
    one taking the k lowest is extended.

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
    top = 1 << m
    children = set()
    for parent in _poset_classes(m):
        rows = [parent >> (i * m) & full for i in range(m)]
        parts_in = [sum(1 << z for z in range(m) if rows[z] >> x & 1)
                    for x in range(m)]
        sizes = [p.bit_count() for p in parts_in]

        def rank(down):
            return down.bit_count(), sum(sizes[z] for z in range(m)
                                         if down >> z & 1)

        maximal = [(rank(parts_in[y]), 1 << y) for y in range(m)
                   if not rows[y]]
        twins = {t for t in _twin_masks(m, rows, full) if t & (t - 1)}
        for down in _down_sets(parts_in):
            new = rank(down)
            if any(r > new and not down & y for r, y in maximal):
                continue
            if any(t & ((1 << (down & t).bit_length()) - 1) != down & t
                   for t in twins):
                continue
            children.add(canonical_form(n, sum(
                (r | top if down >> i & 1 else r) << (i * n)
                for i, r in enumerate(rows))))
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


# What one shared walk of up to IS_CANONICAL_MAX elements may keep, in
# bytes: the field tuples of its classes and their subset tables, as
# _SharedWalk counts them.  The largest benchmark walk, every relation
# at n=4, keeps about 2 MB.
WALK_BUDGET_BYTES = 8 << 20


class _SharedWalk:
    """One lazy walk of canonical encodings at size n, kept as it is read
    so that every consumer in the process reads the same classes: only
    the consumer that passes the end advances the walk and builds the
    structure, and only the first to read a class's subset tables builds
    those.

    Iterating yields structures, each a fresh object.  The consumer that
    finds a class gets the structure built (and checked) from its
    encoding, and _classes keeps that structure's five field tuples
    (_fields); a later consumer gets a structure sharing them, which
    costs one __new__ and the slot assignments.  The tuples are
    immutable, and what a structure fills on first use is its own.

    _tables holds one slot per kept class: None until a consumer has
    read the class's subset tables, then the pair (ub, ov) packed
    read-only into two bytes objects.  Each structure a consumer gets
    carries the kept pair, if there is one; when the consumer asks for
    the next class, the pair it filled is packed into the slot, if that
    is still empty.  So a consumer that stops early or raises keeps
    nothing.

    _bytes counts what is kept, by sys.getsizeof, within the budget
    read when the walk is made.  Up to IS_CANONICAL_MAX elements the
    budget is WALK_BUDGET_BYTES, and every kept value is one of the ints
    below 256 that every process shares, so a class costs 5(40 + 8n) +
    96 bytes (456 at n=4) and its tables, whose entries fit a byte,
    2(2^n + 33) + 56 (154 at n=4).  Past the budget, no class or table
    is kept: the consumer that reached it takes over the live walk,
    later ones restart it past the kept classes, and each builds every
    structure from there on.  start(after) walks only the encodings
    above after, the last kept class's (-1 for none), so a restart
    checks nothing the kept classes cover.

    Above IS_CANONICAL_MAX elements the budget is 0 and nothing is
    kept.  The only walk that runs there is the census of strict partial
    orders, whose classes the budget would hold 2.4% of at n=9 (4,378
    of 183,231), and whose values and table entries would fit neither
    the shared ints nor a byte.

    If the walk raises, the classes already found stay; the next
    consumer to pass the end restarts the walk past the kept classes,
    so a failed walk never reads as a finished one.  One thread
    is assumed: the walk is a generator, and two threads advancing it at
    once would fail.
    """

    __slots__ = ("_n", "_start", "_classes", "_tables", "_walk", "_done",
                 "_bytes", "_budget", "_costs")

    def __init__(self, n: int, start):
        self._n = n
        self._start = start     # after -> the walk past encoding after
        self._classes: list[tuple[tuple[int, ...], ...]] = []
        self._tables: list[Optional[tuple[bytes, bytes]]] = []
        self._walk: Optional[Iterator[int]] = None
        self._done = False
        self._bytes = 0
        self._budget = WALK_BUDGET_BYTES if n <= IS_CANONICAL_MAX else 0
        # a class's five tuples, with its slots in both lists; and a pair
        # of packed tables
        fields = ((0,) * n,) * 5
        pair = (bytes(1 << n),) * 2
        self._costs = (sum(map(sys.getsizeof, (fields, *fields))) + 16,
                       sum(map(sys.getsizeof, (pair, *pair))))

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
        n = self._n
        classes = self._classes
        tables = self._tables
        from_fields = ParthoodStructure._from_fields
        from_mask = ParthoodStructure.from_mask
        class_bytes, table_bytes = self._costs
        i = 0
        while True:
            if i < len(classes):
                s = from_fields(n, classes[i])
                s._subset_tables = tables[i]
            elif self._done:
                return
            elif self._bytes + class_bytes > self._budget:
                break
            else:
                m = self._next_mask()
                if m is None:
                    return
                s = from_mask(n, m)
                classes.append(s._fields())
                tables.append(None)
                self._bytes += class_bytes
            yield s
            if tables[i] is None and s._subset_tables is not None \
                    and self._bytes + table_bytes <= self._budget:
                tables[i] = tuple(map(bytes, s._subset_tables))
                self._bytes += table_bytes
            i += 1
        # past the budget: the rest of the walk, unshared
        walk, self._walk = self._walk, None
        for m in walk or self._restart():
            yield from_mask(n, m)

    def _restart(self) -> Iterator[int]:
        """The walk past the last kept class."""
        classes = self._classes
        return self._start(ParthoodStructure._from_fields(
            self._n, classes[-1]).relation_mask if classes else -1)


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
    encoding.  Each candidate is a fresh structure, checked against the
    residual axioms, and a model is handed on as that same structure,
    with whatever subset tables the check filled; its labels are filled
    only if read.  Up to isomorphism the candidates come from the shared
    walk of _iso_candidates, so a search that stops early leaves the
    rest of it undone.  Labelled walks (all relations, or the transitive
    ones) run lazily per search and build every candidate.

    Raises DomainError for n outside 1..MAX_UNIVERSE_SIZE before any
    walk starts.
    """
    _check_grid(n, 0)
    has_t, has_irr, residual = _split_constraints(constraints)
    finders = violation_finders(residual)
    if up_to_iso:
        candidates = _iso_candidates(n, has_t, has_irr)
    else:
        walk = _transitive_masks if has_t else _all_masks
        candidates = (ParthoodStructure.from_mask(n, m)
                      for m in walk(n, has_irr))
    for s in candidates:
        for find in finders:
            if find(s) is not None:
                break
        else:
            yield s


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
