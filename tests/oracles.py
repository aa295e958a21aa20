"""Literal definitions the kernels are tested against: in mereo.search,
the canonical forms, by applying every one of the n! relabellings to
every set cell of the encoding, the model encodings a search yields,
read off its structures, the down-sets of a strict partial order,
each with no twin pruning or rank, and the choice of walk, by the codes
as named; in mereo.axioms, every catalog code's finder, by scanning
the pairs or subsets its definition quantifies over (_REFERENCE), the
shortest part-cycle, by a full
breadth-first search from each start and a pass over every path back
to it, the first transitivity gap, by trying every triple, and the
subset-quantified finders, by reading each subset's pair
(ub, ov) off per-subset tables, walking the subsets in encoding order
or, per element, the subsets that can witness a failure there; in
mereo.lattice, completeness, by asking for the join of every subset,
and the lattice report, by finding each law's bounds again wherever it
needs them; in mereo.weakparts, local transitivity, by listing every
part-path of every pair; in mereo.cli, structure files, by testing each
line's kind in file order and each label's declaration before its use,
and the model document `--json` writes for a structure, from its
ElementId pairs.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional

from mereo.axioms import AxiomId, axiom_id, transitivity_gap
from mereo.cli import ParseError
from mereo.core import ParthoodStructure, _bits
from mereo.lattice import LatticeReport, ZeroedStructure
from mereo.search import _WALKS, enumerate_models
from mereo.sums import (
    cover_mask, is_sum_mask, is_sup_mask, sum_candidates, sup_candidates,
    sums_in, sups_in,
)
from mereo.weakparts import LocalTransitivityVerdict, paths_between


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


def enumerate_model_masks(n: int, constraints=(),
                          up_to_iso: bool = True) -> list[int]:
    """Relation encodings of every model of the constraints, ascending,
    read off search.enumerate_models; with up_to_iso, exactly the
    canonical (minimal-encoding) representative of each isomorphism
    class is kept."""
    return [s.relation_mask for s in enumerate_models(n, constraints,
                                                      up_to_iso)]


def _plain_down_sets(parts_in) -> list[int]:
    """Every down-set (a set holding the parts of each member) of a strict
    partial order given by parts_in[x], the parts of x; the empty set
    first: the oracle for search._down_sets, which lists only those that
    take the lowest members of each class of twins, with their ranks.

    Elements are added in an order listing parts before wholes (a part
    has fewer parts than its whole), so x can join exactly the down-sets
    already found that hold all of its parts.
    """
    downs = [0]
    for x in sorted(range(len(parts_in)),
                    key=lambda x: parts_in[x].bit_count()):
        downs += [d | 1 << x for d in downs if not parts_in[x] & ~d]
    return downs


def _literal_split_constraints(constraints):
    """The row of search._WALKS guaranteeing exactly the codes named of T
    and IRR, and the other codes, each once, in the order first named:
    the walk chosen from the codes alone, the oracle for
    search._split_constraints, which reads what they entail."""
    axs = dict.fromkeys(axiom_id(a) for a in constraints)
    generating = {AxiomId.T, AxiomId.IRR}
    walk = next(w for w in _WALKS
                if w.guarantees & generating == generating.intersection(axs))
    return walk, [a for a in axs if a not in generating]


def _first_joinless_mask(z) -> Optional[int]:
    """The first subset mask of the zero adjunction z, in encoding order,
    with no join, by join_of_set on every one of the 2^n masks; None if
    z is complete: the oracle for lattice_report's is_complete."""
    for mask in range(1 << z.n):
        if z.join_of_set(mask) is None:
            return mask
    return None


def _ref_subset_tables(s: ParthoodStructure) -> tuple[list[int], list[int]]:
    """Per-subset lists (ub, ov), indexed by subset mask m: ub[m] the
    common upper bounds of m (the universe for m = 0), ov[m] the
    elements overlapping some member (empty for m = 0), doubled over
    the elements."""
    ub, ov = [s.full], [0]
    for up, over in zip(s.ing_up, s.ov_of):
        ub += [u & up for u in ub]
        ov += [o | over for o in ov]
    return ub, ov


def _ref_two_candidates(*, sups: bool):
    """First (x, y, m), mask-major, with x < y the two lowest sums of m
    (suprema if sups); both are common upper bounds of m, so masks with
    fewer than two are skipped."""
    def find(s):
        ub, ov = _ref_subset_tables(s)
        for mask in range(1, s.full + 1):
            u = ub[mask]
            if u & (u - 1):
                cands = sups_in(s, u) if sups else sums_in(s, u, ov[mask])
                rest = cands & (cands - 1)
                if rest:
                    return ((cands & -cands).bit_length() - 1,
                            (rest & -rest).bit_length() - 1, ("subset", mask))
        return None
    return find


# The x-major finders below visit, for each x, only the submasks m of a
# support set of x that can witness a failure, ascending
# (m = (m - w) & w for support w):
# - DOLLAR: x sums m needs m within ing_of[x], and ov[m] = ov_of[x]
#   needs ov_of[i] within ov_of[x] for every member i, so a mismatch has
#   m within ing_of[x] | {i : ov_of[i] within ov_of[x]}.  m = 0 never
#   mismatches: x does not sum it (x is its own ingrediens and overlaps
#   no member), and ov[0] is empty while x overlaps x.  The mismatches
#   come in the order of the full scan.
# - DIAMOND: a failing (x, y, m) has x summing m, so m within ing_of[x].
#   Each x stops at the least failing mask found so far and replaces it
#   only by a smaller one, so the result is the least failing mask and
#   the lowest x failing there, the full scan's first witness.  If x is
#   a supremum of m, another supremum y is in ub[m], and x in ub[m]
#   within ing_up[y] makes y an ingrediens of x; so the suprema are read
#   only if ub[m] leaves ing_up[x] or holds another ingrediens of x.
# - the rest: x sums or bounds m only if m is within ing_of[x], and then
#   x is in ub[m] already.

def _ref_dollar_mismatches(s):
    """(x, m, x sums m) for each pair where x sums m and the closure
    condition (u Ov x iff u Ov m) disagree, x-major."""
    _, ov = _ref_subset_tables(s)
    ing, ov_of = s.ing_of, s.ov_of
    for x in range(s.n):
        ix, ovx = ing[x], ov_of[x]
        support = ix
        for i in range(s.n):
            if not ov_of[i] & ~ovx:
                support |= 1 << i
        mask = support & -support
        while mask:
            o = ov[mask]
            is_sum = not mask & ~ix and not ix & ~o
            if is_sum != (o == ovx):
                yield x, mask, is_sum
            mask = (mask - support) & support


def _ref_dollar(s):
    for x, mask, _ in _ref_dollar_mismatches(s):
        return (x, ("subset", mask))
    return None


def dollar_converse_holds(s: ParthoodStructure) -> bool:
    """The closure-to-sum halves of the sum characterisations.

    Both the overlap and the exteriority form have the same converse:
    whenever the closure condition holds of x and S, x is a sum of S.
    """
    return all(is_sum for _, _, is_sum in _ref_dollar_mismatches(s))


def _ref_diamond(s):
    ub, ov = _ref_subset_tables(s)
    found, bound = None, s.full + 1
    for x in range(s.n):
        bit, ix, up = 1 << x, s.ing_of[x], s.ing_up[x]
        mask = ix & -ix
        while mask and mask < bound:
            u = ub[mask]
            if not ix & ~ov[mask] and (u & ~up or (u & ix) != bit):
                others = sups_in(s, u) & ~bit
                if others:
                    found = (x, (others & -others).bit_length() - 1,
                             ("subset", mask))
                    bound = mask
                    break
            mask = (mask - ix) & ix
    return found


def _ref_sum_sup_disagreement(*, sum_not_sup: bool = False,
                              sup_not_sum: bool = False,
                              with_empty: bool = False):
    """First (x, m), m within ing_of[x], where x sums m but is no
    supremum of it (if sum_not_sup) or is a supremum of m but does not
    sum it (if sup_not_sum); the empty subset is visited only when
    with_empty.  The supremum side is read only where it can fail."""
    def find(s):
        ub, ov = _ref_subset_tables(s)
        for x in range(s.n):
            ix, up = s.ing_of[x], s.ing_up[x]
            mask = 0 if with_empty else ix & -ix
            while True:
                if not ix & ~ov[mask]:              # x sums mask
                    if sum_not_sup and ub[mask] & ~up:
                        return (x, ("subset", mask))
                elif sup_not_sum and not ub[mask] & ~up:
                    return (x, ("subset", mask))
                mask = (mask - ix) & ix
                if not mask:
                    break
        return None
    return find


def _ref_e_sum(s):
    ub, ov = _ref_subset_tables(s)
    for mask in range(1, s.full + 1):
        if not sums_in(s, ub[mask], ov[mask]):
            return (("subset", mask),)
    return None


# The reference finder of each subset-quantified code, as catalogued.
_REF_SUBSET_FINDERS = {
    AxiomId.U_SUM: _ref_two_candidates(sups=False),
    AxiomId.U_SUP: _ref_two_candidates(sups=True),
    AxiomId.DOLLAR_EXT: _ref_dollar,
    AxiomId.DOLLAR_OV: _ref_dollar,
    AxiomId.DIAMOND: _ref_diamond,
    AxiomId.SUM_SUB_SUP: _ref_sum_sup_disagreement(sum_not_sup=True),
    AxiomId.SUP_SUB_SUM: _ref_sum_sup_disagreement(sup_not_sum=True,
                                                   with_empty=True),
    AxiomId.DAGGER: _ref_sum_sup_disagreement(sup_not_sum=True),
    AxiomId.DDAGGER: _ref_sum_sup_disagreement(sum_not_sup=True,
                                               sup_not_sum=True),
    AxiomId.E_SUM: _ref_e_sum,
}


def _ref_find_cycle(s: ParthoodStructure) -> Optional[tuple[int, ...]]:
    """Shortest part-cycle through the lowest-index element on one, if any,
    by a full breadth-first search from each start and then a pass over
    every element with an edge back to it: the oracle for _find_cycle."""
    n = s.n
    for start in range(n):
        if s.rows[start] >> start & 1:
            return (start,)
        prev = [-1] * n
        seen = 1 << start
        queue = [start]
        while queue:
            nxt = []
            for u in queue:
                for v in _bits(s.rows[u] & ~seen):
                    seen |= 1 << v
                    prev[v] = u
                    nxt.append(v)
            queue = nxt
        # any reached v with an edge back to start closes a cycle
        best = None
        for v in range(n):
            if v != start and seen >> v & 1 and s.rows[v] >> start & 1:
                path = [v]
                while path[-1] != start:
                    path.append(prev[path[-1]])
                path.reverse()
                if best is None or len(path) < len(best):
                    best = path
        if best is not None:
            return tuple(best)
    return None


def _ref_transitivity_gap(s: ParthoodStructure,
                          within: int) -> Optional[tuple[int, int, int]]:
    """The first triple (x, y, z) of elements of within, x-major, then y,
    then z, with x P y and y P z but not x P z, or None, by trying every
    triple: the oracle for transitivity_gap."""
    members = [i for i in range(s.n) if within >> i & 1]
    rows = s.rows
    for x in members:
        for y in members:
            for z in members:
                if (rows[x] >> y & 1 and rows[y] >> z & 1
                        and not rows[x] >> z & 1):
                    return (x, y, z)
    return None


def _ref_lattice_report(z: ZeroedStructure) -> LatticeReport:
    """lattice_report before its meet and join tables: each law finds
    the bounds it needs again, five per distributivity triple and two
    per complement candidate; the oracle for lattice_report."""
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

    return LatticeReport(
        is_lattice=is_lattice,
        is_distributive=is_distributive,
        is_complemented=is_complemented,
        is_boolean=is_lattice and is_distributive and is_complemented,
        is_complete=is_lattice,
        witness=witness,
    )


def _locally_transitive_by_paths(s) -> LocalTransitivityVerdict:
    """The verdict of the definition: for each pair x P y, in (x, y)
    order, every part-path from x to y, in paths_between's order, until
    one whose node set has a transitivity gap: the oracle for
    is_locally_transitive."""
    for x in s.universe:
        for y in s.universe:
            if not s.part(x, y):
                continue
            for path in paths_between(s, x, y):
                gap = transitivity_gap(
                    s, sum(1 << e.index for e in path.nodes))
                if gap is not None:
                    triple = tuple(s.universe[k] for k in gap)
                    return LocalTransitivityVerdict(False, path, triple)
    return LocalTransitivityVerdict(True)


def _parse_structure_lines(text: str) -> ParthoodStructure:
    """The structure a structure file's text describes, each line tested
    for blank, comment, elements and part in that order and each label
    looked up as declared before it is used: the oracle for
    cli.parse_structure."""
    labels: Optional[list[str]] = None
    index: dict[str, int] = {}
    rows: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("elements:"):
            if labels is not None:
                raise ParseError(line_no, "duplicate elements line")
            labels = line[len("elements:"):].split()
            if not labels:
                raise ParseError(line_no, "elements line needs labels")
            index = {label: i for i, label in enumerate(labels)}
            if len(index) != len(labels):
                raise ParseError(line_no, "duplicate label")
            if any("<" in l for l in labels):
                raise ParseError(line_no, "labels may not contain '<'")
            if any("," in l for l in labels):
                raise ParseError(line_no, "labels may not contain ','")
            rows = [0] * len(labels)
        elif line.startswith("part:"):
            if labels is None:
                raise ParseError(line_no, "part line before elements line")
            body = line[len("part:"):]
            sides = body.split("<")
            if len(sides) != 2:
                raise ParseError(line_no, "expected 'part: A < B'")
            part, whole = sides[0].strip(), sides[1].strip()
            if not part or not whole:
                raise ParseError(line_no, "expected 'part: A < B'")
            for label in (part, whole):
                if label not in index:
                    raise ParseError(line_no, f"undeclared label {label!r}")
            rows[index[part]] |= 1 << index[whole]
        else:
            raise ParseError(line_no, f"unrecognised line {line!r}")
    if labels is None:
        raise ParseError(1, "missing elements line")
    return ParthoodStructure(labels, rows)


def _model_doc(s: ParthoodStructure) -> dict:
    """The model document of a structure, {"elements": [labels], "parts":
    [[part, whole], ...]} in the order of `s.pairs()`, built from its
    ElementIds: the oracle for cli._dumps on a structure."""
    return {"elements": [e.label for e in s.universe],
            "parts": [[p.label, w.label] for p, w in s.pairs()]}


# -- every catalog code by its literal definition -----------------------------
# Each reference scans every (element, subset) or (element, element)
# pair with the literal is_sum_mask / is_sup_mask definitions, parthood
# rows or ing_of intersections, in the order the catalog promises, so
# the finders must return exactly the same first witness.


def _ref_closure(s, x, mask):
    ing, cover = s.ing_of, cover_mask(s, mask)
    return all(bool(ing[u] & ing[x]) == bool(ing[u] & cover)
               for u in range(s.n))


def _ref_unique(candidates):
    def find(s):
        for mask in range(1, s.full + 1):
            cands = candidates(s, mask)
            if len(cands) > 1:
                return (cands[0], cands[1], ("subset", mask))
        return None
    return find


def _literal_dollar(s):
    for x in range(s.n):
        for mask in range(s.full + 1):
            if is_sum_mask(s, x, mask) != _ref_closure(s, x, mask):
                return (x, ("subset", mask))
    return None


def _ref_dollar_converse(s):
    return all(not _ref_closure(s, x, mask) or is_sum_mask(s, x, mask)
               for x in range(s.n) for mask in range(s.full + 1))


def _literal_diamond(s):
    for mask in range(1, s.full + 1):
        sums = sum_candidates(s, mask)
        if not sums:
            continue
        for x in sums:
            for y in sup_candidates(s, mask):
                if x != y:
                    return (x, y, ("subset", mask))
    return None


def _ref_pairwise(violates, first_mask):
    def find(s):
        for x in range(s.n):
            for mask in range(first_mask, s.full + 1):
                if violates(s, x, mask):
                    return (x, ("subset", mask))
        return None
    return find


def _literal_e_sum(s):
    for mask in range(1, s.full + 1):
        if not sum_candidates(s, mask):
            return (("subset", mask),)
    return None


def _sup_not_sum(s, x, mask):
    return is_sup_mask(s, x, mask) and not is_sum_mask(s, x, mask)


# The pair-quantified finders, as seed-style scans: parthood by reading
# rows, exteriority by intersecting ing_of rows, sums by the literal
# candidate lists.

def _ref_mutual_parts(distinct):
    def find(s):
        for x in range(s.n):
            for y in range(s.n):
                if distinct and x == y:
                    continue
                if s.rows[x] >> y & 1 and s.rows[y] >> x & 1:
                    return (x, y)
        return None
    return find


def _parts(s, x):
    return [u for u in range(s.n) if s.rows[u] >> x & 1]


def _overlappers(s, x):
    return [u for u in range(s.n) if s.ing_of[u] & s.ing_of[x]]


def _ref_ssp_ov(s):
    for x in range(s.n):
        for y in range(s.n):
            if s.ing_up[x] >> y & 1:
                continue
            if all(s.ing_of[u] & s.ing_of[y] for u in _overlappers(s, x)):
                return (x, y)
    return None


def _ref_ssp_ext(s):
    ing = s.ing_of
    for x in range(s.n):
        for y in range(s.n):
            if s.ing_up[x] >> y & 1:
                continue
            if all(not ing[u] & ing[x] for u in range(s.n)
                   if not ing[u] & ing[y]):
                return (x, y)
    return None


def _ref_ppp(s):
    for x in range(s.n):
        px = _parts(s, x)
        for y in range(s.n):
            if s.ing_up[x] >> y & 1:
                continue
            if px and all(s.rows[u] >> y & 1 for u in px):
                return (x, y)
    return None


def _ref_extensional(same):
    def find(s):
        for x in range(s.n):
            for y in range(s.n):
                if x != y and same(s, x, y):
                    return (x, y)
        return None
    return find


def _same_proper_parts(s, x, y):
    px = _parts(s, x)
    return bool(px) and px == _parts(s, y)


def _same_ingredienses(s, x, y):
    return ([u for u in range(s.n) if u == x or s.rows[u] >> x & 1]
            == [u for u in range(s.n) if u == y or s.rows[u] >> y & 1])


def _same_overlappers(s, x, y):
    return _overlappers(s, x) == _overlappers(s, y)


def _same_exteriors(s, x, y):
    ing = s.ing_of
    return all((not ing[u] & ing[x]) == (not ing[u] & ing[y])
               for u in range(s.n))


def _ref_exists_ext(s):
    if s.n < 2:
        return None
    ing = s.ing_of
    for x in range(s.n):
        for y in range(s.n):
            if not ing[x] & ing[y]:
                return None
    return ()


def _ref_wsp(s):
    ing = s.ing_of
    for a in range(s.n):
        for b in _bits(s.rows[a]):
            if not any(not ing[z] & ing[a] for z in _bits(s.parts_in[b])):
                return (a, b)
    return None


def _ref_ssp(s):
    ing = s.ing_of
    for x in range(s.n):
        for y in range(s.n):
            if s.ing_up[x] >> y & 1:
                continue
            if not any(not ing[z] & ing[y] for z in _bits(ing[x])):
                return (x, y)
    return None


def _ref_ssp_plus(s):
    ing = s.ing_of
    for x in range(s.n):
        for y in range(s.n):
            if s.ing_up[x] >> y & 1:
                continue
            rest = 0
            for u in _bits(ing[x]):
                if not ing[u] & ing[y]:
                    rest |= 1 << u
            if not any(not rest & ~ing[z] for z in _bits(rest)):
                return (x, y)
    return None


def _ref_s_sum(s):
    for x in range(s.n):
        for y in range(s.n):
            if x != y and is_sum_mask(s, x, 1 << y):
                return (x, y)
    return None


def _ref_c_prod(s):
    """First (x, y) that overlap while no z has exactly their common
    ingredienses as its own."""
    def ingredienses(x):
        return {u for u in range(s.n) if s.ing(u, x)}
    for x in range(s.n):
        for y in range(s.n):
            common = ingredienses(x) & ingredienses(y)
            if common and not any(ingredienses(z) == common
                                  for z in range(s.n)):
                return (x, y)
    return None


def _ref_pair_sum(bounded):
    def find(s):
        for x in range(s.n):
            for y in range(s.n):
                if bounded and not s.ing_up[x] & s.ing_up[y]:
                    continue
                if not sum_candidates(s, (1 << x) | (1 << y)):
                    return (x, y)
        return None
    return find


def _ref_irr(s):
    for x in range(s.n):
        if s.rows[x] >> x & 1:
            return (x,)
    return None


def _ref_t(s):
    return _ref_transitivity_gap(s, s.full)


def _is_ingrediens(s, x, y):
    return x == y or s.rows[x] >> y & 1


def _ref_no_zero(s):
    if s.n < 2:
        return None
    for x in range(s.n):
        if all(_is_ingrediens(s, x, y) for y in range(s.n)):
            return (x,)
    return None


def _ref_unity(s):
    if any(all(_is_ingrediens(s, y, x) for y in range(s.n))
           for x in range(s.n)):
        return None
    return ()


_REFERENCE = {
    AxiomId.IRR: _ref_irr,
    AxiomId.T: _ref_t,
    AxiomId.AC: _ref_find_cycle,
    AxiomId.NO_ZERO: _ref_no_zero,
    AxiomId.UNITY: _ref_unity,
    AxiomId.U_SUM: _ref_unique(sum_candidates),
    AxiomId.U_SUP: _ref_unique(sup_candidates),
    AxiomId.DOLLAR_EXT: _literal_dollar,
    AxiomId.DOLLAR_OV: _literal_dollar,
    AxiomId.DIAMOND: _literal_diamond,
    AxiomId.SUM_SUB_SUP: _ref_pairwise(
        lambda s, x, m: is_sum_mask(s, x, m) and not is_sup_mask(s, x, m), 1),
    AxiomId.SUP_SUB_SUM: _ref_pairwise(_sup_not_sum, 0),
    AxiomId.DAGGER: _ref_pairwise(_sup_not_sum, 1),
    AxiomId.DDAGGER: _ref_pairwise(
        lambda s, x, m: is_sum_mask(s, x, m)
        != (m != 0 and is_sup_mask(s, x, m)), 0),
    AxiomId.E_SUM: _literal_e_sum,
    AxiomId.ANTIS: _ref_mutual_parts(True),
    AxiomId.AS: _ref_mutual_parts(False),
    AxiomId.EXISTS_EXT: _ref_exists_ext,
    AxiomId.WSP: _ref_wsp,
    AxiomId.SSP: _ref_ssp,
    AxiomId.SSP_OV: _ref_ssp_ov,
    AxiomId.SSP_EXT: _ref_ssp_ext,
    AxiomId.SSP_PLUS: _ref_ssp_plus,
    AxiomId.PPP: _ref_ppp,
    AxiomId.EXT_PP: _ref_extensional(_same_proper_parts),
    AxiomId.EXT_ING: _ref_extensional(_same_ingredienses),
    AxiomId.EXT_OV: _ref_extensional(_same_overlappers),
    AxiomId.EXT_EXT: _ref_extensional(_same_exteriors),
    AxiomId.S_SUM: _ref_s_sum,
    AxiomId.C_PROD: _ref_c_prod,
    AxiomId.C_BSUM: _ref_pair_sum(True),
    AxiomId.E_BSUM: _ref_pair_sum(False),
}
