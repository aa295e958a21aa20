"""Catalog of the named principles, each decidable over a finite structure.

Every axiom is evaluated literally, including vacuous-truth cases on
degenerate universes, and no axiom presupposes another: SSP is checked
even on non-transitive relations, the subset-quantified principles
decide every subset, and acyclicity is decided by cycle detection in
the part digraph.

The sums module owns the sum and supremum rule.  The subset-quantified
principles (U_SUM, U_SUP, the DOLLAR pair, DIAMOND, SUM_SUB_SUP,
SUP_SUB_SUM, DAGGER, DDAGGER, E_SUM) read sums.subset_planes: per
element, one int of 2^n bits whose bit m says the element sums (or is
a supremum of) the subset m, made once per structure.  Each finder is a
few big-int operations over them, and the lowest set bit of a plane is
the first subset in encoding order.  S_SUM, C_BSUM, E_BSUM and the
supplementation principles see a subset as its pair (ub, ov), its
common upper bounds and the elements overlapping it, folded from ing_up
and ov_of.  The literal definitions in sums are the finders' oracles.

Eighteen codes share six kernels, one per quantifier shape: mutual
parts (ANTIS, AS); a mask of x within a cover of y, y not above x (SSP,
SSP_OV, SSP_EXT, PPP); equal masks (the four EXT codes); two sums or
two suprema of one subset (U_SUM, U_SUP); a pair without a sum (C_BSUM,
E_BSUM); and sum/supremum disagreement in one element's planes
(SUM_SUB_SUP, SUP_SUB_SUM, DAGGER, DDAGGER).  Each
factory builds a checker once, at import, as a closure: a lambda or
partial calling a shared kernel would add a Python call to every check,
and a search checks thousands of structures of a few elements.  Codes
with one finder (SSP_OV and SSP_EXT, EXT_OV and EXT_EXT, the DOLLAR
pair) share the same object, which check_all runs once per structure.

A failed check carries a witness: the first violating assignment under
universe order and subset encoding order, as a tuple of elements
followed by subsets.  Re-evaluating the axiom body on the witness
reproduces the violation.  Principles that fail by the absence of a
required object (a missing exterior pair, a missing unity) report an
empty witness tuple.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from .core import (DomainError, MereologyError, ParthoodStructure, _ELEMS,
                   _Record, _set)
from .sums import meeting, subset_planes, sums_in


class CatalogError(MereologyError):
    """Unknown axiom or theory code."""


class AxiomId(enum.Enum):
    IRR = "IRR"                  # nothing is a part of itself
    ANTIS = "ANTIS"              # no two distinct mutual parts
    AS = "AS"                    # no mutual parts at all
    T = "T"                      # parthood is transitive
    AC = "AC"                    # no closed parthood cycles of any length
    NO_ZERO = "NO_ZERO"          # no least element in a non-degenerate universe
    EXISTS_EXT = "EXISTS_EXT"    # non-degenerate universes have an exterior pair
    WSP = "WSP"                  # weak supplementation
    SSP = "SSP"                  # strong supplementation
    SSP_OV = "SSP_OV"            # supplementation via overlap monotonicity
    SSP_EXT = "SSP_EXT"          # supplementation via exteriority monotonicity
    SSP_PLUS = "SSP_PLUS"        # super-strong supplementation (greatest remainder)
    PPP = "PPP"                  # proper-parts principle
    U_SUM = "U_SUM"              # sums are unique
    S_SUM = "S_SUM"              # the only sum of a singleton is its member
    U_SUP = "U_SUP"              # suprema are unique
    EXT_PP = "EXT_PP"            # extensionality of proper parts
    EXT_ING = "EXT_ING"          # extensionality of ingredienses
    EXT_OV = "EXT_OV"            # extensionality of overlap
    EXT_EXT = "EXT_EXT"          # extensionality of exteriority
    DOLLAR_EXT = "DOLLAR_EXT"    # sum characterised by exteriority closure
    DOLLAR_OV = "DOLLAR_OV"      # sum characterised by overlap closure
    DIAMOND = "DIAMOND"          # sum and supremum agree when both exist
    SUM_SUB_SUP = "SUM_SUB_SUP"  # every sum is a supremum
    SUP_SUB_SUM = "SUP_SUB_SUM"  # every supremum is a sum
    DAGGER = "DAGGER"            # every supremum of a nonempty set is its sum
    DDAGGER = "DDAGGER"          # sum coincides with supremum on nonempty sets
    C_PROD = "C_PROD"            # overlapping pairs have a product
    C_BSUM = "C_BSUM"            # pairs under a common bound have a sum
    E_BSUM = "E_BSUM"            # every pair has a sum
    E_SUM = "E_SUM"              # every nonempty subset has a sum
    UNITY = "UNITY"              # a greatest element exists

    def __str__(self) -> str:
        return self.value


AxiomLike = Union[AxiomId, str]


def axiom_id(a: AxiomLike) -> AxiomId:
    if isinstance(a, AxiomId):
        return a
    try:
        return AxiomId[str(a).upper()]
    except KeyError:
        raise CatalogError(f"unknown axiom code {a!r}") from None


class Verdict(_Record):
    __slots__ = ("axiom", "holds", "witness")

    def __init__(self, axiom: AxiomId, holds: bool,
                 witness: Optional[tuple] = None):
        _set(self, "axiom", axiom)
        _set(self, "holds", holds)
        _set(self, "witness", witness)  # ElementId / Subset entries

    def __str__(self) -> str:
        if self.holds:
            return f"{self.axiom}: holds"
        if self.witness == ():
            return f"{self.axiom}: fails"
        parts = ", ".join(str(w) for w in self.witness)
        return f"{self.axiom}: fails, witness ({parts})"


# -- violation finders ------------------------------------------------------
# Each returns None (axiom holds) or the raw witness: a tuple whose entries
# are element indices or ("subset", mask) pairs, converted to ElementId and
# Subset by check_axiom.

Checker = Callable[[ParthoodStructure], Optional[tuple]]


def _irr(s):
    for x in range(s.n):
        if s.rows[x] >> x & 1:
            return (x,)
    return None


def _mutual_parts(*, distinct: bool) -> Checker:
    """First (x, y) with x P y and y P x, y != x when distinct: the
    lowest y in rows[x] & parts_in[x]."""
    def find(s):
        rows, parts = s.rows, s.parts_in
        for x in range(s.n):
            both = rows[x] & parts[x] & ~(distinct << x)
            if both:
                return (x, (both & -both).bit_length() - 1)
        return None
    return find


def transitivity_gap(s: ParthoodStructure,
                     within: int) -> Optional[tuple[int, int, int]]:
    """The first triple (x, y, z) of elements of the set within, in
    universe order, with x P y and y P z but not x P z; None if the
    relation restricted to within is transitive."""
    if within & ~s.full:
        raise DomainError("subset mask mentions foreign elements")
    rows = s.rows
    for x in _ELEMS[within]:
        rx = rows[x]
        for y in _ELEMS[rx & within]:
            missing = rows[y] & within & ~rx
            if missing:
                return (x, y, (missing & -missing).bit_length() - 1)
    return None


def _t(s):
    return transitivity_gap(s, s.full)


def _find_cycle(s: ParthoodStructure) -> Optional[tuple[int, ...]]:
    """Shortest part-cycle through the lowest-index element on one, if any.

    From each start the search goes breadth first, one level at a time,
    and stops at the first level holding an element with an edge back to
    start; the lowest such element closes the cycle, traced back along
    the search tree to start."""
    n = s.n
    rows = s.rows
    for start in range(n):
        if rows[start] >> start & 1:
            return (start,)
        back = s.parts_in[start]    # the elements with an edge to start
        prev = [-1] * n
        seen = 1 << start
        queue = [start]
        while queue and back:
            nxt = []
            for u in queue:
                for v in _ELEMS[rows[u] & ~seen]:
                    seen |= 1 << v
                    prev[v] = u
                    nxt.append(v)
            hit = seen & back   # start is not in back, nor any earlier level
            if hit:
                path = [(hit & -hit).bit_length() - 1]
                while path[-1] != start:
                    path.append(prev[path[-1]])
                return tuple(reversed(path))
            queue = nxt
    return None


def _no_zero(s):
    if s.n < 2:
        return None
    for x in range(s.n):
        if s.ing_up[x] == s.full:
            return (x,)
    return None


def _exists_ext(s):
    # x has an exterior iff something does not overlap it
    if s.n < 2 or any(ov != s.full for ov in s.ov_of):
        return None
    return ()


def _wsp(s):
    for a in range(s.n):
        for b in _ELEMS[s.rows[a]]:
            if not s.parts_in[b] & ~s.ov_of[a]:
                return (a, b)
    return None


def _within_cover(masks: str, covers: str) -> Checker:
    """First (x, y) with masks[x] nonempty and within covers[y], and y
    not above x (x is no ingrediens of y)."""
    def find(s):
        ms, cs, up = getattr(s, masks), getattr(s, covers), s.ing_up
        for x, mx in enumerate(ms):
            if mx:
                for y in _ELEMS[s.full & ~up[x]]:   # the y not above x
                    if not mx & ~cs[y]:
                        return (x, y)
        return None
    return find


def _ssp_plus(s):
    # rest, x's ingredienses exterior to y, has a greatest member iff it
    # meets the & of ing_up over rest; an empty rest has none
    ing, up, ov = s.ing_of, s.ing_up, s.ov_of
    for x in range(s.n):
        for y in _ELEMS[s.full & ~up[x]]:       # the y not above x
            greatest = rest = ing[x] & ~ov[y]
            for z in _ELEMS[rest]:
                greatest &= up[z]
            if not greatest:
                return (x, y)
    return None


def _two_candidates(*, sups: bool) -> Checker:
    """First (x, y, m), mask-major over the nonempty m, with x < y the
    two lowest sums of m (suprema if sups).  A two-counter over the
    planes marks the subsets with at least two."""
    def find(s):
        planes = subset_planes(s, sups)
        one = two = 0
        for plane in planes:
            two |= one & plane
            one |= plane
        two &= ~1
        if not two:
            return None
        low = two & -two
        x = 0
        while not planes[x] & low:
            x += 1
        y = x + 1
        while not planes[y] & low:
            y += 1
        return (x, y, ("subset", low.bit_length() - 1))
    return find


def _s_sum(s):
    # x sums {y} iff x is in ing_up[y] and every ingrediens of x overlaps y
    ing, up, ov = s.ing_of, s.ing_up, s.ov_of
    for x in range(s.n):
        for y in range(s.n):
            if x != y and up[y] >> x & 1 and not ing[x] & ~ov[y]:
                return (x, y)
    return None


def _equal_masks(masks: str) -> Checker:
    """First (x, y), y != x, with masks[x] nonempty and equal to masks[y].
    No element before x shares its mask, so y is the next one after x
    that does."""
    def find(s):
        ms = getattr(s, masks)
        for x, mx in enumerate(ms):
            if mx and ms.count(mx) > 1:
                return (x, ms.index(mx, x + 1))
        return None
    return find


def _dollar(s):
    """First (x, m), x-major, where "x sums m" and "u Ov x iff u Ov m"
    disagree.  The m with ov[m] == ov_of[x] are the subsets of the
    elements whose overlaps lie within ov_of[x] that meet ov_of[z] for
    every z in ov_of[x]."""
    full, ov_of = s.full, s.ov_of
    for x, sums in enumerate(subset_planes(s)):
        ovx = ov_of[x]
        inside = full
        for z in _ELEMS[full ^ ovx]:
            inside &= ~ov_of[z]
        wrong = sums ^ meeting(inside, ovx, ov_of)
        if wrong:
            return (x, ("subset", (wrong & -wrong).bit_length() - 1))
    return None


def _diamond(s):
    """First (x, y, m): the least m that some x sums while another y is
    a supremum of it, the lowest such x, then the lowest such y.  one
    and two mark the subsets with at least one and at least two
    suprema.  No element sums the empty subset, so a failure at {0} is
    the least."""
    sums, sups = subset_planes(s), subset_planes(s, True)
    one = two = 0
    for plane in sups:
        two |= one & plane
        one |= plane
    found, below = None, -1          # the masks below the least found
    for x, (p, q) in enumerate(zip(sums, sups)):
        fail = p & below & (one & ~q | two)
        if fail:
            below = (fail & -fail) - 1
            found = x
            if below == 1:
                break
    if found is None:
        return None
    m, y = below.bit_length(), 0
    while y == found or not sups[y] >> m & 1:
        y += 1
    return (found, y, ("subset", m))


def _sum_sup_disagreement(*, sum_not_sup: bool = False,
                          sup_not_sum: bool = False,
                          with_empty: bool = False) -> Checker:
    """First (x, m), x-major, where x sums m but is no supremum of it
    (if sum_not_sup) or is a supremum of m but does not sum it (if
    sup_not_sum); the empty subset counts only when with_empty."""
    skip = 0 if with_empty else 1
    def find(s):
        for x, (p, q) in enumerate(zip(subset_planes(s),
                                       subset_planes(s, True))):
            wrong = ((p & ~q if sum_not_sup else 0)
                     | (q & ~p if sup_not_sum else 0)) & ~skip
            if wrong:
                return (x, ("subset", (wrong & -wrong).bit_length() - 1))
        return None
    return find


def _c_prod(s):
    ing = s.ing_of
    have = set(ing)
    for x in range(s.n):
        for y in range(s.n):
            common = ing[x] & ing[y]
            if common and common not in have:
                return (x, y)
    return None


def _pair_without_sum(*, bounded: bool) -> Checker:
    """First (x, y) whose pair {x, y} has no sum, among the pairs with a
    common upper bound if bounded.  The pair is symmetric and x sums
    {x}, so the first failing pair has x < y."""
    def find(s):
        up, ov = s.ing_up, s.ov_of
        for x in range(s.n):
            for y in range(x + 1, s.n):
                ub = up[x] & up[y]
                if (ub or not bounded) and not sums_in(s, ub, ov[x] | ov[y]):
                    return (x, y)
        return None
    return find


def _e_sum(s):
    # the lowest zero bit above bit 0 of the union of the sum planes
    held = 1
    for plane in subset_planes(s):
        held |= plane
    mask = ((held + 1) & ~held).bit_length() - 1
    return (("subset", mask),) if mask <= s.full else None


def _unity(s):
    for x in range(s.n):
        if s.ing_of[x] == s.full:
            return None
    return ()


# -- catalog ------------------------------------------------------------------

# The one dataclass in the package: perfbench/tracing.py finds catalog
# entries with dataclasses.is_dataclass and wraps each checker through
# dataclasses.replace.
@dataclass(frozen=True)
class AxiomInfo:
    code: AxiomId
    description: str
    cost: int                    # 0 element scans, 1 cubic scans, 2 subset scans
    find_violation: Checker


_ov_within_ov = _within_cover("ov_of", "ov_of")
_equal_overlaps = _equal_masks("ov_of")

_CATALOG: list[AxiomInfo] = [
    AxiomInfo(AxiomId.IRR, "nothing is a part of itself", 0, _irr),
    AxiomInfo(AxiomId.ANTIS, "no two distinct objects are parts of each other", 0, _mutual_parts(distinct=True)),
    AxiomInfo(AxiomId.AS, "parthood is asymmetric", 0, _mutual_parts(distinct=False)),
    AxiomInfo(AxiomId.T, "parthood is transitive", 1, _t),
    AxiomInfo(AxiomId.AC, "the part digraph has no cycles", 1, _find_cycle),
    AxiomInfo(AxiomId.NO_ZERO, "non-degenerate universes have no zero", 0, _no_zero),
    AxiomInfo(AxiomId.EXISTS_EXT, "non-degenerate universes have an exterior pair", 1, _exists_ext),
    AxiomInfo(AxiomId.WSP, "every proper part is supplemented by an exterior part", 1, _wsp),
    AxiomInfo(AxiomId.SSP, "every non-ingrediens is supplemented by an exterior ingrediens", 1, _within_cover("ing_of", "ov_of")),
    AxiomInfo(AxiomId.SSP_OV, "overlap-monotone pairs are ingredienses", 1, _ov_within_ov),
    AxiomInfo(AxiomId.SSP_EXT, "exteriority-antitone pairs are ingredienses", 1, _ov_within_ov),
    AxiomInfo(AxiomId.SSP_PLUS, "supplementation with a greatest remainder", 1, _ssp_plus),
    AxiomInfo(AxiomId.PPP, "sharing all proper parts of a composite forces ingrediens", 1, _within_cover("parts_in", "parts_in")),
    AxiomInfo(AxiomId.U_SUM, "a set has at most one sum", 2, _two_candidates(sups=False)),
    AxiomInfo(AxiomId.S_SUM, "the only sum of a singleton is its member", 1, _s_sum),
    AxiomInfo(AxiomId.U_SUP, "a set has at most one supremum", 2, _two_candidates(sups=True)),
    AxiomInfo(AxiomId.EXT_PP, "composites with the same proper parts are equal", 0, _equal_masks("parts_in")),
    AxiomInfo(AxiomId.EXT_ING, "objects with the same ingredienses are equal", 0, _equal_masks("ing_of")),
    AxiomInfo(AxiomId.EXT_OV, "objects overlapping the same things are equal", 1, _equal_overlaps),
    AxiomInfo(AxiomId.EXT_EXT, "objects exterior to the same things are equal", 1, _equal_overlaps),
    AxiomInfo(AxiomId.DOLLAR_EXT, "x sums S iff exteriority to x is exteriority to all of S", 2, _dollar),
    AxiomInfo(AxiomId.DOLLAR_OV, "x sums S iff overlapping x is overlapping some of S", 2, _dollar),
    AxiomInfo(AxiomId.DIAMOND, "a sum and a supremum of the same set are equal", 2, _diamond),
    AxiomInfo(AxiomId.SUM_SUB_SUP, "every sum is a supremum", 2, _sum_sup_disagreement(sum_not_sup=True)),
    AxiomInfo(AxiomId.SUP_SUB_SUM, "every supremum is a sum", 2, _sum_sup_disagreement(sup_not_sum=True, with_empty=True)),
    AxiomInfo(AxiomId.DAGGER, "every supremum of a nonempty set is its sum", 2, _sum_sup_disagreement(sup_not_sum=True)),
    AxiomInfo(AxiomId.DDAGGER, "sum and supremum coincide on nonempty sets", 2, _sum_sup_disagreement(sum_not_sup=True, sup_not_sum=True)),
    AxiomInfo(AxiomId.C_PROD, "overlapping pairs have a product", 1, _c_prod),
    AxiomInfo(AxiomId.C_BSUM, "pairs below a common object have a sum", 1, _pair_without_sum(bounded=True)),
    AxiomInfo(AxiomId.E_BSUM, "every pair has a sum", 1, _pair_without_sum(bounded=False)),
    AxiomInfo(AxiomId.E_SUM, "every nonempty subset has a sum", 2, _e_sum),
    AxiomInfo(AxiomId.UNITY, "a greatest element exists", 0, _unity),
]

CATALOG: dict[AxiomId, AxiomInfo] = {info.code: info for info in _CATALOG}
CATALOG_ORDER: tuple[AxiomId, ...] = tuple(info.code for info in _CATALOG)

assert len(CATALOG) == 32


def _to_witness(s: ParthoodStructure, raw: tuple) -> tuple:
    out = []
    for entry in raw:
        if isinstance(entry, tuple) and entry and entry[0] == "subset":
            out.append(s.subset_from_mask(entry[1]))
        else:
            out.append(s.universe[entry])
    return tuple(out)


def _verdict(s: ParthoodStructure, code: AxiomId,
             raw: Optional[tuple]) -> Verdict:
    if raw is None:
        return Verdict(code, True, None)
    return Verdict(code, False, _to_witness(s, raw))


def check_axiom(s: ParthoodStructure, a: AxiomLike) -> Verdict:
    code = axiom_id(a)
    return _verdict(s, code, CATALOG[code].find_violation(s))


def check_all(s: ParthoodStructure) -> list[Verdict]:
    """check_axiom(s, code) for each code in CATALOG_ORDER, running each
    distinct finder once: codes with one finder share its result."""
    raws: dict[Checker, Optional[tuple]] = {}
    verdicts = []
    for code in CATALOG_ORDER:
        find = CATALOG[code].find_violation
        if find not in raws:
            raws[find] = find(s)
        verdicts.append(_verdict(s, code, raws[find]))
    return verdicts


def holds(s: ParthoodStructure, a: AxiomLike) -> bool:
    return CATALOG[axiom_id(a)].find_violation(s) is None


def violation_finders(axioms: Iterable[AxiomLike]) -> tuple[Checker, ...]:
    """The find_violation functions of the given axioms, cheapest first.

    They are read from CATALOG when this is called, so a caller that
    checks many structures resolves its axioms once and still sees any
    entry replaced in CATALOG before the call.
    """
    infos = sorted((CATALOG[axiom_id(a)] for a in axioms), key=lambda i: i.cost)
    return tuple(info.find_violation for info in infos)


def satisfies(s: ParthoodStructure, axioms: Iterable[AxiomLike]) -> bool:
    """All of the given axioms hold; cheap axioms are tried first."""
    return all(find(s) is None for find in violation_finders(axioms))
