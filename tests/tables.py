"""Helpers the tier-1 suite (tests/) and the frontier suite (frontier/)
share: seeded random structures, the thesis table of the theories, built
from one verdict vector per poset class, and the code-by-code claims,
searched live, with the laws every claim table obeys.

A plain module, so both suites import these without importing a test
module or a conftest.  It imports neither pytest nor hypothesis.
"""

from __future__ import annotations

import itertools

from mereo import enumerate_models, verify_implication
from mereo.axioms import CATALOG, CATALOG_ORDER, axiom_id
from mereo.core import ParthoodStructure
from mereo.theories import DERIVED_THESES, THEORY_AXIOMS, TheoryId
from oracles import _REFERENCE, least_countermodel_size


# -- seeded structures --------------------------------------------------------

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


# -- the thesis table, both ways ----------------------------------------------

def _class_vectors(max_n):
    """The size of each poset class up to max_n elements, in poset-walk
    order, with the catalog codes that hold on it: one verdict vector
    per class, each distinct finder run once.  Equal pairs are one
    object: the 202,680 classes to n=9 hold 220 pairs."""
    finders = {}
    for code in CATALOG_ORDER:
        finders.setdefault(CATALOG[code].find_violation, []).append(code)
    seen = {}
    return [seen.setdefault(pair, pair)
            for n in range(1, max_n + 1)
            for s in enumerate_models(n, ["T", "IRR"])
            for pair in [(n, frozenset(code for find, codes in finders.items()
                                       if find(s) is None for code in codes))]]


def _thesis_table(vectors):
    """For each theory, its unlisted codes (neither its axioms nor its
    listed theses) by the size of their first countermodel among the
    classes of vectors, None for those that hold in all its models
    there, as space-separated code lists; its number of models of each
    size; and (theory, thesis, size) for each model a listed thesis
    fails in."""
    top = max(n for n, _ in vectors)
    table, models, broken = {}, {}, []
    for t in TheoryId:
        axioms, theses = set(THEORY_AXIOMS[t]), DERIVED_THESES[t]
        mine = [(n, holds) for n, holds in vectors if axioms <= holds]
        models[t.value] = [sum(n == k for n, _ in mine)
                           for k in range(1, top + 1)]
        broken += [(t.value, code.value, n) for n, holds in mine
                   for code in theses if code not in holds]
        cells = {}
        for code in CATALOG_ORDER:
            if code not in axioms and code not in theses:
                first = next((n for n, holds in mine if code not in holds),
                             None)
                cells.setdefault(first, []).append(code.value)
        table[t.value] = {k: " ".join(codes) for k, codes in cells.items()}
    return table, models, broken


# two atoms and nothing else: no sum of both, no unity
_SUMS_FAIL = "E_BSUM E_SUM UNITY"

# The unlisted codes of each theory by the size of their first
# countermodel among the poset classes, in poset-walk order, up to n=7.
# None is open to n=7:
#   T2: its models are T3's to n=9, so if T2 proves SSP they coincide;
#   MSPO_DAG, MSPO_DDAG: one countermodel at n=8, for all three;
#   MCM: no countermodel to n=9;
#   GM, GMU: finite GM models are CM models (3 to n=8), which have both.
_FIRST_COUNTERMODELS = {
    "SPO": {1: "SUP_SUB_SUM",
            2: "NO_ZERO EXISTS_EXT WSP SSP SSP_OV SSP_EXT SSP_PLUS U_SUM "
               "S_SUM EXT_OV EXT_EXT DOLLAR_EXT DOLLAR_OV DIAMOND "
               "SUM_SUB_SUP DDAGGER E_BSUM E_SUM UNITY",
            3: "PPP EXT_PP", 4: "DAGGER C_PROD C_BSUM"},
    "T1": {1: "SUP_SUB_SUM", 2: _SUMS_FAIL,
           4: "SSP_PLUS DAGGER DDAGGER C_BSUM",
           5: "SSP SSP_OV SSP_EXT PPP DOLLAR_EXT DOLLAR_OV SUM_SUB_SUP "
              "C_PROD"},
    "T2": {1: "SUP_SUB_SUM", 2: _SUMS_FAIL,
           4: "SSP_PLUS DAGGER DDAGGER C_BSUM", 6: "C_PROD",
           None: "SSP SSP_OV SSP_EXT DOLLAR_EXT DOLLAR_OV SUM_SUB_SUP"},
    "T3": {1: "SUP_SUB_SUM", 2: _SUMS_FAIL,
           4: "SSP_PLUS DAGGER DDAGGER C_BSUM", 6: "C_PROD"},
    "MSPO_DAG": {1: "SUP_SUB_SUM", 2: _SUMS_FAIL,
                 None: "SSP_PLUS C_PROD C_BSUM"},
    "MSPO_DDAG": {1: "SUP_SUB_SUM", 2: _SUMS_FAIL,
                  None: "SSP_PLUS C_PROD C_BSUM"},
    "MEM": {1: "SUP_SUB_SUM", 2: _SUMS_FAIL,
            4: "SSP_PLUS DAGGER DDAGGER C_BSUM"},
    "MCM": {1: "SUP_SUB_SUM", 2: _SUMS_FAIL,
            None: "SSP_PLUS DAGGER DDAGGER"},
    "GM": {1: "SUP_SUB_SUM", None: "E_SUM UNITY"},
    "GMU": {1: "SUP_SUB_SUM", None: "E_SUM"},
    "CM": {1: "SUP_SUB_SUM"},
}

# Each theory's models of each size up to n=7, up to isomorphism.
_MODELS = {
    "SPO": [1, 2, 5, 16, 63, 318, 2045],
    "T1": [1, 1, 2, 3, 7, 19, 69],
    "T2": [1, 1, 2, 3, 6, 14, 38],
    "T3": [1, 1, 2, 3, 6, 14, 38],
    "MSPO_DAG": [1, 1, 2, 2, 3, 5, 8],
    "MSPO_DDAG": [1, 1, 2, 2, 3, 5, 8],
    "MEM": [1, 1, 2, 3, 6, 13, 31],
    "MCM": [1, 1, 2, 2, 3, 5, 8],
    "GM": [1, 0, 1, 0, 0, 0, 1],
    "GMU": [1, 0, 1, 0, 0, 0, 1],
    "CM": [1, 0, 1, 0, 0, 0, 1],
}


# -- laws every claim table obeys ---------------------------------------------

def _law_breaks(claims):
    """(closure triples, ambient pairs, claims breaking a law) of a table
    (ambient, from, to) -> (max_n, countermodel size or None)."""

    def refutes_by(key, size):
        # the claim at key is refuted at most at size, unless it was not
        # searched that far
        max_n, got = claims[key]
        return size > max_n or got is not None and got <= size

    # closure: A => B exhausted to k makes every countermodel of A => C
    # at a size s <= k one of B => C, refuted by s
    by_hypothesis = {}
    for (ambient, a, c), (_, s) in claims.items():
        by_hypothesis.setdefault((ambient, a), []).append((c, s))
    triples, broken = 0, []
    for (ambient, a, b), (k, exhausted) in claims.items():
        if exhausted is not None:
            continue
        for c, s in by_hypothesis[ambient, a]:
            if c == b or (ambient, b, c) not in claims:
                continue
            triples += 1
            if s is not None and s <= k \
                    and not refutes_by((ambient, b, c), s):
                broken.append((ambient, a, b, c))
    # ambient monotonicity: a countermodel under T or IRR is one under
    # no ambient
    pairs = 0
    for (ambient, a, c), (_, s) in claims.items():
        if ambient and ("", a, c) in claims:
            pairs += 1
            if s is not None and not refutes_by(("", a, c), s):
                broken.append((ambient, a, c))
    return triples, pairs, broken


def _live_claims(max_n):
    """(ambient, from, to) -> least countermodel size or None, searched
    live for every claim of one code to another under no ambient, IRR
    and T (the ambient's own code may be the hypothesis, never the
    conclusion), and the claims whose result is wrong: a size other than
    the labelled brute force's, `exhausted` set with a countermodel or
    clear without one, or a countermodel that _REFERENCE does not find a
    model of ambient and hypothesis violating the conclusion."""
    sizes, wrong = {}, []
    for ambient in ("", "IRR", "T"):
        ambients = [ambient] if ambient else []
        for a in CATALOG_ORDER:
            given = ambients + [a.value]
            for c in CATALOG_ORDER:
                if c is a or c.value == ambient:
                    continue
                r = verify_implication(ambients, [a], c, max_n)
                s = r.found
                key = (ambient, a.value, c.value)
                sizes[key] = None if s is None else s.n
                if sizes[key] != least_countermodel_size(given, c, max_n) \
                        or r.exhausted != (s is None):
                    wrong.append(key)
                elif s is not None and (
                        any(_REFERENCE[axiom_id(code)](s) is not None
                            for code in given)
                        or _REFERENCE[c](s) is None):
                    wrong.append(key)
    return sizes, wrong
