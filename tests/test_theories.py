import pytest

from mereo import (
    AxiomId, SearchSpec, TheoryId, check_theory, derived_theses,
    enumerate_models, find_model, holds, satisfies, theory_axioms,
    verify_implication,
)
from mereo.axioms import CATALOG, CATALOG_ORDER
from mereo.search import _WALKS, _split_constraints
from mereo.theories import DERIVED_THESES, THEORY_AXIOMS

from conftest import fixture


def test_bundles_match_their_definitions():
    A = AxiomId
    assert theory_axioms("SPO") == (A.T, A.IRR)
    assert theory_axioms("T1") == (A.T, A.IRR, A.U_SUM)
    assert theory_axioms("T2") == (A.T, A.IRR, A.U_SUM, A.PPP)
    assert theory_axioms("T3") == (A.T, A.IRR, A.SSP)
    assert theory_axioms("MSPO_DAG") == (A.T, A.IRR, A.SUM_SUB_SUP, A.DAGGER)
    assert theory_axioms("MSPO_DDAG") == (A.T, A.IRR, A.DDAGGER)
    assert theory_axioms("MEM") == (A.T, A.WSP, A.C_PROD)
    assert theory_axioms("MCM") == (A.T, A.WSP, A.C_PROD, A.C_BSUM)
    assert theory_axioms("GM") == (A.T, A.IRR, A.SSP_PLUS, A.E_BSUM)
    assert theory_axioms("GMU") == (A.T, A.IRR, A.SSP_PLUS, A.E_BSUM, A.UNITY)
    assert theory_axioms("CM") == (A.T, A.IRR, A.U_SUM, A.E_SUM)


def test_membership_examples():
    assert check_theory(fixture("w4"), "T3").holds
    tv = check_theory(fixture("w4"), "MSPO_DDAG")
    assert not tv.holds and tv.failing.axiom is AxiomId.DDAGGER
    assert check_theory(fixture("b7"), "CM").holds
    tv = check_theory(fixture("c2"), "T1")
    assert not tv.holds and tv.failing.axiom is AxiomId.U_SUM


def test_derived_theses_contents():
    assert AxiomId.SSP in derived_theses("MEM")
    assert AxiomId.DDAGGER in derived_theses("GM")
    assert AxiomId.UNITY in derived_theses("CM")
    assert AxiomId.SUP_SUB_SUM not in derived_theses("CM")
    assert len(derived_theses("CM")) == 31


def _theory_sweep(tid, nmax=4):
    axs = theory_axioms(tid)
    ambient = [a for a in (AxiomId.T, AxiomId.IRR) if a in axs]
    for n in range(1, nmax + 1):
        for s in enumerate_models(n, ambient):
            if satisfies(s, axs):
                yield s


@pytest.mark.parametrize("tid", list(TheoryId))
def test_derived_theses_hold_in_every_bounded_model(tid):
    seen = 0
    for s in _theory_sweep(tid):
        seen += 1
        for thesis in derived_theses(tid):
            assert holds(s, thesis), (tid, thesis, s)
    assert seen >= 1      # every theory has at least the degenerate model


def test_finite_gm_models_have_a_unity():
    for s in _theory_sweep(TheoryId.GM, nmax=5):
        assert s.unity() is not None


def test_finite_cm_and_gmu_models_coincide():
    cm, gmu = theory_axioms("CM"), theory_axioms("GMU")
    for n in range(1, 6):
        for s in enumerate_models(n, ["T", "IRR"]):
            assert satisfies(s, cm) == satisfies(s, gmu), s


def test_t1_strictly_contains_t2():
    r = verify_implication(["T", "IRR"], ["U_SUM"], "PPP", max_n=5)
    assert r.found is not None
    assert satisfies(r.found, theory_axioms("T1"))
    assert not check_theory(r.found, "T2").holds


def test_t3_within_t2_and_bounded_coincidence():
    # every strongly supplemented model satisfies the weaker bundles ...
    for s in _theory_sweep(TheoryId.T3, nmax=4):
        assert check_theory(s, "T2").holds and check_theory(s, "T1").holds
    # ... and finitely the converse holds as well: supplementation failures
    # under unique sums + proper parts force infinite descending chains, so
    # no finite structure separates the two bundles (they differ only on
    # infinite models).  Frozen as a bounded coincidence.
    r = verify_implication(["T", "IRR"], ["U_SUM", "PPP"], "SSP", max_n=5)
    assert r.found is None and r.exhausted


def test_mem_crosses_the_order_theories():
    # a minimal-extensional model that misses the supremum-to-sum half
    r = find_model(SearchSpec(max_n=4, require=theory_axioms("MEM"),
                              forbid=(AxiomId.DAGGER,)))
    assert r.found is not None
    assert check_theory(r.found, "MEM").holds
    assert not holds(r.found, "DAGGER")
    # and conversely the coincidence theory does not prove products:
    # no model with 7 or fewer elements shows it, but eight do (the
    # four-atom, four-fusion structure)
    t8 = fixture("triples8")
    assert check_theory(t8, "MSPO_DDAG").holds
    assert check_theory(t8, "MSPO_DAG").holds
    assert not holds(t8, "C_PROD")


def test_order_level_crossing_needs_eight_elements():
    # exhaust the order-theoretic reading at seven: every coincidence
    # model up to that size carries products, so triples8 is minimal
    # (the next test shows it is the only crossing at eight)
    from mereo import enumerate_models
    for n in range(1, 8):
        for s in enumerate_models(n, ("T", "IRR", "DDAGGER")):
            assert holds(s, "C_PROD"), s


def test_triples8_is_the_only_eight_element_crossing():
    # of the 16,999 strict partial orders on eight elements, exactly one
    # satisfies the coincidence axiom and lacks products: triples8
    from mereo import canonical_form, enumerate_models
    crossings = [s.relation_mask
                 for s in enumerate_models(8, ("T", "IRR", "DDAGGER"))
                 if not holds(s, "C_PROD")]
    assert crossings == [canonical_form(8, fixture("triples8").relation_mask)]


def test_mspo_variants_agree():
    # the two axiomatisations carve out the same bounded model class
    dag, ddag = theory_axioms("MSPO_DAG"), theory_axioms("MSPO_DDAG")
    for n in range(1, 5):
        for s in enumerate_models(n, ["T", "IRR"]):
            assert satisfies(s, dag) == satisfies(s, ddag)


def test_mem_has_ssp_and_unique_sums():
    for s in _theory_sweep(TheoryId.MEM, nmax=4):
        assert holds(s, "SSP") and holds(s, "U_SUM") and holds(s, "IRR")


def test_mcm_c_bsum_overlap_reformulation():
    # in closure-mereology models the pair-sum condition coincides with
    # its overlap phrasing: z sums {x, y} iff z overlaps exactly what
    # x or y overlaps
    from mereo import is_sum
    for s in _theory_sweep(TheoryId.MCM, nmax=4):
        for x in s.universe:
            for y in s.universe:
                for z in s.universe:
                    closure = all(s.ov(u, z) == (s.ov(u, x) or s.ov(u, y))
                                  for u in s.universe)
                    assert closure == is_sum(s, z, [x, y])
                if any(s.ing(x, u) and s.ing(y, u) for u in s.universe):
                    assert any(is_sum(s, z, [x, y]) for z in s.universe)


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


def test_every_theory_has_only_poset_models():
    # each names T and IRR, or T and WSP, which entails IRR: its axioms
    # select the poset walk, whose classes hold every model up to
    # isomorphism
    for t in TheoryId:
        assert _split_constraints(THEORY_AXIOMS[t])[0] is _WALKS[0], t


def test_the_thesis_table_to_seven_elements():
    vectors = _class_vectors(7)
    assert len(vectors) == 2450
    assert len({holds for _, holds in vectors}) == 46
    table, models, broken = _thesis_table(vectors)
    # every listed thesis holds in every model, and every unlisted code
    # fails in one, or is open
    assert broken == []
    assert table == _FIRST_COUNTERMODELS
    assert models == _MODELS
