import pytest

from mereo import (
    AxiomId, SearchSpec, TheoryId, check_theory, derived_theses,
    enumerate_models, find_model, holds, satisfies, theory_axioms,
    verify_implication,
)

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
