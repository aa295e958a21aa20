"""Catalog verdicts past tier-1's sizes: the subset-quantified codes at 9
to 12 elements, and every claim of one code to another to four
elements."""

import random
import time

from mereo.axioms import CATALOG_ORDER, _verdict, check_all
from oracles import _REF_SUBSET_FINDERS, reference_vectors
from tables import _inclusion_family, _law_breaks, _live_claims, _raw_relation


def test_subset_verdicts_at_9_to_12_elements_equal_the_table_finders():
    # above eight elements each submask plane is the product of a low and
    # a high one; the reference finders read per-subset tables.  The time
    # per structure is information only
    rng = random.Random(909)
    bad = 0
    for n in range(9, 13):
        structures = [_inclusion_family(rng, n, "abcd") for _ in range(20)]
        structures += [_raw_relation(rng, n, i % 2) for i in range(20)]
        start = time.perf_counter()
        verdicts = [check_all(s) for s in structures]
        took = (time.perf_counter() - start) / len(structures)
        for s, got in zip(structures, verdicts):
            for code, reference in _REF_SUBSET_FINDERS.items():
                want = _verdict(s, code, reference(s))
                if got[CATALOG_ORDER.index(code)] != want:
                    bad += 1
                    print(f"n={n} {code}: {got[CATALOG_ORDER.index(code)]} "
                          f"!= {want}: {s!r}")
        print(f"n={n}: {len(structures)} structures, check_all "
              f"{took * 1e6:.0f} us each")
    assert bad == 0


def test_the_claims_to_four_elements_equal_a_labelled_brute_force():
    # every claim of one code to another under no ambient, IRR and T,
    # searched live to four elements: the closure and ambient laws hold,
    # and each least countermodel size (or none) is the least n at which
    # a labelled relation has the given codes and not the conclusion by
    # the literal finders
    start = time.perf_counter()
    vectors = len(reference_vectors(4))
    took = time.perf_counter() - start
    sizes, wrong = _live_claims(4)
    triples, pairs, broken = _law_breaks(
        {key: (4, size) for key, size in sizes.items()})
    exhausted = list(sizes.values()).count(None)
    print(f"the 65,536 relations on 4 elements: {vectors} verdict vectors "
          f"in {took:.1f} s")
    print(f"{len(sizes)} claims to 4 elements, {exhausted} exhausted; "
          f"{triples} closure triples and {pairs} ambient pairs")
    print(f"{len(broken)} break a law; {len(wrong)} differ from the brute "
          f"force")
    for key in (broken + wrong)[:10]:
        print("wrong:", key)
    assert broken == [] and wrong == [] and len(sizes) == 2914
