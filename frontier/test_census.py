"""Class censuses past tier-1's sizes: the binary relations on five
elements (A000595), and the strict partial orders on nine (A000112) with
the thesis table read off their classes."""

import hashlib
import resource
import time

from mereo.axioms import AxiomId
from mereo.search import (_iso_candidates, _poset_classes, _split_constraints,
                          count_models)
from mereo.theories import THEORY_AXIOMS, TheoryId
from tables import _class_vectors, _thesis_table


def _peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def test_the_binary_relations_on_five_elements_up_to_isomorphism():
    # the 291,968 classes at n=5 do not fit the walk budget, so the
    # orderly walk is not shared: the search builds each class from the
    # rows the walk yields, and nothing keeps them
    start = time.perf_counter()
    count = count_models(5, ())
    took = time.perf_counter() - start
    shared = _iso_candidates(5, _split_constraints(())[0]) is not None
    print(f"count_models(5, ()) = {count} (A000595: 291968) in {took:.1f} s,"
          f" walk shared: {shared}")
    assert count == 291968 and not shared


# The table to n=9: _FIRST_COUNTERMODELS, whose MSPO_DAG and MSPO_DDAG
# cells open to n=7 each get their first countermodel at n=8.
_TABLE_TO_9 = {
    "SPO": {1: "SUP_SUB_SUM",
            2: "NO_ZERO EXISTS_EXT WSP SSP SSP_OV SSP_EXT SSP_PLUS U_SUM "
               "S_SUM EXT_OV EXT_EXT DOLLAR_EXT DOLLAR_OV DIAMOND "
               "SUM_SUB_SUP DDAGGER E_BSUM E_SUM UNITY",
            3: "PPP EXT_PP", 4: "DAGGER C_PROD C_BSUM"},
    "T1": {1: "SUP_SUB_SUM", 2: "E_BSUM E_SUM UNITY",
           4: "SSP_PLUS DAGGER DDAGGER C_BSUM",
           5: "SSP SSP_OV SSP_EXT PPP DOLLAR_EXT DOLLAR_OV SUM_SUB_SUP "
              "C_PROD"},
    "T2": {1: "SUP_SUB_SUM", 2: "E_BSUM E_SUM UNITY",
           4: "SSP_PLUS DAGGER DDAGGER C_BSUM", 6: "C_PROD",
           None: "SSP SSP_OV SSP_EXT DOLLAR_EXT DOLLAR_OV SUM_SUB_SUP"},
    "T3": {1: "SUP_SUB_SUM", 2: "E_BSUM E_SUM UNITY",
           4: "SSP_PLUS DAGGER DDAGGER C_BSUM", 6: "C_PROD"},
    "MSPO_DAG": {1: "SUP_SUB_SUM", 2: "E_BSUM E_SUM UNITY",
                 8: "SSP_PLUS C_PROD C_BSUM"},
    "MSPO_DDAG": {1: "SUP_SUB_SUM", 2: "E_BSUM E_SUM UNITY",
                  8: "SSP_PLUS C_PROD C_BSUM"},
    "MEM": {1: "SUP_SUB_SUM", 2: "E_BSUM E_SUM UNITY",
            4: "SSP_PLUS DAGGER DDAGGER C_BSUM"},
    "MCM": {1: "SUP_SUB_SUM", 2: "E_BSUM E_SUM UNITY",
            None: "SSP_PLUS DAGGER DDAGGER"},
    "GM": {1: "SUP_SUB_SUM", None: "E_SUM UNITY"},
    "GMU": {1: "SUP_SUB_SUM", None: "E_SUM"},
    "CM": {1: "SUP_SUB_SUM"},
}

# Each theory's models on nine elements, up to isomorphism.
_MODELS_AT_9 = {"SPO": 183231, "T1": 2285, "T2": 507, "T3": 507,
                "MSPO_DAG": 21, "MSPO_DDAG": 21, "MEM": 240, "MCM": 18,
                "GM": 0, "GMU": 0, "CM": 0}

# The models at n=8 of the theories with a cell open to n=9.
_OPEN_MODELS_AT_8 = {"T2": 124, "MCM": 11, "GM": 0, "GMU": 0}


def test_the_poset_census_and_the_thesis_table_to_nine_elements():
    # The table of walks counts no class above eight elements, so the
    # walk is not shared and keeps no class or subset planes; the census
    # reads each class once.  The digest pins the class tuple itself, not
    # only its length.  The printed peaks are this pytest process's.
    start = time.perf_counter()
    count = count_models(9, ["T", "IRR"])
    took = time.perf_counter() - start
    print(f"count_models(9, [\"T\", \"IRR\"]) = {count} (A000112: 183231) "
          f"in {took:.1f} s, peak RSS {_peak_mb():.1f} MB")
    digest = hashlib.sha256(
        ",".join(map(str, _poset_classes(9))).encode()).hexdigest()
    print(f"n=9 class-tuple digest: {digest}")
    # One catalog verdict vector per poset class to n=9, the n=9 classes
    # read from the census's cache; each equal pair is one object.
    start = time.perf_counter()
    vectors = _class_vectors(9)
    took = time.perf_counter() - start
    table, models, broken = _thesis_table(vectors)
    distinct = len({h for _, h in vectors})
    print(f"{len(vectors)} classes to n=9, {distinct} verdict vectors in "
          f"{took:.1f} s, peak RSS {_peak_mb():.1f} MB")
    at9 = {t: m[8] for t, m in models.items()}
    print(f"models at n=9: {at9}")
    # the three cells MSPO_DAG and MSPO_DDAG each leave open to n=7 get
    # their first countermodel at 8, one model each there
    firsts = {}
    for t in ("MSPO_DAG", "MSPO_DDAG"):
        axioms = set(THEORY_AXIOMS[TheoryId(t)])
        for code in _TABLE_TO_9[t][8].split():
            firsts[t, code] = sum(
                n == 8 and axioms <= holds and AxiomId[code] not in holds
                for n, holds in vectors)
            print(f"{t} {code}: {firsts[t, code]} countermodel(s) at n=8 "
                  f"(expected 1)")
    # T2's, MCM's, GM's and GMU's cells stay open
    for t, opened in _OPEN_MODELS_AT_8.items():
        print(f"{t} open to n=9: {table[t].get(None)}; {models[t][7]} "
              f"models at n=8 (expected {opened})")
    for cell in broken[:10]:
        print("listed thesis fails:", cell)
    if table != _TABLE_TO_9:
        print("table differs:", {t: table[t] for t in table
                                 if table[t] != _TABLE_TO_9[t]})
    assert count == 183231
    assert digest == ("a42561be14c3f9e44c4f71abcd794b01"
                      "b164d5413db8b01b874b5901feba4ab4")
    assert len(vectors) == 202680 and distinct == 54
    assert at9 == _MODELS_AT_9
    assert broken == []
    assert table == _TABLE_TO_9
    assert set(firsts.values()) == {1}
    assert {t: models[t][7] for t in _OPEN_MODELS_AT_8} == _OPEN_MODELS_AT_8
