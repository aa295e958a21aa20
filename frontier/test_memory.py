"""Bounds on the peak RSS of a fresh process.  Each check runs in a child
interpreter (sys.executable) started on this file, so the peak it reads
is the library's alone: pytest's own imports add about 16 MB (Python
3.11), and whatever the tests before it built more.

Run as a script, this file runs the check it is named and prints its
figures as one JSON object.  It imports only what a check needs before
the check starts.  The peak is read from /proc, so the checks run on
Linux only.
"""

import json
import os
import sys


def _peak_mb():
    """The peak RSS of this process's address space, which exec made
    afresh.  ru_maxrss would also count the pages of the process it was
    forked from."""
    with open("/proc/self/status") as status:
        kb = next(line for line in status if line.startswith("VmHWM:"))
    return int(kb.split()[1]) / 1024


def _fresh(check):
    """The figures check returns, run in a fresh child interpreter."""
    import subprocess  # here, so the child's peak does not hold it
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, __file__, check.__name__],
                         env=dict(os.environ, PYTHONPATH=path),
                         stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout)


def _byte_budget():
    from mereo.search import count_models
    count = count_models(5, ["U_SUM"])
    return {"count": count, "peak": _peak_mb()}


def test_a_shared_walk_keeps_within_its_byte_budget():
    # U_SUM reads the subset planes of all 291,968 classes on 5 elements,
    # too many to share, so the walk keeps none; per-subset tables kept
    # without a budget peaked at 88 MB
    got = _fresh(_byte_budget)
    print(f"count_models(5, [\"U_SUM\"]) = {got['count']}, "
          f"peak RSS {got['peak']:.1f} MB (limit 60)")
    assert got["peak"] <= 60


def _no_tables():
    import time
    from mereo.search import _perm_row_tables, canonical_form, is_canonical
    start = time.perf_counter()
    for n in (8, 12):
        chain = sum(1 << (i * n + j) for i in range(n)
                    for j in range(i + 1, n))
        cycle = sum(1 << (i * n + (i + 1) % n) for i in range(n))
        for m in (0, chain, cycle, canonical_form(n, chain),
                  (1 << n * n) - 1):
            assert is_canonical(n, m) == (canonical_form(n, m) == m)
    return {"took": time.perf_counter() - start,
            "built": _perm_row_tables.cache_info().currsize,
            "peak": _peak_mb()}


def test_is_canonical_builds_no_table_at_8_and_12_elements():
    # above six elements is_canonical defers to canonical_form; the n=8
    # tables it once built peaked at 113 MB
    got = _fresh(_no_tables)
    print(f"is_canonical at 8 and 12 elements: {got['took']:.2f} s, "
          f"{got['built']} table(s) built, "
          f"peak RSS {got['peak']:.1f} MB (limit 150)")
    assert got["built"] == 0 and got["peak"] <= 150


if __name__ == "__main__":
    print(json.dumps(globals()[sys.argv[1]]()))
