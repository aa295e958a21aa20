"""Regenerate claims.json, the countermodel workload's claim pool.

Every claim is an implication over the axiom catalog: an ambient (none,
IRR or T), one hypothesis and one conclusion.  The hypothesis is never T
or IRR, so the ambient alone picks the candidate generator.  Each claim
is put through ``mereo implies --json`` with ``--max-n 4``; a claim under
T that exhausts that bound is searched again with ``--max-n 5`` and kept
at 5 only if a countermodel first appears there.  The verdict is stored
with the size of the countermodel found (null when the search exhausted
its bound) and the ``explored`` count.  The benchmark draws its claims from this pool and
checks every answer against the stored one, so run this only on a
commit whose answers are trusted:

    python3 perfbench/record_claims.py

Takes several minutes on one core.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mereo import cli  # noqa: E402
from mereo.axioms import CATALOG_ORDER  # noqa: E402
from workloads import claim_argv  # noqa: E402

# Search bound per ambient: an unbounded implies may not return.
MAX_N = {"": 4, "IRR": 4, "T": 4}
# Larger bound tried under an ambient for claims exhausted at MAX_N.
RETRY_N = {"T": 5}
FIELDS = ["ambient", "from", "to", "max_n", "countermodel_n", "explored"]


def pool():
    codes = [a.value for a in CATALOG_ORDER]
    for ambient in MAX_N:
        for hyp in codes:
            if hyp in ("T", "IRR"):
                continue
            for concl in codes:
                if concl not in (hyp, ambient):
                    yield ambient, hyp, concl


def record(ambient: str, hyp: str, concl: str, max_n: int) -> list:
    buf = io.StringIO()
    rc = cli.main(claim_argv(ambient, hyp, concl, max_n), out=buf)
    doc = json.loads(buf.getvalue())
    model = doc["countermodel"]
    if rc != (1 if model else 0):
        raise SystemExit(f"unexpected exit status {rc} for "
                         f"{ambient} {hyp} -> {concl}")
    return [ambient, hyp, concl, max_n,
            len(model["elements"]) if model else None, doc["explored"]]


def main() -> int:
    rows = []
    for ambient, hyp, concl in pool():
        row = record(ambient, hyp, concl, MAX_N[ambient])
        if row[4] is None and ambient in RETRY_N:
            retry = record(ambient, hyp, concl, RETRY_N[ambient])
            if retry[4] is not None:
                row = retry
        rows.append(row)
    lines = ",\n".join("  " + json.dumps(r) for r in rows)
    text = ('{"fields": ' + json.dumps(FIELDS) + ',\n"claims": [\n'
            + lines + "\n]}\n")
    (HERE / "claims.json").write_text(text, encoding="utf-8")
    print(f"{len(rows)} claims written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
