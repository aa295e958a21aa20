"""The frontier suite: the paper's claims checked at sizes tier-1 cannot
reach, one test per CI step.  Tier-1 collects only `testpaths`
(tests/), so none of these run there; run them with
`python -m pytest frontier -q -s`.

They call the helpers tier-1 uses, from tests/tables.py and
tests/oracles.py, with larger sizes.  pytest puts tests/ on the path
only for tests/ itself, so it goes on the path here.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
