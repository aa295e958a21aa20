"""CI runs every frontier test, each under a timeout, and tier-1 collects
none of them.  The workflow is read as text: CI installs no YAML
package."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FRONTIER = ROOT / "frontier"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _frontier_tests():
    """The id of each test function under frontier/, sorted."""
    return sorted(f"frontier/{path.name}::{node.name}"
                  for path in FRONTIER.glob("test_*.py")
                  for node in ast.parse(path.read_text("utf-8")).body
                  if isinstance(node, ast.FunctionDef)
                  and node.name.startswith("test_"))


def _frontier_runs(text):
    """(test id, timed) for each frontier test a workflow line runs with
    pytest: timed if the line runs it under `timeout`."""
    return [(m[2], m[1] is not None) for m in re.finditer(
        r"^[ -]*(?:run: )?(timeout \d+ )?.*\bpytest (frontier/\S+)", text,
        re.M)]


def test_ci_runs_every_frontier_test_once_under_a_timeout():
    runs = _frontier_runs(WORKFLOW.read_text("utf-8"))
    assert sorted(test for test, _ in runs) == _frontier_tests()
    assert all(timed for _, timed in runs)


def test_the_scan_reads_each_frontier_run_and_its_timeout():
    text = ("  - run: timeout 60 python -m pytest frontier/test_a.py::test_x\n"
            "  - run: |\n"
            "      timeout 9 python -m pytest frontier/test_a.py::test_y -q\n"
            "      python -m pytest frontier/test_b.py::test_z -s\n"
            "      python -m pytest -q\n")
    assert _frontier_runs(text) == [("frontier/test_a.py::test_x", True),
                                    ("frontier/test_a.py::test_y", True),
                                    ("frontier/test_b.py::test_z", False)]


def test_tier1_collects_nothing_from_frontier(request):
    # tier-1 names no path, so pytest collects its testpaths alone; none
    # may be frontier/, lie inside it or hold it
    text = WORKFLOW.read_text("utf-8")
    tier1 = [m[1].split() for m in re.finditer(r"python -m pytest(.*)", text)
             if "frontier/" not in m[1]]
    assert len(tier1) == 1
    assert all(arg.startswith("-") for arg in tier1[0])
    testpaths = [(ROOT / p).resolve()
                 for p in request.config.getini("testpaths")]
    assert testpaths
    for path in testpaths:
        assert path != FRONTIER and FRONTIER not in path.parents \
            and path not in FRONTIER.parents
