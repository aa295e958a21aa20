"""Every top-level name in mereo is reached: a command, another module or
a README example refers to it.  A name only the tests use belongs in
tests/oracles.py."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Names nothing in mereo reaches, each with why it stays.
_UNREACHED = {
    # perfbench/tracing.py hooks both as its `sums.kernel` layer; they move
    # to tests/oracles.py once that layer reads the live kernels
    ("sums", "sum_candidates"),
    ("sums", "sup_candidates"),
}


def _defined(node):
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)]
    return []


def _referred(node):
    """The names a top-level statement refers to: loaded names,
    attributes, imported names and `__all__` entries.  Docstrings do not
    refer."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    if "__all__" in _defined(node):
        names.update(c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant))
    return names


def _unreached(root=ROOT):
    """(module, name) of every top-level name in root's mereo package
    that no statement other than its own definition, and no code block
    of root's README, refers to."""
    readme = (root / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```[a-z]*\n(.*?)```", readme, re.S)
    in_readme = set(re.findall(r"\w+", "".join(blocks)))
    statements = [(path.stem, node)
                  for path in sorted((root / "src" / "mereo").glob("*.py"))
                  for node in ast.parse(path.read_text("utf-8")).body]
    referred = [_referred(node) for _, node in statements]
    found = []
    for i, (module, node) in enumerate(statements):
        for name in _defined(node):
            if name.startswith("__") and name.endswith("__") \
                    or name in in_readme:
                continue
            if not any(name in names for j, names in enumerate(referred)
                       if j != i):
                found.append((module, name))
    return found


def test_every_top_level_name_is_reached():
    assert sorted(_unreached()) == sorted(_UNREACHED)


def test_the_scan_sees_a_name_nothing_reaches(tmp_path):
    # a definition that calls itself, or that a docstring or README prose
    # names, is not reached; an attribute, an import, `__all__` and a
    # README code block each reach one
    package = tmp_path / "src" / "mereo"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        '"""lonely and shown are described here."""\n'
        "def lonely(n):\n    return lonely(n - 1) if n else 0\n"
        "def attr():\n    pass\n"
        "def imported():\n    pass\n"
        "def exported():\n    pass\n"
        "def shown():\n    pass\n")
    (package / "b.py").write_text(
        "from .a import imported\n"
        "import mereo.a\n"
        "X = mereo.a.attr\n"
        "__all__ = ['exported']\n")
    (tmp_path / "README.md").write_text(
        "lonely, in prose\n```python\nshown()\n```\n")
    assert _unreached(tmp_path) == [("a", "lonely"), ("b", "X")]


# -- a test imports shared helpers from a plain module ------------------------

def _test_module_imports(root=ROOT):
    """(file, module, name) of each import, in a file under root's tests/
    or frontier/, of a test_*.py module or of a private name from
    conftest: helpers both need live in a plain module instead."""
    found = []
    for folder in ("tests", "frontier"):
        for path in sorted((root / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.Import):
                    pairs = [(a.name, None) for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    pairs = [(node.module, a.name) for a in node.names]
                else:
                    continue
                found += [(f"{folder}/{path.name}", module, name)
                          for module, name in pairs
                          if module.startswith("test_")
                          or module == "conftest" and name.startswith("_")]
    return found


def test_no_test_imports_a_test_module_or_a_private_conftest_name():
    assert _test_module_imports() == []


def test_the_scan_sees_an_import_from_a_test_module(tmp_path):
    # public conftest names and private names of a plain module may be
    # imported; any import of a test module, or a private conftest name,
    # may not
    for folder in ("tests", "frontier"):
        (tmp_path / folder).mkdir()
    (tmp_path / "tests" / "test_a.py").write_text(
        "from conftest import fixture\nfrom oracles import _REFERENCE\n"
        "from conftest import _closure\n")
    (tmp_path / "frontier" / "test_b.py").write_text(
        "from test_a import helper\nimport test_a\n")
    assert _test_module_imports(tmp_path) == [
        ("tests/test_a.py", "conftest", "_closure"),
        ("frontier/test_b.py", "test_a", "helper"),
        ("frontier/test_b.py", "test_a", None)]
