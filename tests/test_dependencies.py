"""The imports agree with the dependencies that ``pyproject.toml`` declares.

The package may import only the standard library, itself and
``[project].dependencies``, and it imports every one of those. The tests may
also import the ``test`` extra. The test helpers and the benchmark's modules
count as local.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "posetune"
TESTS = ROOT / "tests"
LOCAL = {"posetune", *(p.stem for p in TESTS.glob("*.py")),
         *(p.stem for p in (ROOT / "bench").glob("*.py"))}


def _modules(requirements: list[str]) -> set[str]:
    """The import names of ``requirements``: the distribution names,
    lower-cased, with ``-`` read as ``_``."""
    return {re.match(r"[A-Za-z0-9._-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def _declared() -> tuple[set[str], set[str]]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return (_modules(project["dependencies"]),
            _modules(project.get("optional-dependencies", {}).get("test", [])))


def _third_party(paths) -> dict[str, set[str]]:
    """Per top-level module that ``paths`` import, outside the standard library
    and the local modules, the files that import it."""
    found: dict[str, set[str]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in LOCAL:
                    found.setdefault(top, set()).add(path.name)
    return found


def test_package_imports_exactly_its_dependencies():
    dependencies, _ = _declared()
    imported = _third_party(sorted(PACKAGE.glob("*.py")))
    undeclared = {m: sorted(files) for m, files in imported.items() if m not in dependencies}
    assert not undeclared, f"imported but not in [project].dependencies: {undeclared}"
    assert dependencies <= imported.keys(), \
        f"declared but never imported: {sorted(dependencies - imported.keys())}"


def test_tests_import_only_declared_modules():
    dependencies, test_extra = _declared()
    imported = _third_party(sorted(TESTS.glob("*.py")))
    undeclared = {m: sorted(files) for m, files in imported.items()
                  if m not in dependencies | test_extra}
    assert not undeclared, f"imported but declared nowhere: {undeclared}"
