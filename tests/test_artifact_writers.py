"""Only ``workflow`` writes files under ``src/posetune``, and only through
``workflow._write``.

Every marker and every JSON and CSV file a stage writes goes through that
one atomic writer, so no other module imports ``csv``. The savers of clouds,
scenes and objects are the exceptions: they write the ``.npy`` channels and
the JSON beside them.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "posetune"
SAVERS = {"geometry.save", "objects.save_object", "scenes.save_scene"}
# method and function names that write or move a file
WRITING = {"write_text", "write_bytes", "open", "mkdir", "touch", "rename", "replace", "save",
           "savez", "savez_compressed", "savetxt", "tofile", "dump"}


def _writers(module: str, source: str) -> set[str]:
    """``<module>.<function>`` for each function of ``source`` that calls a
    writing name (``<module>`` alone for module-level code). A bare
    ``replace``, such as ``dataclasses.replace``, does not count."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{module}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) and func.id == "open" else None)
            if name in WRITING:
                found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), module)
    return found


def _imports(source: str) -> set[str]:
    """The top-level modules that ``source`` imports by absolute name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


def test_detector_sees_writes():
    source = ("import json\nfrom dataclasses import replace\n"
              "def saves(path, data):\n    json.dump(data, open(path, 'w'))\n"
              "def copies(config):\n    return replace(config, seed=1)\n"
              "def moves(path):\n    os.replace(path, path.with_suffix('.old'))\n")
    assert _writers("m", source) == {"m.saves", "m.moves"}


def test_only_the_workflow_writer_and_the_savers_write():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= _writers(path.stem, path.read_text())
    assert found == {"workflow._write", *SAVERS}


def test_only_workflow_imports_csv():
    importing = {path.stem for path in PACKAGE.glob("*.py") if "csv" in _imports(path.read_text())}
    assert importing == {"workflow"}
