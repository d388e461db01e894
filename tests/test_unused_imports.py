"""Every name that a module of src/wallhopper imports is used in it, listed
in its __all__, or imported on a line marked ``# noqa: F401`` (a
re-export that something outside the module looks up by name).  Only the
standard library's ast is used, so the check needs no linter."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wallhopper"


def unused_imports(path):
    """(line, name) of each name imported in path and never used there."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = {}                                   # bound name -> line
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = alias.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_no_unused_import_in_src():
    found = [f"{path.name}:{line}: {name}" for path in sorted(SRC.glob("*.py"))
             for line, name in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_unused_import_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\n"
                    "import math\n"
                    "import os.path\n"
                    "from numbers import Integral, Real\n"
                    "from json import dumps  # noqa: F401\n"
                    "from json import loads\n"
                    "__all__ = ['loads']\n"
                    "x: Real = math.pi\n")
    assert unused_imports(path) == [(3, "os"), (4, "Integral")]
