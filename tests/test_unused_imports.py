"""Nothing in src/wallhopper is defined or imported without a reader.

Every name that a module of src/wallhopper imports is used in it, listed
in its __all__, or imported on a line marked ``# noqa: F401`` (a
re-export that something outside the module looks up by name).

Every module-level function, class and constant of src/wallhopper, every
method and property that is not a dunder, and every annotated field of a
class body (a dataclass or NamedTuple field) is read by program code:
some reference to its name in src/ outside the definition's own lines, or
in perfbench/*.py or tools/*.py.  A reference is a Name or Attribute node
that loads the name, an import alias, or a string constant spelling it
(so the benchmark tracer's ``tr.patch(owner, "attr", ...)`` hooks count).
Names are matched alone, whatever module or class they belong to, and
tests are no readers.  ORACLES lists the definitions that stay without a
reader, each with its reason.  Only the standard library's ast is used, so
the checks need no linter."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wallhopper"
READERS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))

# module.name -> why it stays in src/ though no program code reads it.
ORACLES = {
    "model.bias_arrays": "test oracle: tests/test_model.py checks the dynamics kernel "
                         "against A_d and b_d in closed form",
    "polytopes.membership_distance": "test oracle: tests/test_polytopes.py checks hull "
                                     "membership against its LP distance",
    "stability.FwpResult.h_polytope": "tracer-only hull chain; leaves src/ with item 4",
    "stability.FwpResult.v_polytope": "tracer-only hull chain; leaves src/ with item 4",
    "stability.FwpResult.raw_vertex_count": "tracer-only hull chain; leaves src/ with item 4",
}


def parse(path):
    """The module's source lines and ast."""
    source = path.read_text()
    return source.splitlines(), ast.parse(source, filename=str(path))


def unused_imports(path):
    """(line, name) of each name imported in path and never used there."""
    lines, tree = parse(path)
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


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(qualified name, name, first line, last line) of each module-level
    function, class and constant, and each non-dunder method or property and
    annotated field of a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _dunder(item.name)):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                    yield f"{node.name}.{name}", name, item.lineno, item.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _dunder(name.id):
                        yield name.id, name.id, node.lineno, node.end_lineno


def references(tree):
    """(line, name) of each reference in the tree: a loaded Name or
    Attribute, each part of an import alias, an identifier-shaped string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.end_lineno, node.attr
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield node.lineno, part
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.lineno, node.value


def unread_definitions(modules, readers):
    """module.qualified name of each definition in the modules that no
    reference reads: none in the readers, none in the modules outside the
    definition's own lines."""
    defined, read_at = [], {}                       # name -> {(path, line)}
    for path in list(modules) + list(readers):
        _, tree = parse(path)
        if path in modules:
            defined += [(path, *d) for d in definitions(tree)]
        for line, name in references(tree):
            read_at.setdefault(name, set()).add((path, line))
    return sorted(f"{path.stem}.{qualified}" for path, qualified, name, first, last in defined
                  if all(at == path and first <= line <= last
                         for at, line in read_at.get(name, ())))


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


def test_every_definition_in_src_has_a_reader():
    unread = unread_definitions(sorted(SRC.glob("*.py")), READERS)
    found = [name for name in unread if name not in ORACLES]
    assert not found, "definitions no program code reads:\n" + "\n".join(found)
    stale = sorted(set(ORACLES) - set(unread))
    assert not stale, "ORACLES entries that name no unread definition:\n" + "\n".join(stale)


def test_unread_definitions_found(tmp_path):
    mod, tool = tmp_path / "mod.py", tmp_path / "tool.py"
    mod.write_text("LIMIT = 3\n"
                   "UNUSED_LIMIT = 4\n"
                   "\n"
                   "def unused(x):\n"
                   "    return unused(x - 1) if x else LIMIT\n"
                   "\n"
                   "def hooked():\n"
                   "    return 0\n"
                   "\n"
                   "class Box:\n"
                   "    def __init__(self):\n"
                   "        self.size = self.area()\n"
                   "\n"
                   "    def area(self):\n"
                   "        return 1\n"
                   "\n"
                   "    def spare(self):\n"
                   "        return self.spare\n"
                   "\n"
                   "    @property\n"
                   "    def side(self):\n"
                   "        return 1\n")
    tool.write_text("import mod\n"
                    "\n"
                    "tr.patch(mod, 'hooked', 'mod.hooked')\n"
                    "print(mod.Box().side)\n")
    assert unread_definitions([mod], [tool]) == ["mod.Box.spare", "mod.UNUSED_LIMIT",
                                                 "mod.unused"]


def test_unread_field_found(tmp_path):
    mod, tool = tmp_path / "mod.py", tmp_path / "tool.py"
    mod.write_text("from dataclasses import dataclass\n"
                   "from typing import NamedTuple\n"
                   "\n"
                   "@dataclass\n"
                   "class Result:\n"
                   "    value: float\n"
                   "    spare: int = 0\n"
                   "\n"
                   "class Pair(NamedTuple):\n"
                   "    left: float\n"
                   "    right: float\n"
                   "\n"
                   "def solve():\n"
                   "    return Result(1.0, spare=2), Pair(0.0, 1.0)\n")
    tool.write_text("import mod\n"
                    "\n"
                    "result, pair = mod.solve()\n"
                    "print(result.value, pair.left, getattr(pair, 'right'))\n")
    assert unread_definitions([mod], [tool]) == ["mod.Result.spare"]
