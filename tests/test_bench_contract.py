"""The benchmark in perfbench/ hooks into the package by name.  Check that
every name it patches or calls still exists, so removing one fails here
and not only in the benchmark's own smoke tests."""

import ast
import importlib
import pkgutil
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patches_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tr = tracing.Tracer()
    try:
        tracing.instrument(tr)
        patched = list(tr._patched)
    finally:
        tr.restore()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


def benchmark_names():
    """(module, dotted path) for every wallhopper name perfbench/*.py uses:
    each name imported with ``from wallhopper... import`` and each attribute
    chain on an imported wallhopper module, e.g. stability.HeatmapGrid.regular."""
    import wallhopper

    submodules = {m.name for m in pkgutil.iter_modules(wallhopper.__path__)}
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {}                      # local name -> wallhopper module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module.split(".")[0] == "wallhopper"):
                for alias in node.names:
                    if node.module == "wallhopper" and alias.name in submodules:
                        modules[alias.asname or alias.name] = f"wallhopper.{alias.name}"
                    else:
                        names.add((node.module, alias.name))
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in modules:
                names.add((modules[node.id], ".".join(chain)))
    return sorted(names)


def test_workload_entry_points_exist():
    names = benchmark_names()
    assert names
    missing = []
    for module, dotted in names:
        obj = importlib.import_module(module)
        try:
            for attr in dotted.split("."):
                obj = getattr(obj, attr)
        except AttributeError:
            missing.append(f"{module}.{dotted}")
    assert not missing, f"names perfbench/ uses are gone: {missing}"
