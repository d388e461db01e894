"""The benchmark in perfbench/ hooks into the package by name.  Check that
every name it patches or calls still exists, that every keyword it passes
is still a parameter of the callee, and that the callee still takes as
many positional arguments as it is passed, so removing one fails here and
not only in the benchmark's own smoke tests."""

import ast
import importlib
import inspect
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


def wallhopper_uses():
    """(names, calls, arities) over perfbench/*.py.  names: (module, dotted
    path) for each name imported with ``from wallhopper... import`` and each
    attribute chain on an imported wallhopper module, e.g.
    stability.HeatmapGrid.regular.  calls: (module, dotted path, keyword)
    for each keyword argument passed to such a name, e.g.
    mpc.MpcConfig.from_plan(n_horizon=...).  arities: (module, dotted path,
    n) for each call of such a name with n positional arguments, e.g.
    integrator.rollout_arrays with 5; a call that unpacks *args is left
    out, as its count is unknown."""
    import wallhopper

    submodules = {m.name for m in pkgutil.iter_modules(wallhopper.__path__)}
    names, calls, arities = set(), set(), set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        local = {}                        # local name -> (wallhopper module, path prefix)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module.split(".")[0] == "wallhopper"):
                for alias in node.names:
                    if node.module == "wallhopper" and alias.name in submodules:
                        local[alias.asname or alias.name] = (f"wallhopper.{alias.name}", [])
                    else:
                        local[alias.asname or alias.name] = (node.module, [alias.name])
                        names.add((node.module, alias.name))

        def resolve(node):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in local:
                module, prefix = local[node.id]
                if prefix + chain:
                    return module, ".".join(prefix + chain)
            return None

        for node in ast.walk(tree):
            if (target := resolve(node)) and isinstance(node, ast.Attribute):
                names.add(target)
            if isinstance(node, ast.Call) and (target := resolve(node.func)):
                calls.update((*target, kw.arg) for kw in node.keywords if kw.arg)
                if not any(isinstance(arg, ast.Starred) for arg in node.args):
                    arities.add((*target, len(node.args)))
    return sorted(names), sorted(calls), sorted(arities)


def lookup(module, dotted):
    obj = importlib.import_module(module)
    for attr in dotted.split("."):
        obj = getattr(obj, attr)
    return obj


def test_workload_entry_points_exist():
    names, _, _ = wallhopper_uses()
    assert names
    missing = []
    for module, dotted in names:
        try:
            lookup(module, dotted)
        except AttributeError:
            missing.append(f"{module}.{dotted}")
    assert not missing, f"names perfbench/ uses are gone: {missing}"


def accepted_keywords(fn):
    """Parameter names fn accepts by keyword.  A classmethod taking
    **overrides (MpcConfig.from_plan) passes them on to its class, so they
    must be parameters of the class."""
    params = inspect.signature(fn).parameters.values()
    names = {p.name for p in params if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)}
    if any(p.kind is p.VAR_KEYWORD for p in params):
        owner = getattr(fn, "__self__", None)
        assert inspect.isclass(owner), f"{fn.__qualname__} takes **kwargs"
        names |= accepted_keywords(owner)
    return names


def test_workload_keywords_accepted():
    _, calls, _ = wallhopper_uses()
    assert ("wallhopper.mpc", "MpcConfig.from_plan", "max_iter") in calls
    unknown = [f"{module}.{dotted}({kw}=)" for module, dotted, kw in calls
               if kw not in accepted_keywords(lookup(module, dotted))]
    assert not unknown, f"keywords perfbench/ passes are gone: {unknown}"


def test_workload_positional_counts_accepted():
    _, _, arities = wallhopper_uses()
    assert ("wallhopper.integrator", "rollout_arrays", 5) in arities
    refused = []
    for module, dotted, n in arities:
        try:
            inspect.signature(lookup(module, dotted)).bind_partial(*range(n))
        except TypeError:
            refused.append(f"{module}.{dotted} with {n} positional arguments")
    assert not refused, f"calls perfbench/ makes no longer bind: {refused}"
