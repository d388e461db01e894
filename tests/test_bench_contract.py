"""The benchmark in perfbench/ hooks into the package by name.  Check that
every name it patches or calls still exists, so removing one fails here
and not only in the benchmark's own smoke tests."""

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


def test_workload_entry_points_exist():
    from wallhopper import integrator, mpc, planner

    integrator.IntegratorConfig()
    for fn in (integrator.step_arrays, integrator.rollout_arrays,
               planner.ShootingProblem, mpc.MpcConfig.from_plan,
               mpc.TrackingController):
        assert callable(fn)
