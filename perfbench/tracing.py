"""Span and counter recorder for the traced benchmark run.

``instrument`` replaces the public functions of each ``wallhopper`` module
with recording wrappers.  The package imports names with
``from .x import y``, so each wrapper is installed in the module that
*calls* the function; patching only the defining module would record
nothing.  Every call becomes one span (name, start, end, parent) kept in
flat arrays and written out when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

# (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = [
    ("model.deriv_single.calls", "count", "lower"),
    ("model.deriv_single.self_s", "s", "lower"),
    ("model.deriv_batch.calls", "count", "lower"),
    ("model.deriv_batch.rows", "rows", "lower"),
    ("model.deriv_batch.self_s", "s", "lower"),
    ("integrator.rollout.calls", "count", "lower"),
    ("integrator.rollout.rows", "rows", "lower"),
    ("integrator.rollout.self_s", "s", "lower"),
    ("integrator.sim_step.calls", "count", "lower"),
    ("integrator.sim_step.self_s", "s", "lower"),
    ("planner.value_evals", "count", "lower"),
    ("planner.value.s", "s", "lower"),
    ("planner.gradient_evals", "count", "lower"),
    ("planner.gradient.s", "s", "lower"),
    ("planner.value_cache_hit_ratio", "1", "higher"),
    ("solvers.slsqp.iters", "count", "lower"),
    ("solvers.slsqp.self_s", "s", "lower"),
    ("solvers.lbfgsb.iters", "count", "lower"),
    ("solvers.lbfgsb.self_s", "s", "lower"),
    ("solvers.kkt_fit.calls", "count", "lower"),
    ("solvers.kkt_fit.s", "s", "lower"),
    ("solvers.lp.calls", "count", "lower"),
    ("solvers.lp.s", "s", "lower"),
    ("mpc.ticks", "count", "lower"),
    ("mpc.tick.self_s", "s", "lower"),
    ("mpc.rollout_rows_per_tick", "rows", "lower"),
    ("mpc.optimal_ticks", "count", "higher"),
    ("mpc.degraded_ticks", "count", "lower"),
    ("simulator.episodes", "count", "lower"),
    ("simulator.episode.self_s", "s", "lower"),
    ("simulator.aborted", "count", "lower"),
    ("simulator.no_touch_down", "count", "lower"),
    ("polytopes.hull.calls", "count", "lower"),
    ("polytopes.hull.s", "s", "lower"),
    ("polytopes.v_to_h.s", "s", "lower"),
    ("polytopes.facets_per_cell", "facets", "lower"),
    ("polytopes.margin.self_s", "s", "lower"),
    ("stability.cells", "count", "lower"),
    ("stability.fwp.s", "s", "lower"),
    ("stability.cell.self_s", "s", "lower"),
    ("stability.errors.qhull", "count", "lower"),
    ("stability.errors.other", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.task_s", "s", "lower"),
    ("trace.step_ms_p50", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Metrics that must read zero on a workload that bypasses the layer.
BYPASSED = {
    "plan": ["mpc.ticks", "simulator.episodes", "polytopes.hull.calls",
             "solvers.lp.calls", "stability.cells"],
    "track": ["planner.value_evals", "planner.gradient_evals",
              "solvers.slsqp.iters", "polytopes.hull.calls", "stability.cells"],
    "stability": ["model.deriv_single.calls", "model.deriv_batch.calls",
                  "integrator.rollout.calls", "integrator.sim_step.calls",
                  "planner.value_evals", "mpc.ticks", "simulator.episodes"],
}


class Tracer:
    """Records spans while ``enabled``; wrappers pass straight through
    otherwise."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self._patched: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, after=None):
        """Span around fn.  name is a string or a function of the call's
        positional arguments; after(counters, args, result, exc) updates
        counters once the call returns or raises."""
        name_of = name if callable(name) else (lambda args: name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(self._id(name_of(args)))
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if after is not None:
                    after(self.counters, args, None, exc)
                raise
            finally:
                self.end[idx] = perf()
                self._stack.pop()
            if after is not None:
                after(self.counters, args, result, None)
            return result

        return traced

    def patch(self, owner, attr: str, name, after=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    def count(self, owner, attr: str, counter: str) -> None:
        """Count calls without a span."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))

        def counted(*args, **kwargs):
            if self.enabled:
                self.counters[counter] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        if not self.start:
            return {}
        k = len(self.names)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, dur, minlength=k)
        own = np.bincount(ids, dur - child, minlength=k)
        return {n: (int(calls[i]), float(incl[i]), float(own[i]))
                for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            name_id=np.frombuffer(self.name_id, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int64),
                            start=np.frombuffer(self.start, dtype=float),
                            end=np.frombuffer(self.end, dtype=float))


def span_cost_s(n: int = 2000) -> float:
    """Measured extra time of one span: single-state calls of the model
    kernel, the most frequent span, with every wrapper installed and
    recording, against bare calls (best of three rounds each)."""
    from wallhopper import integrator
    from wallhopper.model import Scenario

    scen = Scenario()
    x = np.array([1.0, 3.0, 3.0, 0.1, 0.1, 0.1])
    u = np.zeros(6)

    def best(fn):
        rounds = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(n):
                fn(x, u, scen)
            rounds.append(time.perf_counter() - t0)
        return min(rounds)

    bare = best(integrator.state_derivative_arrays)
    tr = Tracer()
    instrument(tr)
    tr.enabled = True
    try:
        traced = best(integrator.state_derivative_arrays)
    finally:
        tr.restore()
    return max(traced - bare, 0.0) / n


def instrument(tr: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from scipy.spatial import QhullError

    from wallhopper import (integrator, mpc, planner, polytopes, simulator,
                            solvers, stability)

    # Hooks run on every call, so they use array attributes only.
    def rows(x) -> int:
        return x.size // x.shape[-1]

    def deriv_rows(c, args, res, exc):
        if args[0].ndim > 1:
            c["model.deriv_batch.rows"] += rows(args[0])

    tr.patch(integrator, "state_derivative_arrays",
             lambda a: "model.deriv_single" if a[0].ndim == 1 else "model.deriv_batch",
             deriv_rows)

    def rollout_rows(c, args, res, exc):
        c["integrator.rollout.rows"] += rows(np.asarray(args[0]))

    def mpc_rollout_rows(c, args, res, exc):
        rollout_rows(c, args, res, exc)
        c["mpc.rollout_rows"] += rows(np.asarray(args[0]))

    tr.patch(planner, "rollout_arrays", "integrator.rollout", rollout_rows)
    tr.patch(mpc, "rollout_arrays", "integrator.rollout", mpc_rollout_rows)
    tr.patch(simulator, "step_arrays", "integrator.sim_step")

    # One-point evaluations are line-search values; batched ones are the
    # forward-difference gradient.
    tr.patch(planner.ShootingProblem, "cost_and_constraints",
             lambda a: "planner.value" if np.ndim(a[1]) == 1 else "planner.gradient")
    for attr in ("objective", "constraints", "gradient", "constraints_jac"):
        tr.count(planner.ShootingProblem, attr, "planner.lookups")

    def nlp_name(args) -> str:
        return "solvers.slsqp" if args[0].constraints is not None else "solvers.lbfgsb"

    def nlp_iters(c, args, res, exc):
        if res is not None:
            c[nlp_name(args) + ".iters"] += res.n_iter

    tr.patch(planner, "solve_nlp", nlp_name, nlp_iters)
    tr.patch(mpc, "solve_nlp", nlp_name, nlp_iters)
    tr.patch(solvers, "active_set_multipliers", "solvers.kkt_fit")
    tr.patch(polytopes, "solve_lp", "solvers.lp")

    def tick(c, args, res, exc):
        if res is not None:
            sol = res[1]
            c["mpc.degraded_ticks"] += bool(sol.degraded)
            c["mpc.optimal_ticks"] += sol.diagnostics.get("status") == "optimal"

    tr.patch(mpc.TrackingController, "command", "mpc.tick", tick)

    def episode(c, args, res, exc):
        if isinstance(exc, simulator.EpisodeAborted):
            c["simulator.aborted"] += 1
        elif res is not None and "no_touch_down" in res.events:
            c["simulator.no_touch_down"] += 1

    tr.patch(simulator, "run_episode", "simulator.episode", episode)
    tr.patch(simulator, "landing_episode", "simulator.episode", episode)

    def facets(c, args, res, exc):
        if res is not None:
            c["polytopes.facets"] += res.n_rows

    def cell(c, args, res, exc):
        if exc is not None:
            qhull = isinstance(exc, QhullError) or isinstance(exc.__cause__, QhullError)
            c["stability.errors.qhull" if qhull else "stability.errors.other"] += 1

    tr.patch(stability, "convex_hull", "polytopes.hull")
    tr.patch(stability, "v_to_h", "polytopes.v_to_h", facets)
    tr.patch(stability, "directional_margin", "polytopes.margin")
    tr.patch(stability, "build_fwp", "stability.fwp")
    tr.patch(stability, "margin_at", "stability.cell", cell)


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer values from the recorded spans and counters (no
    ``trace.*`` entries; the caller adds those)."""
    tot = tr.totals()
    c = tr.counters

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    ticks = calls("mpc.tick")
    values = {
        "model.deriv_single.calls": calls("model.deriv_single"),
        "model.deriv_single.self_s": own("model.deriv_single"),
        "model.deriv_batch.calls": calls("model.deriv_batch"),
        "model.deriv_batch.rows": c["model.deriv_batch.rows"],
        "model.deriv_batch.self_s": own("model.deriv_batch"),
        "integrator.rollout.calls": calls("integrator.rollout"),
        "integrator.rollout.rows": c["integrator.rollout.rows"],
        "integrator.rollout.self_s": own("integrator.rollout"),
        "integrator.sim_step.calls": calls("integrator.sim_step"),
        "integrator.sim_step.self_s": own("integrator.sim_step"),
        "planner.value_evals": calls("planner.value"),
        "planner.value.s": incl("planner.value"),
        "planner.gradient_evals": calls("planner.gradient"),
        "planner.gradient.s": incl("planner.gradient"),
        "planner.value_cache_hit_ratio":
            ratio(c["planner.lookups"] - calls("planner.value"), c["planner.lookups"]),
        "solvers.slsqp.iters": c["solvers.slsqp.iters"],
        "solvers.slsqp.self_s": own("solvers.slsqp"),
        "solvers.lbfgsb.iters": c["solvers.lbfgsb.iters"],
        "solvers.lbfgsb.self_s": own("solvers.lbfgsb"),
        "solvers.kkt_fit.calls": calls("solvers.kkt_fit"),
        "solvers.kkt_fit.s": incl("solvers.kkt_fit"),
        "solvers.lp.calls": calls("solvers.lp"),
        "solvers.lp.s": incl("solvers.lp"),
        "mpc.ticks": ticks,
        "mpc.tick.self_s": own("mpc.tick"),
        "mpc.rollout_rows_per_tick": ratio(c["mpc.rollout_rows"], ticks),
        "mpc.optimal_ticks": c["mpc.optimal_ticks"],
        "mpc.degraded_ticks": c["mpc.degraded_ticks"],
        "simulator.episodes": calls("simulator.episode"),
        "simulator.episode.self_s": own("simulator.episode"),
        "simulator.aborted": c["simulator.aborted"],
        "simulator.no_touch_down": c["simulator.no_touch_down"],
        "polytopes.hull.calls": calls("polytopes.hull"),
        "polytopes.hull.s": incl("polytopes.hull"),
        "polytopes.v_to_h.s": incl("polytopes.v_to_h"),
        "polytopes.facets_per_cell": ratio(c["polytopes.facets"], calls("polytopes.v_to_h")),
        "polytopes.margin.self_s": own("polytopes.margin"),
        "stability.cells": calls("stability.cell"),
        "stability.fwp.s": incl("stability.fwp"),
        "stability.cell.self_s": own("stability.cell"),
        "stability.errors.qhull": c["stability.errors.qhull"],
        "stability.errors.other": c["stability.errors.other"],
    }
    return {k: float(v) for k, v in values.items()}
