"""One benchmark workload, run in its own process by ``run.py``.

    python3 perfbench/workload.py --workload plan --seed 1 --seconds 20 --trace 0

Prints two JSON lines: run details (environment, deterministic outputs,
failures with their causes, known defects), then the result object.
Set-up time is counted from the first statement, before numpy is imported.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import optimize  # noqa: E402
from scipy.spatial import ConvexHull  # noqa: E402

from wallhopper import integrator, mpc, planner, simulator, stability  # noqa: E402
from wallhopper.model import Scenario, position_arrays  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
TRACK_PLAN = HERE / "track_plan.json"
OUT_DIR = HERE / "out"

# The ROADMAP benchmark jump.
P0 = np.array([0.2, 2.5, -6.0])
P_TG = np.array([0.2, 4.0, -4.0])
# Half-width of the seeded target offset (dy, dz).  Over +-0.5 m SLSQP
# needs anywhere from 78 to its cap of 150 iterations, which would make
# the plan time depend more on the seed than on the code.
PLAN_OFFSET = 0.05

# Landing scenario and pull-off direction of tests/test_stability.py.
LAND = Scenario(mass=15.0, f_leg_max=600.0, f_r_max=300.0)
V_HAT = np.array([-1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
MUS = (0.8, 0.5, 0.3)
MU_FRICTIONLESS = 1e-9
ORACLE_CELLS = 12
ORACLE_TOL = 1e-6
# The oracle's force-existence LP is posed with tight tolerances: at
# HiGHS defaults equilibrium_lp accepts wrenches about 2e-4 N outside the
# polytope, too loose to check margins to ORACLE_TOL.
ORACLE_LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                     "dual_feasibility_tolerance": 1e-10}

STEP_PERCENTILES = (50, 80, 90, 95, 99)
MIN_BEYOND_TAIL = 10

PROBE_PERIOD_S = 0.25
PROBE_NEAREST = 12
# Time of each part of the reference job on the reference machine.
PROBE_REF_S = {"loop": 0.0034, "hull": 0.0036}


class SpeedProbe:
    """Follows how fast the machine runs while a workload is measured.

    The speed of a shared machine drifts by +-20 % within seconds, which
    would swamp the differences the benchmark exists to find.  At least
    every PROBE_PERIOD_S the step hooks run a fixed reference job that
    uses no wallhopper code, made of the parts named: "loop", small numpy
    operations in a Python loop, and "hull", one 6-D Qhull hull.
    Intervals are read on ``clock``, which stops while the probe runs.
    ``scaled`` converts an interval to seconds of a machine on which the
    job takes the sum of its parts' PROBE_REF_S: the interval is cut at
    the probes run inside it, and each piece is scaled by the median of
    the PROBE_NEAREST probes nearest to it.
    """

    def __init__(self, parts):
        self.parts = parts
        self.ref_s = sum(PROBE_REF_S[p] for p in parts)
        rng = np.random.default_rng(0)
        self.A = rng.normal(size=(6, 6))
        self.v = rng.normal(size=6)
        self.points = rng.normal(size=(40, 6))
        self.at = []          # clock reading when each probe ran
        self.took = []        # its wall time
        self.spent = 0.0
        self._next = 0.0

    def run(self):
        t0 = time.perf_counter()
        if "loop" in self.parts:
            for _ in range(600):
                w = np.sin(self.v) * np.cos(self.v) + self.A @ self.v
                w.sum()
        if "hull" in self.parts:
            ConvexHull(self.points)
        t1 = time.perf_counter()
        self.at.append(t0 - self.spent)
        self.took.append(t1 - t0)
        self.spent += t1 - t0
        self._next = t1 + PROBE_PERIOD_S

    def poll(self):
        if time.perf_counter() >= self._next:
            self.run()

    def clock(self):
        return time.perf_counter() - self.spent

    def scaled(self, a, b):
        at, took = np.asarray(self.at), np.asarray(self.took)
        cuts = np.concatenate([[a], at[(at > a) & (at < b)], [b]])
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            near = np.argsort(np.abs(at - 0.5 * (lo + hi)))[:PROBE_NEAREST]
            total += (hi - lo) / float(np.median(took[near]))
        return total * self.ref_s


def polled(owner, attr, probe):
    """Replace owner.attr with a wrapper that polls the probe first."""
    fn = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        probe.poll()
        return fn(*args, **kwargs)

    setattr(owner, attr, wrapper)


def timed(owner, attr, probe, sink, record=None):
    """Replace owner.attr with a wrapper that polls the probe, then appends
    the call's clock interval (or ``record(start, end, result)``) to sink."""
    fn = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        probe.poll()
        t0 = probe.clock()
        result = fn(*args, **kwargs)
        t1 = probe.clock()
        sink.append((t0, t1) if record is None else record(t0, t1, result))
        return result

    setattr(owner, attr, wrapper)


def stamped(owner, attr, probe, sink):
    """Replace owner.attr with a wrapper that polls the probe, then appends
    the clock reading to sink."""
    fn = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        probe.poll()
        sink.append(probe.clock())
        return fn(*args, **kwargs)

    setattr(owner, attr, wrapper)


class Outcome:
    """One timed iteration: task and step clock intervals, operations and
    failures, and the outputs that must repeat bit for bit."""

    def __init__(self, tasks, steps, attempted, failures, outputs, data=None):
        self.tasks = tasks
        self.steps = list(steps)
        self.attempted = attempted
        self.failures = failures
        self.outputs = outputs
        self.data = data


# -- plan -------------------------------------------------------------------

class PlanWorkload:
    """plan_jump from P0 to a seeded target near the ROADMAP jump."""

    PROBE_PARTS = ("loop", "hull")

    def __init__(self, seed, smoke, probe):
        self.probe = probe
        rng = np.random.default_rng(seed)
        dy, dz = rng.uniform(-PLAN_OFFSET, PLAN_OFFSET, 2)
        self.p_tg = P_TG + np.array([0.0, dy, dz])
        self.scen = Scenario()
        self.weights = planner.PlannerWeights(n_knots=10 if smoke else 30)
        # Warm-up: one value evaluation through the planner's transcription.
        prob = planner.ShootingProblem(P0, self.p_tg, self.scen, self.weights,
                                       integrator.IntegratorConfig())
        prob.cost_and_constraints(prob.initial_guess())
        # SLSQP evaluates the gradient once per iteration, so the gaps
        # between gradient calls are the iteration latencies.
        self.stamps = []
        stamped(planner.ShootingProblem, "gradient", probe, self.stamps)

    def run_once(self):
        self.stamps.clear()
        t0 = self.probe.clock()
        try:
            plan = planner.plan_jump(P0, self.p_tg, self.scen, self.weights)
        except planner.PlanningError as exc:
            return Outcome([(t0, self.probe.clock())], [], 1,
                           [{"cause": "PlanningError", "detail": str(exc)}], None)
        task = (t0, self.probe.clock())
        failures = []
        if plan.terminal_error > self.weights.slack:
            failures.append({"cause": "terminal_error",
                             "detail": f"{plan.terminal_error:.6f} m > slack"})
        outputs = {"target": self.p_tg.tolist(),
                   "n_iter": plan.solve_info["n_iter"],
                   "objective": plan.solve_info["objective"],
                   "terminal_error": plan.terminal_error}
        steps = list(zip(self.stamps[:-1], self.stamps[1:]))
        return Outcome([task], steps, 1, failures, outputs, plan)

    def check(self, outcome):
        plan = outcome.data
        audit = planner.audit_plan(plan, self.scen, self.weights)
        problems = []
        if audit["max_violation"] > 1e-6:
            problems.append(f"plan audit max_violation {audit['max_violation']:.3e} > 1e-6")
        if plan.terminal_error > self.weights.slack:
            problems.append("plan terminal error exceeds the slack")
        return problems

    def known_defects(self):
        return {}


# -- track ------------------------------------------------------------------

def load_track_plan(scen):
    """The frozen ROADMAP-jump plan, audited and re-rolled.

    Raises if the stored plan fails the audit or if re-integrating its
    stored inputs no longer reproduces its stored knot positions (for
    example after a change to the model)."""
    d = json.loads(TRACK_PLAN.read_text())
    arr = {k: np.array(d[k], dtype=float) for k in
           ("f_leg", "rope_left", "rope_right", "states", "positions", "p0",
            "p_target", "rest_state")}
    plan = planner.JumpPlan(t_f=float(d["t_f"]), **arr)
    audit = planner.audit_plan(plan, scen)
    if audit["max_violation"] > 1e-6:
        raise RuntimeError(f"frozen track plan fails its audit: {audit}")
    cfg = integrator.IntegratorConfig()
    u_thrust = np.zeros(6)
    u_thrust[2:5] = plan.f_leg
    x_lift = integrator.step_arrays(plan.rest_state, u_thrust, scen.t_th, cfg, scen)
    states = integrator.rollout_arrays(x_lift, plan.input_schedule(), plan.dt, cfg, scen)
    pos = position_arrays(states[:, 0], states[:, 1], states[:, 2], scen.d_a)
    drift = float(np.max(np.abs(pos - plan.positions)))
    if not drift <= 1e-9:
        raise RuntimeError(f"frozen track plan drifted: re-rolled positions differ "
                           f"by {drift:.3e} m; regenerate it with make_track_plan.py")
    return plan


class TrackWorkload:
    """MPC episodes (undisturbed and under a constant -20 N z force) and a
    seeded open-loop robustness batch on the frozen plan."""

    PROBE_PARTS = ("loop", "hull")

    def __init__(self, seed, smoke, probe):
        self.seed = seed
        self.probe = probe
        self.scen = Scenario()
        self.plan = load_track_plan(self.scen)
        self.mpc_cfg = (mpc.MpcConfig.from_plan(self.plan, n_horizon=2, max_iter=2)
                        if smoke else None)
        self.n_runs = 2 if smoke else 10
        # Warm-up: one MPC tick on a throwaway controller.
        mpc.TrackingController(self.plan, self.scen, self.mpc_cfg).command(
            self.plan.states[0], 0)
        self.ticks = []
        timed(mpc.TrackingController, "command", probe, self.ticks,
              lambda t0, t1, res: (t0, t1, bool(res[1].degraded)))
        polled(simulator, "run_episode", probe)

    def run_once(self):
        self.ticks.clear()
        failures, outputs = [], {}
        episodes = (("mpc_undisturbed", None),
                    ("mpc_disturbed", simulator.DisturbanceSpec("constant", [0.0, 0.0, -20.0])))
        for name, disturbance in episodes:
            n_ticks = len(self.ticks)
            try:
                trace = simulator.run_episode(self.plan, self.scen, controller="mpc",
                                              disturbance=disturbance,
                                              mpc_cfg=self.mpc_cfg)
            except simulator.EpisodeAborted as exc:
                failures.append({"cause": "EpisodeAborted", "detail": f"{name}: {exc}"})
                outputs[name] = None
                continue
            outputs[name] = trace.landing_error_norm
            degraded = sum(d for _, _, d in self.ticks[n_ticks:])
            if degraded:
                failures.append({"cause": "degraded_tick",
                                 "detail": f"{name}: {degraded} degraded ticks"})
        t0 = self.probe.clock()
        stats = simulator.batch_robustness(self.plan, self.n_runs, self.scen,
                                           seed=self.seed, controller="open_loop")
        task = (t0, self.probe.clock())
        failures += [{"cause": "robustness_run_failed", "detail": "EpisodeAborted"}
                     ] * stats["failures"]
        outputs["robustness_interval_errors"] = [iv["mean_error"] for iv in stats["intervals"]]
        outputs["robustness_interval_runs"] = [iv["n"] for iv in stats["intervals"]]
        return Outcome([task], [(a, b) for a, b, _ in self.ticks], 2 + self.n_runs,
                       failures, outputs)

    def check(self, outcome):
        out = outcome.outputs
        problems = []
        for name in ("mpc_undisturbed", "mpc_disturbed"):
            if out[name] is None or not np.isfinite(out[name]):
                problems.append(f"{name} landing error is not finite")
        errs = [e for e, n in zip(out["robustness_interval_errors"],
                                  out["robustness_interval_runs"]) if n > 0]
        if not np.all(np.isfinite(errs)):
            problems.append("a robustness run has a non-finite landing error")
        return problems

    def known_defects(self):
        """Open-loop landing probe: today it ends without touch-down because
        the planner and the landing phase use different wall models."""
        trace = simulator.landing_episode(self.plan, self.scen, controller="open_loop")
        return {"landing_probe_events": sorted(trace.events)}


# -- stability --------------------------------------------------------------

def force_existence_lp(cs):
    """Contact-force LP independent of the FWP: raw wheel forces in their
    friction pyramids under the normal-force cap, rope tensions in
    [0, f_r_max].  Returns a membership test for wrenches."""
    n = cs.contact_normal
    t1, t2 = stability.tangent_frame(n)
    rows, rhs = [], []
    for base in (0, 3):
        for t in (t1, t2):
            for sign in (1.0, -1.0):
                row = np.zeros(8)
                row[base:base + 3] = sign * t - cs.mu * n
                rows.append(row)
                rhs.append(0.0)
        row = np.zeros(8)
        row[base:base + 3] = n
        rows.append(row)
        rhs.append(cs.f_leg_max)
    A_eq = np.zeros((6, 8))
    for base, point in ((0, cs.wheel_left), (3, cs.wheel_right)):
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            A_eq[:3, base + j] = e
            A_eq[3:, base + j] = np.cross(point, e)
    for col, (axis, hoist) in enumerate(((cs.axis_left, cs.hoist_left),
                                         (cs.axis_right, cs.hoist_right))):
        A_eq[:3, 6 + col] = -axis
        A_eq[3:, 6 + col] = np.cross(hoist, -axis)
    bounds = [(None, None)] * 6 + [(0.0, cs.f_r_max)] * 2

    def feasible(w):
        res = optimize.linprog(np.zeros(8), A_ub=np.array(rows), b_ub=np.array(rhs),
                               A_eq=A_eq, b_eq=w, bounds=bounds, method="highs",
                               options=ORACLE_LP_OPTIONS)
        return res.status == 0

    return feasible


def oracle_margin(p, scen):
    """Margin along V_HAT by bisection on force existence, or None when the
    load wrench itself cannot be balanced."""
    feasible = force_existence_lp(stability.contact_geometry(p, scen))
    w0 = stability.load_wrench(scen)
    if not feasible(w0):
        return None
    lo, hi = 0.0, 1.0
    while feasible(w0 + hi * V_HAT):
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if feasible(w0 + mid * V_HAT):
            lo = mid
        else:
            hi = mid
    return lo


class StabilityWorkload:
    """Directional margin heatmaps over a 12x12 wall grid at three
    friction coefficients."""

    # Cell times follow a Qhull-only probe closely; adding the numpy loop
    # made the scaled times as noisy as the raw ones.
    PROBE_PARTS = ("hull",)

    def __init__(self, seed, smoke, probe):
        self.probe = probe
        n = 2 if smoke else 12
        self.grid = stability.HeatmapGrid.regular(ny=n, nz=n, x=1.5)
        self.scens = [LAND.with_(mu=mu) for mu in MUS]
        rng = np.random.default_rng(seed)
        n_cells = len(MUS) * n * n
        picks = rng.choice(n_cells, size=min(ORACLE_CELLS, n_cells), replace=False)
        self.oracle_cells = [np.unravel_index(k, (len(MUS), n, n)) for k in sorted(picks)]
        # Warm-up: one cell.
        stability.margin_at(self.cell_position(0, 0), V_HAT, self.scens[0])
        self.cells = []
        timed(stability, "margin_at", probe, self.cells)

    def cell_position(self, i, j):
        return np.array([self.grid.x, self.grid.y_values[i], self.grid.z_values[j]])

    def run_once(self):
        self.cells.clear()
        t0 = self.probe.clock()
        maps = [stability.margin_heatmap(self.grid, V_HAT, scen) for scen in self.scens]
        task = (t0, self.probe.clock())
        failures = [{"cause": "cell_error", "detail": f"mu={mu} cell ({i},{j}): {msg}"}
                    for mu, hm in zip(MUS, maps) for i, j, msg in hm.errors]
        outputs = {"gamma_sha256": [hashlib.sha256(hm.gamma.tobytes()).hexdigest()
                                    for hm in maps],
                   "feasible_cells": [int(hm.feasible.sum()) for hm in maps],
                   "errored_cells": [[i, j] for hm in maps for i, j, _ in hm.errors]}
        return Outcome([task], self.cells, sum(hm.gamma.size for hm in maps),
                       failures, outputs, maps)

    def check(self, outcome):
        problems = []
        for m, i, j in self.oracle_cells:
            hm = outcome.data[m]
            expected = oracle_margin(self.cell_position(i, j), self.scens[m])
            where = f"mu={MUS[m]} cell ({i},{j})"
            if (expected is not None) != bool(hm.feasible[i, j]):
                problems.append(f"{where}: verdict differs from the force-existence oracle")
            elif expected is not None and not abs(hm.gamma[i, j] - expected) <= ORACLE_TOL:
                problems.append(f"{where}: margin {hm.gamma[i, j]!r} vs oracle {expected!r}")
        return problems

    def known_defects(self):
        """Near-frictionless heatmap on the 8x8 grid: Qhull fails on some
        cells of the flattened wrench polytope."""
        grid = stability.HeatmapGrid.regular(ny=8, nz=8, x=1.5)
        hm = stability.margin_heatmap(grid, V_HAT, LAND.with_(mu=MU_FRICTIONLESS))
        return {"mu_1e-9_cells": int(hm.gamma.size),
                "mu_1e-9_errored_cells": [[i, j] for i, j, _ in hm.errors],
                "mu_1e-9_qhull_errors": sum("QH" in msg for _, _, msg in hm.errors)}


WORKLOADS = {"plan": PlanWorkload, "track": TrackWorkload,
             "stability": StabilityWorkload}


# -- run ----------------------------------------------------------------------

def percentile_tail(n: int) -> int:
    """Highest standard percentile with at least MIN_BEYOND_TAIL of n
    samples beyond it."""
    fits = [q for q in STEP_PERCENTILES if n * (100 - q) / 100 >= MIN_BEYOND_TAIL]
    return fits[-1] if fits else STEP_PERCENTILES[0]


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def repeat(workload, probe, seconds, tracer=None):
    """Run iterations while the next one is expected to end within
    ``seconds`` of the first one's start; at least one."""
    outcomes = []
    t0 = time.perf_counter()
    while True:
        probe.run()
        if tracer is not None:
            tracer.enabled = True
        outcomes.append(workload.run_once())
        if tracer is not None:
            tracer.enabled = False
        probe.run()
        elapsed = time.perf_counter() - t0
        if elapsed * (len(outcomes) + 1) / len(outcomes) > seconds:
            return outcomes


def timings(outcomes, probe):
    """(median task seconds, step latencies in ms), scaled by the probe."""
    steps = np.array([probe.scaled(a, b) for o in outcomes for a, b in o.steps]) * 1e3
    tasks = [probe.scaled(a, b) for o in outcomes for a, b in o.tasks]
    return float(np.median(tasks)), steps


def run(args):
    cls = WORKLOADS[args.workload]
    probe = SpeedProbe(cls.PROBE_PARTS)
    workload = cls(args.seed, args.smoke, probe)
    t_setup = time.perf_counter()
    for _ in range(PROBE_NEAREST):
        probe.run()
    setup_s = probe.scaled(T_START, t_setup)     # the clock had not stopped yet
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    outcomes = repeat(workload, probe, args.seconds, tracer)
    if tracer is not None:
        tracer.restore()

    # Correctness, outside the timed region.
    problems = []
    first = outcomes[0]
    if first.outputs is not None:
        problems += workload.check(first)
    expected = json.dumps(first.outputs, sort_keys=True)
    if any(json.dumps(o.outputs, sort_keys=True) != expected for o in outcomes):
        problems.append("outputs differ between iterations")
    known = workload.known_defects()

    task_s, steps = timings(outcomes, probe)
    if steps.size == 0:
        problems.append("no step latencies recorded")
        steps = np.full(1, np.nan)
    tail_q = percentile_tail(steps.size)
    step_p50 = float(np.median(steps))
    failures = [f for o in outcomes for f in o.failures]

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "task_s": (task_s, "s"),
            "step_ms_p50": (step_p50, "ms"),
            "step_ms_tail": (float(np.percentile(steps, tail_q)), "ms"),
        }
    else:
        values = tracing.layer_metrics(tracer)
        for name in tracing.BYPASSED[args.workload]:
            if values[name] != 0:
                problems.append(f"bypassed layer metric {name} = {values[name]}")
        spans = len(tracer.start)
        values.update({"trace.spans": spans,
                       "trace.task_s": task_s, "trace.step_ms_p50": step_p50,
                       "trace.overhead_s": spans * tracing.span_cost_s() / len(outcomes)})
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
        metrics = {name: (values[name], unit) for name, unit, _ in tracing.PER_LAYER}

    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "smoke": args.smoke, "iterations": len(outcomes),
               "steps": int(steps.size), "step_tail_percentile": tail_q,
               "speed_probe": {"runs": len(probe.took),
                               "median_s": float(np.median(probe.took)),
                               "unscaled_task_s": float(np.median(
                                   [b - a for o in outcomes for a, b in o.tasks])),
                               "unscaled_step_ms_p50": 1e3 * float(np.median(
                                   [b - a for o in outcomes for a, b in o.steps]))},
               "environment": environment(), "outputs": first.outputs,
               "known_defects": known, "failures": failures, "problems": problems}
    result = {"correct": not problems,
              "attempted": sum(o.attempted for o in outcomes),
              "failed": len(failures),
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes: 10-knot plan, 2x2 grid, 2-knot MPC horizon")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
