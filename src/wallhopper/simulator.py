"""Closed-loop episode simulation.

run_episode and landing_episode are thin wrappers around one phase
machine, _episode, which walks the plan's step schedule from rest
(JumpPlan.schedule):

- thrust: step 0, the planned leg force with the ropes slack;
- flight: controller tick k holds step k + 1 for its length: its planned
  input (open loop) or the MPC command (from the state with measurement
  noise added), while the true dynamics, disturbance force included,
  integrates in steps of about dt_sim, sized so that they divide each
  step exactly; the flight ends at t_th + t_f;
- hold (landing runs only): a run still short of the wheel plane at t_f
  holds the last step's rope forces plus gravity compensation, for at
  most MAX_HOLD;
- contact (landing runs only): after touch-down the wall-normal motion
  follows the landing impedance (LANDING_STIFFNESS, critically damped) for
  SETTLE_TIME and the wheels absorb lateral residuals; each row records
  the rates q_dot = A_d(q)^-1 n s_dot of that normal motion.

Each stretch under one held input (the thrust, a control tick, a control
period of the hold) is one rollout_arrays call, which steps one state on
Python floats; the touch-down watch scans the new states on floats and
drops the rest of the stretch after a touch-down.  The disturbance F,
timed from lift-off, acts in the flight and the hold as a force added to
the external force u[2:5] of the stepped input (zero in every flight and
hold input), and in the contact phase as n.F on the normal motion.  Each
row is a tuple (t, x, u, force, phase): the state at t, the controller's
input held from it, the force acting at t (None where none does) and the
phase; the trace's inputs and disturbance keep the input and the force
apart.

run_episode scores e_a, the target minus the CoM position, at
t_th + t_f.  landing_episode arms the touch-down watch at lift-off and
scores e_a at touch-down, or at the end of the hold.

Events, name -> time: lift_off; horizon_end (the flight ran to t_f);
early_touch_down (touch-down during the flight), delayed_touch_down
(during the hold) or no_touch_down; settled (end of the contact phase);
wall_crossing (first sample with the CoM behind the wall plane,
n.p < 0).  A non-finite state raises EpisodeAborted at the failing step;
its trace ends on the state that step started from and carries the event
aborted.  A wall crossing is recorded, not aborted.  Every row's Cartesian velocity is
A_d q_dot.  The meta of an MPC episode holds one entry per tick in the
arrays tick_s, step_s, n_iter, status and degraded (MpcSolution.diagnostics).
Rows keep references, not copies: each step's state is a view of its
stretch's states, and the input and disturbance held over a tick are
shared by its rows; nothing may mutate them later.

An episode without measurement noise can also start at a control tick of
another flight, a _TickStart, instead of at rest: it copies that flight's
rows and MPC solutions before the tick, resumes from the time and state of
the tick's first row, and hands the last solution to its controller as the
warm start.  Up to a tick at which neither flight has felt a disturbance,
the two are the same flight step for step, so the episode is bit-identical
to one flown from rest.  batch_robustness flies the undisturbed prefix
that its runs share once this way.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from itertools import repeat
from numbers import Integral

import numpy as np

from .integrator import IntegratorConfig, rollout_arrays
# No longer called here: the benchmark's tracer (perfbench/tracing.py)
# still patches simulator.step_arrays by name.
from .integrator import step_arrays  # noqa: F401
from .mpc import MpcConfig, TrackingController
from .model import (Scenario, _chord_and_radius, inverse_kinematics, jacobian_arrays,
                    position_arrays, rope_axes, static_rope_pull)
from .planner import JumpPlan

PHASE_THRUST = 0
PHASE_FLIGHT = 1
PHASE_HOLD = 2          # past t_f, waiting for delayed touch-down
PHASE_CONTACT = 3

LANDING_STIFFNESS = 60.0    # K_L (N/m), critically damped for the mass
SETTLE_TIME = 3.0           # contact phase recorded after touch-down (s)
MAX_HOLD = 2.0              # cap on the delayed touch-down wait (s)
AMPLITUDE = (25.0, 50.0)    # range of batch_robustness impulses (N)


@dataclass(frozen=True)
class DisturbanceSpec:
    kind: str = "none"               # "none" | "constant" | "impulsive"
    vector: np.ndarray = field(default_factory=lambda: np.zeros(3))
    t_start: float = 0.0             # offset after lift-off (impulsive)
    duration: float = 0.2            # persistence of the impulse (s)

    def __post_init__(self):
        object.__setattr__(self, "vector", np.asarray(self.vector, dtype=float))
        if self.kind not in ("none", "constant", "impulsive"):
            raise ValueError("kind must be none, constant or impulsive")
        if self.vector.shape != (3,) or not np.all(np.isfinite(self.vector)):
            raise ValueError(f"disturbance vector must be a finite 3-vector: {self.vector}")
        if not (self.duration >= 0.0 and self.t_start >= 0.0):
            raise ValueError("disturbance window must be non-negative")

    def force_at(self, t_flight: float) -> np.ndarray | None:
        """Force at time t_flight measured from lift-off; None when none acts."""
        if self.kind == "constant" or (self.kind == "impulsive" and
                                       self.t_start <= t_flight < self.t_start + self.duration):
            return self.vector
        return None


@dataclass(frozen=True)
class NoiseSpec:
    """White Gaussian noise on the measured rates (psi_dot, l1_dot, l2_dot)."""

    sigma: np.ndarray = field(
        default_factory=lambda: np.array([0.01, 0.2, 0.2]))
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        if self.sigma.shape != (3,) or not np.all(self.sigma >= 0.0):
            raise ValueError(f"noise sigma must be three deviations >= 0: {self.sigma}")
        if not (isinstance(self.seed, Integral) and self.seed >= 0):
            raise ValueError(f"noise seed must be an integer >= 0, got {self.seed!r}")


def critically_damped_gain(stiffness: float, reflected_mass: float) -> float:
    """D = 2 sqrt(K m): no step-response overshoot at the landing joint."""
    if not (0.0 < stiffness < math.inf and 0.0 < reflected_mass < math.inf):
        raise ValueError("stiffness and reflected mass must be finite and positive")
    return 2.0 * float(np.sqrt(stiffness * reflected_mass))


@dataclass
class SimTrace:
    times: np.ndarray                # (M,)
    states: np.ndarray               # (M, 6)
    positions: np.ndarray            # (M, 3)
    velocities: np.ndarray           # (M, 3) Cartesian
    inputs: np.ndarray               # (M, 6) applied input (ZOH)
    disturbance: np.ndarray          # (M, 3)
    phase: np.ndarray                # (M,) ints, see PHASE_*
    events: dict                     # name -> time
    e_a: np.ndarray                  # target minus final position
    meta: dict = field(default_factory=dict)

    @property
    def landing_error_norm(self) -> float:
        return float(np.linalg.norm(self.e_a))


def _trace(scenario, rows, ticks, events, e_a, meta) -> SimTrace:
    """The trace of an episode's rows, one per simulation step, and of its
    MPC solutions (ticks, None for open loop): positions and velocities for
    all rows at once, the first sample with the CoM behind the wall plane
    as the wall_crossing event, and the ticks as the meta arrays tick_s,
    step_s, n_iter, status and degraded."""
    times = np.array([r[0] for r in rows])
    states = np.array([r[1] for r in rows]).reshape(-1, 6)
    inputs = np.array([r[2] for r in rows]).reshape(-1, 6)
    zero = np.zeros(3)
    dist = np.array([zero if r[3] is None else r[3] for r in rows]).reshape(-1, 3)
    phase = np.array([r[4] for r in rows], dtype=int)
    psi, l1, l2 = states[:, 0], states[:, 1], states[:, 2]
    positions = position_arrays(psi, l1, l2, scenario.d_a)
    A = jacobian_arrays(psi, l1, l2, scenario.d_a)
    velocities = (A @ states[:, 3:, None])[..., 0]
    behind = np.flatnonzero(positions @ scenario.wall_normal < 0.0)
    if behind.size:
        events = {**events, "wall_crossing": float(times[behind[0]])}
    if ticks is not None:
        diag = [sol.diagnostics for sol in ticks]
        meta = {**meta,
                "tick_s": np.array([d["tick_s"] for d in diag], dtype=float),
                "step_s": np.array([d["step_s"] for d in diag], dtype=float),
                "n_iter": np.array([d["n_iter"] for d in diag], dtype=int),
                "status": np.array([d["status"] for d in diag], dtype=str),
                "degraded": np.array([sol.degraded for sol in ticks], dtype=bool)}
    return SimTrace(times, states, positions, velocities, inputs, dist,
                    phase, events, np.asarray(e_a, dtype=float), meta)


@dataclass(frozen=True)
class _TickStart:
    """A run_episode flight without noise (no touch-down watch) at the
    start of control tick k: its lists of rows and MPC solutions (None for
    open loop), of which the first n_rows and k entries lie before the
    tick, and its lift-off time.  Row n_rows is the tick's first, recorded
    before its first step, so its (t, x) is the resume point.  The flight
    only appends to those lists, so an episode starts here by copying their
    heads."""
    k: int
    n_rows: int
    rows: list
    solutions: list | None
    t_lift: float


class EpisodeAborted(RuntimeError):
    """Simulation left the model domain; carries the diagnostic trace."""

    def __init__(self, message: str, trace: SimTrace):
        super().__init__(message)
        self.trace = trace


def _check_dt_sim(dt_sim: float) -> None:
    if not (math.isfinite(dt_sim) and dt_sim > 0.0):
        raise ValueError(f"dt_sim must be finite and positive, got {dt_sim!r}")


def _substeps(interval: float, dt_sim: float) -> tuple[int, float]:
    """Steps covering interval exactly: their count and their length, the
    nearest to dt_sim that divides the interval."""
    n = max(1, round(interval / dt_sim))
    return n, interval / n


def _episode(plan, scenario, controller, disturbance, noise, dt_sim, mpc_cfg,
             landing=False, start=None, marks=None) -> SimTrace:
    """The phase machine of the module docstring; landing arms the
    touch-down watch and the hold and contact phases.  Without noise, the
    episode may start at tick start.k of another flight (a _TickStart), and
    marks, a list, collects a _TickStart at each flight tick this one
    reaches."""
    _check_dt_sim(dt_sim)
    if controller == "mpc":
        ctl = TrackingController(plan, scenario, mpc_cfg)
    elif controller == "open_loop":
        ctl = None
    else:
        raise ValueError("controller must be 'open_loop' or 'mpc'")
    u_plan, dt_plan = plan.schedule(scenario.t_th)
    dt_plan = dt_plan.tolist()                      # the clock stays a Python float
    rng = np.random.default_rng(noise.seed) if noise is not None else None
    dist = disturbance or DisturbanceSpec()
    cfg_sim = IntegratorConfig(n_sub=1)
    n = scenario.wall_normal
    n_x, n_y, n_z = n.tolist()
    meta = {"controller": controller, "dt_sim": dt_sim, "disturbance": dist.kind,
            "noise": noise is not None}
    armed = False
    if start is None:
        rows, ticks = [], (None if ctl is None else [])
        x, t, events = plan.rest_state.copy(), 0.0, {}
    else:
        rows = start.rows[:start.n_rows]
        ticks = None if ctl is None else start.solutions[:start.k]
        t, x = start.rows[start.n_rows][:2]
        events = {"lift_off": start.t_lift}
        if ctl is not None and start.k:
            ctl.prev_solution = ticks[-1]

    def advance(u, n_steps, h, phase, watch=False, disturbed=True):
        """n_steps steps of h under the held input u, the disturbance added
        to its u[2:5] on the steps that feel one (where disturbed), in one
        rollout_arrays call; True at touch-down.  Rows reference views of
        the returned states; a touch-down drops the rest of the stretch."""
        nonlocal x, t, armed
        ts, ds = [t], []
        for _ in range(n_steps):
            ds.append(dist.force_at(t - t_lift) if disturbed else None)
            t += h
            ts.append(t)
        us = np.tile(u, (n_steps, 1))
        felt = [i for i, d in enumerate(ds) if d is not None]
        if felt:
            us[felt, 2:5] += [ds[i] for i in felt]
        states = rollout_arrays(x, us, h, cfg_sim, scenario)
        bad = np.flatnonzero(~np.isfinite(states[1:]).all(axis=1))
        flown = bad[0] if bad.size else n_steps     # steps to a finite state
        down = False
        if watch:
            # n.p - d_w on floats, p as position_arrays gives it.
            for i, (q0, q1, q2) in enumerate(states[1:flown + 1, :3].tolist(), 1):
                C, r2 = _chord_and_radius(q1, q2, scenario.d_a)
                r = math.sqrt(r2) if r2 > 0.0 else math.nan
                gap = r * math.sin(q0) * n_x + C * n_y - r * math.cos(q0) * n_z - scenario.d_w
                armed = armed or gap > 0.02
                if armed and gap <= 0.0:
                    flown, down = i, True
                    break
        if not down and bad.size:
            # The trace ends on the state the failing step started from.
            rows.extend(zip(ts, states[:flown + 1], repeat(u), ds, repeat(phase)))
            msg = "simulation state became non-finite"
            raise EpisodeAborted(msg, _trace(scenario, rows, ticks, {"aborted": np.nan},
                                             np.full(3, np.nan), {**meta, "error": msg}))
        rows.extend(zip(ts, states[:flown], repeat(u), ds, repeat(phase)))
        x, t = states[flown], ts[flown]
        return down

    def tick_input(k):
        if ctl is None:
            return u_plan[k + 1]
        x_meas = x.copy()
        if rng is not None:
            x_meas[3:] += rng.normal(0.0, noise.sigma)
        u, sol = ctl.command(x_meas, k)
        ticks.append(sol)
        return u

    touched = False
    if start is None:
        # Thrust: step 0, the leg force with the ropes slack; contact is
        # not watched while still at the wall.
        advance(u_plan[0], *_substeps(dt_plan[0], dt_sim), PHASE_THRUST, disturbed=False)
        events["lift_off"] = t
    t_lift = events["lift_off"]
    for k in range(0 if start is None else start.k, len(dt_plan) - 1):
        if marks is not None:
            marks.append(_TickStart(k, len(rows), rows, ticks, t_lift))
        u = tick_input(k)
        if advance(u, *_substeps(dt_plan[k + 1], dt_sim), PHASE_FLIGHT, landing):
            touched = True
            events["early_touch_down"] = t
            break
    else:
        events["horizon_end"] = t
        if landing:
            # Delayed touch-down: hold the last step's ropes plus gravity
            # compensation.
            pull = static_rope_pull(
                position_arrays(x[0], x[1], x[2], scenario.d_a), scenario)
            u = np.zeros(6)
            u[:2] = np.clip(u_plan[-1, :2] + pull, -scenario.f_r_max, 0.0)
            # One control period a stretch: a touch-down drops the rest.
            n_hold, n_period = round(MAX_HOLD / dt_sim), _substeps(dt_plan[-1], dt_sim)[0]
            for done in range(0, n_hold, n_period):
                touched = advance(u, min(n_period, n_hold - done), dt_sim, PHASE_HOLD, True)
                if touched:
                    break
            events["delayed_touch_down" if touched else "no_touch_down"] = t

    p = position_arrays(x[0], x[1], x[2], scenario.d_a)
    e_a = plan.p_target - p
    if landing:
        meta["touch_down"] = touched
    if not touched:
        rows.append((t, x, u, dist.force_at(t - t_lift), PHASE_HOLD if landing else PHASE_FLIGHT))
        return _trace(scenario, rows, ticks, events, e_a, meta)

    # Contact phase: plastic normal stop at the plane, then the landing
    # impedance settles the body against the wheels under the ropes, gravity
    # and the disturbance's normal part n.F; lateral residuals are taken up
    # by wheel damping (held here).
    K = LANDING_STIFFNESS
    D = critically_damped_gain(K, scenario.mass)
    p_td = p - float(p @ n - scenario.d_w) * n      # snap to the contact plane
    a_l, a_r = rope_axes(p_td, scenario)
    f_ext_n = float(n @ (scenario.mass * scenario.gravity
                         + a_l * u[0] + a_r * u[1]))
    s, s_dot = 0.0, 0.0                     # normal gap state after the stop
    contact, forces = [], []
    for _ in range(round(SETTLE_TIME / dt_sim)):
        contact.append((t, *inverse_kinematics(p_td + s * n, scenario), s_dot))
        d = dist.force_at(t - t_lift)
        forces.append(d)
        f_c = -K * s - D * s_dot
        s_ddot = (f_c + (f_ext_n if d is None else f_ext_n + float(n @ d))) / scenario.mass
        s_dot += s_ddot * dt_sim
        s += s_dot * dt_sim
        t += dt_sim
    # The rates of the normal motion, q_dot = A_d(q)^-1 n s_dot, for all rows.
    times, psi, l1, l2, s_dots = np.array(contact).reshape(-1, 5).T
    q_dot = np.linalg.solve(jacobian_arrays(psi, l1, l2, scenario.d_a),
                            s_dots[:, None, None] * n[:, None])[..., 0]
    for t_row, x_row, d in zip(times.tolist(), np.column_stack([psi, l1, l2, q_dot]), forces):
        rows.append((t_row, x_row, u, d, PHASE_CONTACT))
    events["settled"] = t
    meta.update(stiffness=K, damping=D, early="early_touch_down" in events)
    return _trace(scenario, rows, ticks, events, e_a, meta)


def run_episode(plan: JumpPlan, scenario: Scenario, controller: str = "mpc",
                disturbance: DisturbanceSpec | None = None,
                noise: NoiseSpec | None = None, dt_sim: float = 0.001,
                mpc_cfg: MpcConfig | None = None) -> SimTrace:
    """Simulate thrust + flight and score the landing error at t_th + t_f."""
    return _episode(plan, scenario, controller, disturbance, noise, dt_sim, mpc_cfg)


def landing_episode(plan: JumpPlan, scenario: Scenario, controller: str = "mpc",
                    disturbance: DisturbanceSpec | None = None,
                    noise: NoiseSpec | None = None, dt_sim: float = 0.001,
                    mpc_cfg: MpcConfig | None = None) -> SimTrace:
    """Episode with wheel-plane contact detection and the landing law.

    Touch-down is armed once the robot has cleared the wheel plane; at the
    crossing the normal approach is absorbed by the landing mechanism
    (modelled as a plastic stop) and the body then settles for SETTLE_TIME
    on the spring-damper of stiffness LANDING_STIFFNESS, critically damped,
    while lateral motion is held by the wheels.  Early and delayed
    touch-downs are flagged; in the delayed case the last step's rope forces
    plus gravity compensation are held until contact or for MAX_HOLD.
    """
    return _episode(plan, scenario, controller, disturbance, noise, dt_sim, mpc_cfg,
                    landing=True)


def _robustness_runs(plan, n_runs, scenario, seed, noise, controller, n_intervals,
                     dt_sim, mpc_cfg):
    """batch_robustness's runs in run order, as (interval, trace, aborted,
    steps, ticks): an aborted run's trace is its EpisodeAborted's; steps and
    ticks count the simulator steps and MPC ticks flown for this run alone."""
    rng = np.random.default_rng(seed)
    window = plan.t_f / n_intervals
    runs = []
    for run in range(n_runs):
        interval = run % n_intervals
        amp = rng.uniform(*AMPLITUDE)
        vec = rng.normal(size=3)
        vec[2] = -abs(vec[2])            # downward hemisphere
        nv = np.linalg.norm(vec)
        vec = vec / nv * amp if nv > 0 else np.array([0.0, 0.0, -amp])
        t_start = interval * window + rng.uniform(
            0.0, max(window - DisturbanceSpec.duration, 0.0))
        run_noise = None
        if noise is not None:
            run_noise = NoiseSpec(noise.sigma, seed=int(rng.integers(2 ** 31)))
        runs.append((interval, DisturbanceSpec("impulsive", vec, t_start=t_start),
                     run_noise))

    def fly(spec, run_noise, start=None, marks=None):
        try:
            trace = _episode(plan, scenario, controller, spec, run_noise, dt_sim,
                             mpc_cfg, start=start, marks=marks)
            aborted = False
        except EpisodeAborted as exc:
            trace, aborted = exc.trace, True
        # One row per step, and a finished run's last row on top; the rows
        # and ticks before the start are the shared flight's.
        rows0, k0 = (0, 0) if start is None else (start.n_rows, start.k)
        steps = trace.times.size - (not aborted) - rows0
        ticks = trace.meta["tick_s"].size - k0 if controller == "mpc" else 0
        return trace, aborted, steps, ticks

    if noise is not None or not runs:
        for interval, spec, run_noise in runs:
            yield (interval, *fly(spec, run_noise))
        return
    # Without noise every run flies the undisturbed flight until its window
    # opens.  The run whose window opens last flies it from rest and marks
    # every tick; each other run starts at the last tick whose flight time
    # is at or before its t_start, so every step it copies felt no force
    # (from rest if the shared flight aborted before its first tick).
    shared = max(range(n_runs), key=lambda r: runs[r][1].t_start)
    marks = []
    shared_flown = fly(runs[shared][1], None, marks=marks)
    opens = [m.rows[m.n_rows][0] - m.t_lift for m in marks]
    for run, (interval, spec, _) in enumerate(runs):
        if run == shared:
            yield (interval, *shared_flown)
            continue
        i = bisect.bisect_right(opens, spec.t_start) - 1
        yield (interval, *fly(spec, None, start=marks[i] if i >= 0 else None))


def batch_robustness(plan: JumpPlan, n_runs: int, scenario: Scenario,
                     seed: int = 0, noise: NoiseSpec | None = None,
                     controller: str = "mpc", n_intervals: int = 10,
                     dt_sim: float = 0.001, mpc_cfg: MpcConfig | None = None) -> dict:
    """Random impulsive disturbances over the flight, per-interval statistics.

    The flight is split into n_intervals (>= 1) equal windows; each run
    draws a disturbance amplitude in AMPLITUDE and a direction in the
    downward hemisphere, applied inside its window for DisturbanceSpec's
    default duration.  Aborted runs are counted as failures, not fatal;
    runs that cross the wall plane are counted in wall_crossings and keep
    their landing errors in the statistics.  Fixed seeds reproduce
    bit-identical results.

    With noise None the runs share the undisturbed flight up to their
    windows, and it is flown once: the run whose window opens last flies
    from rest, and every other run starts from that flight at its last
    control tick at or before the opening of the run's window (see
    _TickStart).  Each run stays bit-identical to its own run_episode.
    With noise every run flies from rest, since the runs' noise differs
    from the first tick.  steps and ticks count the simulator steps and
    MPC ticks the batch flew.
    """
    if not (isinstance(n_runs, Integral) and n_runs >= 0):
        raise ValueError(f"n_runs must be an integer >= 0, got {n_runs!r}")
    if not (isinstance(n_intervals, Integral) and n_intervals >= 1):
        raise ValueError(f"n_intervals must be an integer >= 1, got {n_intervals!r}")
    _check_dt_sim(dt_sim)
    per_interval: list[list[float]] = [[] for _ in range(n_intervals)]
    failures = wall_crossings = steps = ticks = 0
    for interval, trace, aborted, run_steps, run_ticks in _robustness_runs(
            plan, n_runs, scenario, seed, noise, controller, n_intervals, dt_sim, mpc_cfg):
        steps += run_steps
        ticks += run_ticks
        if aborted:
            failures += 1
            continue
        wall_crossings += "wall_crossing" in trace.events
        per_interval[interval].append(trace.landing_error_norm)
    stats = {"n_runs": n_runs, "failures": failures, "wall_crossings": wall_crossings,
             "seed": seed, "steps": steps, "ticks": ticks, "intervals": []}
    for i, errs in enumerate(per_interval):
        arr = np.array(errs)
        stats["intervals"].append({
            "interval": i,
            "n": int(arr.size),
            "mean_error": float(arr.mean()) if arr.size else np.nan,
            "std_error": float(arr.std()) if arr.size else np.nan,
        })
    return stats
