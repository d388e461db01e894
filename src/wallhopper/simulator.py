"""Closed-loop episode simulation.

run_episode and landing_episode are thin wrappers around one phase
machine, _episode, which walks the plan's step schedule from rest
(JumpPlan.schedule):

- thrust: step 0, the planned leg force with the ropes slack;
- flight: controller tick k holds step k + 1 for its length: its planned
  input (open loop) or the MPC command (from the state with measurement
  noise added), while the true dynamics, disturbance force included,
  integrates in steps of about DT_SIM (1 ms), sized so that they divide
  each step exactly; the flight ends at t_th + t_f;
- hold (landing runs only): a run still short of the wheel plane at t_f
  holds the last step's rope forces plus gravity compensation, for at
  most MAX_HOLD;
- contact (landing runs only): after touch-down the wall-normal motion
  follows the landing impedance (LANDING_STIFFNESS, critically damped) for
  SETTLE_TIME and the wheels absorb lateral residuals; each row records
  the rates q_dot = A_d(q)^-1 n s_dot of that normal motion.

A stretch is every step whose input is known before it starts, and it
is flown in one rollout_arrays call, which steps one state on Python
floats: the thrust; the whole flight of an open-loop episode from its
first tick; one MPC tick, whose command needs the state the tick starts
from; one control period of the hold, so that a touch-down drops at most
the rest of one period.  The touch-down watch takes the wall gap
n.p - d_w of the call's new states in one position_arrays call, arms at
the first gap over 0.02 m and fires at the first gap <= 0 from there, and
drops the rest of the call after a touch-down.  The disturbance F, timed
from lift-off, acts in the flight and the hold as a force added to the
external force u[2:5] of the stepped input (zero in every flight and hold
input), and in the contact phase as n.F on the normal motion;
DisturbanceSpec.felt tests its window over the times of a whole call, of
the contact phase and of the last row at once.  The episode records
(times, states, u, felt, phase) per held input (the thrust, each tick,
each hold period), for the contact phase and for the last row: step
times, states, held input, flags of the rows the force acts on, and
phase, so the trace keeps the input and the force apart.

run_episode scores e_a, the target minus the CoM position, at
t_th + t_f.  landing_episode arms the touch-down watch at lift-off and
scores e_a at touch-down, or at the end of the hold.

Events, name -> time: lift_off; horizon_end (the flight ran to t_f);
early_touch_down (touch-down during the flight), delayed_touch_down
(during the hold) or no_touch_down; settled (end of the contact phase);
wall_crossing (first sample with the CoM behind the wall plane,
n.p < 0).  A non-finite state raises EpisodeAborted at the failing step;
its trace ends on the state that step started from and carries the event
aborted.  A wall crossing is recorded, not aborted.  Every row's
Cartesian velocity is A_d q_dot.  The meta of an MPC episode holds one
entry per tick in the arrays tick_s, step_s, n_iter, status and degraded
(MpcSolution.diagnostics).  Every meta holds steps and ticks, the model
steps and MPC ticks that this episode flew itself.  Records keep
references, not copies, that nothing may mutate later; each trace is
concatenated and owns its arrays.

A flight from rest without measurement noise can keep its flight record
from lift-off: its lists of records and MPC solutions, which it only
appends to, and its lift-off time.  Record k + 1 is tick k; the last is
the end-of-flight row unless the flight aborted.  An episode without noise
can resume at (that flight, tick k): it copies the first k + 1 records and
k solutions, starts from the time and state of record k + 1's first row,
and warm-starts its controller on solution k - 1.  Up to a tick at which
neither flight has felt a disturbance, the two are the same flight step
for step, so the episode is bit-identical to one flown from rest.
batch_robustness flies the undisturbed prefix that its runs share once
this way, its runs' disturbances drawn in N_INTERVALS windows of it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from numbers import Integral

import numpy as np

from .integrator import IntegratorConfig, rollout_arrays
# No longer called here: the benchmark's tracer (perfbench/tracing.py)
# still patches simulator.step_arrays by name.
from .integrator import step_arrays  # noqa: F401
from .mpc import MpcConfig, TrackingController
from .model import (Scenario, inverse_kinematics, jacobian_arrays, position_arrays,
                    rope_axes, static_rope_pull)
from .planner import JumpPlan

PHASE_THRUST = 0
PHASE_FLIGHT = 1
PHASE_HOLD = 2          # past t_f, waiting for delayed touch-down
PHASE_CONTACT = 3

LANDING_STIFFNESS = 60.0    # K_L (N/m), critically damped for the mass
SETTLE_TIME = 3.0           # contact phase recorded after touch-down (s)
MAX_HOLD = 2.0              # cap on the delayed touch-down wait (s)
DT_SIM = 0.001              # simulator step (s), shortened to divide each step
N_INTERVALS = 10            # batch_robustness windows over the flight
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
        if not (self.duration >= 0.0 and 0.0 <= self.t_start < math.inf):
            raise ValueError("disturbance window must be non-negative, its start finite")

    def felt(self, t_flight):
        """Whether the force acts at each time t_flight from lift-off: a bool
        array of t_flight's shape, true over [t_start, t_start + duration)
        when impulsive, always when constant, never for kind none."""
        t = np.asarray(t_flight)
        if self.kind == "impulsive":
            return (self.t_start <= t) & (t < self.t_start + self.duration)
        return np.full(t.shape, self.kind == "constant")


@dataclass(frozen=True)
class NoiseSpec:
    """White Gaussian noise on the measured rates (psi_dot, l1_dot, l2_dot)."""

    sigma: np.ndarray = field(
        default_factory=lambda: np.array([0.01, 0.2, 0.2]))
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        if self.sigma.shape != (3,) or not np.all((self.sigma >= 0.0) & (self.sigma < math.inf)):
            raise ValueError(f"noise sigma must be three finite deviations >= 0: {self.sigma}")
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


def _trace(scenario, records, force, ticks, events, e_a, meta) -> SimTrace:
    """The trace of an episode's records, each one's u and phase repeated
    over its rows and force on its felt rows, and of its MPC solutions
    (ticks, None for open loop): positions and velocities for all rows at
    once, the first sample behind the wall plane as the wall_crossing
    event, and the meta arrays tick_s, step_s, n_iter, status and degraded."""
    times, states, u, felt, phase = zip(*records)
    counts = [len(t) for t in times]
    times, states = np.concatenate(times), np.concatenate(states)
    inputs = np.repeat(u, counts, axis=0)
    dist = np.where(np.concatenate(felt)[:, None], force, 0.0)
    phase = np.repeat(np.array(phase, dtype=int), counts)
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


class EpisodeAborted(RuntimeError):
    """Simulation left the model domain; carries the diagnostic trace."""

    def __init__(self, message: str, trace: SimTrace):
        super().__init__(message)
        self.trace = trace


def _substeps(interval: float) -> tuple[int, float]:
    """Steps covering interval exactly: their count and their length, the
    nearest to DT_SIM that divides the interval."""
    n = max(1, round(interval / DT_SIM))
    return n, interval / n


def _episode(plan, scenario, controller, disturbance, noise, mpc_cfg,
             landing=False, flight=None, k=None) -> SimTrace:
    """The phase machine of the module docstring; landing arms the
    touch-down watch and the hold and contact phases.  Without noise, a dict
    flight receives this episode's flight record at lift-off (records,
    solutions, None for open loop, and t_lift) or, with a tick k, holds the
    record of another flight to resume at tick k."""
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
    meta = {"controller": controller, "dt_sim": DT_SIM, "disturbance": dist.kind,
            "noise": noise is not None, "steps": 0, "ticks": 0}
    armed = False
    if k is None:
        records, ticks = [], (None if ctl is None else [])
        x, t, events = plan.rest_state.copy(), 0.0, {}
    else:
        records = flight["records"][:k + 1]
        ticks = None if ctl is None else flight["solutions"][:k]
        t, x = (a[0] for a in flight["records"][k + 1][:2])
        events = {"lift_off": flight["t_lift"]}
        if ctl is not None and k:
            ctl.prev_solution = ticks[-1]

    def advance(stretches, phase, watch=False, disturbed=True):
        """Fly stretches, a list of (u, n_steps, h) whose inputs are all known
        before the first step, in one rollout_arrays call: n_steps steps of
        h under each held u, the disturbance added to its u[2:5] on the
        steps that feel one (where disturbed).  Records each stretch as one
        record.  True at touch-down, which drops the rest of the call."""
        nonlocal x, t, armed
        hs = [h for _, n_steps, h in stretches for _ in range(n_steps)]
        times = list(accumulate(hs, initial=t))
        felt = (dist.felt(np.array(times[:-1]) - t_lift) if disturbed
                else np.zeros(len(hs), dtype=bool))
        us = np.repeat([u for u, _, _ in stretches], [n for _, n, _ in stretches], axis=0)
        if felt.any():
            us[felt, 2:5] += dist.vector
        states = rollout_arrays(x, us, hs, cfg_sim, scenario)
        finite = np.isfinite(states[1:]).all(axis=1)
        flown = len(hs) if finite.all() else int(finite.argmin())   # steps to a finite state
        down = False
        if watch:
            q = states[1:flown + 1].T
            gap = position_arrays(q[0], q[1], q[2], scenario.d_a) @ n - scenario.d_w
            arm = 0 if armed else next(iter(np.flatnonzero(gap > 0.02)), gap.size)
            armed = armed or arm < gap.size
            fire = np.flatnonzero(gap[arm:] <= 0.0)
            if fire.size:
                flown, down = int(arm + fire[0]) + 1, True
        # An aborted trace ends on the state the failing step started from,
        # and the failing step counts as flown.
        aborted = not down and flown < len(hs)
        end = flown + 1 if aborted else flown
        meta["steps"] += end
        first = 0
        for u, n_steps, _ in stretches:
            if first >= end:
                break
            last = min(first + n_steps, end)
            records.append((times[first:last], states[first:last], u, felt[first:last], phase))
            first += n_steps
        if aborted:
            msg = "simulation state became non-finite"
            raise EpisodeAborted(msg, _trace(scenario, records, dist.vector, ticks,
                                             {"aborted": np.nan}, np.full(3, np.nan),
                                             {**meta, "error": msg}))
        x, t = states[flown], times[flown]
        return down

    def tick_input(k):
        if ctl is None:
            return u_plan[k + 1]
        x_meas = x.copy()
        if rng is not None:
            x_meas[3:] += rng.normal(0.0, noise.sigma)
        u, sol = ctl.command(x_meas, k)
        ticks.append(sol)
        meta["ticks"] += 1
        return u

    touched = False
    if k is None:
        # Thrust: step 0, the leg force with the ropes slack; contact is
        # not watched while still at the wall.
        advance([(u_plan[0], *_substeps(dt_plan[0]))], PHASE_THRUST, disturbed=False)
        events["lift_off"] = t
        if flight is not None:
            flight.update(records=records, solutions=ticks, t_lift=t)
    t_lift = events["lift_off"]
    k, n_ticks = k or 0, len(dt_plan) - 1
    while k < n_ticks:
        # An MPC tick's input needs the state it starts from; open loop,
        # every input is known, and the rest of the flight is one call.
        stop = n_ticks if ctl is None else k + 1
        if advance([(tick_input(j), *_substeps(dt_plan[j + 1])) for j in range(k, stop)],
                   PHASE_FLIGHT, landing):
            touched = True
            events["early_touch_down"] = t
            break
        k = stop
    else:
        events["horizon_end"] = t
        if landing:
            # Delayed touch-down: hold the last step's ropes plus gravity
            # compensation.
            pull = static_rope_pull(
                position_arrays(x[0], x[1], x[2], scenario.d_a), scenario)
            u = np.zeros(6)
            u[:2] = np.clip(u_plan[-1, :2] + pull, -scenario.f_r_max, 0.0)
            # One control period a call: a touch-down drops the rest.
            n_hold, n_period = round(MAX_HOLD / DT_SIM), _substeps(dt_plan[-1])[0]
            for done in range(0, n_hold, n_period):
                touched = advance([(u, min(n_period, n_hold - done), DT_SIM)], PHASE_HOLD,
                                  True)
                if touched:
                    break
            events["delayed_touch_down" if touched else "no_touch_down"] = t
    u = records[-1][2]                  # the input of the last step flown

    p = position_arrays(x[0], x[1], x[2], scenario.d_a)
    e_a = plan.p_target - p
    if landing:
        meta["touch_down"] = touched
    if not touched:
        records.append(([t], x[None], u, [dist.felt(t - t_lift)],
                        PHASE_HOLD if landing else PHASE_FLIGHT))
        return _trace(scenario, records, dist.vector, ticks, events, e_a, meta)

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
    f_pushed = f_ext_n + float(n @ dist.vector)
    s, s_dot = 0.0, 0.0                     # normal gap state after the stop
    times = list(accumulate(repeat(DT_SIM, round(SETTLE_TIME / DT_SIM)), initial=t))
    felt = dist.felt(np.array(times[:-1]) - t_lift)
    contact = []
    for t_i, pushed in zip(times, felt.tolist()):
        contact.append((t_i, *inverse_kinematics(p_td + s * n, scenario), s_dot))
        f_c = -K * s - D * s_dot
        s_ddot = (f_c + (f_pushed if pushed else f_ext_n)) / scenario.mass
        s_dot += s_ddot * DT_SIM
        s += s_dot * DT_SIM
    t = times[-1]
    # The rates of the normal motion, q_dot = A_d(q)^-1 n s_dot, for all rows.
    times, psi, l1, l2, s_dots = np.array(contact).reshape(-1, 5).T
    q_dot = np.linalg.solve(jacobian_arrays(psi, l1, l2, scenario.d_a),
                            s_dots[:, None, None] * n[:, None])[..., 0]
    records.append((times, np.column_stack([psi, l1, l2, q_dot]), u, felt, PHASE_CONTACT))
    events["settled"] = t
    meta.update(stiffness=K, damping=D, early="early_touch_down" in events)
    return _trace(scenario, records, dist.vector, ticks, events, e_a, meta)


def run_episode(plan: JumpPlan, scenario: Scenario, controller: str = "mpc",
                disturbance: DisturbanceSpec | None = None,
                noise: NoiseSpec | None = None,
                mpc_cfg: MpcConfig | None = None) -> SimTrace:
    """Simulate thrust + flight and score the landing error at t_th + t_f."""
    return _episode(plan, scenario, controller, disturbance, noise, mpc_cfg)


def landing_episode(plan: JumpPlan, scenario: Scenario, controller: str = "mpc",
                    disturbance: DisturbanceSpec | None = None,
                    noise: NoiseSpec | None = None,
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
    return _episode(plan, scenario, controller, disturbance, noise, mpc_cfg, landing=True)


def _robustness_runs(plan, n_runs, scenario, seed, noise, controller, mpc_cfg):
    """batch_robustness's runs in run order, as (interval, trace, aborted):
    an aborted run's trace is its EpisodeAborted's."""
    rng = np.random.default_rng(seed)
    noise_rng = None if noise is None else np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(noise.seed,)))
    window = plan.t_f / N_INTERVALS
    runs = []
    for run in range(n_runs):
        interval = run % N_INTERVALS
        amp = rng.uniform(*AMPLITUDE)
        vec = rng.normal(size=3)
        vec[2] = -abs(vec[2])            # downward hemisphere
        nv = np.linalg.norm(vec)
        vec = vec / nv * amp if nv > 0 else np.array([0.0, 0.0, -amp])
        t_start = interval * window + rng.uniform(
            0.0, max(window - DisturbanceSpec.duration, 0.0))
        run_noise = None
        if noise is not None:
            run_noise = NoiseSpec(noise.sigma, seed=int(noise_rng.integers(2 ** 31)))
        runs.append((interval, DisturbanceSpec("impulsive", vec, t_start=t_start),
                     run_noise))

    def fly(spec, run_noise, flight=None, k=None):
        try:
            return _episode(plan, scenario, controller, spec, run_noise, mpc_cfg,
                            flight=flight, k=k), False
        except EpisodeAborted as exc:
            return exc.trace, True

    # Without noise every run flies the undisturbed flight until its window
    # opens.  The run whose window opens last flies it from rest first and
    # keeps its flight record; each other run resumes it at the last tick it
    # started (a record after the thrust but the end-of-flight row) at or
    # before its t_start, so every step it copies felt no force.  With noise,
    # or with no record (an abort in the thrust), a run flies from rest.
    flight, flown, opens = {}, {}, []
    if noise is None and runs:
        shared = max(range(n_runs), key=lambda r: runs[r][1].t_start)
        flown[shared] = fly(runs[shared][1], None, flight)
        records = flight.get("records", [])
        opens = [r[0][0] - flight["t_lift"]
                 for r in records[1:len(records) - (not flown[shared][1])]]
    for run, (interval, spec, run_noise) in enumerate(runs):
        if run not in flown:
            k = bisect.bisect_right(opens, spec.t_start) - 1
            flown[run] = fly(spec, run_noise, *((flight, k) if k >= 0 else ()))
        yield (interval, *flown.pop(run))


def batch_robustness(plan: JumpPlan, n_runs: int, scenario: Scenario,
                     seed: int = 0, noise: NoiseSpec | None = None,
                     controller: str = "mpc", mpc_cfg: MpcConfig | None = None) -> dict:
    """Random impulsive disturbances over the flight, per-interval statistics.

    The flight is split into N_INTERVALS equal windows; each run
    draws a disturbance amplitude in AMPLITUDE and a direction in the
    downward hemisphere, applied inside its window for DisturbanceSpec's
    default duration.  Aborted runs are counted as failures, not fatal;
    runs that cross the wall plane are counted in wall_crossings and keep
    their landing errors in the statistics.  Fixed seeds reproduce
    bit-identical results.

    With noise None the runs share the undisturbed flight up to their
    windows, and it is flown once: the run whose window opens last flies
    from rest and keeps its flight record (see the module docstring), and
    every other run resumes that flight at its last control tick at or
    before the opening of the run's window.  Each run stays bit-identical
    to its own run_episode.  With noise the runs differ from the first
    tick, so there is no tick to resume at and every run flies from rest;
    their noise seeds have a generator of their own, keyed to noise.seed,
    so they fly the noise-free batch's disturbances.  steps and ticks sum
    the meta steps and ticks of the runs' traces, the simulator steps and
    MPC ticks the batch flew.
    """
    if not (isinstance(n_runs, Integral) and n_runs >= 0):
        raise ValueError(f"n_runs must be an integer >= 0, got {n_runs!r}")
    per_interval: list[list[float]] = [[] for _ in range(N_INTERVALS)]
    failures = wall_crossings = steps = ticks = 0
    for interval, trace, aborted in _robustness_runs(plan, n_runs, scenario, seed, noise,
                                                     controller, mpc_cfg):
        steps += trace.meta["steps"]
        ticks += trace.meta["ticks"]
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
