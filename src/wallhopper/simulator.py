"""Closed-loop episode simulation.

An episode walks a phase machine: thrust (leg impulse from rest), flight
(feed-forward or MPC-corrected rope forces, zero-order held between
controller ticks while the true dynamics integrates in steps of about
dt_sim, sized so that they divide the thrust and each tick exactly and the
flight ends at t_th + t_f), and for
landing runs a contact phase in which the wall-normal motion follows the
landing impedance and lateral residuals are absorbed by the wheels.

Disturbance forces act on the true dynamics; measurement noise corrupts
only the state handed to the controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .integrator import IntegrationError, IntegratorConfig, step_arrays
from .mpc import MpcConfig, TrackingController
from .model import (
    SINGULARITY_EPS,
    Scenario,
    SingularityError,
    inverse_kinematics,
    jacobian_arrays,
    position_arrays,
)
from .planner import JumpPlan, _static_pull

PHASE_THRUST = 0
PHASE_FLIGHT = 1
PHASE_HOLD = 2          # past t_f, waiting for delayed touch-down
PHASE_CONTACT = 3

PHASE_NAMES = {PHASE_THRUST: "thrust", PHASE_FLIGHT: "flight",
               PHASE_HOLD: "hold", PHASE_CONTACT: "contact"}


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
        if not np.all(np.isfinite(self.vector)):
            raise ValueError("disturbance vector must be finite")
        if self.duration < 0.0 or self.t_start < 0.0:
            raise ValueError("disturbance window must be non-negative")

    def force_at(self, t_flight: float) -> np.ndarray:
        """Force at time t_flight measured from lift-off."""
        if self.kind == "constant":
            return self.vector
        if self.kind == "impulsive" and \
                self.t_start <= t_flight < self.t_start + self.duration:
            return self.vector
        return np.zeros(3)


@dataclass(frozen=True)
class NoiseSpec:
    """White Gaussian noise on the measured rates (psi_dot, l1_dot, l2_dot)."""

    sigma: np.ndarray = field(
        default_factory=lambda: np.array([0.01, 0.2, 0.2]))
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        if np.any(self.sigma < 0.0):
            raise ValueError("noise standard deviations must be >= 0")


def critically_damped_gain(stiffness: float, reflected_mass: float) -> float:
    """D = 2 sqrt(K m): no step-response overshoot at the landing joint."""
    if stiffness <= 0.0 or reflected_mass <= 0.0:
        raise ValueError("stiffness and reflected mass must be positive")
    return 2.0 * float(np.sqrt(stiffness * reflected_mass))


@dataclass(frozen=True)
class LandingParams:
    stiffness: float = 60.0          # K_L (N/m)
    damping: float | None = None     # D_L; None -> critically damped
    settle_time: float = 3.0         # contact phase duration to record (s)
    max_hold: float = 2.0            # cap on the delayed touch-down wait (s)

    def damping_for(self, mass: float) -> float:
        if self.damping is not None:
            return self.damping
        return critically_damped_gain(self.stiffness, mass)


@dataclass
class SimTrace:
    times: np.ndarray                # (M,)
    states: np.ndarray               # (M, 6)
    positions: np.ndarray            # (M, 3)
    velocities: np.ndarray           # (M, 3) Cartesian
    inputs: np.ndarray               # (M, 6) applied input (ZOH)
    disturbance: np.ndarray          # (M, 3)
    phase: np.ndarray                # (M,) ints, see PHASE_NAMES
    events: dict                     # name -> time
    e_a: np.ndarray                  # target minus final position
    meta: dict = field(default_factory=dict)

    @property
    def landing_error_norm(self) -> float:
        return float(np.linalg.norm(self.e_a))

    def wall_gap(self, scenario: Scenario) -> np.ndarray:
        """Wheel-plane gap n.p - d_w per sample."""
        return self.positions @ scenario.wall_normal - scenario.d_w


class _Recorder:
    """Collects one row per simulation step; positions and velocities are
    computed for all rows at once in build()."""

    def __init__(self, scenario: Scenario):
        self.scen = scenario
        self.rows = []

    def add(self, t, x, u, dist, phase, velocity=None):
        """velocity, if given, replaces the Cartesian velocity computed from x."""
        self.rows.append((t, x.copy(), u.copy(), dist.copy(), phase, velocity))

    def build(self, events, e_a, meta) -> SimTrace:
        times = np.array([r[0] for r in self.rows])
        states = np.array([r[1] for r in self.rows]).reshape(-1, 6)
        inputs = np.array([r[2] for r in self.rows]).reshape(-1, 6)
        dist = np.array([r[3] for r in self.rows]).reshape(-1, 3)
        phase = np.array([r[4] for r in self.rows], dtype=int)
        psi, l1, l2 = states[:, 0], states[:, 1], states[:, 2]
        positions = position_arrays(psi, l1, l2, self.scen.d_a)
        A = jacobian_arrays(psi, l1, l2, self.scen.d_a)
        velocities = (A @ states[:, 3:, None])[..., 0]
        for i, r in enumerate(self.rows):
            if r[5] is not None:
                velocities[i] = r[5]
        return SimTrace(times, states, positions, velocities, inputs, dist,
                        phase, events, np.asarray(e_a, dtype=float), meta)


def _check_state(x):
    if not np.all(np.isfinite(x)):
        raise IntegrationError("simulation state became non-finite")
    if abs(np.sin(x[0])) < SINGULARITY_EPS:
        raise SingularityError("simulation hit the sin(psi) singularity")


def _substeps(interval: float, dt_sim: float) -> tuple[int, float]:
    """Steps covering interval exactly: their count and their length, the
    nearest to dt_sim that divides the interval."""
    n = max(1, round(interval / dt_sim))
    return n, interval / n


def _simulate_flight(plan, scenario, controller, disturbance, noise, dt_sim,
                     mpc_cfg, recorder, x, t):
    """Thrust + flight up to t_f; returns (state, time, events)."""
    events = {}
    cfg_sim = IntegratorConfig(method="rk4", n_sub=1, dt=dt_sim)
    rng = np.random.default_rng(noise.seed) if noise is not None else None

    # Thrust phase: leg impulse only, ropes slack (as transcribed by the planner).
    u = np.zeros(6)
    u[2:5] = plan.f_leg
    n_th, h = _substeps(scenario.t_th, dt_sim)
    for _ in range(n_th):
        recorder.add(t, x, u, np.zeros(3), PHASE_THRUST)
        x = step_arrays(x, u, h, cfg_sim, scenario)
        _check_state(x)
        t += h
    events["lift_off"] = t

    ctl = None
    if controller == "mpc":
        ctl = TrackingController(plan, scenario, mpc_cfg)
        dt_tick = ctl.cfg.dt
        n_ticks = ctl.n_ticks
    elif controller == "open_loop":
        dt_tick = plan.dt
        n_ticks = plan.n_knots
    else:
        raise ValueError("controller must be 'open_loop' or 'mpc'")

    t_lift = t
    steps_per_tick, h = _substeps(dt_tick, dt_sim)
    for k in range(n_ticks):
        if ctl is not None:
            x_meas = x.copy()
            if rng is not None:
                x_meas[3:] += rng.normal(0.0, noise.sigma)
            u, _ = ctl.command(x_meas, k)
        else:
            u = np.zeros(6)
            u[0] = plan.rope_left[min(k, plan.n_knots - 1)]
            u[1] = plan.rope_right[min(k, plan.n_knots - 1)]
        for _ in range(steps_per_tick):
            d = disturbance.force_at(t - t_lift) if disturbance else np.zeros(3)
            recorder.add(t, x, u, d, PHASE_FLIGHT)
            x = step_arrays(x, u, h, cfg_sim, scenario, extra_force=d)
            _check_state(x)
            t += h
    events["horizon_end"] = t
    return x, t, events, u


def run_episode(plan: JumpPlan, scenario: Scenario, controller: str = "mpc",
                disturbance: DisturbanceSpec | None = None,
                noise: NoiseSpec | None = None, dt_sim: float = 0.001,
                mpc_cfg: MpcConfig | None = None) -> SimTrace:
    """Simulate thrust + flight and score the landing error at t_f."""
    recorder = _Recorder(scenario)
    x = plan.rest_state.copy()
    try:
        x, t, events, u = _simulate_flight(plan, scenario, controller,
                                           disturbance, noise, dt_sim,
                                           mpc_cfg, recorder, x, 0.0)
    except (SingularityError, IntegrationError) as exc:
        trace = recorder.build({"aborted": np.nan}, np.full(3, np.nan),
                               {"error": str(exc)})
        raise EpisodeAborted(str(exc), trace) from exc
    recorder.add(t, x, u, np.zeros(3), PHASE_FLIGHT)
    p_end = position_arrays(x[0], x[1], x[2], scenario.d_a)
    e_a = plan.p_target - p_end
    meta = {"controller": controller, "dt_sim": dt_sim,
            "disturbance": disturbance.kind if disturbance else "none",
            "noise": noise is not None}
    return recorder.build(events, e_a, meta)


class EpisodeAborted(RuntimeError):
    """Simulation left the model domain; carries the diagnostic trace."""

    def __init__(self, message: str, trace: SimTrace):
        super().__init__(message)
        self.trace = trace


def landing_episode(plan: JumpPlan, scenario: Scenario,
                    landing: LandingParams | None = None,
                    controller: str = "mpc",
                    disturbance: DisturbanceSpec | None = None,
                    noise: NoiseSpec | None = None, dt_sim: float = 0.001,
                    mpc_cfg: MpcConfig | None = None) -> SimTrace:
    """Episode with wheel-plane contact detection and the landing law.

    Touch-down is armed once the robot has cleared the wheel plane; at the
    crossing the normal approach is absorbed by the landing mechanism
    (modelled as a plastic stop) and the body then settles on the
    critically-damped (or configured) spring-damper while lateral motion
    is held by the wheels.  Early and delayed touch-downs are flagged; in
    the delayed case the last feed-forward plus gravity compensation is
    held until contact or the configured cap.
    """
    landing = landing or LandingParams()
    recorder = _Recorder(scenario)
    cfg_sim = IntegratorConfig(method="rk4", n_sub=1, dt=dt_sim)
    n = scenario.wall_normal
    x = plan.rest_state.copy()
    t = 0.0
    events: dict = {}
    rng = np.random.default_rng(noise.seed) if noise is not None else None

    # Thrust (contact checking disarmed while still at the wall).
    u = np.zeros(6)
    u[2:5] = plan.f_leg
    n_th, h = _substeps(scenario.t_th, dt_sim)
    for _ in range(n_th):
        recorder.add(t, x, u, np.zeros(3), PHASE_THRUST)
        x = step_arrays(x, u, h, cfg_sim, scenario)
        _check_state(x)
        t += h
    events["lift_off"] = t
    t_lift = t

    ctl = TrackingController(plan, scenario, mpc_cfg) if controller == "mpc" else None
    dt_tick = ctl.cfg.dt if ctl is not None else plan.dt
    n_ticks = ctl.n_ticks if ctl is not None else plan.n_knots
    steps_per_tick, h = _substeps(dt_tick, dt_sim)

    armed = False
    touched = False

    def gap_of(state):
        p = position_arrays(state[0], state[1], state[2], scenario.d_a)
        return float(p @ n - scenario.d_w), p

    # Flight with touch-down watch.
    for k in range(n_ticks):
        if touched:
            break
        if ctl is not None:
            x_meas = x.copy()
            if rng is not None:
                x_meas[3:] += rng.normal(0.0, noise.sigma)
            u, _ = ctl.command(x_meas, k)
        else:
            u = np.zeros(6)
            u[0], u[1] = plan.rope_left[k], plan.rope_right[k]
        for _ in range(steps_per_tick):
            d = disturbance.force_at(t - t_lift) if disturbance else np.zeros(3)
            recorder.add(t, x, u, d, PHASE_FLIGHT)
            x = step_arrays(x, u, h, cfg_sim, scenario, extra_force=d)
            _check_state(x)
            t += h
            gap, _ = gap_of(x)
            if not armed and gap > 0.02:
                armed = True
            if armed and gap <= 0.0:
                touched = True
                events["early_touch_down"] = t
                break

    # Delayed touch-down: hold feed-forward + gravity compensation.
    if not touched:
        events["horizon_end"] = t
        pull = _static_pull(position_arrays(x[0], x[1], x[2], scenario.d_a),
                            scenario)
        u = np.zeros(6)
        u[0] = plan.rope_left[-1] + pull[0]
        u[1] = plan.rope_right[-1] + pull[1]
        u[0], u[1] = max(u[0], -scenario.f_r_max), max(u[1], -scenario.f_r_max)
        u[0], u[1] = min(u[0], 0.0), min(u[1], 0.0)
        hold_steps = round(landing.max_hold / dt_sim)
        for _ in range(hold_steps):
            recorder.add(t, x, u, np.zeros(3), PHASE_HOLD)
            x = step_arrays(x, u, dt_sim, cfg_sim, scenario)
            _check_state(x)
            t += dt_sim
            gap, _ = gap_of(x)
            if not armed and gap > 0.02:
                armed = True
            if armed and gap <= 0.0:
                touched = True
                events["delayed_touch_down"] = t
                break

    gap, p = gap_of(x)
    e_a = plan.p_target - p
    if not touched:
        events["no_touch_down"] = t
        meta = {"controller": controller, "touch_down": False}
        recorder.add(t, x, u, np.zeros(3), PHASE_HOLD)
        return recorder.build(events, e_a, meta)

    # Contact phase: plastic normal stop at the plane, then the landing
    # impedance settles the body against the wheels; lateral residuals are
    # taken up by wheel damping (held here).
    K = landing.stiffness
    D = landing.damping_for(scenario.mass)
    p_td = p - gap * n                      # snap to the contact plane
    psi, l1, l2 = inverse_kinematics(p_td, scenario)
    a_l = (p_td - scenario.anchor_left) / l1
    a_r = (p_td - scenario.anchor_right) / l2
    f_ext_n = float(n @ (scenario.mass * scenario.gravity
                         + a_l * u[0] + a_r * u[1]))
    s, s_dot = 0.0, 0.0                     # normal gap state after the stop
    n_settle = round(landing.settle_time / dt_sim)
    u_contact = u.copy()
    u_contact[2:5] = 0.0
    for _ in range(n_settle):
        p_now = p_td + s * n
        psi, l1, l2 = inverse_kinematics(p_now, scenario)
        x_now = np.array([psi, l1, l2, 0.0, 0.0, 0.0])
        recorder.add(t, x_now, u_contact, np.zeros(3), PHASE_CONTACT,
                     velocity=s_dot * n)
        f_c = -K * s - D * s_dot
        s_ddot = (f_c + f_ext_n) / scenario.mass
        s_dot += s_ddot * dt_sim
        s += s_dot * dt_sim
        t += dt_sim
    events["settled"] = t
    meta = {"controller": controller, "touch_down": True,
            "stiffness": K, "damping": D,
            "early": "early_touch_down" in events}
    return recorder.build(events, e_a, meta)


def batch_robustness(plan: JumpPlan, n_runs: int, scenario: Scenario,
                     seed: int = 0, amplitude: tuple = (25.0, 50.0),
                     noise: NoiseSpec | None = None, controller: str = "mpc",
                     n_intervals: int = 10, dt_sim: float = 0.001,
                     mpc_cfg: MpcConfig | None = None) -> dict:
    """Random impulsive disturbances over the flight, per-interval statistics.

    The flight is split into n_intervals equal windows; each run draws a
    disturbance amplitude in the given range and a direction in the
    downward hemisphere, applied inside its window.  Individual failures
    are counted, not fatal.  Fixed seeds reproduce bit-identical results.
    """
    rng = np.random.default_rng(seed)
    per_interval: list[list[float]] = [[] for _ in range(n_intervals)]
    failures = 0
    for run in range(n_runs):
        interval = run % n_intervals
        amp = rng.uniform(*amplitude)
        vec = rng.normal(size=3)
        vec[2] = -abs(vec[2])            # downward hemisphere
        nv = np.linalg.norm(vec)
        vec = vec / nv * amp if nv > 0 else np.array([0.0, 0.0, -amp])
        window = plan.t_f / n_intervals
        t_start = interval * window + rng.uniform(0.0, max(window - 0.2, 0.0))
        spec = DisturbanceSpec("impulsive", vec, t_start=t_start)
        run_noise = None
        if noise is not None:
            run_noise = NoiseSpec(noise.sigma, seed=int(rng.integers(2 ** 31)))
        try:
            trace = run_episode(plan, scenario, controller=controller,
                                disturbance=spec, noise=run_noise,
                                dt_sim=dt_sim, mpc_cfg=mpc_cfg)
        except EpisodeAborted:
            failures += 1
            continue
        per_interval[interval].append(trace.landing_error_norm)
    stats = {"n_runs": n_runs, "failures": failures, "seed": seed,
             "intervals": []}
    for i, errs in enumerate(per_interval):
        arr = np.array(errs)
        stats["intervals"].append({
            "interval": i,
            "n": int(arr.size),
            "mean_error": float(arr.mean()) if arr.size else np.nan,
            "std_error": float(arr.std()) if arr.size else np.nan,
        })
    return stats
