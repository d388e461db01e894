"""Offline jump planning.

A jump is transcribed by single shooting: the leg impulse f_leg acts for
the fixed thrust duration t_th from rest at p0, then N knots of flight of
total (free) duration t_f are integrated under per-knot rope forces held
constant within each knot.  The decision vector is

    z = (f_leg in R^3, F_left in R^N, F_right in R^N, t_f),

optimised subject to rope unilaterality/actuation bounds, a friction
pyramid on the leg impulse, wall (or ellipsoid-obstacle) clearance at
every knot and a terminal ball |p(t_f) - p_tg| <= slack.  The cost adds a
quadratic terminal-accuracy term, a smoothing penalty on successive rope
force increments and the (smoothed) hoist work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .integrator import IntegratorConfig, rollout_arrays, step_arrays
from .model import Ellipsoid, Scenario, inverse_kinematics, position_arrays
from .solvers import NlpProblem, solve_nlp
from .stability import tangent_frame

HOIST_SMOOTHING_DELTA = 1e-4
T_F_BOUNDS = (0.2, 10.0)


class PlanningError(RuntimeError):
    """Target unreachable or solver failed to produce a valid plan."""


@dataclass(frozen=True)
class PlannerWeights:
    w_hw: float = 0.1          # hoist-work weight
    w_s: float = 1.0           # smoothing weight on force increments
    w_term: float = 1e4        # quadratic terminal-accuracy weight
    slack: float = 0.02        # terminal ball radius (m)
    clearance: float = 1.0     # obstacle clearance (m)
    n_knots: int = 30

    def __post_init__(self):
        if min(self.w_hw, self.w_s, self.w_term) < 0.0:
            raise ValueError("weights must be non-negative")
        if self.n_knots < 10:
            raise ValueError("need at least 10 knots")
        if self.slack <= 0.0:
            raise ValueError("slack must be positive")


@dataclass
class JumpPlan:
    f_leg: np.ndarray            # (3,) thrust force, applied for t_th
    rope_left: np.ndarray        # (N,) per-knot rope forces, <= 0
    rope_right: np.ndarray       # (N,)
    t_f: float                   # flight duration
    states: np.ndarray           # (N+1, 6) knot states, row 0 = end of thrust
    positions: np.ndarray        # (N+1, 3)
    p0: np.ndarray
    p_target: np.ndarray
    rest_state: np.ndarray       # (6,) state at rest before thrust
    solve_info: dict = field(default_factory=dict)

    @property
    def n_knots(self) -> int:
        return self.rope_left.size

    @property
    def dt(self) -> float:
        return self.t_f / self.n_knots

    @property
    def terminal_error(self) -> float:
        return float(np.linalg.norm(self.positions[-1] - self.p_target))

    def input_schedule(self) -> np.ndarray:
        """Flight inputs as an (N, 6) array (ropes only)."""
        u = np.zeros((self.n_knots, 6))
        u[:, 0] = self.rope_left
        u[:, 1] = self.rope_right
        return u


def obstacle_min_x(p_y, p_z, obstacle: Ellipsoid, clearance: float,
                   wall_offset: float):
    """Lower bound on p_x clearing an ellipsoidal bump (vectorised).

    Solves the ellipsoid equation for x at (p_y, p_z): inside the bump's
    shadow the bound is the bump surface plus the clearance, elsewhere the
    flat-wall offset applies.
    """
    o, R = obstacle.center, obstacle.semi_axes
    q = (R[0] ** 2
         - (R[0] ** 2 / R[1] ** 2) * (np.asarray(p_y) - o[1]) ** 2
         - (R[0] ** 2 / R[2] ** 2) * (np.asarray(p_z) - o[2]) ** 2)
    with np.errstate(invalid="ignore"):
        x_hat = o[0] + np.sqrt(np.where(q > 0.0, q, 0.0)) + clearance
    return np.where(q > 0.0, x_hat, wall_offset)


def _static_pull(p0: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Least-squares rope pull balancing gravity at p0, clipped to bounds."""
    a_l = (p0 - scenario.anchor_left) / np.linalg.norm(p0 - scenario.anchor_left)
    a_r = (p0 - scenario.anchor_right) / np.linalg.norm(p0 - scenario.anchor_right)
    A = np.column_stack([a_l, a_r])
    f, *_ = np.linalg.lstsq(A, -scenario.mass * scenario.gravity, rcond=None)
    return np.clip(f, -scenario.f_r_max, 0.0)


class ShootingProblem:
    """Batched cost/constraint evaluation for the jump NLP.

    Decision variables are scaled to O(1): leg force by f_leg_max, rope
    forces by f_r_max, t_f unscaled.  Gradients are forward finite
    differences computed in one batched rollout and cached per point.
    """

    def __init__(self, p0, p_tg, scenario: Scenario, weights: PlannerWeights,
                 cfg: IntegratorConfig):
        self.p0 = np.asarray(p0, dtype=float)
        self.p_tg = np.asarray(p_tg, dtype=float)
        self.scen = scenario
        self.w = weights
        self.cfg = cfg
        self.N = weights.n_knots
        psi, l1, l2 = inverse_kinematics(self.p0, scenario)
        self.x_rest = np.array([psi, l1, l2, 0.0, 0.0, 0.0])
        self.n_var = 3 + 2 * self.N + 1
        self.scale = np.concatenate([
            np.full(3, scenario.f_leg_max),
            np.full(2 * self.N, scenario.f_r_max),
            [1.0],
        ])
        # Bring the cost to O(1-10) so the solver's absolute objective
        # tolerance is meaningful: the smoothing term is O(N * f^2) and the
        # hoist term O(f_r_max * rope travel).
        self.cost_scale = 1.0 / max(1.0,
                                    weights.w_s * scenario.f_r_max ** 2 / 10.0,
                                    weights.w_hw * scenario.f_r_max)
        t1, t2 = tangent_frame(scenario.contact_normal)
        self.tangents = (t1, t2)
        self._cache: dict = {}

    # -- transcription ------------------------------------------------------

    def rollout(self, Z):
        """Z: (..., n_var) scaled decision vectors -> knot states (..., N+1, 6)."""
        Z = np.asarray(Z, dtype=float)
        z = Z * self.scale
        f_leg = z[..., 0:3]
        t_f = z[..., -1]
        u_thrust = np.zeros(z.shape[:-1] + (6,))
        u_thrust[..., 2:5] = f_leg
        x0 = np.broadcast_to(self.x_rest, z.shape[:-1] + (6,))
        x_lift = step_arrays(x0, u_thrust, self.scen.t_th, self.cfg, self.scen)
        u_flight = np.zeros(z.shape[:-1] + (self.N, 6))
        u_flight[..., :, 0] = z[..., 3:3 + self.N]
        u_flight[..., :, 1] = z[..., 3 + self.N:3 + 2 * self.N]
        dt = t_f / self.N
        return rollout_arrays(x_lift, u_flight, dt, self.cfg, self.scen)

    def cost_and_constraints(self, Z):
        """Returns (cost (...,), g (..., m)) with g <= 0 feasible."""
        Z = np.asarray(Z, dtype=float)
        z = Z * self.scale
        states = self.rollout(Z)
        pos = position_arrays(states[..., 0], states[..., 1], states[..., 2],
                              self.scen.d_a)
        frl = z[..., 3:3 + self.N]
        frr = z[..., 3 + self.N:3 + 2 * self.N]
        t_f = z[..., -1]
        dt = t_f / self.N

        err = pos[..., -1, :] - self.p_tg
        term_sq = np.sum(err * err, axis=-1)
        # Terminal ball tightened by 10 um so solver tolerance slop cannot
        # leak past the audited slack.
        ball_sq = (self.w.slack - 1e-5) ** 2
        cost = self.w.w_term * term_sq
        cost = cost + self.w.w_s * (
            np.sum(np.diff(frl, axis=-1) ** 2, axis=-1)
            + np.sum(np.diff(frr, axis=-1) ** 2, axis=-1))
        # Smoothed |f * l_dot| summed over knots; rates at knot starts.
        l1_dot = states[..., :-1, 4]
        l2_dot = states[..., :-1, 5]
        d2 = HOIST_SMOOTHING_DELTA ** 2
        hoist = (np.sum(np.sqrt((frl * l1_dot) ** 2 + d2), axis=-1)
                 + np.sum(np.sqrt((frr * l2_dot) ** 2 + d2), axis=-1)) * dt
        cost = cost + self.w.w_hw * hoist

        g_parts = [term_sq[..., None] - ball_sq]
        # Wall / obstacle clearance at every knot (including the lift-off knot).
        if self.scen.obstacle is None:
            n = self.scen.wall_normal
            depth = np.einsum("...i,i->...", pos, n)
            g_parts.append(self.scen.wall_offset - depth)
        else:
            bound = obstacle_min_x(pos[..., 1], pos[..., 2], self.scen.obstacle,
                                   self.w.clearance, self.scen.wall_offset)
            g_parts.append(bound - pos[..., 0])
        # Friction pyramid and actuation cap on the leg impulse.
        f_leg = z[..., 0:3]
        n_c = self.scen.contact_normal
        fn = np.einsum("...i,i->...", f_leg, n_c)
        rows = [-fn, fn - self.scen.f_leg_max]
        for t in self.tangents:
            ft = np.einsum("...i,i->...", f_leg, t)
            rows.append(ft - self.scen.mu * fn)
            rows.append(-ft - self.scen.mu * fn)
        g_parts.append(np.stack(rows, axis=-1))
        g = np.concatenate(g_parts, axis=-1)

        bad = ~(np.isfinite(cost) & np.isfinite(g).all(axis=-1))
        if np.any(bad):
            cost = np.where(bad, 1e9, np.nan_to_num(cost, nan=1e9))
            g = np.where(bad[..., None], 1e3, np.nan_to_num(g, nan=1e3))
        return cost * self.cost_scale, g

    # -- cached value/jacobian interface for the NLP solver -----------------

    def _values(self, Z):
        key = Z.tobytes()
        if key not in self._cache:
            if len(self._cache) > 8:
                self._cache.clear()
            cost, g = self.cost_and_constraints(Z)
            self._cache[key] = {"cost": float(cost), "g": g}
        return self._cache[key]

    def _jacobians(self, Z):
        entry = self._values(Z)
        if "jac" not in entry:
            h = 1e-6 * np.maximum(1.0, np.abs(Z))
            cost, g = self.cost_and_constraints(Z + np.diag(h))
            inv = 1.0 / h
            entry["jac"] = ((cost - entry["cost"]) * inv,
                            (g - entry["g"]) * inv[:, None])
        return entry["jac"]

    def objective(self, Z):
        return self._values(np.asarray(Z))["cost"]

    def gradient(self, Z):
        return self._jacobians(np.asarray(Z))[0]

    def constraints(self, Z):
        return self._values(np.asarray(Z))["g"]

    def constraints_jac(self, Z):
        return self._jacobians(np.asarray(Z))[1].T

    def bounds(self):
        lo = np.concatenate([np.full(3, -(1.0 + self.scen.mu)),
                             np.full(2 * self.N, -1.0),
                             [T_F_BOUNDS[0]]])
        hi = np.concatenate([np.full(3, (1.0 + self.scen.mu)),
                             np.zeros(2 * self.N),
                             [T_F_BOUNDS[1]]])
        return lo, hi

    def initial_guess(self, t_f0: float = 2.0) -> np.ndarray:
        pull = _static_pull(self.p0, self.scen)
        z0 = np.concatenate([
            0.3 * self.scen.f_leg_max * self.scen.contact_normal,
            np.full(self.N, pull[0]),
            np.full(self.N, pull[1]),
            [t_f0],
        ])
        return z0 / self.scale


def _check_target(p0, p_tg, scenario: Scenario, weights: PlannerWeights):
    for name, p in (("start", p0), ("target", p_tg)):
        if p @ scenario.wall_normal < scenario.wall_offset - 1e-12:
            raise PlanningError(f"{name} position {p} lies behind the wall")
        if scenario.obstacle is not None:
            bound = float(obstacle_min_x(p[1], p[2], scenario.obstacle,
                                         weights.clearance, scenario.wall_offset))
            if p[0] < bound - 1e-12:
                raise PlanningError(
                    f"{name} position {p} is inside the obstacle clearance "
                    f"(needs x >= {bound:.3f})")


def plan_jump(p0, p_tg, scenario: Scenario,
              weights: PlannerWeights | None = None,
              cfg: IntegratorConfig | None = None,
              max_iter: int = 150) -> JumpPlan:
    """Optimise a jump from rest at p0 to the target ball around p_tg."""
    weights = weights or PlannerWeights()
    cfg = cfg or IntegratorConfig()
    p0 = np.asarray(p0, dtype=float)
    p_tg = np.asarray(p_tg, dtype=float)
    _check_target(p0, p_tg, scenario, weights)

    prob = ShootingProblem(p0, p_tg, scenario, weights, cfg)
    lo, hi = prob.bounds()
    nlp = NlpProblem(objective=prob.objective, gradient=prob.gradient,
                     constraints=prob.constraints,
                     constraints_jac=prob.constraints_jac,
                     x0=prob.initial_guess(), lower=lo, upper=hi,
                     tol_feas=1e-7, tol_stat=1e-2, tol_obj=1e-6,
                     max_iter=max_iter)
    res = solve_nlp(nlp)
    z = res.x * prob.scale
    # Snap tiny box violations left by the solver.
    z[3:3 + 2 * prob.N] = np.clip(z[3:3 + 2 * prob.N], -scenario.f_r_max, 0.0)
    z[-1] = np.clip(z[-1], *T_F_BOUNDS)
    Z = z / prob.scale
    states = prob.rollout(Z)
    positions = position_arrays(states[:, 0], states[:, 1], states[:, 2],
                                scenario.d_a)
    plan = JumpPlan(f_leg=z[0:3], rope_left=z[3:3 + prob.N],
                    rope_right=z[3 + prob.N:3 + 2 * prob.N], t_f=float(z[-1]),
                    states=states, positions=positions, p0=p0, p_target=p_tg,
                    rest_state=prob.x_rest,
                    solve_info={"status": res.status, "n_iter": res.n_iter,
                                "kkt_residual": res.kkt_residual,
                                "constraint_violation": res.constraint_violation,
                                "objective": res.objective})
    audit = audit_plan(plan, scenario, weights)
    plan.solve_info["audit"] = audit
    # Acceptance rests on the independent audit, not on the solver's verdict:
    # SLSQP may stop on its iteration cap or report an inconsistent QP
    # subproblem while sitting on a fully feasible, on-target plan.
    if audit["max_violation"] > 1e-6:
        raise PlanningError(
            f"planner did not converge: status={res.status}, "
            f"kkt={res.kkt_residual:.2e}, violation={audit['max_violation']:.2e}, "
            f"terminal_error={plan.terminal_error:.4f} m")
    return plan


def audit_plan(plan: JumpPlan, scenario: Scenario,
               weights: PlannerWeights | None = None) -> dict:
    """Independent re-check of every stated bound on a returned plan."""
    weights = weights or PlannerWeights(n_knots=plan.n_knots)
    viol = {}
    viol["rope_bounds"] = float(max(
        np.max(plan.rope_left, initial=-np.inf),
        np.max(plan.rope_right, initial=-np.inf),
        np.max(-plan.rope_left - scenario.f_r_max, initial=-np.inf),
        np.max(-plan.rope_right - scenario.f_r_max, initial=-np.inf), 0.0))
    n_c = scenario.contact_normal
    t1, t2 = tangent_frame(n_c)
    fn = float(plan.f_leg @ n_c)
    viol["leg_pyramid"] = float(max(
        -fn, fn - scenario.f_leg_max,
        abs(plan.f_leg @ t1) - scenario.mu * fn,
        abs(plan.f_leg @ t2) - scenario.mu * fn, 0.0))
    pos = plan.positions
    if scenario.obstacle is None:
        depth = pos @ scenario.wall_normal
        viol["wall"] = float(max(np.max(scenario.wall_offset - depth), 0.0))
    else:
        bound = obstacle_min_x(pos[:, 1], pos[:, 2], scenario.obstacle,
                               weights.clearance, scenario.wall_offset)
        viol["wall"] = float(max(np.max(bound - pos[:, 0]), 0.0))
    viol["terminal"] = float(max(plan.terminal_error - weights.slack, 0.0))
    viol["t_f"] = float(max(T_F_BOUNDS[0] - plan.t_f, plan.t_f - T_F_BOUNDS[1], 0.0))
    viol["max_violation"] = max(viol.values())
    return viol


def map_plan_to_reference(plan: JumpPlan, dt_mpc: float):
    """Resample knot positions onto the controller clock by linear interpolation.

    Returns (times, positions); exact at the plan knots.
    """
    if dt_mpc <= 0.0:
        raise ValueError("dt_mpc must be positive")
    knot_t = np.arange(plan.n_knots + 1) * plan.dt
    n_ref = int(np.floor(plan.t_f / dt_mpc + 1e-9))
    times = np.arange(n_ref + 1) * dt_mpc
    ref = np.empty((times.size, 3))
    for j in range(3):
        ref[:, j] = np.interp(times, knot_t, plan.positions[:, j])
    return times, ref
