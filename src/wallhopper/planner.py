"""Offline jump planning.

A jump is transcribed by single shooting: the leg impulse f_leg acts for
the fixed thrust duration t_th from rest at p0, then N knots of flight of
total (free) duration t_f are integrated under per-knot rope forces held
constant within each knot.  The decision vector is

    z = (f_leg in R^3, F_left in R^N, F_right in R^N, t_f),

scaled to O(1) and laid out by ShootingProblem._join and _split alone,
optimised subject to rope unilaterality/actuation bounds, a friction
pyramid on the leg impulse, wall (or ellipsoid-obstacle) clearance at
every knot and a terminal ball |p(t_f) - p_tg| <= slack.  The cost adds a
quadratic terminal-accuracy term, a smoothing penalty on successive rope
force increments and the (smoothed) hoist work.

jump_schedule alone writes a jump's step schedule from rest: step 0 holds
the leg force for t_th, step k + 1 knot k's rope forces for t_f / N.
step_inputs is that schedule at a decision vector and JumpPlan.schedule at
a plan; the simulator flies it, and the MPC's control tick k is its step
k + 1.  The problem rolls it out from rest by one rollout_arrays call at
sub-step resolution (integrator.substep_schedule), on Python floats for
one point; the knot states are its knot_rows.  The gradient and the
constraint Jacobian are exact and are read off the value code: no term is
differentiated by hand.  integrator.rollout_jacobian, the one call that
differentiates a rollout, takes the sub-step states the value evaluation
already holds and the same schedule, and evaluates cost_and_constraints
once, batched, at a complex step of Z with the knot states moved along
their tangents (see the integrator).  So a change to the cost or a
constraint needs no derivative edit.
Every clearance row, flat wall or bump, reads one formula, wall_gap; the
NLP, _check_target and audit_plan all call it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .integrator import (IntegratorConfig, knot_rows, rollout_arrays, rollout_jacobian,
                         substep_schedule)
from .model import (Ellipsoid, Scenario, inverse_kinematics, position_arrays,
                    static_rope_pull, tangent_frame)
from .solvers import NlpProblem, solve_nlp

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
        for name in ("w_hw", "w_s", "w_term"):
            if not (0.0 <= getattr(self, name) < math.inf):
                raise ValueError(f"weight {name} must be finite and non-negative")
        if not (isinstance(self.n_knots, Integral) and self.n_knots >= 10):
            raise ValueError(f"need an integer of at least 10 knots, got {self.n_knots!r}")
        if not (0.0 < self.slack < math.inf):
            raise ValueError("slack must be finite and positive")
        if not math.isfinite(self.clearance):
            raise ValueError("clearance must be finite")


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

    def schedule(self, t_th: float):
        """The plan's step schedule from rest, (u (N+1, 6), dt (N+1,)): see
        jump_schedule."""
        return jump_schedule(self.f_leg, self.rope_left, self.rope_right, self.t_f, t_th)

    def input_schedule(self) -> np.ndarray:
        """The knot steps' inputs, rows 1: of schedule (N, 6), which t_th
        does not enter; perfbench.workload.load_track_plan reads them."""
        return self.schedule(0.0)[0][1:]


def jump_schedule(f_leg, rope_left, rope_right, t_f, t_th):
    """The step schedule of a jump from rest: inputs (..., N+1, 6) and
    lengths (..., N+1).  Step 0 is the thrust, the leg force f_leg (..., 3)
    held for t_th with the ropes slack; step k + 1 holds the rope forces
    rope_left[..., k] and rope_right[..., k] (..., N) for t_f / N, t_f (...,).

    Real or complex, batched or not, as the arguments are.
    """
    t_f = np.asarray(t_f)
    n = np.shape(rope_left)[-1]
    u = np.zeros(t_f.shape + (n + 1, 6), dtype=np.result_type(f_leg, rope_left, rope_right, t_f))
    u[..., 0, 2:5] = f_leg
    u[..., 1:, 0] = rope_left
    u[..., 1:, 1] = rope_right
    dt = np.empty(u.shape[:-1], dtype=t_f.dtype)
    dt[..., 0] = t_th
    dt[..., 1:] = t_f[..., None] / n
    return u, dt


def obstacle_min_x(p_y, p_z, obstacle: Ellipsoid, clearance: float,
                   wall_offset: float):
    """Lower bound on p_x clearing an ellipsoidal bump (vectorised).

    Solves the ellipsoid equation for x at (p_y, p_z): q = (x - o_x)^2 on
    the bump's surface is positive inside its shadow, where the bound is
    the bump surface plus the clearance if that lies beyond the flat-wall
    offset; elsewhere the offset applies.  Real or complex, as p_y and p_z
    are.
    """
    o, R = obstacle.center, obstacle.semi_axes
    k_y, k_z = R[0] ** 2 / R[1] ** 2, R[0] ** 2 / R[2] ** 2
    dy, dz = np.asarray(p_y) - o[1], np.asarray(p_z) - o[2]
    q = R[0] ** 2 - k_y * dy ** 2 - k_z * dz ** 2
    with np.errstate(invalid="ignore"):
        x_hat = o[0] + np.sqrt(np.where(q > 0.0, q, 0.0)) + clearance
    return np.where((q > 0.0) & (x_hat > wall_offset), x_hat, wall_offset)


def wall_gap(pos, scenario: Scenario, clearance: float):
    """Wall clearance of positions pos (..., 3), >= 0 where clear: n.p minus
    wall_offset on the flat wall, p_x minus obstacle_min_x with a bump.
    Real or complex, as pos is."""
    if scenario.obstacle is None:
        return np.einsum("...i,i->...", pos, scenario.wall_normal) - scenario.wall_offset
    return pos[..., 0] - obstacle_min_x(pos[..., 1], pos[..., 2], scenario.obstacle,
                                        clearance, scenario.wall_offset)


class ShootingProblem:
    """Cost, constraints and their exact Jacobians for the jump NLP.

    Decision vectors Z are scaled to O(1): leg force by f_leg_max, rope
    forces by f_r_max, t_f unscaled; _split and _join hold that layout.  A
    value evaluation rolls out the sub-step states from rest and keeps them
    with the values for the last point only; the Jacobians at that point
    are one rollout_jacobian call (see the module docstring) and cost no
    second real rollout.  counters holds the number of value and Jacobian
    evaluations, the seconds spent in each, and the sub-step states the
    value rollouts stepped (rollout_rows).
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
        self.scale = self._join(scenario.f_leg_max, scenario.f_r_max, scenario.f_r_max, 1.0)
        self.n_var = self.scale.size
        # Bring the cost to O(1-10) so the solver's absolute objective
        # tolerance is meaningful: the smoothing term is O(N * f^2) and the
        # hoist term O(f_r_max * rope travel).
        self.cost_scale = 1.0 / max(1.0,
                                    weights.w_s * scenario.f_r_max ** 2 / 10.0,
                                    weights.w_hw * scenario.f_r_max)
        # Friction pyramid and actuation cap on the leg force, linear in it:
        # leg_rows @ f_leg + leg_offsets <= 0.
        n_c, mu = scenario.wall_normal, scenario.mu
        t1, t2 = tangent_frame(n_c)
        self.leg_rows = np.stack([-n_c, n_c, t1 - mu * n_c, -t1 - mu * n_c,
                                  t2 - mu * n_c, -t2 - mu * n_c])
        self.leg_offsets = np.array([0.0, -scenario.f_leg_max, 0.0, 0.0, 0.0, 0.0])
        self.counters = {"value_evals": 0, "gradient_evals": 0,
                         "value_s": 0.0, "gradient_s": 0.0, "rollout_rows": 0}
        self._last: tuple | None = None          # (Z, its values and Jacobians)

    # -- transcription ------------------------------------------------------

    def _join(self, f_leg, F_left, F_right, t_f):
        """One vector in the layout (f_leg, F_left, F_right, t_f); a scalar
        fills its whole block."""
        return np.concatenate([np.broadcast_to(f_leg, 3), np.broadcast_to(F_left, self.N),
                               np.broadcast_to(F_right, self.N), [t_f]])

    def _split(self, Z):
        """Scaled decision vectors Z (..., n_var) -> f_leg (..., 3), F_left,
        F_right (..., N) in newtons and t_f (...,) in seconds; real or
        complex, as Z is."""
        z = np.asarray(Z) * self.scale
        return z[..., :3], z[..., 3:3 + self.N], z[..., 3 + self.N:-1], z[..., -1]

    def step_inputs(self, Z):
        """Z: (..., n_var) -> the jump_schedule of Z's jump, inputs
        (..., N+1, 6) and lengths (..., N+1); real or complex, as Z is."""
        return jump_schedule(*self._split(Z), self.scen.t_th)

    def substep_rollout(self, Z):
        """Z: (..., n_var) scaled decision vectors -> states
        (..., (N+1) n_sub + 1, 6): the rest state, then the state after
        every RK4 sub-step of the thrust and the N knot steps.

        Real or complex, as Z is.
        """
        return rollout_arrays(self.x_rest, *substep_schedule(*self.step_inputs(Z), self.cfg),
                              self.scen)

    def rollout(self, Z):
        """Z: (..., n_var) scaled decision vectors -> states (..., N+2, 6):
        the rest state, then the N+1 knot states from lift-off.

        Real or complex, as Z is.
        """
        return knot_rows(self.substep_rollout(Z), self.cfg)

    def cost_and_constraints(self, Z, states=None):
        """Returns (cost (...,), g (..., m)) with g <= 0 feasible.

        states are Z's knot states, rollout(Z), if the caller has them.
        Real or complex as Z and states are, and analytic in both, so a
        complex step through it gives its derivatives; NaN where the
        rollout leaves the model domain.
        """
        f_leg, frl, frr, t_f = self._split(Z)
        if states is None:
            states = self.rollout(Z)
        knots = states[..., 1:, :]                       # lift-off onwards
        pos = position_arrays(knots[..., 0], knots[..., 1], knots[..., 2],
                              self.scen.d_a)
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
        l1_dot = knots[..., :-1, 4]
        l2_dot = knots[..., :-1, 5]
        d2 = HOIST_SMOOTHING_DELTA ** 2
        hoist = (np.sum(np.sqrt((frl * l1_dot) ** 2 + d2), axis=-1)
                 + np.sum(np.sqrt((frr * l2_dot) ** 2 + d2), axis=-1)) * dt
        cost = cost + self.w.w_hw * hoist

        # Terminal ball, clearance at every knot (lift-off knot included), leg.
        g = np.concatenate([term_sq[..., None] - ball_sq,
                            -wall_gap(pos, self.scen, self.w.clearance),
                            f_leg @ self.leg_rows.T + self.leg_offsets], axis=-1)
        return cost * self.cost_scale, g

    # -- value/Jacobian interface for the NLP solver, memoised at one point --

    def _values(self, Z):
        if self._last is None or not np.array_equal(self._last[0], Z):
            t0 = time.perf_counter()
            states = self.substep_rollout(Z)
            cost, g = self.cost_and_constraints(Z, knot_rows(states, self.cfg))
            bad = not (np.isfinite(cost) and np.isfinite(g).all())
            if bad:
                # Outside the model domain: a large cost and violated rows
                # send the line search back; the Jacobians there are zero.
                cost, g = 1e9 * self.cost_scale, np.full(g.shape, 1e3)
            self._last = Z.copy(), {"cost": float(cost), "g": g,
                                    "states": None if bad else states}
            self.counters["value_evals"] += 1
            self.counters["rollout_rows"] += len(states) - 1
            self.counters["value_s"] += time.perf_counter() - t0
        return self._last[1]

    def _jacobians(self, Z):
        entry = self._values(Z)
        if "jac" not in entry:
            t0 = time.perf_counter()
            if entry["states"] is None:
                entry["jac"] = np.zeros((1 + entry["g"].size, self.n_var))
            else:
                # Row 0 is the gradient, the rest the constraint Jacobian.
                entry["jac"] = rollout_jacobian(
                    lambda Z, s: np.column_stack(self.cost_and_constraints(Z, s)), Z,
                    entry["states"], self.step_inputs, self.cfg, self.scen)
            self.counters["gradient_evals"] += 1
            self.counters["gradient_s"] += time.perf_counter() - t0
        return entry["jac"]

    def objective(self, Z):
        return self._values(np.asarray(Z))["cost"]

    def gradient(self, Z):
        return self._jacobians(np.asarray(Z))[0]

    def constraints(self, Z):
        return self._values(np.asarray(Z))["g"]

    def constraints_jac(self, Z):
        return self._jacobians(np.asarray(Z))[1:]

    def bounds(self):
        mu = self.scen.mu
        return (self._join(-(1.0 + mu), -1.0, -1.0, T_F_BOUNDS[0]),
                self._join(1.0 + mu, 0.0, 0.0, T_F_BOUNDS[1]))

    def initial_guess(self, t_f0: float = 2.0) -> np.ndarray:
        pull = static_rope_pull(self.p0, self.scen)
        return self._join(0.3 * self.scen.f_leg_max * self.scen.wall_normal,
                          pull[0], pull[1], t_f0) / self.scale


def _check_target(p0, p_tg, scenario: Scenario, weights: PlannerWeights):
    for name, p in (("start", p0), ("target", p_tg)):
        if p.shape != (3,) or not np.all(np.isfinite(p)):
            raise ValueError(f"{name} position must be a finite 3-vector, got {p}")
        gap = float(wall_gap(p, scenario, weights.clearance))
        if gap < -1e-12:
            raise PlanningError(f"{name} position {p} is {-gap:.3f} m inside the "
                                "wall clearance")


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
    t0 = time.perf_counter()
    res = solve_nlp(nlp)
    nlp_s = time.perf_counter() - t0
    f_leg, rope_left, rope_right, t_f = prob._split(res.x)
    states = prob.rollout(res.x)[1:]
    positions = position_arrays(states[:, 0], states[:, 1], states[:, 2],
                                scenario.d_a)
    plan = JumpPlan(f_leg=f_leg, rope_left=rope_left, rope_right=rope_right,
                    t_f=float(t_f), states=states, positions=positions, p0=p0,
                    p_target=p_tg, rest_state=prob.x_rest,
                    solve_info={"status": res.status, "n_iter": res.n_iter,
                                "kkt_residual": res.kkt_residual,
                                "constraint_violation": res.constraint_violation,
                                "objective": res.objective,
                                **prob.counters, "nlp_s": nlp_s, "kkt_s": res.kkt_s})
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
    n_c = scenario.wall_normal
    t1, t2 = tangent_frame(n_c)
    fn = float(plan.f_leg @ n_c)
    viol["leg_pyramid"] = float(max(
        -fn, fn - scenario.f_leg_max,
        abs(plan.f_leg @ t1) - scenario.mu * fn,
        abs(plan.f_leg @ t2) - scenario.mu * fn, 0.0))
    gap = wall_gap(plan.positions, scenario, weights.clearance)
    viol["wall"] = float(max(np.max(-gap), 0.0))
    viol["terminal"] = float(max(plan.terminal_error - weights.slack, 0.0))
    viol["t_f"] = float(max(T_F_BOUNDS[0] - plan.t_f, plan.t_f - T_F_BOUNDS[1], 0.0))
    viol["max_violation"] = max(viol.values())
    return viol

