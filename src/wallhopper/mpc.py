"""Receding-horizon flight controller.

A control tick is one knot step of the plan's schedule from rest
(JumpPlan.schedule, step 0 the thrust): tick k starts at knot k, flies
step k + 1's rope forces plus the optimised deviations, and lasts step
k + 1's length.  At each tick the optimiser adjusts the feed-forward of
steps k + 1 .. k + H by per-step deviations and adds a bilateral
propeller force, minimising tracking error against the planned Cartesian
reference at knots k .. k + H - 1 plus an input smoothing cost, under the
rope unilateral/actuation bounds.  The horizon shrinks at the plan's end
by slicing the schedule.  Only the first optimised input is applied; the
remainder seeds the next solve.

The cost is a sum of squares under box bounds, so a tick is one real-time
iteration (Diehl, Bock & Schloeder, SIAM J. Control Optim. 2005): the
rollout of the clipped, shifted warm start from the estimated state, the
residual Jacobian there (integrator.rollout_jacobian, read off one complex
evaluation of the residuals themselves), and at most one bounded
Gauss-Newton step through solve_nlp (one QR and, when a rope bound is
active, one nnls call: solvers.box_step), applied without simulating it
again.  Non-finite residuals or Jacobian, or a rank-deficient Jacobian,
degrade the tick; its diagnostics keep the seconds of its steps as step_s.
MpcConfig.max_iter allows more steps, each after a rollout at the point the
last one reached.  Each iterate is one evaluation of the residuals and
their Jacobian from one rollout_arrays call on Python floats at sub-step
resolution (integrator.substep_schedule): the residuals read its
knot_rows, and rollout_jacobian its sub-step states and the layout of the
window.  The residuals are written once, as a function of the deviations
and the knot states, so a change to them needs no derivative edit.  The
input formula is written once too: a tick's step schedule, the window's
feed-forward plus deviations for the window's lengths, is what
rollout_arrays steps from the estimated state, what rollout_jacobian
differentiates, and, at its first step, the input command applies.

A real-time iteration keeps off the tick what does not depend on the
measurement, so each array is built where what it depends on changes:

- per controller (``TrackingController``): the plan's knot positions and
  schedule, the force scales, the IntegratorConfig, the box bounds of the
  deviations of every knot step, and the layout
  (integrator.input_tangents) of its longest window: the input tangents,
  the perturbation block and the direction block rollout_jacobian reads.
  A window's schedule is affine in its deviations with a linear part set
  by its length and the force scales alone, and each step moves only its
  own three deviations, so a shorter window's layout is a slice of the
  longest one's.  A tick slices the bounds and the layout to its window;
- per tick: the window's feed-forward and lengths, the previous tick's
  deviation, the warm start, and the rollouts, residuals and Jacobians of
  its iterates.

The controller also keeps the previous tick's solution, which gives both
the shifted warm start and the deviation applied last period (the first
term of the input smoothing cost).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .integrator import (IntegratorConfig, Layout, input_tangents, knot_rows, rollout_arrays,
                         rollout_jacobian, substep_schedule)
from .model import Scenario, position_arrays
from .planner import JumpPlan
from .solvers import NlpProblem, solve_nlp

W_SMOOTH = 1e-5                    # input smoothing weight (tracking weight 1)


@dataclass(frozen=True)
class MpcConfig:
    n_horizon: int = 12            # knots in the receding horizon
    max_iter: int = 1              # Gauss-Newton steps per tick

    def __post_init__(self):
        if not (isinstance(self.n_horizon, Integral) and self.n_horizon >= 2):
            raise ValueError(f"horizon must be an integer of at least 2 knots, "
                             f"got {self.n_horizon!r}")
        if not (isinstance(self.max_iter, Integral) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")

    @classmethod
    def from_plan(cls, plan: JumpPlan, **overrides) -> "MpcConfig":
        """A horizon over 40 % of the plan's knots, unless overridden."""
        return cls(**{"n_horizon": max(2, round(0.4 * plan.n_knots)), **overrides})


@dataclass
class MpcSolution:
    """A tick's horizon: its deviations in N, one row per step."""

    deviations: np.ndarray         # (H, 3): left and right rope force, propeller
    degraded: bool = False
    diagnostics: dict = field(default_factory=dict)


def warm_start_from(prev: MpcSolution | None, horizon: int) -> np.ndarray:
    """Shift-by-one (H, 3) initial guess, last row repeated; zeros at a cold start."""
    if prev is None:
        return np.zeros((horizon, 3))
    dev = prev.deviations
    return dev[np.minimum(np.arange(1, horizon + 1), len(dev) - 1)]


def _window_inputs(z, ff, dt, f_scale):
    """The step schedule of a horizon window: the feed-forward rope forces
    ff (H, 2) plus the deviations z (..., 3 H), scaled by f_scale, and
    the propeller, for the lengths dt (H,); real or complex, as z is."""
    v = z.reshape(z.shape[:-1] + (len(dt), 3)) * f_scale
    u = np.zeros(v.shape[:-1] + (6,), dtype=v.dtype)
    u[..., :2] = ff + v[..., :2]
    u[..., 5] = v[..., 2]
    return u, np.broadcast_to(dt, u.shape[:-1])


class TrackingController:
    """Tracks the plan one knot per tick: the knot positions are the
    reference, the plan's schedule gives the feed-forward and the step
    lengths; keeps the warm-start state across ticks.  Builds the layout
    of its longest window once, and each tick reads a slice of it."""

    def __init__(self, plan: JumpPlan, scenario: Scenario, cfg: MpcConfig | None = None):
        self.scen = scenario
        self.cfg = cfg or MpcConfig.from_plan(plan)
        self.p_ref = plan.positions                        # (N+1, 3)
        self.schedule = plan.schedule(scenario.t_th)       # (N+1, 6), (N+1,)
        self.prev_solution: MpcSolution | None = None
        self.icfg = IntegratorConfig()
        # The newtons of one unit of the decision vector: left rope, right
        # rope, propeller.
        self.f_scale = np.array([scenario.f_r_max, scenario.f_r_max,
                                 max(scenario.f_p_max, 1e-9)])
        # Rope bounds map to boxes on the deviations of each knot step
        # 1..N, three per step; the propeller is bilateral.
        ff, p_max = self.schedule[0][1:, :2], float(scenario.f_p_max > 0.0)
        self.lower = np.column_stack([(-scenario.f_r_max - ff) / self.f_scale[:2],
                                      np.full(len(ff), -p_max)]).ravel()
        self.upper = np.column_stack([-ff / self.f_scale[:2], np.full(len(ff), p_max)]).ravel()
        # The layout of the longest window, min(n_horizon, N) steps; its
        # feed-forward and lengths (zero here) do not enter it.
        H = min(self.cfg.n_horizon, len(ff))
        self.layout = input_tangents(
            lambda z: _window_inputs(z, np.zeros((H, 2)), np.zeros(H), self.f_scale), 3 * H)

    @property
    def n_ticks(self) -> int:
        return len(self.schedule[1]) - 1

    def command(self, x_hat: np.ndarray, k: int) -> tuple[np.ndarray, MpcSolution]:
        """Solve at tick k, an integer, from the estimated state x_hat, a
        6-vector, and return (input to apply as a (6,) array, solution)."""
        if not isinstance(k, Integral):
            raise ValueError(f"tick {k} is not an integer")
        if not 0 <= k < self.n_ticks:
            raise ValueError(f"tick {k} outside [0, {self.n_ticks})")
        x_hat = np.asarray(x_hat, dtype=float)
        if x_hat.shape != (6,):
            raise ValueError(f"x_hat must be a state 6-vector, got shape {x_hat.shape}")
        t0 = time.perf_counter()
        u, sol = self._solve(x_hat, k)
        sol.diagnostics["tick_s"] = time.perf_counter() - t0
        self.prev_solution = sol
        return u, sol

    def _solve(self, x_hat: np.ndarray, k: int) -> tuple[np.ndarray, MpcSolution]:
        """One real-time iteration from the estimated state at tick k,
        warm-started from the previous tick's solution.

        Returns the first step's input and the full horizon; on solver
        failure, the clipped warm start with the degraded flag set.
        """
        cfg, scenario, icfg, f_scale = self.cfg, self.scen, self.icfg, self.f_scale
        window = slice(k + 1, k + 1 + cfg.n_horizon)      # cut at the plan's end
        ff, dt = self.schedule[0][window, :2], self.schedule[1][window]
        H = len(dt)
        p_ref = self.p_ref[k:k + H]                        # knots 0..H-1
        # The i-1 term of the smoothing cost: deviation applied at the
        # previous control period (cold start: the unmodified feed-forward).
        prev = self.prev_solution
        prev_dev = np.zeros((1, 2)) if prev is None else prev.deviations[:1, :2]
        sw = np.sqrt(W_SMOOTH)                             # residuals carry the root
        w, e, directions = self.layout
        layout = Layout(w[:H, :, :3 * H], e[:H], directions[:3 * H, :3 * H])

        def step_inputs(z):
            return _window_inputs(z, ff, dt, f_scale)

        def residuals_at(z, states):
            # Tracking at knots 0..H-1, then the first differences of each
            # rope deviation, the first one taken against the previous
            # period's, all left ropes before all right ropes.
            batch, s = z.shape[:-1], states[..., :H, :]
            pos = position_arrays(s[..., 0], s[..., 1], s[..., 2], scenario.d_a)
            ropes = z.reshape(batch + (H, 3))[..., :2] * f_scale[:2]
            smooth = sw * np.diff(ropes, axis=-2,
                                  prepend=np.broadcast_to(prev_dev, batch + (1, 2)))
            return np.concatenate([(pos - p_ref).reshape(batch + (3 * H,)),
                                   np.swapaxes(smooth, -1, -2).reshape(batch + (2 * H,))],
                                  axis=-1)

        def residuals(z):
            u, dt_z = step_inputs(z)
            states = rollout_arrays(x_hat, *substep_schedule(u, dt_z, icfg), scenario)
            return (residuals_at(z, knot_rows(states, icfg)),
                    rollout_jacobian(residuals_at, z, states, u, dt_z, layout, icfg, scenario))

        lo, hi = self.lower[3 * k:3 * (k + H)], self.upper[3 * k:3 * (k + H)]
        z0 = np.clip((warm_start_from(prev, H) / f_scale).ravel(), lo, hi)

        problem = NlpProblem(x0=z0, residuals=residuals, lower=lo, upper=hi,
                             tol_stat=1e-5, max_iter=cfg.max_iter)
        degraded = False
        try:
            res = solve_nlp(problem)
            z = res.x
            diagnostics = {"status": res.status, "n_iter": res.n_iter, "step_s": res.step_s}
        except RuntimeError as exc:  # non-finite or rank-deficient, or nnls at its cap
            z, degraded = z0, True
            diagnostics = {"status": "failed", "n_iter": 0, "step_s": 0.0, "error": str(exc)}
        sol = MpcSolution(z.reshape(H, 3) * f_scale, degraded, diagnostics)
        return step_inputs(z)[0][0], sol
