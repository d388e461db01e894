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
iteration (Diehl, Bock & Schloeder, SIAM J. Control Optim. 2005): roll out
the clipped, shifted warm start; take the residual Jacobian from
integrator.rollout_jacobian, which reads it off one complex evaluation of
the residuals themselves (see the integrator); take one bounded
Gauss-Newton step through solve_nlp; roll out once more at the accepted
point for the predicted positions.  MpcConfig.max_iter allows more steps
per tick.  A rollout is one rollout_arrays call on Python floats at
sub-step resolution (integrator.substep_schedule), kept for the last
point; the residuals and predictions read its knot_rows, and
rollout_jacobian starts from its sub-step states.  The residuals are
written once, as a function of the deviations and the knot states, so a
change to them needs no derivative edit.  The input formula is written
once too: a tick's step schedule, the window's feed-forward plus
deviations for the window's lengths, is what rollout_arrays steps from
the estimated state, what rollout_jacobian differentiates, and, at its
first step, the input command applies.

``TrackingController`` holds that state across ticks: the plan's knot
positions and schedule, and the previous tick's solution,
which gives both the shifted warm start and the deviation applied last
period (the first term of the input smoothing cost).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .integrator import (IntegratorConfig, knot_rows, rollout_arrays, rollout_jacobian,
                         substep_schedule)
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
    delta_left: np.ndarray         # (H,) rope-force deviations
    delta_right: np.ndarray        # (H,)
    f_prop: np.ndarray             # (H,)
    predicted_positions: np.ndarray  # (H+1, 3)
    degraded: bool = False
    diagnostics: dict = field(default_factory=dict)


def warm_start_from(prev: MpcSolution | None, horizon: int) -> np.ndarray:
    """Shift-by-one initial guess, last knot repeated; (H, 3) columns
    (delta_left, delta_right, f_prop).  Cold start returns zeros."""
    if prev is None:
        return np.zeros((horizon, 3))
    stacked = np.column_stack([prev.delta_left, prev.delta_right, prev.f_prop])
    return stacked[np.minimum(np.arange(1, horizon + 1), len(stacked) - 1)]


class TrackingController:
    """Tracks the plan one knot per tick: the knot positions are the
    reference, the plan's schedule gives the feed-forward and the step
    lengths; keeps the warm-start state across ticks."""

    def __init__(self, plan: JumpPlan, scenario: Scenario,
                 cfg: MpcConfig | None = None):
        self.scen = scenario
        self.cfg = cfg or MpcConfig.from_plan(plan)
        self.p_ref = plan.positions                        # (N+1, 3)
        self.schedule = plan.schedule(scenario.t_th)       # (N+1, 6), (N+1,)
        self.prev_solution: MpcSolution | None = None

    @property
    def n_ticks(self) -> int:
        return len(self.schedule[1]) - 1

    def command(self, x_hat: np.ndarray, k: int) -> tuple[np.ndarray, MpcSolution]:
        """Solve at tick k and return (input to apply as a (6,) array, solution)."""
        if not 0 <= k < self.n_ticks:
            raise ValueError(f"tick {k} outside [0, {self.n_ticks})")
        t0 = time.perf_counter()
        u, sol = self._solve(np.asarray(x_hat, dtype=float), k)
        sol.diagnostics["tick_s"] = time.perf_counter() - t0
        self.prev_solution = sol
        return u, sol

    def _solve(self, x_hat: np.ndarray, k: int) -> tuple[np.ndarray, MpcSolution]:
        """One real-time iteration from the estimated state at tick k,
        warm-started from the previous tick's solution.

        Returns the first step's input and the full horizon.  On solver
        failure the clipped warm start is returned with the degraded flag
        set.
        """
        cfg, scenario = self.cfg, self.scen
        window = slice(k + 1, k + 1 + cfg.n_horizon)      # cut at the plan's end
        ff, dt = self.schedule[0][window, :2], self.schedule[1][window]
        H = len(dt)
        p_ref = self.p_ref[k:k + H]                        # knots 0..H-1
        # The i-1 term of the smoothing cost: deviation applied at the
        # previous control period (cold start: the unmodified feed-forward).
        prev = self.prev_solution
        prev_dev = [[0.0, 0.0] if prev is None
                    else [prev.delta_left[0], prev.delta_right[0]]]
        icfg = IntegratorConfig()
        f_scale = np.array([scenario.f_r_max, scenario.f_r_max,
                            max(scenario.f_p_max, 1e-9)])
        sw = np.sqrt(W_SMOOTH)                             # residuals carry the root
        last = [None, None]                                # latest (z, sub-step states)

        def step_inputs(z):
            v = z.reshape(z.shape[:-1] + (H, 3)) * f_scale
            u = np.zeros(v.shape[:-1] + (6,), dtype=v.dtype)
            u[..., :2] = ff + v[..., :2]
            u[..., 5] = v[..., 2]
            return u, np.broadcast_to(dt, u.shape[:-1])

        def states_at(z):
            if last[0] is None or not np.array_equal(last[0], z):
                last[:] = z.copy(), rollout_arrays(
                    x_hat, *substep_schedule(*step_inputs(z), icfg), scenario)
            return last[1]

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
            return residuals_at(z, knot_rows(states_at(z), icfg))

        def residuals_jac(z):
            return rollout_jacobian(residuals_at, z, states_at(z), step_inputs, icfg, scenario)

        # Rope bounds map to boxes on the deviations; propeller is bilateral.
        p_max = float(scenario.f_p_max > 0.0)
        lo = np.column_stack([(-scenario.f_r_max - ff) / f_scale[:2], np.full(H, -p_max)])
        hi = np.column_stack([-ff / f_scale[:2], np.full(H, p_max)])
        z0 = np.clip((warm_start_from(prev, H) / f_scale).ravel(), lo.ravel(), hi.ravel())

        problem = NlpProblem(x0=z0, residuals=residuals, residuals_jac=residuals_jac,
                             lower=lo.ravel(), upper=hi.ravel(), tol_stat=1e-5,
                             max_iter=cfg.max_iter)
        degraded = False
        try:
            res = solve_nlp(problem)
            z = res.x
            diagnostics = {"status": res.status, "n_iter": res.n_iter,
                           "objective": res.objective}
        except RuntimeError as exc:  # non-finite residuals, or nnls at its iteration cap
            z, degraded = z0, True
            diagnostics = {"status": "failed", "n_iter": 0, "error": str(exc)}
        v = z.reshape(H, 3) * f_scale
        s = knot_rows(states_at(z), icfg)
        sol = MpcSolution(delta_left=v[:, 0], delta_right=v[:, 1], f_prop=v[:, 2],
                          predicted_positions=position_arrays(s[:, 0], s[:, 1], s[:, 2],
                                                              scenario.d_a),
                          degraded=degraded, diagnostics=diagnostics)
        return step_inputs(z)[0][0], sol
