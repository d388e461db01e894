"""Receding-horizon flight controller.

At each control tick the optimiser adjusts the planned rope-force
feed-forward by per-knot deviations and adds a bilateral propeller force,
minimising tracking error against the planned Cartesian reference over a
(shrinking) horizon under the rope unilateral/actuation bounds.  Only the
first optimised input is applied; the remainder seeds the next solve.

``TrackingController`` holds that state across ticks: the reference and
feed-forward resampled to its clock, and the previous tick's solution,
which gives both the shifted warm start and the deviation applied last
period (the first term of the input smoothing cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .integrator import IntegratorConfig, rollout_arrays
from .model import Scenario, position_arrays
from .planner import JumpPlan, map_plan_to_reference
from .solvers import NlpProblem, solve_nlp


@dataclass(frozen=True)
class MpcConfig:
    n_horizon: int = 12            # knots in the receding horizon
    dt: float = 0.05               # control period (s)
    w_p: float = 1.0               # tracking weight
    w_u: float = 1e-5              # input smoothing weight
    n_sub: int = 5                 # prediction sub-steps per knot
    max_iter: int = 40

    def __post_init__(self):
        if self.n_horizon < 2:
            raise ValueError("horizon must have at least 2 knots")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if min(self.w_p, self.w_u) < 0.0:
            raise ValueError("weights must be non-negative")

    @classmethod
    def from_plan(cls, plan: JumpPlan, horizon_fraction: float = 0.4,
                  **overrides) -> "MpcConfig":
        """Defaults tied to the plan: dt equals the plan knot interval and
        the horizon spans the given fraction of the knots."""
        kwargs = {"n_horizon": max(2, round(horizon_fraction * plan.n_knots)),
                  "dt": plan.dt}
        kwargs.update(overrides)
        return cls(**kwargs)


@dataclass
class MpcSolution:
    delta_left: np.ndarray         # (H,) rope-force deviations
    delta_right: np.ndarray        # (H,)
    f_prop: np.ndarray             # (H,)
    predicted_positions: np.ndarray  # (H+1, 3)
    degraded: bool = False
    diagnostics: dict = field(default_factory=dict)


def shrink_horizon(k: int, n_horizon: int, ref_len: int) -> int:
    """Effective horizon when the reference has ref_len knot intervals."""
    if k > ref_len:
        raise ValueError("tick index beyond the reference")
    return min(n_horizon, ref_len - k)


def warm_start_from(prev: MpcSolution | None, horizon: int) -> np.ndarray:
    """Shift-by-one initial guess, last knot repeated; (H, 3) columns
    (delta_left, delta_right, f_prop).  Cold start returns zeros."""
    guess = np.zeros((horizon, 3))
    if prev is None:
        return guess
    stacked = np.column_stack([prev.delta_left, prev.delta_right, prev.f_prop])
    shifted = np.vstack([stacked[1:], stacked[-1:]])
    n = min(horizon, shifted.shape[0])
    guess[:n] = shifted[:n]
    if n < horizon:
        guess[n:] = shifted[-1]
    return guess


class TrackingController:
    """Holds the reference trajectory and feed-forward resampled to the
    controller clock, plus the warm-start state across ticks."""

    def __init__(self, plan: JumpPlan, scenario: Scenario,
                 cfg: MpcConfig | None = None):
        self.plan = plan
        self.scen = scenario
        self.cfg = cfg or MpcConfig.from_plan(plan)
        _, self.p_ref = map_plan_to_reference(plan, self.cfg.dt)
        # Zero-order-hold resample of the planned rope forces.
        n_ref = self.p_ref.shape[0] - 1
        # The 1e-9 guard of map_plan_to_reference: k * dt / dt may round to
        # just below k, which would fly the previous knot's forces.
        idx = np.floor(np.arange(n_ref) * (self.cfg.dt / plan.dt) + 1e-9).astype(int)
        idx = np.minimum(idx, plan.n_knots - 1)
        self.ff = np.column_stack([plan.rope_left[idx], plan.rope_right[idx]])
        self.prev_solution: MpcSolution | None = None

    @property
    def n_ticks(self) -> int:
        return self.ff.shape[0]

    def command(self, x_hat: np.ndarray, k: int) -> tuple[np.ndarray, MpcSolution]:
        """Solve at tick k and return (input to apply as a (6,) array, solution)."""
        sol = self._solve(np.asarray(x_hat, dtype=float), k)
        self.prev_solution = sol
        u = np.zeros(6)
        u[0] = self.ff[k, 0] + sol.delta_left[0]
        u[1] = self.ff[k, 1] + sol.delta_right[0]
        u[5] = sol.f_prop[0]
        return u, sol

    def _solve(self, x_hat: np.ndarray, k: int) -> MpcSolution:
        """One receding-horizon solve from the estimated state at tick k,
        warm-started from the previous tick's solution.

        Returns the full horizon; callers apply knot 0 only.  On solver
        failure the clipped warm start is returned with the degraded flag
        set.
        """
        cfg, scenario = self.cfg, self.scen
        H = shrink_horizon(k, cfg.n_horizon, self.n_ticks)
        if H < 1:
            raise ValueError("reference exhausted; no horizon left")
        ff = self.ff[k:k + H]                              # (H, 2)
        p_ref = self.p_ref[k:k + H + 1]                    # (H+1, 3)
        # The i-1 term of the smoothing cost: deviation applied at the
        # previous control period (cold start: the unmodified feed-forward).
        prev = self.prev_solution
        prev_dl, prev_dr = ((0.0, 0.0) if prev is None
                            else (prev.delta_left[0], prev.delta_right[0]))
        icfg = IntegratorConfig(n_sub=cfg.n_sub)

        f_scale = np.array([scenario.f_r_max, scenario.f_r_max,
                            max(scenario.f_p_max, 1e-9)])

        def unpack(Z):
            v = Z.reshape(Z.shape[:-1] + (H, 3)) * f_scale
            return v[..., 0], v[..., 1], v[..., 2]

        def predict(Z):
            dl, dr, fp = unpack(Z)
            u = np.zeros(Z.shape[:-1] + (H, 6))
            u[..., :, 0] = ff[:, 0] + dl
            u[..., :, 1] = ff[:, 1] + dr
            u[..., :, 5] = fp
            x0 = np.broadcast_to(x_hat, Z.shape[:-1] + (6,))
            states = rollout_arrays(x0, u, cfg.dt, icfg, scenario)
            return position_arrays(states[..., 0], states[..., 1], states[..., 2],
                                   scenario.d_a)

        def cost_fn(Z):
            dl, dr, _ = unpack(Z)
            pos = predict(Z)
            err = pos[..., :H, :] - p_ref[:H]
            c = cfg.w_p * np.sum(err * err, axis=(-2, -1))
            ddl = np.diff(dl, axis=-1, prepend=prev_dl)
            ddr = np.diff(dr, axis=-1, prepend=prev_dr)
            c = c + cfg.w_u * (np.sum(ddl * ddl, axis=-1) + np.sum(ddr * ddr, axis=-1))
            return np.where(np.isfinite(c), c, 1e9)

        n_var = 3 * H
        cache: dict = {}

        def value_and_grad(Z):
            key = Z.tobytes()
            if key not in cache:
                cache.clear()
                h = 1e-6 * np.maximum(1.0, np.abs(Z))
                batch = np.vstack([Z[None, :], Z + np.diag(h)])
                c = cost_fn(batch)
                cache[key] = (float(c[0]), (c[1:] - c[0]) / h)
            return cache[key]

        # Rope bounds map to boxes on the deviations; propeller is bilateral.
        lo = np.empty((H, 3))
        hi = np.empty((H, 3))
        lo[:, 0] = (-scenario.f_r_max - ff[:, 0]) / f_scale[0]
        hi[:, 0] = (0.0 - ff[:, 0]) / f_scale[0]
        lo[:, 1] = (-scenario.f_r_max - ff[:, 1]) / f_scale[1]
        hi[:, 1] = (0.0 - ff[:, 1]) / f_scale[1]
        if scenario.f_p_max > 0.0:
            lo[:, 2], hi[:, 2] = -1.0, 1.0
        else:
            lo[:, 2], hi[:, 2] = 0.0, 0.0

        z0 = (warm_start_from(prev, H) / f_scale).reshape(n_var)
        z0 = np.clip(z0, lo.reshape(n_var), hi.reshape(n_var))

        problem = NlpProblem(objective=lambda Z: value_and_grad(Z)[0],
                             gradient=lambda Z: value_and_grad(Z)[1],
                             x0=z0, lower=lo.reshape(n_var), upper=hi.reshape(n_var),
                             tol_stat=1e-5, tol_obj=1e-10, max_iter=cfg.max_iter)
        degraded = False
        try:
            res = solve_nlp(problem)
            z = np.clip(res.x, problem.lower, problem.upper)
            diagnostics = {"status": res.status, "n_iter": res.n_iter,
                           "objective": res.objective}
        except RuntimeError as exc:  # the solver gave up, e.g. nnls at its iteration cap
            z = z0
            degraded = True
            diagnostics = {"status": "failed", "error": str(exc)}
        dl, dr, fp = unpack(z)
        if not (np.all(np.isfinite(dl)) and np.all(np.isfinite(dr))
                and np.all(np.isfinite(fp))):
            dl, dr, fp = unpack(np.clip(z0, problem.lower, problem.upper))
            degraded = True
        return MpcSolution(delta_left=dl, delta_right=dr, f_prop=fp,
                           predicted_positions=predict(z),
                           degraded=degraded, diagnostics=diagnostics)
