"""Fixed-step RK4 integration of the reduced dynamics.

Inputs are held constant over each knot interval (zero-order hold) and the
interval is subdivided into n_sub equal sub-steps, so (dt, n_sub=k) is
exactly equivalent to (dt/k, n_sub=1).  step_arrays advances one interval
and rollout_arrays a whole input schedule; every caller steps the model
through these two.

step_arrays chooses between the two bindings of the model's dynamics
kernel from the shapes of its inputs.  A batch of states (MPC predictions,
planner gradients) runs on numpy arrays.  One 6-vector state with a 6-vector
input and a scalar dt (planner line-search values, the simulator's 1 ms
steps) runs on Python floats, where numpy's per-call cost would dominate.
Both give the same numbers bit for bit, NaN for states outside the model
domain included; neither raises on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Scenario, state_derivative_arrays, state_derivative_scalar


class IntegrationError(RuntimeError):
    """Non-finite state encountered while stepping."""


@dataclass(frozen=True)
class IntegratorConfig:
    n_sub: int = 5              # RK4 sub-steps per knot interval

    def __post_init__(self):
        if self.n_sub < 1:
            raise ValueError("n_sub must be >= 1")


def substep_arrays(x, u, h, scenario: Scenario, extra_force=None):
    """One RK4 sub-step of length h; batched and NaN-tolerant."""
    k1 = state_derivative_arrays(x, u, scenario, extra_force)
    k2 = state_derivative_arrays(x + 0.5 * h * k1, u, scenario, extra_force)
    k3 = state_derivative_arrays(x + 0.5 * h * k2, u, scenario, extra_force)
    k4 = state_derivative_arrays(x + h * k3, u, scenario, extra_force)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _substep_scalar(x, u, h, scenario: Scenario, extra_force=None):
    """substep_arrays for one state held as a list of Python floats; the
    same operations in the same order."""
    k1 = state_derivative_scalar(x, u, scenario, extra_force)
    half = 0.5 * h
    k2 = state_derivative_scalar([a + half * b for a, b in zip(x, k1)], u, scenario,
                                 extra_force)
    k3 = state_derivative_scalar([a + half * b for a, b in zip(x, k2)], u, scenario,
                                 extra_force)
    k4 = state_derivative_scalar([a + h * b for a, b in zip(x, k3)], u, scenario,
                                 extra_force)
    sixth = h / 6.0
    return [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]


def step_arrays(x, u, dt, cfg: IntegratorConfig, scenario: Scenario, extra_force=None):
    """Advance one knot interval dt with cfg.n_sub equal sub-steps.

    dt may carry batch dimensions matching x's leading dimensions.  A single
    state (x and u 6-vectors, dt a scalar, extra_force None or a 3-vector)
    is stepped on Python floats.
    """
    if np.ndim(x) == 1 and np.ndim(u) == 1 and np.ndim(dt) == 0 \
            and np.ndim(extra_force) <= 1:
        xs = np.asarray(x, dtype=float).tolist()
        us = np.asarray(u, dtype=float).tolist()
        ext = None if extra_force is None else np.asarray(extra_force, dtype=float).tolist()
        h = float(dt) / cfg.n_sub
        for _ in range(cfg.n_sub):
            xs = _substep_scalar(xs, us, h, scenario, ext)
        return np.array(xs)
    h = np.asarray(dt) / cfg.n_sub
    if np.ndim(h) > 0:
        h = h[..., None]
    for _ in range(cfg.n_sub):
        x = substep_arrays(x, u, h, scenario, extra_force)
    return x


def rollout_arrays(x0, u_schedule, dt, cfg: IntegratorConfig, scenario: Scenario):
    """Propagate a per-knot input schedule from x0, one step_arrays per knot.

    x0: (..., 6); u_schedule: (..., N, 6); dt: scalar or (...,).
    Returns knot states of shape (..., N+1, 6); bad configurations yield NaN.
    """
    n_knots = u_schedule.shape[-2]
    x = np.asarray(x0, dtype=float)
    out = np.empty(x.shape[:-1] + (n_knots + 1, 6))
    out[..., 0, :] = x
    for k in range(n_knots):
        x = step_arrays(x, u_schedule[..., k, :], dt, cfg, scenario)
        out[..., k + 1, :] = x
    return out
