"""Fixed-step explicit integration of the reduced dynamics.

Inputs are held constant over each knot interval (zero-order hold) and the
interval can be subdivided into n_sub equal sub-steps, so (dt, n_sub=k) is
exactly equivalent to (dt/k, n_sub=1).

step_arrays chooses between the two bindings of the model's dynamics
kernel from the shapes of its inputs.  A batch of states (MPC predictions,
planner gradients) runs on numpy arrays.  One 6-vector state with a 6-vector
input and a scalar dt (planner line-search values, the simulator's 1 ms
steps, the checked step and rollout) runs on Python floats, where numpy's
per-call cost would dominate.  Both give the same numbers bit for bit,
NaN for states outside the model domain included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    SINGULARITY_EPS,
    ControlInput,
    ReducedState,
    Scenario,
    SingularityError,
    position_arrays,
    state_derivative_arrays,
    state_derivative_scalar,
)

METHODS = ("euler", "rk4")


class IntegrationError(RuntimeError):
    """Non-finite state encountered while stepping."""

    def __init__(self, message: str, knot: int | None = None):
        super().__init__(message if knot is None else f"knot {knot}: {message}")
        self.knot = knot


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"
    n_sub: int = 5
    dt: float = 0.05

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.n_sub < 1:
            raise ValueError("n_sub must be >= 1")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")


def substep_arrays(x, u, h, method: str, scenario: Scenario, extra_force=None):
    """One explicit sub-step of length h; batched and NaN-tolerant."""
    if method == "euler":
        return x + h * state_derivative_arrays(x, u, scenario, extra_force)
    k1 = state_derivative_arrays(x, u, scenario, extra_force)
    k2 = state_derivative_arrays(x + 0.5 * h * k1, u, scenario, extra_force)
    k3 = state_derivative_arrays(x + 0.5 * h * k2, u, scenario, extra_force)
    k4 = state_derivative_arrays(x + h * k3, u, scenario, extra_force)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _substep_scalar(x, u, h, method: str, scenario: Scenario, extra_force=None):
    """substep_arrays for one state held as a list of Python floats; the
    same operations in the same order."""
    k1 = state_derivative_scalar(x, u, scenario, extra_force)
    if method == "euler":
        return [a + h * b for a, b in zip(x, k1)]
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
            xs = _substep_scalar(xs, us, h, cfg.method, scenario, ext)
        return np.array(xs)
    h = np.asarray(dt) / cfg.n_sub
    if np.ndim(h) > 0:
        h = h[..., None]
    for _ in range(cfg.n_sub):
        x = substep_arrays(x, u, h, cfg.method, scenario, extra_force)
    return x


def step(q: ReducedState, u: ControlInput, cfg: IntegratorConfig,
         scenario: Scenario) -> ReducedState:
    """Checked single-state step over cfg.dt."""
    x = q.as_array().tolist()
    u_arr = u.as_array().tolist()
    h = cfg.dt / cfg.n_sub
    if not all(map(math.isfinite, x)):
        raise IntegrationError("state is non-finite")
    for _ in range(cfg.n_sub):
        if abs(math.sin(x[0])) < SINGULARITY_EPS:
            raise SingularityError(f"|sin(psi)| below {SINGULARITY_EPS:.1e} during step")
        x = _substep_scalar(x, u_arr, h, cfg.method, scenario)
        if not all(map(math.isfinite, x)):
            raise IntegrationError("state became non-finite")
        if x[1] <= 0.0 or x[2] <= 0.0:
            raise IntegrationError("state left the model domain (rope length <= 0)")
    return ReducedState(*x)


def rollout(q0: ReducedState, input_schedule, cfg: IntegratorConfig,
            scenario: Scenario):
    """Propagate a per-knot input schedule; returns (states, positions).

    states has shape (N+1, 6) and positions (N+1, 3), with row 0 the initial
    state.  Errors are re-raised with the index of the failing knot.
    """
    if len(input_schedule) == 0:
        raise ValueError("input schedule must be non-empty")
    states = np.empty((len(input_schedule) + 1, 6))
    states[0] = q0.as_array()
    q = q0
    for k, u in enumerate(input_schedule):
        try:
            q = step(q, u, cfg, scenario)
        except (SingularityError, IntegrationError) as exc:
            raise type(exc)(f"knot {k}: {exc}") from exc
        states[k + 1] = q.as_array()
    positions = position_arrays(states[:, 0], states[:, 1], states[:, 2], scenario.d_a)
    return states, positions


def rollout_arrays(x0, u_schedule, dt, cfg: IntegratorConfig, scenario: Scenario):
    """Batched unchecked rollout used by the shooting-based optimisers.

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
