"""Fixed-step RK4 integration of the reduced dynamics.

Inputs are held constant over each knot interval (zero-order hold) and the
interval is subdivided into n_sub equal sub-steps, so (dt, n_sub=k) is
exactly equivalent to (dt/k, n_sub=1).  step_arrays advances one interval
and rollout_arrays a step schedule (u, dt) from one start state, dt a
scalar or one length per step; every caller steps the model through these
two.  A jump's schedule is planner.jump_schedule, the thrust step and the
knot steps from rest; the MPC's horizon is a window of its knot steps.

substep_schedule writes a schedule at sub-step resolution, each step's
input repeated n_sub times at dt / n_sub, to be stepped with n_sub = 1;
knot_rows picks every n_sub-th state of that rollout, which is the knot
state of the knot-resolution rollout bit for bit.  These two are the only
places a schedule is expanded to sub-steps.  The planner's value rollouts
and the MPC's predictions roll out at sub-step resolution and keep the
sub-step states, which their Jacobians start from.

step_arrays and rollout_arrays choose between the two bindings of the
model's dynamics kernel from the shapes and types of their inputs.  A
batch of states runs on numpy arrays.  One real 6-vector state with real
inputs and lengths (planner values, MPC predictions, the simulator's
control ticks) runs in one Python-float loop, _rollout_floats, over all the
sub-steps of the step or of the whole schedule, stage states in locals
and the scenario's constants bound once per call: the IEEE operations of
substep_arrays in the same order, so both agree bit for bit, NaN rows
included, and neither raises on them.  Complex inputs always take the
array binding, whatever their shape: the float path is real-only.

step_jacobians differentiates steps by complex step (Squire & Trapp,
SIAM Rev. 1998; Martins, Sturdza & Alonso, ACM TOMS 2003): the kernel is
analytic, so the imaginary part of f(x + i h e), divided by h, is df/dx e
to round-off, with no difference of nearby values to cancel.  It takes the sub-step states each step starts
from, perturbs the 6 state entries of every sub-step and the m of the
step's 7 inputs (u, dt) that the caller names, and runs all of them, every
sub-step of every step in every direction, through one substep_arrays
call: 4 kernel calls per Jacobian, whatever n_sub.  Each step's Jacobian
is then the product of its n_sub sub-step Jacobians, n_sub - 1 batched
matmuls.  dt stays complex in that call even where no step moves it:
numpy computes the complex quotient dt / n_sub as dt * (1 / n_sub), whose
real part may differ by one ulp from the real dt / n_sub the rollout
steps with, so a real length where dt does not move would make a step's
Jacobian depend on whether its dt column was asked for.

rollout_jacobian is the one call that differentiates a rollout.  It chains
the step Jacobians forward into the knot states' tangents.  It reads from
the input tangents which inputs each step moves (the planner's thrust
step moves the leg force, its knot steps the two rope forces and the
length; the MPC's steps the rope forces and the propeller), so both step
6 + 3 directions per step instead of 13.  It reads the Jacobian of any
analytic function of the decision vector and its knot states off one
complex evaluation of that function, the knot states moved along their
tangents; the planner's gradient and constraint Jacobian and the MPC's
residual Jacobian are all formed there.  rollout_arrays lets the dtype of
its inputs flow through, so a complex decision vector can be stepped
through a whole schedule as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .model import Scenario, _float_accelerations, state_derivative_arrays


@dataclass(frozen=True)
class IntegratorConfig:
    n_sub: int = 5              # RK4 sub-steps per knot interval

    def __post_init__(self):
        if not (isinstance(self.n_sub, Integral) and self.n_sub >= 1):
            raise ValueError(f"n_sub must be an integer >= 1, got {self.n_sub!r}")


def substep_arrays(x, u, h, scenario: Scenario):
    """One RK4 sub-step of length h; batched and NaN-tolerant."""
    k1 = state_derivative_arrays(x, u, scenario)
    k2 = state_derivative_arrays(x + 0.5 * h * k1, u, scenario)
    k3 = state_derivative_arrays(x + 0.5 * h * k2, u, scenario)
    k4 = state_derivative_arrays(x + h * k3, u, scenario)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rollout_floats(x, us, hs, n_sub, scenario: Scenario):
    """The states of a step schedule from one state held as Python floats:
    step k holds us[k] over n_sub RK4 sub-steps of length hs[k], as
    substep_arrays computes them.  Returns x, then the state after each
    step."""
    d_a, m, g = scenario.d_a, scenario.mass, scenario.gravity.tolist()
    acc = _float_accelerations
    out = [x]
    for u, h in zip(us, hs):
        half, sixth = 0.5 * h, h / 6.0
        for _ in range(n_sub):
            q0, q1, q2, w0, w1, w2 = x
            a0, a1, a2 = acc(x, u, scenario, d_a, m, g)
            y3, y4, y5 = w0 + half * a0, w1 + half * a1, w2 + half * a2
            b0, b1, b2 = acc((q0 + half * w0, q1 + half * w1, q2 + half * w2, y3, y4, y5),
                             u, scenario, d_a, m, g)
            z3, z4, z5 = w0 + half * b0, w1 + half * b1, w2 + half * b2
            c0, c1, c2 = acc((q0 + half * y3, q1 + half * y4, q2 + half * y5, z3, z4, z5),
                             u, scenario, d_a, m, g)
            v3, v4, v5 = w0 + h * c0, w1 + h * c1, w2 + h * c2
            d0, d1, d2 = acc((q0 + h * z3, q1 + h * z4, q2 + h * z5, v3, v4, v5),
                             u, scenario, d_a, m, g)
            x = (q0 + sixth * (w0 + 2.0 * y3 + 2.0 * z3 + v3),
                 q1 + sixth * (w1 + 2.0 * y4 + 2.0 * z4 + v4),
                 q2 + sixth * (w2 + 2.0 * y5 + 2.0 * z5 + v5),
                 w0 + sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
                 w1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
                 w2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2))
        out.append(x)
    return out


def step_arrays(x, u, dt, cfg: IntegratorConfig, scenario: Scenario):
    """Advance one knot interval dt with cfg.n_sub equal sub-steps.

    dt may carry batch dimensions matching x's leading dimensions.  A single
    real state (x and u real 6-vectors, dt a real scalar of any type) is
    stepped on Python floats; complex inputs stay arrays.
    """
    xs, us = np.asarray(x), np.asarray(u)
    if xs.ndim == 1 and us.ndim == 1 and "c" not in (xs.dtype.kind, us.dtype.kind) \
            and np.ndim(dt) == 0 and not np.iscomplexobj(dt):
        return np.array(_rollout_floats(
            xs.astype(float, copy=False).tolist(), (us.astype(float, copy=False).tolist(),),
            (float(dt) / cfg.n_sub,), cfg.n_sub, scenario)[-1])
    h = np.asarray(dt) / cfg.n_sub
    if np.ndim(h) > 0:
        h = h[..., None]
    for _ in range(cfg.n_sub):
        x = substep_arrays(x, u, h, scenario)
    return x


def rollout_arrays(x0, u_schedule, dt, cfg: IntegratorConfig, scenario: Scenario):
    """Propagate a step schedule from x0, each step as step_arrays takes it.

    x0: (..., 6), broadcast against u_schedule: (..., K, 6); dt: a scalar
    or one length per step, broadcast against the steps u_schedule.shape[:-1].
    Returns the states (..., K+1, 6), x0 first, real or complex as the
    inputs are; bad configurations yield NaN.  One real state runs the
    whole schedule in one Python-float loop.
    """
    u = np.asarray(u_schedule)
    dt = np.broadcast_to(dt, u.shape[:-1])
    xs = np.asarray(x0)
    if xs.ndim == 1 and u.ndim == 2 and not any(np.iscomplexobj(a) for a in (xs, u, dt)):
        return np.array(_rollout_floats(
            xs.astype(float, copy=False).tolist(), u.astype(float, copy=False).tolist(),
            (dt / cfg.n_sub).tolist(), cfg.n_sub, scenario))
    x = np.broadcast_to(xs, np.broadcast_shapes(xs.shape, u.shape[:-2] + (6,)))
    out = np.empty(x.shape[:-1] + (u.shape[-2] + 1, 6), dtype=np.result_type(x, u, dt, float))
    out[..., 0, :] = x
    for k in range(u.shape[-2]):
        x = step_arrays(x, u[..., k, :], dt[..., k], cfg, scenario)
        out[..., k + 1, :] = x
    return out


# The steps of a sub-step schedule are single RK4 sub-steps.
_SUBSTEP = IntegratorConfig(n_sub=1)


def substep_schedule(u_schedule, dt, cfg: IntegratorConfig):
    """The step schedule (u, dt) at sub-step resolution, as the (u, dt, cfg)
    arguments of rollout_arrays: each step's input held over cfg.n_sub
    steps of length dt / n_sub, stepped with n_sub = 1.  That rollout has
    K n_sub + 1 states; knot_rows picks the K + 1 states of
    rollout_arrays(x0, u_schedule, dt, cfg, scenario) off it, bit for bit,
    and the rows between are the sub-step states step_jacobians takes.
    """
    u = np.asarray(u_schedule)
    h = np.broadcast_to(dt, u.shape[:-1]) / cfg.n_sub
    return np.repeat(u, cfg.n_sub, axis=-2), np.repeat(h, cfg.n_sub, axis=-1), _SUBSTEP


def knot_rows(states, cfg: IntegratorConfig):
    """The knot states (..., K+1, 6) of a sub-step rollout (..., K n_sub + 1, 6)."""
    return states[..., ::cfg.n_sub, :]


# Complex-step size: small enough that the O(h^2) error in the real part and
# the derivative vanish below round-off, large enough that h * derivative
# stays far above the subnormal range.
COMPLEX_STEP = 1e-30


def step_jacobians(x, u, dt, cols, cfg: IntegratorConfig, scenario: Scenario):
    """Jacobian of step_arrays with respect to the step's start state and m
    chosen inputs, exact to round-off.

    x: (..., n_sub, 6), the states each step starts its cfg.n_sub
    sub-steps from (a sub-step rollout's rows, see substep_schedule);
    u: (..., 6); dt: scalar or (...,), all real; cols: (..., m) distinct
    integers naming each step's inputs, 0-5 for u's entries and 6 for dt.
    Returns d x_next / d(x_0, inputs) of shape (..., 6, 6 + m): columns
    0-5 are the start state, column 6 + j the input cols[..., j].

    Every sub-step of every step, and its 6 + m directions, is one
    complex-perturbed substep_arrays call; the sub-step Jacobians
    [A_i | B_i] then compose over the step, J <- A_i J, J[..., 6:] += B_i,
    as the inputs are held over it and dt enters each sub-step as
    dt / n_sub.  dt is complex even where no row moves it (see the module
    docstring), so the Jacobian is taken at the same length whatever the
    columns.  States outside the model domain give NaN columns.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-2:] != (cfg.n_sub, 6):
        raise ValueError(f"need (..., {cfg.n_sub}, 6) sub-step states, got {x.shape}")
    cols = np.asarray(cols)
    e = np.zeros(cols.shape[:-1] + (6 + cols.shape[-1], 13))
    e[..., :6, :6] = np.eye(6)
    e[..., 6:, 6:] = cols[..., None] == np.arange(7)
    e = 1j * COMPLEX_STEP * e[..., None, :, :]       # (..., 1, 6 + m, 13)
    x_c = x[..., None, :] + e[..., 0:6]              # (..., n_sub, 6 + m, 6)
    u_c = np.asarray(u, dtype=float)[..., None, None, :] + e[..., 6:12]
    h_c = (np.asarray(dt, dtype=float)[..., None, None] + e[..., 12]) / cfg.n_sub
    x_next = substep_arrays(x_c, u_c, h_c[..., None], scenario)
    sub = np.swapaxes(x_next.imag, -1, -2) / COMPLEX_STEP    # (..., n_sub, 6, 6 + m)
    J = sub[..., 0, :, :]
    for i in range(1, cfg.n_sub):
        J = sub[..., i, :, :6] @ J
        J[..., 6:] += sub[..., i, :, 6:]
    return J


def rollout_jacobian(value, z, states, step_inputs, cfg: IntegratorConfig,
                     scenario: Scenario):
    """Jacobian (m, n) of value(z, knots) at one real point z (n,), where
    knots are z's knot states, exact to round-off.

    states (K n_sub + 1, 6) are z's rollout at sub-step resolution
    (rollout_arrays over substep_schedule); the knot states are its
    knot_rows.  step_inputs(Z) -> (u (..., K, 6), dt (..., K)) gives the
    inputs and lengths of the K steps from states[0], which does not move
    with z.  value(Z, knots) -> (..., m) must be analytic in both, real or
    complex.  The input tangents w_k = d(u_k, dt_k)/dz come from one
    complex step through step_inputs, the knot tangents S_k = dx_k/dz from
    one step_jacobians call chained forward, S_0 = 0,
    S_{k+1} = J_x S_k + J_(u,dt) w_k, and the result from one value call at
    z + i h e_j with the knot states moved along S e_j.  step_jacobians
    differentiates each step by the inputs its w_k moves, padded to the
    most any step moves; the other columns of J_(u,dt) are zero, so
    J_(u,dt) w_k sums the same non-zero terms as with all 7.  K may be 0.
    """
    h = COMPLEX_STEP
    dz = 1j * h * np.eye(z.size)                     # one row per direction
    u, dt = step_inputs(z)
    u_c, dt_c = step_inputs(z + dz)
    w = np.moveaxis(np.concatenate([u_c.imag, dt_c.imag[..., None]], axis=-1), 0, -1) / h
    moves = np.any(w != 0.0, axis=-1)                # (K, 7)
    m = moves.sum(axis=-1).max(initial=0)
    cols = np.argsort(~moves, axis=-1, kind="stable")[:, :m]   # moving inputs first
    J = step_jacobians(states[:-1].reshape(len(u), cfg.n_sub, 6), u, dt, cols, cfg, scenario)
    # Scatter the m input columns into their slots of a (K, 7, 6) array,
    # transposed, so that the product runs in the layout of the full
    # Jacobian's J[:, :, 6:].
    J_u = np.zeros((len(J), 7, 6))
    np.put_along_axis(J_u, cols[:, :, None], np.swapaxes(J[:, :, 6:], -1, -2), axis=-2)
    B = np.swapaxes(J_u, -1, -2) @ w
    S = np.zeros((len(J) + 1, 6, z.size))
    for k in range(len(J)):
        S[k + 1] = J[k, :, :6] @ S[k] + B[k]
    return value(z + dz, knot_rows(states, cfg) + 1j * h * np.moveaxis(S, -1, 0)).imag.T / h
