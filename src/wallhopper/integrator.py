"""Fixed-step RK4 integration of the reduced dynamics.

Inputs are held constant over each knot interval (zero-order hold) and the
interval is subdivided into n_sub equal sub-steps, so (dt, n_sub=k) is
exactly equivalent to (dt/k, n_sub=1).  rollout_arrays advances a step
schedule (u, dt) from one start state, dt a scalar or one length per step,
and step_arrays is its one-step case; every caller steps the model through
rollout_arrays.  A jump's schedule is planner.jump_schedule, the thrust
step and the knot steps from rest; the MPC's horizon is a window of its
knot steps.

substep_schedule writes a schedule at sub-step resolution, each step's
input repeated n_sub times at dt / n_sub, to be stepped with n_sub = 1;
knot_rows picks every n_sub-th state of that rollout, which is the knot
state of the knot-resolution rollout bit for bit.  These two are the only
places a schedule is expanded to sub-steps: rollout_arrays itself steps
substep_schedule's schedule and returns its knot_rows.  The planner's value
rollouts and the MPC's rollouts run at sub-step resolution and keep the
sub-step states, which their Jacobians start from.

rollout_arrays is the one gate between the two bindings of the model's
dynamics kernel, chosen from the shapes and types of its inputs.  A batch
of states, or any complex input, runs on numpy arrays, substep_arrays
once per sub-step.  One real 6-vector state with real inputs and lengths
(planner values, MPC rollouts, the simulator's flights, a single
step_arrays step) runs in one Python-float loop, _rollout_floats, over
all the sub-steps of the schedule: each RK4 stage computing C and r^2
(model._chord_and_radius), testing the domain, and calling the kernel
body model._accelerations on the stage state's scalars, with the IEEE
operations of substep_arrays in the same order, so both agree bit for
bit, NaN rows included.  A stage outside the domain (r^2 <= 0, l2 = 0 or
a non-finite psi) has NaN accelerations, as on arrays; inside it the
loop divides only by nonzero numbers, as the Scenario's mass is positive.
The float path is real-only.

step_jacobians differentiates steps by complex step (Squire & Trapp, SIAM
Rev. 1998; Martins, Sturdza & Alonso, ACM TOMS 2003): the kernel is
analytic, so Im f(x + i h e) / h is df/dx e to round-off, with no
difference of nearby values to cancel.  From the sub-step states each step
starts from, it perturbs the 6 state entries of every sub-step and the m of
the step's 7 inputs (u, dt) the caller names, along the perturbation block
perturbations(cols) it is given, and runs every sub-step of every step in
every direction through one substep_arrays call: 4 kernel calls per
Jacobian, whatever n_sub.  Each step's Jacobian is the product of its n_sub
sub-step Jacobians, n_sub - 1 batched matmuls.  dt stays complex in that
call even where no step moves it: numpy computes the complex quotient
dt / n_sub as dt * (1 / n_sub), whose real part may differ by one ulp from
the real one the rollout steps with, so a real length would make a step's
Jacobian depend on whether its dt column was asked for.

rollout_jacobian is the one call that differentiates a rollout: it chains
the step Jacobians forward into the knot states' tangents and reads the
Jacobian of any analytic function of the decision vector and its knot
states off one complex evaluation of that function, the knot states moved
along their tangents; the planner's gradient and constraint Jacobian and
the MPC's residual Jacobian are all formed there.  It takes the point with
the schedule (u, dt) and the sub-step states its caller has just built
there for the rollout, so nothing is built twice; what it needs beyond the
point is a Layout, built by input_tangents, as both schedules are affine
in the decision vector, and only read on every call.  Each owner builds
its layout once: per ShootingProblem and per TrackingController, whose
ticks read slices of the layout of its longest window.  A layout holds
three read-only arrays, for steps that each move m of their 7 inputs (the
planner's thrust step the leg force, its knot steps the rope forces and
the length; the MPC's steps the rope forces and the propeller), so both
step 6 + 3 directions per step instead of 13:

- w (K, m, n), those inputs' tangents for n decision variables: the
  Jacobian's m input columns of step k times w_k are that step's part of
  the knot tangent;
- perturbations (K, 1, 6 + m, 13), perturbations(cols) of the inputs cols
  (K, m) each step moves: the complex directions of each step's start
  state and moving inputs that step_jacobians steps along;
- directions (n, n), 1j COMPLEX_STEP I_n, which steps the decision vector.

rollout_arrays lets the dtype of its inputs flow through, so a complex
decision vector can be stepped through a whole schedule as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .model import Scenario, _accelerations, _chord_and_radius, state_derivative_arrays


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


def _rollout_floats(x, us, hs, scenario: Scenario):
    """The states of a step schedule from one state held as Python floats:
    step k holds us[k] over one RK4 step of length hs[k], as substep_arrays
    computes it.  Returns x, then the state after each step, as one flat
    list of floats.

    Each RK4 stage computes C and r^2, tests the domain (r^2 > 0, l2 != 0
    and a finite psi) and calls the kernel body on scalars; a stage outside
    the domain has NaN accelerations, as in the numpy binding."""
    (gx, gy, gz), d_a, m = scenario.gravity.tolist(), scenario.d_a, scenario.mass
    body, chord, sqrt, sin, cos, finite = (_accelerations, _chord_and_radius, math.sqrt,
                                           math.sin, math.cos, math.isfinite)
    nans = (math.nan,) * 3                # the accelerations outside the domain
    q0, q1, q2, w0, w1, w2 = x
    out = list(x)
    for (u0, u1, u2, u3, u4, u5), h in zip(us, hs):
        half, sixth = 0.5 * h, h / 6.0
        C, r2 = chord(q1, q2, d_a)
        a0, a1, a2 = (body(q1, q2, w0, w1, w2, u0, u1, u2, u3, u4, u5, C, sqrt(r2),
                           sin(q0), cos(q0), gx, gy, gz, d_a, m)
                      if r2 > 0.0 and q2 != 0.0 and finite(q0) else nans)
        p0, p1, p2 = q0 + half * w0, q1 + half * w1, q2 + half * w2
        y3, y4, y5 = w0 + half * a0, w1 + half * a1, w2 + half * a2
        C, r2 = chord(p1, p2, d_a)
        b0, b1, b2 = (body(p1, p2, y3, y4, y5, u0, u1, u2, u3, u4, u5, C, sqrt(r2),
                           sin(p0), cos(p0), gx, gy, gz, d_a, m)
                      if r2 > 0.0 and p2 != 0.0 and finite(p0) else nans)
        p0, p1, p2 = q0 + half * y3, q1 + half * y4, q2 + half * y5
        z3, z4, z5 = w0 + half * b0, w1 + half * b1, w2 + half * b2
        C, r2 = chord(p1, p2, d_a)
        c0, c1, c2 = (body(p1, p2, z3, z4, z5, u0, u1, u2, u3, u4, u5, C, sqrt(r2),
                           sin(p0), cos(p0), gx, gy, gz, d_a, m)
                      if r2 > 0.0 and p2 != 0.0 and finite(p0) else nans)
        p0, p1, p2 = q0 + h * z3, q1 + h * z4, q2 + h * z5
        v3, v4, v5 = w0 + h * c0, w1 + h * c1, w2 + h * c2
        C, r2 = chord(p1, p2, d_a)
        d0, d1, d2 = (body(p1, p2, v3, v4, v5, u0, u1, u2, u3, u4, u5, C, sqrt(r2),
                           sin(p0), cos(p0), gx, gy, gz, d_a, m)
                      if r2 > 0.0 and p2 != 0.0 and finite(p0) else nans)
        q0, q1, q2, w0, w1, w2 = (q0 + sixth * (w0 + 2.0 * y3 + 2.0 * z3 + v3),
                                  q1 + sixth * (w1 + 2.0 * y4 + 2.0 * z4 + v4),
                                  q2 + sixth * (w2 + 2.0 * y5 + 2.0 * z5 + v5),
                                  w0 + sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
                                  w1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
                                  w2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2))
        out += q0, q1, q2, w0, w1, w2
    return out


def step_arrays(x, u, dt, cfg: IntegratorConfig, scenario: Scenario):
    """Advance one knot interval dt with cfg.n_sub equal sub-steps: the
    one-step rollout_arrays, u broadcast to x's batch and dt to its
    leading dimensions."""
    u = np.asarray(u)
    u = np.broadcast_to(u, np.broadcast_shapes(np.shape(x)[:-1], u.shape[:-1]) + (6,))
    return rollout_arrays(x, u[..., None, :], np.expand_dims(dt, -1), cfg, scenario)[..., -1, :]


def rollout_arrays(x0, u_schedule, dt, cfg: IntegratorConfig, scenario: Scenario):
    """Propagate a step schedule from x0, each step n_sub RK4 sub-steps of
    dt / n_sub.

    x0: (..., 6), broadcast against u_schedule: (..., K, 6); dt: a scalar
    or one length per step, broadcast against the steps u_schedule.shape[:-1].
    Returns the states (..., K+1, 6), x0 first, real or complex as the
    inputs are; bad configurations yield NaN.  The schedule is stepped at
    sub-step resolution (substep_schedule) and its knot_rows returned: one
    real state in one Python-float loop, anything else on arrays.
    """
    u, h, _ = substep_schedule(u_schedule, dt, cfg)
    xs = np.asarray(x0)
    if xs.ndim == 1 and u.ndim == 2 and not any(np.iscomplexobj(a) for a in (xs, u, h)):
        flat = _rollout_floats(xs.astype(float, copy=False).tolist(),
                               u.astype(float, copy=False).tolist(), h.tolist(), scenario)
        return knot_rows(np.fromiter(flat, float, len(flat)).reshape(-1, 6), cfg)
    x = np.broadcast_to(xs, np.broadcast_shapes(xs.shape, u.shape[:-2] + (6,)))
    out = np.empty(x.shape[:-1] + (u.shape[-2] + 1, 6), dtype=np.result_type(x, u, h, float))
    out[..., 0, :] = x
    for k in range(u.shape[-2]):
        x = out[..., k + 1, :] = substep_arrays(x, u[..., k, :], h[..., k, None], scenario)
    return knot_rows(out, cfg)


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


def perturbations(cols):
    """The complex directions step_jacobians steps along, for steps that
    each move the inputs cols (..., m), distinct integers naming them (0-5
    for u's entries, 6 for dt): (..., 1, 6 + m, 13), row j the direction
    1j COMPLEX_STEP e_j of the step's 13 arguments (x, u, dt), j < 6 the
    start state's entries and 6 + i the input cols[..., i]."""
    cols = np.asarray(cols)
    e = np.zeros(cols.shape[:-1] + (6 + cols.shape[-1], 13))
    e[..., :6, :6] = np.eye(6)
    e[..., 6:, 6:] = cols[..., None] == np.arange(7)
    return 1j * COMPLEX_STEP * e[..., None, :, :]


def step_jacobians(x, u, dt, e, cfg: IntegratorConfig, scenario: Scenario):
    """Jacobian of step_arrays with respect to the step's start state and m
    chosen inputs, exact to round-off.

    x: (..., n_sub, 6), the states each step starts its cfg.n_sub
    sub-steps from (a sub-step rollout's rows, see substep_schedule);
    u: (..., 6); dt: scalar or (...,), all real; e: perturbations(cols),
    the directions of each step's start state and of the m inputs cols
    (..., m) names, read, not built, here: rollout_jacobian passes its
    layout's.  Returns d x_next / d(x_0, inputs) of shape (..., 6, 6 + m):
    columns 0-5 are the start state, column 6 + j the input cols[..., j].

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


class Layout(NamedTuple):
    """Everything a rollout Jacobian needs that depends on the schedule's
    layout alone, not on the point, as three read-only arrays, built once
    by input_tangents."""

    w: np.ndarray                  # (K, m, n) the moving inputs' tangents
    perturbations: np.ndarray      # (K, 1, 6 + m, 13) perturbations(cols)
    directions: np.ndarray         # (n, n) 1j COMPLEX_STEP I_n


def input_tangents(step_inputs, n) -> Layout:
    """The layout of a schedule step_inputs(Z) -> (u (..., K, 6),
    dt (..., K)) affine in z (n,), whose tangents one complex step at z = 0
    gives at every z: w (K, m, n), w_k = d(u_k, dt_k)[cols_k]/dz, the
    tangents of the inputs cols (K, m) each step moves (0-5 for u's
    entries, 6 for dt), moving ones first, padded to the most any step
    moves; perturbations(cols), the block step_jacobians steps each step
    along; and the direction block 1j COMPLEX_STEP I_n, which steps z.  A
    caller builds it once per layout and rollout_jacobian only reads it;
    its arrays are read-only, as callers may share one."""
    directions = 1j * COMPLEX_STEP * np.eye(n)      # one row per direction
    u_c, dt_c = step_inputs(directions)
    w = (np.moveaxis(np.concatenate([u_c.imag, dt_c.imag[..., None]], axis=-1), 0, -1)
         / COMPLEX_STEP)
    moves = np.any(w != 0.0, axis=-1)                # (K, 7)
    cols = np.argsort(~moves, axis=-1, kind="stable")[:, :moves.sum(-1).max(initial=0)]
    layout = Layout(np.take_along_axis(w, cols[:, :, None], axis=1), perturbations(cols),
                    directions)
    for a in layout:
        a.flags.writeable = False
    return layout


def rollout_jacobian(value, z, states, u, dt, layout: Layout, cfg: IntegratorConfig,
                     scenario: Scenario):
    """Jacobian (m, n) of value(z, knots) at one real point z (n,), where
    knots are z's knot states, exact to round-off.

    u (K, 6) and dt (K,) are the schedule step_inputs(z) gives, the K steps
    from states[0], which does not move with z; states (K n_sub + 1, 6) are
    their rollout at sub-step resolution (rollout_arrays over
    substep_schedule), whose knot_rows are the knot states, and layout is
    input_tangents(step_inputs, n), built once by the caller and only read
    here.  value(Z, knots) -> (..., m) must be analytic in both, real or
    complex.  The knot tangents S_k = dx_k/dz come from one step_jacobians
    call along the layout's perturbations, chained forward, S_0 = 0,
    S_{k+1} = J_x S_k + J_cols w_k, J_cols the step's columns of the inputs
    it moves (the other inputs do not move), and the result from one value
    call at z plus the layout's directions, the knot states moved along
    S e_j.  K may be 0.
    """
    h = COMPLEX_STEP
    J = step_jacobians(states[:-1].reshape(len(u), cfg.n_sub, 6), u, dt, layout.perturbations,
                       cfg, scenario)
    B = J[:, :, 6:] @ layout.w
    S = np.zeros((len(J) + 1, 6, z.size))
    for k in range(len(J)):
        S[k + 1] = J[k, :, :6] @ S[k] + B[k]
    return value(z + layout.directions,
                 knot_rows(states, cfg) + 1j * h * np.moveaxis(S, -1, 0)).imag.T / h
