"""Reduced 3-DoF model of a point mass hanging on two ropes.

The robot body is collapsed to a point mass suspended from two anchors by
ropes of lengths l1 (left) and l2 (right).  The minimal coordinates are

    q = (psi, l1, l2)

where psi is the rotation of the plane containing both ropes about the
anchor line, measured from the vertical (psi = 0 means the mass lies in
the wall plane).  The inertial frame sits at the left anchor with Y along
the anchor line and Z up, so the right anchor is at (0, d_a, 0).

Writing C = (d_a^2 + l1^2 - l2^2) / (2 d_a) for the coordinate along the
anchor line and r = sqrt(l1^2 - C^2) for the distance from that line, the
forward kinematics is

    p(q) = (r sin(psi), C, -r cos(psi)).

Accelerations follow from Newton's equation m (p_dd - g) = f_tot with

    p_dd = A_d(q) @ q_dd + b_d(q, q_dot),

A_d the Jacobian dp/dq and b_d quadratic in the rates.  The kernel reads
Newton's equation in the rope frame: the tangential direction
t = (cos psi, 0, sin psi), the radial direction e_r = (sin psi, 0, -cos psi)
and the anchor line y.  Along t it gives

    psi_dd = (t.(g + f_tot/m) - 2 r_dot psi_dot) / r.

Along e_r and y it gives w_r = r_dd - r_dd0 and v_y = C_dd - C_dd0, the
parts of r_dd and C_dd that the rope accelerations cause (r_dd0 and C_dd0
are their values at l1_dd = l2_dd = 0).  Differentiating l1^2 = r^2 + C^2
and l2^2 = r^2 + (d_a - C)^2 twice turns these into

    l1 l1_dd = r w_r + C v_y,    l2 l2_dd = r w_r - (d_a - C) v_y,

so the 2x2 block of A_d inverts with two divisions.  A rope pulls along
p - anchor, which lies in the plane of e_r and y, so the rope forces never
enter psi_dd.  The propeller pushes along t, so it never enters w_r or
v_y.  jacobian_arrays and bias_arrays give A_d and b_d in closed form on
their own, and the tests check the kernel against them.

A state is the 6-vector x = (psi, l1, l2, psi_dot, l1_dot, l2_dot) and an
input the 6-vector u = (f_rope_left, f_rope_right, f_ext (3), f_prop).  Rope
forces act along the rope axis (anchor -> mass) and are non-positive: a
negative magnitude pulls toward the anchor.  The propeller force acts along
the base X axis (cos psi, 0, sin psi), normal to the plane of the ropes.
f_ext is the one external force at the CoM: the leg force on the thrust
step, the disturbance in flight.  The kernel adds it last, so a step under
a disturbance and the same step without one round alike up to that last
addition.

The state derivative has one kernel body, _accelerations, written in
+ - * / alone on one scalar or array argument per component.  Two callers
bind it: state_derivative_arrays on numpy arrays for batches, and the
integrator's Python-float RK4 loop (integrator._rollout_floats), which
calls it on the scalars of one state where numpy's per-call cost would
dominate.  Each computes C and r^2 with _chord_and_radius, r and
sin/cos(psi) itself, and owns the domain handling: both give NaN
accelerations when r^2 <= 0, l2 = 0 or psi is not finite, and agree bit
for bit, with the same IEEE operations in the same order.  (r^2 > 0
implies l2 > 0 in exact arithmetic, but rounding lets a state at the right
anchor pass it, where the float loop would divide by zero.)

The kernel is analytic in x and u: + - * / in the body, sqrt, sin and cos
in the array binding.  So state_derivative_arrays also takes complex
arrays, on which the integrator's complex-step derivatives are built (see
its docstring).  numpy orders complex numbers by their real part first,
so the domain test r^2 > 0 reads the real part of such a step.

A_d is invertible wherever the point lies off the anchor line: its
determinant is -l1 l2 / d_a at every psi, so psi = 0 (the mass in the wall
plane) is an ordinary configuration.  The dynamics kernel does not call
jacobian_arrays or bias_arrays.  The simulator maps rates to Cartesian
velocities with jacobian_arrays; the planner and the MPC get their
position derivatives by complex step through position_arrays instead.

Wall and rope geometry: the wall through the anchors has the one unit
normal wall_normal, which is also the contact normal of the leg and the
wheels; tangent_frame gives its tangents for their friction pyramids.
rope_axes gives the rope axes at a position, and static_rope_pull the rope
forces holding the mass still there, for the planner and the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np


class KinematicsError(ValueError):
    """A point on the anchor line: psi is undefined there, and at an
    anchor a rope axis is too."""


@dataclass(frozen=True)
class Ellipsoid:
    """Axis-aligned ellipsoidal bump on the wall, in standard form."""

    center: np.ndarray          # (3,) m
    semi_axes: np.ndarray       # (3,) m, all > 0

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "semi_axes", np.asarray(self.semi_axes, dtype=float))
        if self.center.shape != (3,) or self.semi_axes.shape != (3,):
            raise ValueError("Ellipsoid center and semi_axes must be 3-vectors")
        if not np.all(np.isfinite(self.center)):
            raise ValueError(f"Ellipsoid center must be finite: {self.center}")
        if not np.all((self.semi_axes > 0.0) & (self.semi_axes < np.inf)):
            raise ValueError(f"Ellipsoid semi-axes must be finite and positive: "
                             f"{self.semi_axes}")


@dataclass(frozen=True)
class Scenario:
    """Wall geometry, robot constants and actuation limits.

    The inertial frame is pinned to the left anchor: anchor_left = (0,0,0)
    and anchor_right = (0, d_a, 0) by construction.
    """

    d_a: float = 5.0                   # anchor distance (m)
    mass: float = 5.0                  # kg, positive: the kernel divides by it
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -9.81]))
    wall_normal: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))
    wall_offset: float = 0.05          # wall kept at n.p >= wall_offset (m)
    mu: float = 0.8                    # friction coefficient at the wheels/foot
    f_leg_max: float = 300.0           # max normal leg force (N)
    f_r_max: float = 90.0              # max rope tension magnitude (N)
    f_p_max: float = 50.0              # max propeller force, bilateral (N)
    t_th: float = 0.05                 # thrust impulse duration (s)
    d_b: float = 0.8                   # landing wheel spacing (m)
    d_w: float = 0.4                   # wall clearance of the CoM at contact (m)
    d_h: float = 0.4                   # hoist (rope attachment) spacing on the base (m)
    wheel_z_offset: float = 0.0        # vertical wheel offset w.r.t. the CoM (m)
    obstacle: Ellipsoid | None = None

    def __post_init__(self):
        object.__setattr__(self, "gravity", np.asarray(self.gravity, dtype=float))
        object.__setattr__(self, "wall_normal", _unit(self.wall_normal, "wall_normal"))
        # The wall passes through both anchors, (0, 0, 0) and (0, d_a, 0).
        if abs(self.wall_normal[1]) > 1e-12:
            raise ValueError(f"wall_normal must have no y component, so that the wall "
                             f"passes through both anchors: {self.wall_normal}")
        if self.gravity.shape != (3,) or not np.all(np.isfinite(self.gravity)):
            raise ValueError(f"gravity must be a finite 3-vector: {self.gravity}")
        for name in ("d_a", "mass", "wall_offset", "mu", "f_leg_max", "f_r_max",
                     "f_p_max", "t_th", "d_b", "d_w", "d_h", "wheel_z_offset"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (self.d_a > 0.0):
            raise ValueError("anchor distance d_a must be positive")
        if not (self.mass > 0.0):
            raise ValueError("mass must be positive")
        if not (self.mu > 0.0):
            raise ValueError("friction coefficient mu must be positive")
        for name in ("f_leg_max", "f_r_max", "t_th"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive")
        for name in ("f_p_max", "d_b", "d_w", "d_h"):
            if not (getattr(self, name) >= 0.0):
                raise ValueError(f"{name} must be non-negative")
        if not (self.obstacle is None or isinstance(self.obstacle, Ellipsoid)):
            raise ValueError(f"obstacle must be an Ellipsoid or None, got {self.obstacle!r}")
        # The ellipsoid is axis-aligned with x normal to the wall, and the
        # planner bounds p_x instead of n.p when it is set.
        if self.obstacle is not None and np.any(self.wall_normal != (1.0, 0.0, 0.0)):
            raise ValueError("an obstacle needs wall_normal +x")

    @property
    def anchor_left(self) -> np.ndarray:
        return np.zeros(3)

    @property
    def anchor_right(self) -> np.ndarray:
        return np.array([0.0, self.d_a, 0.0])

    def with_(self, **kwargs) -> "Scenario":
        return replace(self, **kwargs)


def _unit(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if v.shape != (3,) or n < 1e-12:
        raise ValueError(f"{name} must be a nonzero 3-vector")
    return v / n


# ---------------------------------------------------------------------------
# Array kernels.  All accept broadcastable leading dimensions, never raise
# and mark bad configurations with NaN so optimiser line searches can probe
# freely.  The dynamics kernel body is also called on Python floats, by the
# integrator's loop for single states.
# ---------------------------------------------------------------------------

def _chord_and_radius(l1, l2, d_a):
    """Coordinate C along the anchor line and squared distance r^2 from it."""
    C = (d_a * d_a + l1 * l1 - l2 * l2) / (2.0 * d_a)
    r2 = l1 * l1 - C * C
    return C, r2


def position_arrays(psi, l1, l2, d_a):
    """Cartesian position for broadcastable coordinate arrays.

    Out of domain (r^2 <= 0) the x and z components are NaN.
    """
    C, r2 = _chord_and_radius(l1, l2, d_a)
    with np.errstate(invalid="ignore"):
        r = np.sqrt(np.where(r2 > 0.0, r2, np.nan))
    px = r * np.sin(psi)
    py = C + np.zeros_like(px)
    pz = -r * np.cos(psi)
    return np.stack([px, py, pz], axis=-1)


def jacobian_arrays(psi, l1, l2, d_a):
    """A_d = dp/d(psi, l1, l2), shape (..., 3, 3)."""
    C, r2 = _chord_and_radius(l1, l2, d_a)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.sqrt(np.where(r2 > 0.0, r2, np.nan))
        r_l1 = l1 * (d_a - C) / (d_a * r)
        r_l2 = C * l2 / (d_a * r)
    s, c = np.sin(psi), np.cos(psi)
    zero = np.zeros_like(r)
    row_x = np.stack([r * c, s * r_l1, s * r_l2], axis=-1)
    row_y = np.stack([zero, l1 / d_a + zero, -l2 / d_a + zero], axis=-1)
    row_z = np.stack([r * s, -c * r_l1, -c * r_l2], axis=-1)
    return np.stack([row_x, row_y, row_z], axis=-2)


def bias_arrays(psi, l1, l2, psi_dot, l1_dot, l2_dot, d_a):
    """b_d = (d/dt dp/dq) q_dot, the rate-quadratic part of p_dd, shape (..., 3)."""
    C, r2 = _chord_and_radius(l1, l2, d_a)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.sqrt(np.where(r2 > 0.0, r2, np.nan))
        C_dot = (l1 * l1_dot - l2 * l2_dot) / d_a
        r_dot = (l1 * l1_dot - C * C_dot) / r
        C_dd0 = (l1_dot * l1_dot - l2_dot * l2_dot) / d_a
        r_dd0 = (l1_dot * l1_dot - C_dot * C_dot - C * C_dd0 - r_dot * r_dot) / r
    s, c = np.sin(psi), np.cos(psi)
    bx = r_dd0 * s + 2.0 * r_dot * c * psi_dot - r * s * psi_dot * psi_dot
    by = C_dd0 + np.zeros_like(bx)
    bz = -r_dd0 * c + 2.0 * r_dot * s * psi_dot + r * c * psi_dot * psi_dot
    return np.stack([bx, by, bz], axis=-1)


def _accelerations(l1, l2, w, l1_dot, l2_dot, u0, u1, u2, u3, u4, u5, C, r, s, c,
                   gx, gy, gz, d_a, m):
    """(psi_dd, l1_dd, l2_dd): the one body of the dynamics kernel.

    Each argument is one component, a Python float or an array; psi enters
    as s = sin(psi) and c = cos(psi), which with C and r come from the
    caller, which also owns the domain handling.  The body uses + - * /
    only, so its numpy binding and the integrator's float loop perform the
    same IEEE operations in the same order and agree bit for bit.

    Newton's equation in the rope frame (see the module docstring): along
    t = (c, 0, s) it gives psi_dd, with no rope force in it; along
    e_r = (s, 0, -c) and y it gives w_r = r_dd - r_dd0 and v_y = C_dd -
    C_dd0, with no propeller force in them; and l1 l1_dd = r w_r + C v_y,
    l2 l2_dd = r w_r - (d_a - C) v_y give the rope accelerations.  The
    rate terms of l1^2 = r^2 + C^2 differentiated twice cancel against
    r_dd0 and C_dd0: r r_dd0 + r_dot^2 + C C_dd0 + C_dot^2 = l1_dot^2.
    """
    # Rate terms: C_dot, r_dot, and C_dd, r_dd at zero rope accelerations.
    l1_l1_dot, l1_dot_sq = l1 * l1_dot, l1_dot * l1_dot
    C_dot = (l1_l1_dot - l2 * l2_dot) / d_a
    r_dot = (l1_l1_dot - C * C_dot) / r
    C_dd0 = (l1_dot_sq - l2_dot * l2_dot) / d_a
    r_dd0 = (l1_dot_sq - C_dot * C_dot - C * C_dd0 - r_dot * r_dot) / r
    # Force over rope length: a rope pulls along p - anchor, of length l.
    # The external force goes last (see the module docstring).
    f1, f2 = u0 / l1, u1 / l2
    psi_dd = ((m * (c * gx + s * gz) + u5 + c * u2 + s * u4) / m - 2.0 * r_dot * w) / r
    w_r = ((m * (s * gx - c * gz) + r * (f1 + f2) + s * u2 - c * u4) / m
           - r_dd0 + r * w * w)
    v_y = (m * gy + C * f1 + (C - d_a) * f2 + u3) / m - C_dd0
    return psi_dd, (r * w_r + C * v_y) / l1, (r * w_r - (d_a - C) * v_y) / l2


def _components_first(a):
    """A contiguous copy of a with its last axis first, so that each
    component the kernel body reads is one contiguous array: numpy's
    complex ufuncs run about 1.5x slower on the strided columns of a
    (..., 6) array."""
    return np.ascontiguousarray(a.transpose((a.ndim - 1,) + tuple(range(a.ndim - 1))))


def state_derivative_arrays(x, u, scenario: Scenario):
    """Time derivative of the stacked state (psi, l1, l2, rates), batched.

    The numpy binding of the kernel: any leading dimensions, never raises,
    never warns.  Out of domain (r^2 <= 0 or l2 = 0) or with a non-finite
    psi the accelerations are NaN; overflow gives inf or NaN.
    """
    d_a = scenario.d_a
    xs = _components_first(x)
    psi, l1, l2 = xs[0], xs[1], xs[2]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        C, r2 = _chord_and_radius(l1, l2, d_a)
        r = np.sqrt(np.where((r2 > 0.0) & (l2 != 0.0), r2, np.nan))
        acc = _accelerations(*xs[1:], *_components_first(u), C, r, np.sin(psi),
                             np.cos(psi), *scenario.gravity, d_a, scenario.mass)
    out = np.empty(np.shape(acc[0]) + (6,), dtype=np.result_type(xs, *acc))
    out[..., :3] = x[..., 3:]
    for i, a in enumerate(acc):
        out[..., 3 + i] = a
    return out


def _finite_point(p) -> np.ndarray:
    """p as a float array; ValueError unless it is a finite 3-vector."""
    p = np.asarray(p, dtype=float)
    if p.shape != (3,) or not np.isfinite(p).all():
        raise ValueError(f"position must be a finite 3-vector: {p}")
    return p


def inverse_kinematics(p, scenario: Scenario) -> tuple[float, float, float]:
    """Recover (psi, l1, l2) from a Cartesian position.

    psi = atan2(p_x, -p_z), consistent with p_x = r sin(psi), p_z = -r cos(psi).
    """
    p = _finite_point(p)
    l1 = float(np.linalg.norm(p - scenario.anchor_left))
    l2 = float(np.linalg.norm(p - scenario.anchor_right))
    r = float(np.hypot(p[0], p[2]))
    if r < 1e-9:
        raise KinematicsError("point lies on the anchor line; psi is undefined")
    psi = float(np.arctan2(p[0], -p[2]))
    return psi, l1, l2


def cross(a, b) -> np.ndarray:
    """a x b over the last axis, rows broadcast: np.cross's products and
    differences written out by components, without its per-call cost."""
    a0, a1, a2 = np.asarray(a, dtype=float).T
    b0, b1, b2 = np.asarray(b, dtype=float).T
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]).T


def tangent_frame(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic tangent pair (t1, t2): Gram-Schmidt of world Y against
    the normal (world X fallback when nearly parallel), t2 = n x t1."""
    n = np.asarray(normal, dtype=float)
    seed = np.array([0.0, 1.0, 0.0])
    if abs(seed @ n) > 0.99:
        seed = np.array([1.0, 0.0, 0.0])
    t1 = seed - (seed @ n) * n
    t1 /= np.linalg.norm(t1)
    return t1, cross(n, t1)


def rope_axes(p, scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Unit axes (anchor -> mass) of the left and right ropes at position p."""
    p = _finite_point(p)
    a_l, a_r = p - scenario.anchor_left, p - scenario.anchor_right
    n_l, n_r = np.linalg.norm(a_l), np.linalg.norm(a_r)
    if n_l == 0.0 or n_r == 0.0:
        raise KinematicsError(f"point {p} lies at an anchor, where its rope has no axis")
    return a_l / n_l, a_r / n_r


def static_rope_pull(p, scenario: Scenario) -> np.ndarray:
    """Rope forces (left, right) balancing gravity at p: the least-squares
    solution of A f = -m g, A's columns the rope axes, clipped to bounds."""
    A = np.column_stack(rope_axes(p, scenario))
    f, *_ = np.linalg.lstsq(A, -scenario.mass * scenario.gravity, rcond=None)
    return np.clip(f, -scenario.f_r_max, 0.0)
