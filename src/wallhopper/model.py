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

Accelerations follow from Newton's equation m (p_dd - g) = f_tot via

    p_dd = A_d(q) @ q_dd + b_d(q, q_dot),

with A_d the Jacobian dp/dq and b_d quadratic in the rates.  Both are
implemented in closed form below and cross-checked against finite
differences in the tests.

A state is the 6-vector x = (psi, l1, l2, psi_dot, l1_dot, l2_dot) and an
input the 6-vector u = (f_rope_left, f_rope_right, f_leg (3), f_prop).  Rope
forces act along the rope axis (anchor -> mass) and are non-positive: a
negative magnitude pulls toward the anchor.  The propeller force acts along
the base X axis (cos psi, 0, sin psi), normal to the plane of the ropes.

The state derivative has one kernel body, _accelerations, written in
+ - * / alone and bound two ways: state_derivative_arrays on numpy arrays
for batches, and state_derivative_scalar on Python floats for one state,
where numpy's per-call cost would dominate.  Each binding computes r and
sin/cos(psi) and owns the domain handling; both return NaN accelerations
when r^2 <= 0 or psi is not finite, never raise, and agree bit for bit:
same IEEE operations, same order.  The integrator's one float loop binds
the float binding's constants (d_a, mass, gravity) once per call, for one
step or a whole schedule.

The kernel is analytic in x and u: + - * / in the body, sqrt, sin and cos
in the array binding.  So state_derivative_arrays also takes complex
arrays, on which the integrator's complex-step derivatives are built (see
its docstring).  numpy orders complex numbers by their real part first,
so the domain test r^2 > 0 reads the real part of such a step.

A_d is invertible wherever the point lies off the anchor line: its
determinant is -l1 l2 / d_a at every psi, so psi = 0 (the mass in the wall
plane) is an ordinary configuration.  jacobian_arrays and bias_arrays give
A_d and b_d on their own; the dynamics kernel does not call them, and the
tests use them as its oracle.  The simulator and energy map rates to
Cartesian velocities with jacobian_arrays; the planner and the MPC get
their position derivatives by complex step through position_arrays
instead.

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
    """A point on the anchor line, where psi is undefined."""


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
    mass: float = 5.0                  # kg
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
        if self.gravity.shape != (3,) or not np.all(np.isfinite(self.gravity)):
            raise ValueError(f"gravity must be a finite 3-vector: {self.gravity}")
        for name in ("d_a", "mass", "wall_offset", "mu", "f_leg_max", "f_r_max",
                     "f_p_max", "t_th", "d_b", "d_w", "d_h", "wheel_z_offset"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (self.d_a > 0.0):
            raise ValueError("anchor distance d_a must be positive")
        if not (self.mass >= 0.0):
            raise ValueError("mass must be non-negative")
        if not (self.mu > 0.0):
            raise ValueError("friction coefficient mu must be positive")
        for name in ("f_leg_max", "f_r_max", "t_th"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive")
        if not (self.f_p_max >= 0.0):
            raise ValueError("f_p_max must be non-negative")
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
# freely.  The dynamics kernel also has a Python-float binding for single
# states (state_derivative_scalar).
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


def _accelerations(x, u, C, r, s, c, gravity, d_a, m, extra_force):
    """(psi_dd, l1_dd, l2_dd): the one body of the dynamics kernel.

    x, u and extra_force hold their six (three) components along the first
    index, as Python floats or as arrays; C, r, s = sin(psi) and
    c = cos(psi) come from the caller, which also owns the domain handling.
    The body uses + - * / only, so both bindings perform the same IEEE
    operations in the same order and agree bit for bit.

    Exploits the cylindrical structure to invert A_d in closed form: the
    rotated (c*vx + s*vz, vy, s*vx - c*vz) components decouple psi_dd from
    a 2x2 system in (l1_dd, l2_dd).
    """
    l1, l2, w, l1_dot, l2_dot = x[1], x[2], x[3], x[4], x[5]
    px, py, pz = r * s, C, -r * c
    # Newton RHS components: gravity, leg, ropes along their axes, propeller.
    gx, gy, gz = gravity
    fx = m * gx + u[2] + px / l1 * u[0] + px / l2 * u[1] + c * u[5]
    fy = m * gy + u[3] + py / l1 * u[0] + (py - d_a) / l2 * u[1]
    fz = m * gz + u[4] + pz / l1 * u[0] + pz / l2 * u[1] + s * u[5]
    if extra_force is not None:
        fx = fx + extra_force[0]
        fy = fy + extra_force[1]
        fz = fz + extra_force[2]
    # Rate-quadratic bias b_d (p_dd with q_dd = 0).
    C_dot = (l1 * l1_dot - l2 * l2_dot) / d_a
    r_dot = (l1 * l1_dot - C * C_dot) / r
    C_dd0 = (l1_dot * l1_dot - l2_dot * l2_dot) / d_a
    r_dd0 = (l1_dot * l1_dot - C_dot * C_dot - C * C_dd0 - r_dot * r_dot) / r
    bx = r_dd0 * s + 2.0 * r_dot * c * w - r * s * w * w
    by = C_dd0
    bz = -r_dd0 * c + 2.0 * r_dot * s * w + r * c * w * w
    vx, vy, vz = fx / m - bx, fy / m - by, fz / m - bz
    # Closed-form A_d^{-1}: radial/tangential rotation plus 2x2 solve.
    psi_dd = (c * vx + s * vz) / r
    w_r = s * vx - c * vz
    r_l1 = l1 * (d_a - C) / (d_a * r)
    r_l2 = C * l2 / (d_a * r)
    denom = l1 * l2 / (d_a * r)
    l1_dd = ((l2 / d_a) * w_r + r_l2 * vy) / denom
    l2_dd = ((l1 / d_a) * w_r - r_l1 * vy) / denom
    return psi_dd, l1_dd, l2_dd


def _components_first(a):
    """A contiguous copy of a with its last axis first, so that each
    component the kernel body reads is one contiguous array: numpy's
    complex ufuncs run about 1.5x slower on the strided columns of a
    (..., 6) array."""
    return np.ascontiguousarray(a.transpose((a.ndim - 1,) + tuple(range(a.ndim - 1))))


def state_derivative_arrays(x, u, scenario: Scenario, extra_force=None):
    """Time derivative of the stacked state (psi, l1, l2, rates), batched.

    The numpy binding of the kernel: any leading dimensions, never raises,
    never warns.  Out of domain (r^2 <= 0) or with a non-finite psi the
    accelerations are NaN; overflow gives inf or NaN.
    """
    d_a = scenario.d_a
    xs = _components_first(x)
    psi, l1, l2 = xs[0], xs[1], xs[2]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        C, r2 = _chord_and_radius(l1, l2, d_a)
        r = np.sqrt(np.where(r2 > 0.0, r2, np.nan))
        ext = None if extra_force is None else _components_first(extra_force)
        acc = _accelerations(xs, _components_first(u), C, r, np.sin(psi), np.cos(psi),
                             scenario.gravity, d_a, scenario.mass, ext)
    out = np.empty(np.shape(acc[0]) + (6,), dtype=np.result_type(xs, *acc))
    out[..., :3] = x[..., 3:]
    for i, a in enumerate(acc):
        out[..., 3 + i] = a
    return out


def _float_accelerations(x, u, extra_force, scenario, d_a, m, gravity):
    """state_derivative_scalar's accelerations; the caller binds d_a, m, gravity."""
    psi = x[0]
    C, r2 = _chord_and_radius(x[1], x[2], d_a)
    if not (r2 > 0.0 and math.isfinite(psi)):
        return math.nan, math.nan, math.nan
    try:
        return _accelerations(x, u, C, math.sqrt(r2), math.sin(psi), math.cos(psi),
                              gravity, d_a, m, extra_force)
    except ZeroDivisionError:
        # A zero mass, or a divisor that underflowed: numpy gives inf/NaN.
        x, u = np.array(x, dtype=float), np.array(u, dtype=float)
        ext = None if extra_force is None else np.array(extra_force, dtype=float)
        return state_derivative_arrays(x, u, scenario, ext)[3:].tolist()


def state_derivative_scalar(x, u, scenario: Scenario, extra_force=None) -> list:
    """The same derivative for one state, on Python floats: x and u are
    sequences of six floats (extra_force of three); returns a list of six
    floats equal bit for bit to the matching row of state_derivative_arrays,
    NaN row included, and never raises where the batched binding returns."""
    return [x[3], x[4], x[5],
            *_float_accelerations(x, u, extra_force, scenario, scenario.d_a,
                                  scenario.mass, scenario.gravity.tolist())]


def inverse_kinematics(p, scenario: Scenario) -> tuple[float, float, float]:
    """Recover (psi, l1, l2) from a Cartesian position.

    psi = atan2(p_x, -p_z), consistent with p_x = r sin(psi), p_z = -r cos(psi).
    """
    p = np.asarray(p, dtype=float)
    l1 = float(np.linalg.norm(p - scenario.anchor_left))
    l2 = float(np.linalg.norm(p - scenario.anchor_right))
    r = float(np.hypot(p[0], p[2]))
    if r < 1e-9:
        raise KinematicsError("point lies on the anchor line; psi is undefined")
    psi = float(np.arctan2(p[0], -p[2]))
    return psi, l1, l2


def tangent_frame(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic tangent pair (t1, t2): Gram-Schmidt of world Y against
    the normal (world X fallback when nearly parallel), t2 = n x t1."""
    n = np.asarray(normal, dtype=float)
    seed = np.array([0.0, 1.0, 0.0])
    if abs(seed @ n) > 0.99:
        seed = np.array([1.0, 0.0, 0.0])
    t1 = seed - (seed @ n) * n
    t1 /= np.linalg.norm(t1)
    return t1, np.cross(n, t1)


def rope_axes(p, scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Unit axes (anchor -> mass) of the left and right ropes at position p."""
    a_l, a_r = p - scenario.anchor_left, p - scenario.anchor_right
    return a_l / np.linalg.norm(a_l), a_r / np.linalg.norm(a_r)


def static_rope_pull(p, scenario: Scenario) -> np.ndarray:
    """Rope forces (left, right) balancing gravity at p: the least-squares
    solution of A f = -m g, A's columns the rope axes, clipped to bounds."""
    A = np.column_stack(rope_axes(p, scenario))
    f, *_ = np.linalg.lstsq(A, -scenario.mass * scenario.gravity, rcond=None)
    return np.clip(f, -scenario.f_r_max, 0.0)
