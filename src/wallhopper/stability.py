"""Static on-wall stability via feasible wrench polytopes.

The robot resting on the wall is modelled as a rigid body with four
unilateral contacts: two landing wheels (point contacts with friction,
bounded normal force) and two rope attachments (forces along the rope
axes, bounded tension).  Each contact contributes wrench columns about the
CoM: the four friction-pyramid corners of a wheel and the full pull of a
rope.  A contact-force weight vector lambda over these columns, with the
weights of one wheel summing to at most 1 and every weight in [0, 1],
spans the feasible wrench polytope (FWP) in the sense of Orsolino et al.
(RA-L 2018).  ``margin_at`` answers both questions of a cell with one LP
over lambda, so no cell builds the polytope itself: the LP is infeasible
exactly when the contacts cannot balance the load (the cell is statically
infeasible), and otherwise its optimum is the directional margin.  Only its
rope columns depend on the CoM position, so ``margin_heatmap`` builds the
rest once per map (``MarginLp``); each cell is still one ``margin_at`` call,
the name the benchmark's step timer and tracer wrap.

``build_fwp`` still forms the FWP explicitly (Minkowski sum plus Qhull) for
its vertex and facet counts; the tests use it as an oracle for the LP.

The wheels touch the wall, so their contact normal is the scenario's
wall_normal, the one wall model that the planner and the simulator use
too; model.tangent_frame gives the tangents of their friction pyramids.

All quantities in this module live in a frame attached to the CoM (axes
parallel to the world frame); referencing wrenches about the CoM keeps
the 6D polytopes full-dimensional.

Sign conventions: gravity applies the wrench w_G = (m g, 0) to the body.
``load_wrench`` returns -w_G, the wrench the contacts must realise for
static balance, and every membership and margin query is posed on it;
with the literal gravity wrench the test would be vacuously infeasible at
every position (contacts between wall anchors can never reproduce a net
downward pull with zero moment).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .model import Scenario, _finite_point, cross, tangent_frame
from .polytopes import (DegeneracyError, HPolytope, MarginResult, VPolytope, convex_hull,
                        v_to_h)
# The hull-based reference for margin_at, re-exported for the benchmark's tracer.
from .polytopes import directional_margin  # noqa: F401
from .solvers import STATUS_INFEASIBLE, STATUS_OPTIMAL, solve_lp


# The wall span of HeatmapGrid.regular (m, anchor frame).
Y_RANGE = (0.0, 5.0)
Z_RANGE = (-10.0, -2.0)


class CellError(ValueError):
    """No answer at this CoM position: a rope attachment coincides with its
    anchor, or the margin LP ended neither optimal nor infeasible."""


@dataclass(frozen=True)
class ContactSet:
    """Contact geometry in the CoM frame."""

    wheel_left: np.ndarray
    wheel_right: np.ndarray
    hoist_left: np.ndarray
    hoist_right: np.ndarray
    axis_left: np.ndarray          # unit, anchor -> attachment
    axis_right: np.ndarray
    contact_normal: np.ndarray     # the scenario's wall_normal
    mu: float
    f_leg_max: float
    f_r_max: float


def _wall_contacts(scenario: Scenario):
    """Contact normal, tangents (t1, t2), wheel and hoist points; none depends on p."""
    n_c = scenario.wall_normal
    t1, t2 = tangent_frame(n_c)
    half_b = 0.5 * scenario.d_b * t1
    z_off = scenario.wheel_z_offset * t2
    wheels = (-scenario.d_w * n_c - half_b + z_off, -scenario.d_w * n_c + half_b + z_off)
    return n_c, (t1, t2), wheels, (-0.5 * scenario.d_h * t1, +0.5 * scenario.d_h * t1)


def _rope_axes(p, scenario: Scenario, hoists) -> list:
    """The unit rope axes, anchor -> attachment, for a CoM at p; CellError
    when an attachment coincides with its anchor."""
    axes = []
    for anchor, hoist in zip((scenario.anchor_left - p, scenario.anchor_right - p), hoists):
        v = hoist - anchor
        norm = np.linalg.norm(v)
        if norm < 1e-9:
            raise CellError("rope attachment coincides with its anchor")
        axes.append(v / norm)
    return axes


def contact_geometry(p, scenario: Scenario) -> ContactSet:
    """Wheel and rope-attachment placement for a CoM at p (anchor frame);
    ValueError unless p is a finite 3-vector."""
    n_c, _, wheels, hoists = _wall_contacts(scenario)
    return ContactSet(*wheels, *hoists, *_rope_axes(_finite_point(p), scenario, hoists),
                      n_c, scenario.mu, scenario.f_leg_max, scenario.f_r_max)


def _pyramid_corners(t1, t2, n, mu: float, f_leg_max: float) -> np.ndarray:
    """The 4 corners (R_c @ [+-mu, +-mu, 1]) * f_leg_max of a wheel's
    friction pyramid, as rows, with R_c = [t1, t2, n] the contact frame."""
    R_c = np.column_stack([t1, t2, n])
    local = np.array([[mu, -mu, -mu, mu],
                      [mu, mu, -mu, -mu],
                      [1.0, 1.0, 1.0, 1.0]]) * f_leg_max
    return (R_c @ local).T


def wheel_force_polytope(contact_normal, mu: float, f_leg_max: float) -> VPolytope:
    """Friction-pyramid force polytope of one wheel: apex plus 4 corners.

    The pyramid implicitly encodes the unilateral constraint.
    """
    n = np.asarray(contact_normal, dtype=float)
    corners = _pyramid_corners(*tangent_frame(n), n, mu, f_leg_max)
    # canonicalise: collapses to a normal segment when mu == 0
    return convex_hull(np.vstack([np.zeros(3), corners]))


def rope_force_polytope(axis, f_r_max: float) -> VPolytope:
    """Tension segment of one rope: zero and full pull toward the anchor."""
    a = np.asarray(axis, dtype=float)
    return convex_hull(np.vstack([-a * f_r_max, np.zeros(3)]))


def lift_to_wrench(force_vertices: np.ndarray, application_point) -> np.ndarray:
    """Map force vertices f to 6D wrench vertices (f, p x f) about the CoM;
    p is one point, or one point per force row."""
    f = np.atleast_2d(np.asarray(force_vertices, dtype=float))
    return np.hstack([f, cross(application_point, f)])


@dataclass(frozen=True)
class FwpResult:
    h_polytope: HPolytope
    v_polytope: VPolytope
    raw_vertex_count: int


def contact_wrench_polytopes(cs: ContactSet) -> tuple[VPolytope, ...]:
    """Per-contact wrench polytopes (two wheels, two ropes)."""
    parts = []
    for wheel in (cs.wheel_left, cs.wheel_right):
        forces = wheel_force_polytope(cs.contact_normal, cs.mu, cs.f_leg_max)
        parts.append(convex_hull(lift_to_wrench(forces.vertices, wheel)))
    for axis, hoist in ((cs.axis_left, cs.hoist_left), (cs.axis_right, cs.hoist_right)):
        forces = rope_force_polytope(axis, cs.f_r_max)
        parts.append(convex_hull(lift_to_wrench(forces.vertices, hoist)))
    return tuple(parts)


def build_fwp(cs: ContactSet) -> FwpResult:
    """Minkowski sum of the four contact wrench polytopes, with H-rep."""
    parts = contact_wrench_polytopes(cs)
    combo = parts[0].vertices
    for part in parts[1:]:
        combo = (combo[:, None, :] + part.vertices[None, :, :]).reshape(-1, 6)
    raw_count = combo.shape[0]
    hull = convex_hull(combo)
    if hull.degenerate:
        raise DegeneracyError("contact geometry produced a flat wrench polytope")
    return FwpResult(v_to_h(hull), hull, raw_count)


def load_wrench(scenario: Scenario) -> np.ndarray:
    """Wrench the contacts must realise for static balance: minus gravity's
    wrench about the CoM, -(m g, 0)."""
    return -np.concatenate([scenario.mass * scenario.gravity, np.zeros(3)])


def _check_direction(v_hat) -> np.ndarray:
    """v_hat as a float array; ValueError unless it is a finite, non-zero
    6-vector."""
    v = np.asarray(v_hat, dtype=float)
    if v.shape != (6,) or not np.all(np.isfinite(v)) or not np.any(v):
        raise ValueError(f"v_hat must be a finite non-zero 6-vector, got {v_hat!r}")
    return v


class MarginLp:
    """The margin LP of one scenario and direction, built once per map.

    G holds the wrench columns about the CoM: the 4 pyramid corners of each
    wheel, then the full pull of each rope.  The LP has two weight vectors
    under the same limits (every weight in [0, 1], the 4 weights of each
    wheel summing to at most 1): lambda with G lambda = w, and lambda' with
    G lambda' - gamma v_hat = w, maximising gamma >= 0 (the last variable).
    The FWP is convex, so it holds the whole segment from w to
    w + gamma v_hat.  The LP is infeasible exactly when no admissible
    lambda balances w; the cell then reports "infeasible_origin".

    Only the rope columns move with the CoM position p.  The read-only
    template holds the 4 wheel-sum rows, both copies of the 8 wheel columns
    (f, p x f as lift_to_wrench lifts them), the -v_hat column, c, the row
    bounds (-inf..1 on the wheel sums, w..w on the equalities) and the
    variable bounds.  ``solve(p)`` writes the 4 rope columns (2 ropes,
    2 copies) into a copy of its matrix, so no caller holds an array that a
    later cell changes.
    """

    def __init__(self, scenario: Scenario, v_hat):
        self.scenario = scenario
        self.v_hat = _check_direction(v_hat).copy()
        n_c, tangents, wheels, self._hoists = _wall_contacts(scenario)
        corners = _pyramid_corners(*tangents, n_c, scenario.mu, scenario.f_leg_max)
        forces = np.vstack([corners, corners])
        A = np.zeros((16, 21))             # 4 wheel sums, then 12 equalities
        for row, first in enumerate((0, 4, 10, 14)):
            A[row, first:first + 4] = 1.0
        A[4:7, :8] = forces.T
        A[7:10, :8] = cross(np.repeat(wheels, 4, axis=0), forces).T
        A[10:, 10:18] = A[4:10, :8]
        A[10:, -1] = -self.v_hat
        w = load_wrench(scenario)
        row_lower, row_upper = np.full(16, -np.inf), np.ones(16)
        row_lower[4:10] = row_lower[10:] = row_upper[4:10] = row_upper[10:] = w
        c, upper = np.zeros(21), np.ones(21)   # maximise gamma; weights <= 1
        c[-1], upper[-1] = -1.0, np.inf
        self._lp = (c, A, row_lower, row_upper, 0.0, upper)
        for array in (self.v_hat, c, A, row_lower, row_upper, upper):
            array.flags.writeable = False

    def solve(self, p) -> MarginResult:
        """The margin at CoM position p; lp_s is the seconds spent in
        solve_lp.  ValueError unless p is a finite 3-vector."""
        axes = _rope_axes(_finite_point(p), self.scenario, self._hoists)
        c, A, *bounds = self._lp
        A = A.copy()
        forces = -self.scenario.f_r_max * np.array(axes)
        A[4:7, 8:10] = A[10:13, 18:20] = forces.T
        A[7:10, 8:10] = A[13:16, 18:20] = cross(self._hoists, forces).T
        t0 = time.perf_counter()
        res = solve_lp(c, A, *bounds)
        lp_s = time.perf_counter() - t0
        if res.status == STATUS_INFEASIBLE:
            return MarginResult(0.0, "infeasible_origin", lp_s)
        if res.status != STATUS_OPTIMAL:
            # The weights are bounded, so gamma is too: this is a solver failure.
            raise CellError(f"margin LP ended {res.status}")
        return MarginResult(float(res.x[-1]), "ok", lp_s)


def margin_at(p, v_hat, scenario: Scenario, lp: MarginLp | None = None) -> MarginResult:
    """Directional feasibility margin of the load wrench w at CoM position p:
    the largest gamma >= 0 with w + gamma * v_hat inside the FWP, from one
    MarginLp.  With lp None it builds one for this point; otherwise
    ValueError unless lp is a MarginLp built for this scenario object and an
    equal v_hat.
    """
    if lp is None:
        lp = MarginLp(scenario, v_hat)
    elif not isinstance(lp, MarginLp):
        raise ValueError(f"lp must be a MarginLp or None, got {lp!r}")
    elif lp.scenario is not scenario or not np.array_equal(v_hat, lp.v_hat):
        raise ValueError("lp was built for another scenario or v_hat")
    return lp.solve(p)


@dataclass(frozen=True)
class HeatmapGrid:
    """Y/Z grid of CoM positions at constant wall-consistent X."""

    y_values: np.ndarray
    z_values: np.ndarray
    x: float

    def __post_init__(self):
        for name in ("y_values", "z_values"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.ndim != 1 or not np.all(np.isfinite(v)):
                raise ValueError(f"HeatmapGrid {name} must be a finite 1-D array: {v}")
            object.__setattr__(self, name, v)
        if np.ndim(self.x) != 0 or not np.isfinite(self.x):
            raise ValueError(f"HeatmapGrid x must be a finite number: {self.x!r}")

    @classmethod
    def regular(cls, ny=20, nz=20, x=1.5) -> "HeatmapGrid":
        """ny x nz evenly spaced positions over Y_RANGE x Z_RANGE."""
        return cls(np.linspace(*Y_RANGE, ny), np.linspace(*Z_RANGE, nz), x)


@dataclass
class HeatmapResult:
    grid: HeatmapGrid
    gamma: np.ndarray              # (ny, nz); 0 where statically infeasible
    feasible: np.ndarray           # (ny, nz) bool
    errors: list
    cell_s: np.ndarray             # (ny, nz) seconds of each cell (perf_counter)
    lp_s: np.ndarray               # (ny, nz) seconds of its LP; 0 on a CellError
    endings: dict                  # cells per ending: ok, infeasible_origin, CellError


def margin_heatmap(grid: HeatmapGrid, v_hat, scenario: Scenario) -> HeatmapResult:
    """Directional margin over a wall grid; infeasible cells report zero.

    One MarginLp is built per map and passed to every cell, which is still
    one ``margin_at`` call, so a wrapper of that name sees each cell.
    Cells that raise CellError are listed in ``errors`` and left at zero.
    """
    lp = MarginLp(scenario, v_hat)
    ny, nz = grid.y_values.size, grid.z_values.size
    gamma = np.zeros((ny, nz))
    feasible = np.zeros((ny, nz), dtype=bool)
    cell_s = np.zeros((ny, nz))
    lp_s = np.zeros((ny, nz))
    endings = dict.fromkeys(("ok", "infeasible_origin", "CellError"), 0)
    errors = []
    for i, y in enumerate(grid.y_values):
        for j, z in enumerate(grid.z_values):
            p = np.array([grid.x, y, z])
            t0 = time.perf_counter()
            try:
                res = margin_at(p, lp.v_hat, scenario, lp)
                status, lp_s[i, j] = res.status, res.lp_s
            except CellError as exc:
                errors.append((i, j, str(exc)))
                status = "CellError"
            cell_s[i, j] = time.perf_counter() - t0
            endings[status] += 1
            if status == "ok":
                gamma[i, j] = res.gamma
                feasible[i, j] = True
    return HeatmapResult(grid, gamma, feasible, errors, cell_s, lp_s, endings)
