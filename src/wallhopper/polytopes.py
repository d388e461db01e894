"""Convex polytope operations in R^3 and R^6.

Polytopes are carried primarily as vertex lists (V-representation); facet
inequalities (H-representation) are derived on demand.  Hulls are computed
with Qhull; flat input sets are hulled inside their affine span and marked
degenerate instead of failing, since force polytopes of frictionless or
single-axis contacts are legitimately lower-dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .solvers import STATUS_OPTIMAL, solve_lp

CONTAIN_TOL = 1e-8


class DegeneracyError(ValueError):
    """Operation requires a full-dimensional polytope."""


@dataclass(frozen=True)
class VPolytope:
    vertices: np.ndarray            # (n, d), lexicographically sorted
    degenerate: bool = False        # affine rank < d

    def __post_init__(self):
        object.__setattr__(self, "vertices",
                           np.atleast_2d(np.asarray(self.vertices, dtype=float)))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True)
class HPolytope:
    """Rows a_j . w <= b_j."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, dtype=float)))
        object.__setattr__(self, "b", np.atleast_1d(np.asarray(self.b, dtype=float)))
        if self.A.shape[0] != self.b.size:
            raise ValueError("A and b row counts differ")

    @property
    def n_rows(self) -> int:
        return self.b.size


@dataclass(frozen=True)
class MarginResult:
    gamma: float
    status: str                     # "ok" | "infeasible_origin" | "unbounded"
    lp_s: float = 0.0               # seconds in solve_lp (margin_at only)


def _lexsorted(points: np.ndarray) -> np.ndarray:
    order = np.lexsort(points.T[::-1])
    return points[order]


def _affine_frame(points: np.ndarray, tol: float = 1e-9):
    """Mean, orthonormal basis of the affine span and its rank."""
    mean = points.mean(axis=0)
    centered = points - mean
    scale = max(1.0, float(np.max(np.abs(centered))) if centered.size else 1.0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(s > tol * scale))
    return mean, vt[:rank].T, rank


def convex_hull(points) -> VPolytope:
    """Minimal vertex set whose hull contains every input point.

    Inputs whose affine rank is below the ambient dimension are reduced to
    their span, hulled there and returned with the degenerate flag set.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] == 0:
        raise ValueError("need at least one point")
    d = points.shape[1]
    points = np.unique(points, axis=0)
    mean, basis, rank = _affine_frame(points)
    if rank == d:
        try:
            hull = ConvexHull(points)
        except QhullError as exc:
            raise DegeneracyError(f"hull computation failed: {exc}") from exc
        return VPolytope(_lexsorted(points[hull.vertices]), degenerate=False)
    if rank == 0:
        return VPolytope(points[:1], degenerate=True)
    coords = (points - mean) @ basis
    if rank == 1:
        idx = [int(np.argmin(coords[:, 0])), int(np.argmax(coords[:, 0]))]
        return VPolytope(_lexsorted(points[idx]), degenerate=True)
    hull = ConvexHull(coords)
    return VPolytope(_lexsorted(points[hull.vertices]), degenerate=True)


def _dedup_rows(A: np.ndarray, b: np.ndarray, decimals: int = 9):
    stacked = np.column_stack([A, b])
    _, idx = np.unique(np.round(stacked, decimals), axis=0, return_index=True)
    idx = np.sort(idx)
    return A[idx], b[idx]


def v_to_h(P: VPolytope) -> HPolytope:
    """Facet inequalities of a full-dimensional V-polytope."""
    if P.degenerate:
        raise DegeneracyError("H-representation needs a full-dimensional polytope")
    if P.n_vertices < P.dim + 1:
        raise DegeneracyError("too few vertices for a full-dimensional polytope")
    try:
        hull = ConvexHull(P.vertices)
    except QhullError as exc:
        raise DegeneracyError(f"facet enumeration failed: {exc}") from exc
    # Qhull equations are n.x + c <= 0 with unit outward normals n.
    A, b = _dedup_rows(hull.equations[:, :-1], -hull.equations[:, -1])
    return HPolytope(A, b)


def contains(H: HPolytope, w, tol: float = CONTAIN_TOL) -> bool:
    w = np.asarray(w, dtype=float)
    return bool(np.all(H.A @ w <= H.b + tol))


def directional_margin(H: HPolytope, w0, v_hat) -> MarginResult:
    """max gamma >= 0 with w0 + gamma * v_hat inside H, by a ratio test.

    Row j limits the ray only if a_j . v_hat > 0, and then to
    gamma <= (b_j - a_j . w0) / (a_j . v_hat); gamma is the least of these
    limits, which makes this the closed form of the one-variable LP and
    needs no solver.  Returns gamma = 0 with an infeasible-origin status
    when w0 itself violates a row, and an unbounded status when no row
    limits the ray.
    """
    w0 = np.asarray(w0, dtype=float)
    v_hat = np.asarray(v_hat, dtype=float)
    if not contains(H, w0):
        return MarginResult(0.0, "infeasible_origin")
    av = H.A @ v_hat
    limiting = av > 0.0
    if not limiting.any():
        return MarginResult(np.inf, "unbounded")
    slack = H.b[limiting] - H.A[limiting] @ w0
    # contains() lets w0 lie up to CONTAIN_TOL outside a row.
    return MarginResult(max(0.0, float(np.min(slack / av[limiting]))), "ok")


def membership_distance(P: VPolytope, w) -> float:
    """Infinity-norm distance from w to the hull of P's vertices, via LP.

    Minimises t subject to -t <= V^T lambda - w <= t componentwise,
    lambda >= 0, sum lambda = 1.  Zero (up to LP tolerance) means w is a
    convex combination of the vertices.
    """
    w = np.asarray(w, dtype=float)
    n, d = P.n_vertices, P.dim
    # Variables: (lambda_1..lambda_n, t).
    c = np.zeros(n + 1)
    c[-1] = 1.0
    V = P.vertices.T                                   # (d, n)
    A = np.block([[V, -np.ones((d, 1))],
                  [V, np.ones((d, 1))],
                  [np.ones((1, n)), np.zeros((1, 1))]])
    row_lower = np.concatenate([np.full(d, -np.inf), w, [1.0]])
    row_upper = np.concatenate([w, np.full(d, np.inf), [1.0]])
    res = solve_lp(c, A, row_lower, row_upper, lower=0.0)
    if res.status != STATUS_OPTIMAL:
        raise RuntimeError(f"membership LP {res.status}")
    return float(res.value)
