"""Convex geometry checked by LP containment, sampling and bisection oracles."""

import numpy as np
import pytest
from scipy import optimize

from wallhopper.polytopes import (
    CONTAIN_TOL,
    DegeneracyError,
    HPolytope,
    contains,
    convex_hull,
    directional_margin,
    membership_distance,
    v_to_h,
)

CUBE = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
                dtype=float)


class TestConvexHull:
    def test_interior_point_removed(self):
        P = convex_hull(np.vstack([CUBE, [[0.0, 0.0, 0.0]]]))
        assert P.n_vertices == 8
        assert not P.degenerate

    def test_segment_retained_and_flagged(self):
        P = convex_hull(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]))
        assert P.n_vertices == 2
        assert P.degenerate

    def test_all_inputs_inside_hull(self):
        rng = np.random.default_rng(20)
        pts = rng.normal(size=(100, 3))
        P = convex_hull(pts)
        for x in pts:
            assert membership_distance(P, x) <= 1e-8

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        P = convex_hull(rng.normal(size=(40, 3)))
        P2 = convex_hull(P.vertices)
        np.testing.assert_array_equal(P.vertices, P2.vertices)

    def test_planar_input_flagged(self):
        square = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
                           [0.5, 0.5, 0.0]], dtype=float)
        P = convex_hull(square)
        assert P.degenerate
        assert P.n_vertices == 4


class TestVtoH:
    def test_cube_has_six_facets(self):
        H = v_to_h(convex_hull(CUBE))
        assert H.n_rows == 6

    def test_simplex_has_four_facets(self):
        simplex = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        H = v_to_h(convex_hull(simplex))
        assert H.n_rows == 4

    def test_degenerate_input_rejected(self):
        seg = convex_hull(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
        with pytest.raises(DegeneracyError):
            v_to_h(seg)

    def test_vertices_satisfy_all_rows(self):
        rng = np.random.default_rng(26)
        P = convex_hull(rng.normal(size=(30, 6)))
        H = v_to_h(P)
        assert np.all(P.vertices @ H.A.T <= H.b[None, :] + 1e-8)

    def test_rows_supported_by_enough_vertices(self):
        rng = np.random.default_rng(27)
        P = convex_hull(rng.normal(size=(20, 3)))
        H = v_to_h(P)
        res = P.vertices @ H.A.T - H.b[None, :]
        support_counts = np.sum(np.abs(res) <= 1e-8, axis=0)
        assert np.all(support_counts >= 3)

    def test_dual_classification_r6(self):
        rng = np.random.default_rng(28)
        P = convex_hull(rng.normal(size=(30, 6)))
        H = v_to_h(P)
        lo, hi = P.vertices.min(axis=0), P.vertices.max(axis=0)
        agree = 0
        for _ in range(500):
            w = rng.uniform(lo - 0.2, hi + 0.2)
            d = membership_distance(P, w)
            if (d <= 1e-9) == contains(H, w, tol=1e-9):
                agree += 1
            else:
                # Allow disagreement only inside a thin boundary band.
                assert d <= 1e-6 or abs(max(H.A @ w - H.b)) <= 1e-6
                agree += 1
        assert agree == 500


class TestContains:
    H_CUBE = v_to_h(convex_hull(CUBE))

    def test_origin_inside(self):
        assert contains(self.H_CUBE, np.zeros(3))

    def test_outside_point(self):
        assert not contains(self.H_CUBE, np.array([2.0, 0.0, 0.0]))

    def test_boundary_closed(self):
        assert contains(self.H_CUBE, np.array([1.0, 0.0, 0.0]))


def bisect_margin(H, w0, v_hat, hi=1e4, tol=1e-8):
    if not contains(H, w0):
        return 0.0
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if contains(H, w0 + mid * v_hat):
            lo = mid
        else:
            hi = mid
    return lo


class TestDirectionalMargin:
    def test_unit_box_margin(self):
        cube6 = np.array(np.meshgrid(*[[-1, 1]] * 6)).reshape(6, -1).T.astype(float)
        H = v_to_h(convex_hull(cube6))
        v = np.zeros(6)
        v[2] = 1.0
        res = directional_margin(H, np.zeros(6), v)
        assert res.status == "ok"
        assert res.gamma == pytest.approx(1.0, abs=1e-9)

    def test_outside_origin_gives_zero(self):
        H = v_to_h(convex_hull(CUBE))
        res = directional_margin(H, np.array([5.0, 0.0, 0.0]),
                                 np.array([1.0, 0.0, 0.0]))
        assert res.gamma == 0.0
        assert res.status == "infeasible_origin"

    def test_unbounded_ray(self):
        # Half-space x <= 1 alone does not limit the -x ray.
        H = HPolytope(np.array([[1.0, 0.0, 0.0]]), np.array([1.0]))
        res = directional_margin(H, np.zeros(3), np.array([-1.0, 0.0, 0.0]))
        assert res.status == "unbounded"

    def test_matches_bisection(self):
        rng = np.random.default_rng(29)
        P = convex_hull(rng.normal(size=(25, 3)))
        H = v_to_h(P)
        w0 = P.vertices.mean(axis=0)
        for _ in range(10):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            res = directional_margin(H, w0, v)
            assert res.gamma == pytest.approx(bisect_margin(H, w0, v), abs=1e-6)

    def test_margin_monotone_under_vertex_removal(self):
        rng = np.random.default_rng(30)
        P = convex_hull(rng.normal(size=(25, 3)))
        w0 = P.vertices.mean(axis=0)
        v = np.array([1.0, 0.0, 0.0])
        g_full = directional_margin(v_to_h(P), w0, v).gamma
        for drop in range(P.n_vertices):
            sub = np.delete(P.vertices, drop, axis=0)
            Psub = convex_hull(sub)
            if Psub.degenerate:
                continue
            g_sub = directional_margin(v_to_h(Psub), w0, v).gamma
            assert g_sub <= g_full + 1e-9


def linprog_margin(H, w0, v_hat):
    """Oracle for directional_margin: its one-variable LP
    max gamma >= 0 s.t. (A v_hat) gamma <= b - A w0, posed to linprog."""
    return optimize.linprog([-1.0], A_ub=(H.A @ v_hat)[:, None], b_ub=H.b - H.A @ w0,
                            bounds=[(0.0, None)], method="highs")


def random_h_polytope(rng, d, m, recession=None):
    """m random unit-normal rows holding the origin with room to spare; with
    a recession direction u, every row is flipped to a . u < 0, so the
    polytope holds the whole ray along u."""
    A = rng.normal(size=(m, d))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    if recession is not None:
        A *= -np.sign(A @ recession)[:, None]
    return HPolytope(A, rng.uniform(0.5, 2.0, size=m))


class TestRatioTest:
    """directional_margin's closed form against the LP it replaces."""

    @pytest.mark.parametrize("d", [3, 6])
    def test_matches_linprog(self, d):
        rng = np.random.default_rng(41 + d)
        for _ in range(20):
            H = random_h_polytope(rng, d, 8 * d)
            w0 = rng.uniform(-0.1, 0.1, size=d)
            v = rng.normal(size=d)
            v /= np.linalg.norm(v)
            # About half the rows point away from the ray and limit nothing.
            assert np.any(H.A @ v <= 0.0) and np.any(H.A @ v > 0.0)
            ref = linprog_margin(H, w0, v)
            res = directional_margin(H, w0, v)
            assert ref.status == 0 and res.status == "ok"
            assert res.gamma == pytest.approx(ref.x[0], rel=1e-10, abs=1e-12)

    def test_origin_on_a_facet(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            H = random_h_polytope(rng, 3, 24)
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            gamma = directional_margin(H, np.zeros(3), v).gamma
            w0 = gamma * v                     # where the ray leaves H
            j = np.argmin(H.b - H.A @ w0)
            assert abs(H.b[j] - H.A[j] @ w0) <= 1e-12
            res = directional_margin(H, w0, v)
            assert res.status == "ok"
            assert res.gamma == pytest.approx(0.0, abs=1e-12)
            assert linprog_margin(H, w0, v).x[0] == pytest.approx(0.0, abs=1e-12)
            # Just outside the facet but within CONTAIN_TOL, gamma is 0, not
            # the negative ratio of that row.
            res = directional_margin(H, w0 + 0.1 * CONTAIN_TOL * H.A[j], v)
            assert res.status == "ok" and res.gamma == 0.0
            # Back into H, the facet row no longer limits the ray.
            res = directional_margin(H, w0, -v)
            assert H.A[j] @ -v < 0.0
            assert res.gamma == pytest.approx(linprog_margin(H, w0, -v).x[0], rel=1e-10)
            assert res.gamma > 0.0

    @pytest.mark.parametrize("d", [3, 6])
    def test_unbounded_ray(self, d):
        rng = np.random.default_rng(53 + d)
        for _ in range(10):
            u = rng.normal(size=d)
            u /= np.linalg.norm(u)
            H = random_h_polytope(rng, d, 8 * d, recession=u)
            w0 = rng.uniform(-0.1, 0.1, size=d)
            assert linprog_margin(H, w0, u).status == 3
            res = directional_margin(H, w0, u)
            assert res.status == "unbounded" and res.gamma == np.inf
            # The opposite ray is limited by every row.
            ref = linprog_margin(H, w0, -u)
            assert ref.status == 0
            assert directional_margin(H, w0, -u).gamma == pytest.approx(ref.x[0], rel=1e-10)


class TestMembership:
    def test_membership_lp_inside_outside(self):
        P = convex_hull(CUBE)
        assert membership_distance(P, np.array([0.2, -0.3, 0.9])) <= CONTAIN_TOL
        assert membership_distance(P, np.array([1.5, 0.0, 0.0])) > CONTAIN_TOL
