"""Wrench-polytope construction and static feasibility, cross-checked by an
independent force-existence LP that works on raw contact force components
rather than polytope vertices."""

import threading

import numpy as np
import pytest
from scipy import optimize

from wallhopper import solvers, stability
from wallhopper.model import Scenario
from wallhopper.polytopes import contains, directional_margin
from wallhopper.stability import (
    CellError,
    HeatmapGrid,
    MarginLp,
    build_fwp,
    contact_geometry,
    lift_to_wrench,
    load_wrench,
    margin_at,
    margin_heatmap,
    rope_force_polytope,
    tangent_frame,
    wheel_force_polytope,
)

LAND = Scenario(mass=15.0, f_leg_max=600.0, f_r_max=300.0)
# A wall (and so contact) normal for which some pyramid corners have negative
# x, so the apex is not the lexicographically first vertex of the wheel polytope.
TILTED = LAND.with_(wall_normal=np.array([0.6, 0.0, 0.8]))
PULL_OFF = np.array([-1.0, 0, 0, 0, 0, 0])
OBLIQUE = np.array([0.3, 0.5, -0.8, 0.0, 0.0, 0.0]) / np.linalg.norm([0.3, 0.5, -0.8])


def grid_positions(n):
    grid = HeatmapGrid.regular(ny=n, nz=n, x=1.5)
    return [np.array([grid.x, y, z]) for y in grid.y_values for z in grid.z_values]


def anchor_grid():
    """A 3 x 3 grid whose first cell puts the left rope attachment on its
    anchor (CellError) and whose other cells end ok or infeasible."""
    t1, _ = tangent_frame(LAND.wall_normal)
    p = LAND.anchor_left + 0.5 * LAND.d_h * t1
    return HeatmapGrid(np.array([p[1], 2.5, 4.0]), np.array([p[2], -2.0, -6.5]), x=p[0])


def feasible(p, scen):
    """Static feasibility verdict: the margin LP has a solution."""
    return margin_at(p, PULL_OFF, scen).status == "ok"


def force_existence_oracle(cs, w, tol=1e-6):
    """Brute-force oracle: solve for raw contact forces reproducing w.

    Variables are the two 3D wheel forces and the two rope tension
    magnitudes; friction pyramid and actuation bounds are posed directly
    on the force components.  Deliberately a different encoding from the
    package's vertex-weight LP.
    """
    n = cs.contact_normal
    t1, t2 = tangent_frame(n)
    n_vars = 8                                  # f_wl (3), f_wr (3), s_l, s_r
    rows, rhs = [], []
    for base in (0, 3):
        for t in (t1, t2):
            for sign in (1.0, -1.0):
                row = np.zeros(n_vars)
                row[base:base + 3] = sign * t - cs.mu * n
                rows.append(row)
                rhs.append(0.0)
        row = np.zeros(n_vars)                  # unilaterality: n.f >= 0
        row[base:base + 3] = -n
        rows.append(row)
        rhs.append(0.0)
        row = np.zeros(n_vars)                  # actuation: n.f <= f_leg_max
        row[base:base + 3] = n
        rows.append(row)
        rhs.append(cs.f_leg_max)
    A_ub, b_ub = np.array(rows), np.array(rhs)
    # Wrench balance: wheel wrenches plus rope wrenches equal w.
    A_eq = np.zeros((6, n_vars))
    for base, point in ((0, cs.wheel_left), (3, cs.wheel_right)):
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            A_eq[:3, base + j] = e
            A_eq[3:, base + j] = np.cross(point, e)
    for col, (axis, hoist) in enumerate(((cs.axis_left, cs.hoist_left),
                                         (cs.axis_right, cs.hoist_right))):
        A_eq[:3, 6 + col] = -axis
        A_eq[3:, 6 + col] = np.cross(hoist, -axis)
    bounds = [(None, None)] * 6 + [(0.0, cs.f_r_max)] * 2
    res = optimize.linprog(np.zeros(n_vars), A_ub=A_ub, b_ub=b_ub + tol,
                           A_eq=A_eq, b_eq=w, bounds=bounds, method="highs")
    return res.status == 0


def linprog_margin(p, v_hat, scen):
    """margin_at's LP posed straight to linprog(method="highs"), with G built
    by np.cross, np.repeat and vstack: (HiGHS ending, gamma or None)."""
    cs = contact_geometry(p, scen)
    corners = stability._pyramid_corners(*cs.tangents, cs.contact_normal, cs.mu,
                                         cs.f_leg_max)
    forces = np.vstack([corners, corners, -cs.f_r_max * cs.axis_left,
                        -cs.f_r_max * cs.axis_right])
    points = np.repeat([cs.wheel_left, cs.wheel_right, cs.hoist_left, cs.hoist_right],
                       [4, 4, 1, 1], axis=0)
    G = np.hstack([forces, np.cross(points, forces)]).T
    n = G.shape[1]
    wheel_sums = np.zeros((4, 2 * n + 1))
    for row, first in enumerate((0, 4, n, n + 4)):
        wheel_sums[row, first:first + 4] = 1.0
    A_eq = np.zeros((12, 2 * n + 1))
    A_eq[:6, :n] = A_eq[6:, n:2 * n] = G
    A_eq[6:, -1] = -v_hat
    w = load_wrench(scen)
    res = optimize.linprog(np.append(np.zeros(2 * n), -1.0), A_ub=wheel_sums,
                           b_ub=np.ones(4), A_eq=A_eq, b_eq=np.concatenate([w, w]),
                           bounds=[(0.0, 1.0)] * (2 * n) + [(0.0, None)], method="highs")
    return res.status, (res.x[-1] if res.status == 0 else None)


class TestWheelForcePolytope:
    def test_vertical_wall_pyramid(self):
        P = wheel_force_polytope(np.array([1.0, 0.0, 0.0]), 0.8, 600.0)
        assert P.n_vertices == 5
        norms = P.vertices @ np.array([1.0, 0.0, 0.0])
        assert sorted(np.round(norms, 9)) == [0.0, 600.0, 600.0, 600.0, 600.0]
        tangentials = P.vertices[:, 1:]
        assert np.all(np.abs(tangentials[np.abs(norms) > 1] ) == pytest.approx(480.0))

    def test_frictionless_degenerates_to_segment(self):
        P = wheel_force_polytope(np.array([1.0, 0.0, 0.0]), 0.0, 600.0)
        assert P.degenerate
        assert P.n_vertices == 2

    def test_vertices_inside_friction_pyramid(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            mu = rng.uniform(0.2, 1.0)
            P = wheel_force_polytope(n, mu, 500.0)
            t1, t2 = tangent_frame(n)
            for f in P.vertices:
                fn = n @ f
                assert fn >= -1e-9
                assert abs(t1 @ f) <= mu * fn + 1e-9
                assert abs(t2 @ f) <= mu * fn + 1e-9


class TestRopeForcePolytope:
    def test_downward_axis(self):
        P = rope_force_polytope(np.array([0.0, 0.0, -1.0]), 300.0)
        verts = {tuple(np.round(v, 9)) for v in P.vertices}
        assert verts == {(0.0, 0.0, 300.0), (0.0, 0.0, 0.0)}

    def test_zero_vertex_always_present(self):
        rng = np.random.default_rng(41)
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        P = rope_force_polytope(a, 90.0)
        assert np.any(np.all(np.abs(P.vertices) < 1e-12, axis=1))

    def test_unilateral_sign(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        P = rope_force_polytope(a, 90.0)
        # Force along the axis must be a pull (magnitude <= 0 along a_hat).
        assert np.all(P.vertices @ a <= 1e-12)


class TestLiftToWrench:
    def test_zero_application_point(self):
        W = lift_to_wrench(np.eye(3), np.zeros(3))
        np.testing.assert_allclose(W[:, 3:], 0.0)

    def test_parallel_force_zero_moment(self):
        p = np.array([1.0, 2.0, -3.0])
        W = lift_to_wrench(2.5 * p, p)
        np.testing.assert_allclose(W[0, 3:], 0.0, atol=1e-12)

    def test_matches_cross_product(self):
        # One point, or one point per row: the same products and
        # differences as np.cross, so the same bits.
        rng = np.random.default_rng(43)
        P, F = rng.normal(size=(2, 7, 3)) * 10.0 ** rng.integers(-3, 4, size=(2, 7, 3))
        for p in (P[0], P):
            W = lift_to_wrench(F, p)
            assert np.array_equal(W[:, :3], F)
            assert np.array_equal(W[:, 3:], np.cross(p, F))


class TestContactGeometry:
    P0 = np.array([1.5, 2.5, -6.5])

    def test_wheel_lateral_offsets(self):
        cs = contact_geometry(self.P0, LAND)
        assert cs.wheel_left[1] == pytest.approx(-0.4)
        assert cs.wheel_right[1] == pytest.approx(0.4)
        assert cs.wheel_left[0] == pytest.approx(-LAND.d_w)

    def test_symmetric_position_mirrors(self):
        cs = contact_geometry(np.array([1.5, 2.5, -6.5]), LAND)
        flip = np.array([1.0, -1.0, 1.0])
        np.testing.assert_allclose(cs.axis_left * flip, cs.axis_right, atol=1e-12)
        np.testing.assert_allclose(cs.hoist_left * flip, cs.hoist_right, atol=1e-12)

    def test_rope_lengths_recompute(self):
        cs = contact_geometry(self.P0, LAND)
        for anchor, hoist, axis in ((LAND.anchor_left, cs.hoist_left, cs.axis_left),
                                    (LAND.anchor_right, cs.hoist_right, cs.axis_right)):
            length = np.linalg.norm(anchor - (self.P0 + hoist))
            attach_world = self.P0 + hoist
            np.testing.assert_allclose(
                anchor + axis * length, attach_world, atol=1e-9)

    # A NaN or inf CoM once reached the margin LP and failed inside linprog,
    # the inf one after a RuntimeWarning.
    @pytest.mark.parametrize("p", [[np.nan, 2.5, -6.5], [1.5, np.inf, -6.5], [1.5, 2.5]])
    def test_malformed_com_rejected(self, p):
        with pytest.raises(ValueError, match="finite 3-vector"):
            contact_geometry(p, LAND)
        with pytest.raises(ValueError, match="finite 3-vector"):
            margin_at(p, PULL_OFF, LAND)


class TestBuildFwp:
    def test_raw_vertex_combinations(self):
        fwp = build_fwp(contact_geometry(np.array([1.5, 2.5, -6.5]), LAND))
        assert fwp.raw_vertex_count == 100

    def test_contains_zero_wrench(self):
        fwp = build_fwp(contact_geometry(np.array([1.5, 2.5, -6.5]), LAND))
        assert contains(fwp.h_polytope, np.zeros(6))

    def test_membership_matches_force_existence_oracle(self):
        rng = np.random.default_rng(44)
        cs = contact_geometry(np.array([1.5, 2.5, -6.5]), LAND)
        fwp = build_fwp(cs)
        lo = fwp.v_polytope.vertices.min(axis=0)
        hi = fwp.v_polytope.vertices.max(axis=0)
        checked = 0
        for _ in range(200):
            w = rng.uniform(1.3 * lo - 0.15 * hi, 1.3 * hi - 0.15 * lo)
            inside_h = contains(fwp.h_polytope, w, tol=1e-7)
            inside_lp = force_existence_oracle(cs, w)
            margin = np.max(fwp.h_polytope.A @ w - fwp.h_polytope.b)
            if abs(margin) < 1e-5:
                continue            # boundary band: either answer acceptable
            assert inside_h == inside_lp, f"disagreement at {w}, margin {margin}"
            checked += 1
        assert checked > 150


class TestGravitationalWrench:
    """The load wrench is minus gravity's wrench about the CoM."""

    def test_paper_mass_value(self):
        np.testing.assert_allclose(load_wrench(LAND), [0.0, 0.0, 147.15, 0.0, 0.0, 0.0])

    def test_moment_zero_in_com_frame(self):
        np.testing.assert_allclose(load_wrench(Scenario())[3:], 0.0)


class TestFeasibility:
    def test_between_anchors_feasible(self):
        assert feasible(np.array([1.5, 2.5, -6.5]), LAND)

    def test_far_outside_span_infeasible(self):
        assert not feasible(np.array([1.5, 9.0, -6.5]), LAND)
        assert not feasible(np.array([1.5, -4.0, -6.5]), LAND)

    def test_verdict_matches_oracle_on_grid(self):
        for y in np.linspace(0.5, 4.5, 5):
            for z in np.linspace(-9.0, -3.0, 5):
                p = np.array([1.5, y, z])
                cs = contact_geometry(p, LAND)
                ours = feasible(p, LAND)
                oracle = force_existence_oracle(cs, load_wrench(LAND))
                assert ours == oracle, f"mismatch at {p}"

    def test_tilted_normal_matches_oracle_on_grid(self):
        w = load_wrench(TILTED)
        for p in grid_positions(7):
            oracle = force_existence_oracle(contact_geometry(p, TILTED), w)
            assert feasible(p, TILTED) == oracle, f"mismatch at {p}"


class TestMargins:
    def test_vertical_margin_equals_weight(self):
        res = margin_at(np.array([1.5, 2.5, -6.5]),
                        np.array([0, 0, -1.0, 0, 0, 0]), LAND)
        assert res.status == "ok"
        assert res.gamma == pytest.approx(147.15, rel=1e-6)

    @pytest.mark.parametrize("scen", [LAND.with_(mu=0.8), LAND.with_(mu=0.5),
                                      LAND.with_(mu=0.3), TILTED],
                             ids=["mu0.8", "mu0.5", "mu0.3", "tilted"])
    def test_matches_hull_oracle(self, scen):
        for p in grid_positions(4):
            hull = build_fwp(contact_geometry(p, scen)).h_polytope
            for v in (PULL_OFF, np.array([0, 0, -1.0, 0, 0, 0]), OBLIQUE):
                ours = margin_at(p, v, scen)
                ref = directional_margin(hull, load_wrench(scen), v)
                assert ours.status == ref.status, f"verdict differs at {p}, {v}"
                assert ours.gamma == pytest.approx(ref.gamma, abs=1e-6)
                assert ours.lp_s > 0.0 and ref.lp_s == 0.0

    @pytest.mark.parametrize("v_hat", [np.array([-1.0, 0.0, 0.0]), np.zeros(6),
                                       np.array([np.nan, 0, 0, 0, 0, 0])],
                             ids=["3-vector", "zero", "nan"])
    def test_bad_direction_rejected(self, v_hat):
        with pytest.raises(ValueError, match="v_hat"):
            margin_at(np.array([1.5, 2.5, -6.5]), v_hat, LAND)
        with pytest.raises(ValueError, match="v_hat"):
            margin_heatmap(HeatmapGrid.regular(ny=3, nz=3, x=1.5), v_hat, LAND)

    def test_lp_failure_raises_cell_error(self, monkeypatch):
        class NoVerdict(solvers.highs._Highs):
            def getModelStatus(self):
                return solvers.highs.HighsModelStatus.kSolveError

        # A fresh per-thread holder, so that solve_lp builds the stub.
        monkeypatch.setattr(solvers, "_THREAD", threading.local())
        monkeypatch.setattr(solvers.highs, "_Highs", NoVerdict)
        with pytest.raises(CellError, match="failed"):
            margin_at(np.array([1.5, 2.5, -6.5]), PULL_OFF, LAND)

    def test_margin_decreases_with_depth(self):
        v = np.array([-1.0, 0, 0, 0, 0, 0])
        g_near = margin_at(np.array([1.5, 2.5, -4.0]), v, LAND).gamma
        g_far = margin_at(np.array([1.5, 2.5, -9.0]), v, LAND).gamma
        assert g_far < g_near

    def test_margin_matches_bisection(self):
        p = np.array([1.5, 2.5, -6.5])
        fwp = build_fwp(contact_geometry(p, LAND))
        w0 = load_wrench(LAND)
        v = np.array([-1.0, 0, 0, 0, 0, 0])
        lo, hi = 0.0, 1e4
        while hi - lo > 1e-7:
            mid = 0.5 * (lo + hi)
            if contains(fwp.h_polytope, w0 + mid * v):
                lo = mid
            else:
                hi = mid
        assert margin_at(p, v, LAND).gamma == pytest.approx(lo, abs=1e-6)

    def test_scaling_limits_scales_polytope(self):
        p = np.array([1.5, 2.5, -6.5])
        cs1 = contact_geometry(p, LAND)
        cs2 = contact_geometry(p, LAND.with_(f_leg_max=1200.0, f_r_max=600.0))
        v1 = build_fwp(cs1).v_polytope.vertices
        v2 = build_fwp(cs2).v_polytope.vertices
        np.testing.assert_allclose(v2, 2.0 * v1, atol=1e-8)
        for v_hat in (np.array([-1.0, 0, 0, 0, 0, 0]), np.array([0, 0, -1.0, 0, 0, 0])):
            g1 = margin_at(p, v_hat, LAND).gamma
            g2 = margin_at(p, v_hat, LAND.with_(f_leg_max=1200.0, f_r_max=600.0)).gamma
            assert g2 >= g1 - 1e-9

    def test_mirror_symmetry(self):
        # Reflecting p about the anchor midplane mirrors the FWP: margins in
        # y-mirrored directions coincide.
        p = np.array([1.5, 1.5, -6.0])
        p_mirror = np.array([1.5, 5.0 - 1.5, -6.0])
        v = np.array([0.3, 0.5, -0.8, 0.0, 0.0, 0.0])
        v /= np.linalg.norm(v)
        v_mirror = v * np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        g = margin_at(p, v, LAND).gamma
        g_m = margin_at(p_mirror, v_mirror, LAND).gamma
        assert g == pytest.approx(g_m, rel=1e-6)

    def test_friction_monotonicity(self):
        feas_sets = []
        for mu in (0.4, 0.6, 0.8):
            scen = LAND.with_(mu=mu)
            cells = set()
            for y in np.linspace(0.0, 5.0, 6):
                for z in np.linspace(-10.0, -2.0, 6):
                    if feasible(np.array([1.5, y, z]), scen):
                        cells.add((y, z))
            feas_sets.append(cells)
        assert feas_sets[0] <= feas_sets[1] <= feas_sets[2]


class TestHeatmap:
    def test_single_cell_equals_direct_call(self):
        grid = HeatmapGrid(np.array([2.5]), np.array([-6.5]), x=1.5)
        v = np.array([0, 0, -1.0, 0, 0, 0])
        hm = margin_heatmap(grid, v, LAND)
        direct = margin_at(np.array([1.5, 2.5, -6.5]), v, LAND)
        assert direct.status == "ok"
        assert hm.gamma[0, 0] == direct.gamma

    def test_grid_from_lists(self):
        y, z = [2.5, 4.0], [-6.5, -2.0]
        from_lists = margin_heatmap(HeatmapGrid(y, z, x=1.5), PULL_OFF, LAND)
        from_arrays = margin_heatmap(HeatmapGrid(np.array(y), np.array(z), x=1.5), PULL_OFF,
                                     LAND)
        assert from_lists.gamma.tobytes() == from_arrays.gamma.tobytes()

    @pytest.mark.parametrize("name, y, z, x", [
        ("y_values", np.zeros((2, 2)), [-6.5], 1.5),
        ("z_values", [2.5], [-6.5, np.nan], 1.5),
        ("x", [2.5], [-6.5], np.inf)])
    def test_bad_grid_rejected(self, name, y, z, x):
        with pytest.raises(ValueError, match=f"HeatmapGrid {name} "):
            HeatmapGrid(y, z, x=x)

    def test_two_valued_vertical_map(self):
        grid = HeatmapGrid.regular(ny=6, nz=6, x=1.5)
        hm = margin_heatmap(grid, np.array([0, 0, -1.0, 0, 0, 0]), LAND)
        assert len(hm.errors) == 0
        vals = hm.gamma[hm.feasible]
        assert vals.size > 0
        np.testing.assert_allclose(vals, 147.15, rtol=0.01)
        np.testing.assert_allclose(hm.gamma[~hm.feasible], 0.0)

    def test_near_frictionless_matches_oracle(self):
        scen = LAND.with_(mu=1e-9)
        grid = HeatmapGrid.regular(ny=8, nz=8, x=1.5)
        hm = margin_heatmap(grid, PULL_OFF, scen)
        assert hm.errors == []
        for i, y in enumerate(grid.y_values):
            for j, z in enumerate(grid.z_values):
                cs = contact_geometry(np.array([grid.x, y, z]), scen)
                assert hm.feasible[i, j] == force_existence_oracle(cs, load_wrench(scen))

    def test_cell_error_recorded(self):
        # CoM placed so that the left rope attachment sits on its anchor.
        t1, _ = tangent_frame(LAND.wall_normal)
        p = LAND.anchor_left + 0.5 * LAND.d_h * t1
        grid = HeatmapGrid(np.array([p[1], 2.5]), np.array([p[2]]), x=p[0])
        hm = margin_heatmap(grid, PULL_OFF, LAND)
        assert [(i, j) for i, j, _ in hm.errors] == [(0, 0)]
        assert "coincides" in hm.errors[0][2]

    def test_cell_telemetry(self):
        hm = margin_heatmap(anchor_grid(), PULL_OFF, LAND)
        assert hm.cell_s.shape == hm.gamma.shape == (3, 3)
        assert np.all(hm.cell_s > 0.0)
        assert sum(hm.endings.values()) == hm.gamma.size
        assert hm.endings["ok"] == hm.feasible.sum() > 0
        assert hm.endings["CellError"] == len(hm.errors) == 1
        assert hm.endings["infeasible_origin"] == hm.gamma.size - hm.feasible.sum() - 1 > 0
        # LP seconds lie within their cell's; the CellError cell made no LP.
        assert hm.lp_s.shape == hm.cell_s.shape
        lp_cell = np.ones(hm.gamma.shape, dtype=bool)
        lp_cell[0, 0] = False
        assert hm.lp_s[0, 0] == 0.0
        assert np.all(hm.lp_s[lp_cell] > 0.0)
        assert np.all(hm.lp_s[lp_cell] <= hm.cell_s[lp_cell])

    @pytest.mark.parametrize("scen", [LAND.with_(mu=0.8), LAND.with_(mu=0.5),
                                      LAND.with_(mu=0.3), TILTED],
                             ids=["mu0.8", "mu0.5", "mu0.3", "tilted"])
    def test_matches_linprog_path(self, scen):
        # Every cell against its LP posed straight to linprog.
        grid = HeatmapGrid.regular(ny=6, nz=6, x=1.5)
        hm = margin_heatmap(grid, PULL_OFF, scen)
        assert hm.errors == []
        assert 0 < hm.feasible.sum() < hm.gamma.size
        for i, y in enumerate(grid.y_values):
            for j, z in enumerate(grid.z_values):
                ending, gamma = linprog_margin(np.array([grid.x, y, z]), PULL_OFF, scen)
                assert ending in (0, 2)
                assert hm.feasible[i, j] == (ending == 0)
                assert hm.gamma[i, j] == pytest.approx(gamma or 0.0, abs=1e-9)

    @pytest.mark.parametrize("grid, scen, endings", [
        (HeatmapGrid.regular(ny=6, nz=6, x=1.5), LAND.with_(mu=0.3), {"ok", "infeasible_origin"}),
        (HeatmapGrid.regular(ny=6, nz=6, x=1.5), TILTED, {"ok", "infeasible_origin"}),
        (HeatmapGrid.regular(ny=8, nz=8, x=1.5), LAND.with_(mu=1e-9), {"infeasible_origin"}),
        (anchor_grid(), LAND, {"ok", "infeasible_origin", "CellError"})],
        ids=["mu0.3", "tilted", "mu1e-9", "anchor-first"])
    def test_template_equals_single_points(self, grid, scen, endings):
        # The map's one MarginLp gives each cell the bits of a margin_at call
        # that builds its own, so no cell's rope columns reach the next.
        hm = margin_heatmap(grid, PULL_OFF, scen)
        assert {ending for ending, count in hm.endings.items() if count} == endings
        gamma, ok = np.zeros(hm.gamma.shape), np.zeros(hm.gamma.shape, dtype=bool)
        counts, errors = dict.fromkeys(hm.endings, 0), []
        for i, y in enumerate(grid.y_values):
            for j, z in enumerate(grid.z_values):
                try:
                    res = margin_at(np.array([grid.x, y, z]), PULL_OFF, scen)
                except CellError as exc:
                    errors.append((i, j, str(exc)))
                    counts["CellError"] += 1
                    continue
                counts[res.status] += 1
                gamma[i, j], ok[i, j] = res.gamma, res.status == "ok"
        assert hm.gamma.tobytes() == gamma.tobytes()
        assert np.array_equal(hm.feasible, ok)
        assert hm.endings == counts
        assert hm.errors == errors

    def test_template_of_another_map_rejected(self):
        p = np.array([1.5, 2.5, -6.5])
        lp = MarginLp(LAND, PULL_OFF)
        assert margin_at(p, PULL_OFF.copy(), LAND, lp).gamma == margin_at(p, PULL_OFF, LAND).gamma
        for v_hat, scen in ((PULL_OFF, LAND.with_()), (OBLIQUE, LAND), (PULL_OFF[:3], LAND)):
            with pytest.raises(ValueError, match="another scenario or v_hat"):
                margin_at(p, v_hat, scen, lp)

    def test_code_error_propagates(self, monkeypatch):
        def bug(*args):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(stability, "margin_at", bug)
        with pytest.raises(ValueError, match="broadcast"):
            margin_heatmap(HeatmapGrid.regular(ny=2, nz=2, x=1.5), PULL_OFF, LAND)

    def test_reused_solver_gives_fresh_solver_gamma(self, monkeypatch):
        # One HiGHS solver runs every cell; a fresh one per cell gives the
        # same gamma to the last bit.
        built = []

        class Counted(solvers.highs._Highs):
            def __init__(self):
                built.append(self)
                super().__init__()

        monkeypatch.setattr(solvers.highs, "_Highs", Counted)
        monkeypatch.setattr(solvers, "_THREAD", threading.local())
        grid, scen = HeatmapGrid.regular(ny=6, nz=6, x=1.5), LAND.with_(mu=0.3)
        reused = margin_heatmap(grid, PULL_OFF, scen)
        assert len(built) == 1
        assert 0 < reused.endings["ok"] < reused.gamma.size
        solve = stability.margin_at

        def fresh(*args):
            monkeypatch.setattr(solvers, "_THREAD", threading.local())
            return solve(*args)

        monkeypatch.setattr(stability, "margin_at", fresh)
        hm = margin_heatmap(grid, PULL_OFF, scen)
        assert len(built) == 1 + hm.gamma.size
        assert hm.gamma.tobytes() == reused.gamma.tobytes()
        assert hm.endings == reused.endings
