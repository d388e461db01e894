"""Jump planner: obstacle algebra, benchmark convergence and plan audits.

The obstacle plan is a module-scoped fixture and the benchmark plan a
session-scoped one (conftest.py); planning takes a few seconds each.
"""

import numpy as np
import pytest

from wallhopper.integrator import IntegratorConfig, rollout_arrays
from wallhopper.model import Ellipsoid, Scenario, position_arrays
from wallhopper.planner import (
    JumpPlan,
    PlannerWeights,
    PlanningError,
    audit_plan,
    map_plan_to_reference,
    obstacle_min_x,
    plan_jump,
)

SCEN = Scenario()
P0 = np.array([0.2, 2.5, -6.0])
P_TG = np.array([0.2, 4.0, -4.0])

OBSTACLE = Ellipsoid(center=np.array([-0.5, 2.5, -6.0]),
                     semi_axes=np.array([1.5, 1.5, 0.87]))


@pytest.fixture(scope="module")
def obstacle_plan():
    scen = SCEN.with_(obstacle=OBSTACLE)
    return plan_jump([0.5, 0.5, -6.0], [0.5, 4.5, -6.0], scen)


class TestObstacleMinX:
    def test_apex(self):
        x = obstacle_min_x(2.5, -6.0, OBSTACLE, clearance=1.0, wall_offset=0.05)
        assert x == pytest.approx(-0.5 + 1.5 + 1.0)

    def test_outside_shadow_falls_back_to_wall(self):
        x = obstacle_min_x(10.0, -6.0, OBSTACLE, clearance=1.0, wall_offset=0.05)
        assert x == pytest.approx(0.05)

    def test_plug_back_into_ellipsoid(self):
        rng = np.random.default_rng(50)
        o, R = OBSTACLE.center, OBSTACLE.semi_axes
        count = 0
        for _ in range(100):
            y = rng.uniform(o[1] - R[1], o[1] + R[1])
            z = rng.uniform(o[2] - R[2], o[2] + R[2])
            x_bound = float(obstacle_min_x(y, z, OBSTACLE, 1.0, 0.05))
            if x_bound == 0.05:
                continue
            x_surf = x_bound - 1.0
            val = ((x_surf - o[0]) ** 2 / R[0] ** 2
                   + (y - o[1]) ** 2 / R[1] ** 2
                   + (z - o[2]) ** 2 / R[2] ** 2)
            assert val == pytest.approx(1.0, abs=1e-9)
            count += 1
        assert count > 50

    def test_vectorised(self):
        ys = np.linspace(0.0, 5.0, 11)
        zs = np.full_like(ys, -6.0)
        out = obstacle_min_x(ys, zs, OBSTACLE, 1.0, 0.05)
        assert out.shape == ys.shape


class TestPlanJump:
    def test_benchmark_terminal_error(self, benchmark_plan):
        assert benchmark_plan.terminal_error <= 0.05

    def test_bounds_satisfied_independently(self, benchmark_plan):
        audit = audit_plan(benchmark_plan, SCEN)
        assert audit["max_violation"] <= 1e-6

    def test_target_behind_wall_rejected(self):
        with pytest.raises(PlanningError):
            plan_jump(P0, [-0.5, 4.0, -4.0], SCEN)

    def test_start_inside_obstacle_clearance_rejected(self):
        scen = SCEN.with_(obstacle=OBSTACLE)
        with pytest.raises(PlanningError):
            plan_jump([0.2, 2.5, -6.0], [0.5, 4.5, -6.0], scen)

    def test_reintegration_with_finer_step(self, benchmark_plan):
        plan = benchmark_plan
        cfg_fine = IntegratorConfig(method="rk4", n_sub=50, dt=plan.dt)
        states = rollout_arrays(plan.states[0], plan.input_schedule(), plan.dt,
                                cfg_fine, SCEN)
        p_end = position_arrays(states[-1, 0], states[-1, 1], states[-1, 2], SCEN.d_a)
        assert np.linalg.norm(p_end - plan.positions[-1]) < 0.06

    def test_obstacle_clearance_at_every_knot(self, obstacle_plan):
        pos = obstacle_plan.positions
        bound = obstacle_min_x(pos[:, 1], pos[:, 2], OBSTACLE, 1.0, SCEN.wall_offset)
        assert np.all(pos[:, 0] >= bound - 1e-6)

    def test_hoist_work_not_increased_by_penalty(self, benchmark_plan):
        def hoist_term(plan):
            l1_dot = plan.states[:-1, 4]
            l2_dot = plan.states[:-1, 5]
            return float(np.sum(np.abs(plan.rope_left * l1_dot) * plan.dt)
                         + np.sum(np.abs(plan.rope_right * l2_dot) * plan.dt))

        weights = PlannerWeights(w_hw=100.0)
        plan_pen = plan_jump(P0, P_TG, SCEN, weights)
        assert hoist_term(plan_pen) <= hoist_term(benchmark_plan) + 1e-6


class TestMapToReference:
    def test_identity_at_plan_rate(self, benchmark_plan):
        times, ref = map_plan_to_reference(benchmark_plan, benchmark_plan.dt)
        assert ref.shape[0] == benchmark_plan.n_knots + 1
        np.testing.assert_allclose(ref, benchmark_plan.positions, atol=1e-12)

    def test_subsample_recovers_knots(self, benchmark_plan):
        plan = benchmark_plan
        _, ref = map_plan_to_reference(plan, plan.dt / 2.0)
        np.testing.assert_allclose(ref[::2], plan.positions, atol=1e-12)

    def test_interpolants_on_segments(self, benchmark_plan):
        plan = benchmark_plan
        _, ref = map_plan_to_reference(plan, plan.dt / 4.0)
        # Every interpolated sample must be a convex combination of adjacent knots.
        for m in range(ref.shape[0]):
            t = m * plan.dt / 4.0
            i = min(int(t / plan.dt), plan.n_knots - 1)
            a, b = plan.positions[i], plan.positions[i + 1]
            lam = (t - i * plan.dt) / plan.dt
            np.testing.assert_allclose(ref[m], (1 - lam) * a + lam * b, atol=1e-9)

    def test_bad_rate_rejected(self, benchmark_plan):
        with pytest.raises(ValueError):
            map_plan_to_reference(benchmark_plan, 0.0)


class TestWeights:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlannerWeights(w_hw=-1.0)
        with pytest.raises(ValueError):
            PlannerWeights(n_knots=5)
        with pytest.raises(ValueError):
            PlannerWeights(slack=0.0)
