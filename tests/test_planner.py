"""Jump planner: obstacle algebra, exact NLP Jacobians, benchmark
convergence, solver counters and plan audits.

The obstacle plan is a module-scoped fixture and the benchmark plan a
session-scoped one (conftest.py); planning takes a second or two each.
"""

import warnings

import numpy as np
import pytest

from wallhopper.integrator import IntegratorConfig, rollout_arrays
from wallhopper.model import Ellipsoid, Scenario, position_arrays
from wallhopper.planner import (
    PlannerWeights,
    PlanningError,
    ShootingProblem,
    audit_plan,
    obstacle_min_x,
    plan_jump,
)

SCEN = Scenario()
P0 = np.array([0.2, 2.5, -6.0])
P_TG = np.array([0.2, 4.0, -4.0])

OBSTACLE = Ellipsoid(center=np.array([-0.5, 2.5, -6.0]),
                     semi_axes=np.array([1.5, 1.5, 0.87]))
# Sunk into the wall: its surface plus the clearance lies behind the flat
# wall offset near the rim of its shadow.
RECESSED = Ellipsoid(center=np.array([-2.0, 2.5, -6.0]),
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

    def test_never_below_the_wall_offset(self):
        ys = 2.5 + np.linspace(-1.49, 1.49, 31)
        out = obstacle_min_x(ys, np.full_like(ys, -6.0), RECESSED, 1.0, 0.05)
        assert np.all(out >= 0.05)
        assert out[15] == pytest.approx(-2.0 + 1.5 + 1.0)
        assert out[0] == out[-1] == 0.05

    def test_vectorised(self):
        ys = np.linspace(0.0, 5.0, 11)
        zs = np.full_like(ys, -6.0)
        out = obstacle_min_x(ys, zs, OBSTACLE, 1.0, 0.05)
        assert out.shape == ys.shape


def problem_for(plan, scen):
    return ShootingProblem(plan.p0, plan.p_target, scen, PlannerWeights(),
                           IntegratorConfig())


def points_near(plan, prob, seed, n=3):
    """n random points inside the bounds around the plan's decision vector."""
    rng = np.random.default_rng(seed)
    z = np.concatenate([plan.f_leg, plan.rope_left, plan.rope_right, [plan.t_f]])
    lo, hi = prob.bounds()
    step = np.concatenate([np.full(3, 0.01), np.full(2 * prob.N, 0.01), [0.01]])
    return [np.clip(z / prob.scale + rng.uniform(-1.0, 1.0, z.size) * step, lo, hi)
            for _ in range(n)]


class TestShootingProblem:
    @pytest.fixture
    def prob(self):
        return ShootingProblem(P0, P_TG, SCEN, PlannerWeights(), IntegratorConfig())

    def test_rollout_of_one_point_steps_on_floats(self, prob, substep_calls):
        states = prob.rollout(prob.initial_guess())
        assert states.shape == (prob.N + 2, 6) and np.isfinite(states).all()
        np.testing.assert_array_equal(states[0], prob.x_rest)
        assert substep_calls == []

    def test_gradient_steps_nine_directions(self, prob, substep_calls):
        # The thrust step moves the leg force, each knot step the two rope
        # forces and its length: 6 + 3 complex directions per step, not 13.
        # All their sub-steps go through one array call.
        prob.gradient(prob.initial_guess())
        assert substep_calls == [(prob.N + 1, prob.cfg.n_sub, 9, 6)]

    def test_one_evaluation_per_point(self, prob):
        Z = prob.initial_guess()
        prob.objective(Z)
        prob.constraints(Z)
        prob.gradient(Z)
        prob.constraints_jac(Z)
        assert (prob.counters["value_evals"], prob.counters["gradient_evals"]) == (1, 1)
        other = Z.copy()
        other[-1] += 0.1
        prob.objective(other)
        prob.gradient(Z)
        assert (prob.counters["value_evals"], prob.counters["gradient_evals"]) == (3, 2)
        # The solver may move its iterate in place: the memo holds a copy.
        Z[-1] += 0.1
        assert prob.objective(Z) == prob.objective(other)
        assert prob.counters["value_evals"] == 4


def test_plan_schedule_is_the_problem_schedule(frozen_track_plan):
    # One builder: the plan's schedule from rest is step_inputs at the
    # plan's decision vector, bit for bit, and its knot rows are
    # input_schedule.
    plan = frozen_track_plan
    prob = problem_for(plan, SCEN)
    z = prob._join(plan.f_leg, plan.rope_left, plan.rope_right, plan.t_f) / prob.scale
    schedule = plan.schedule(SCEN.t_th)
    for got, expected in zip(schedule, prob.step_inputs(z)):
        assert (got.shape, got.dtype, got.tobytes()) == \
            (expected.shape, expected.dtype, expected.tobytes())
    u, dt = schedule
    np.testing.assert_array_equal(u[0], np.concatenate([[0.0, 0.0], plan.f_leg, [0.0]]))
    np.testing.assert_array_equal(dt, [SCEN.t_th] + [plan.dt] * plan.n_knots)
    np.testing.assert_array_equal(plan.input_schedule(), u[1:])


class TestExactJacobians:
    """gradient and constraints_jac against two independent oracles: central
    differences and a complex step through the whole cost_and_constraints."""

    @pytest.fixture(params=["flat", "obstacle"])
    def case(self, request, benchmark_plan, obstacle_plan):
        if request.param == "flat":
            prob = problem_for(benchmark_plan, SCEN)
            return prob, points_near(benchmark_plan, prob, seed=31)
        prob = problem_for(obstacle_plan, SCEN.with_(obstacle=OBSTACLE))
        points = points_near(obstacle_plan, prob, seed=32)
        # The points must exercise the bump's surface, not only the wall.
        pos = position_arrays(*prob.rollout(points[0])[:, :3].T, SCEN.d_a)
        assert np.any(obstacle_min_x(pos[:, 1], pos[:, 2], OBSTACLE, 1.0,
                                     SCEN.wall_offset) > SCEN.wall_offset)
        return prob, points

    def test_match_central_differences(self, case):
        prob, points = case
        h = 1e-6
        eye = np.eye(prob.n_var)
        for Z in points:
            grad, jac = prob.gradient(Z), prob.constraints_jac(Z)
            c_hi, g_hi = prob.cost_and_constraints(Z + h * eye)
            c_lo, g_lo = prob.cost_and_constraints(Z - h * eye)
            d_cost, d_g = (c_hi - c_lo) / (2 * h), ((g_hi - g_lo) / (2 * h)).T
            np.testing.assert_allclose(grad, d_cost, rtol=1e-6,
                                       atol=1e-6 * np.max(np.abs(d_cost)))
            np.testing.assert_allclose(jac, d_g, rtol=1e-6,
                                       atol=1e-6 * np.max(np.abs(d_g)))

    def test_match_complex_step_through_cost_and_constraints(self, case):
        prob, points = case
        h = 1e-30
        for Z in points:
            grad, jac = prob.gradient(Z), prob.constraints_jac(Z)
            cost, g = prob.cost_and_constraints(Z + 1j * h * np.eye(prob.n_var))
            d_cost, d_g = cost.imag / h, g.imag.T / h
            np.testing.assert_allclose(grad, d_cost, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(d_cost)))
            np.testing.assert_allclose(jac, d_g, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(d_g)))
            # The real part of the complex evaluation is the real one, up to
            # the rounding of complex division summed over the rollout.
            cost_r, g_r = prob.cost_and_constraints(Z)
            np.testing.assert_allclose(cost.real, cost_r, rtol=1e-12)
            np.testing.assert_allclose(g.real, np.broadcast_to(g_r, g.shape),
                                       rtol=1e-12, atol=1e-12)

    def test_zero_outside_the_model_domain(self, benchmark_plan):
        # Full rope pull over a long flight hauls the mass through the anchor
        # line: the rollout leaves the model domain, the value is a
        # placeholder and its derivatives are zero.
        prob = problem_for(benchmark_plan, SCEN)
        Z = np.concatenate([[1.0, 0.0, 0.8], np.full(2 * prob.N, -1.0), [10.0]])
        assert not np.all(np.isfinite(prob.rollout(Z)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert prob.objective(Z) == pytest.approx(1e9 * prob.cost_scale)
            assert np.all(prob.constraints(Z) == 1e3)
            grad, jac = prob.gradient(Z), prob.constraints_jac(Z)
        np.testing.assert_array_equal(grad, np.zeros(prob.n_var))
        np.testing.assert_array_equal(jac, np.zeros((prob.constraints(Z).size,
                                                     prob.n_var)))


class TestPlanJump:
    def test_solver_counters(self, benchmark_plan):
        info = benchmark_plan.solve_info
        assert info["value_evals"] > 0 and info["gradient_evals"] > 0
        assert info["gradient_evals"] >= info["n_iter"]
        assert 0.0 < info["value_s"] + info["gradient_s"] <= info["nlp_s"]

    def test_kkt_fit_and_rollout_counters(self, benchmark_plan):
        info = benchmark_plan.solve_info
        assert 0.0 < info["kkt_s"] <= info["nlp_s"]
        steps = (benchmark_plan.n_knots + 1) * IntegratorConfig().n_sub
        assert info["rollout_rows"] == info["value_evals"] * steps

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

    def test_start_behind_the_wall_in_a_recessed_shadow_rejected(self):
        scen = SCEN.with_(obstacle=RECESSED)
        with pytest.raises(PlanningError, match="start"):
            plan_jump([0.0, 3.95, -6.0], [0.5, 4.5, -6.0], scen)

    @pytest.mark.parametrize("p0", [[np.nan, 2.5, -6.0], [0.2, np.inf, -6.0],
                                    [0.2, 2.5]])
    def test_malformed_start_rejected(self, p0):
        with pytest.raises(ValueError, match="finite 3-vector"):
            plan_jump(p0, P_TG, SCEN)

    @pytest.mark.parametrize("max_iter", [-3, 0, 2.5])
    def test_bad_iteration_cap_rejected(self, max_iter):
        # Rejected before SLSQP runs, not reported as a plan that did not converge.
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            plan_jump(P0, P_TG, SCEN, max_iter=max_iter)

    def test_reintegration_with_finer_step(self, benchmark_plan):
        plan = benchmark_plan
        cfg_fine = IntegratorConfig(n_sub=50)
        states = rollout_arrays(plan.rest_state, *plan.schedule(SCEN.t_th), cfg_fine, SCEN)
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


class TestWeights:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlannerWeights(w_hw=-1.0)
        with pytest.raises(ValueError):
            PlannerWeights(n_knots=5)
        with pytest.raises(ValueError):
            PlannerWeights(slack=0.0)

    @pytest.mark.parametrize("name, value", [
        ("w_hw", np.nan), ("w_s", np.inf), ("w_term", np.nan), ("slack", np.nan),
        ("slack", np.inf), ("clearance", np.nan), ("n_knots", 30.0), ("n_knots", 30.5)])
    def test_non_finite_or_non_integer_rejected(self, name, value):
        with pytest.raises(ValueError, match=name.split("_")[-1]):
            PlannerWeights(**{name: value})
