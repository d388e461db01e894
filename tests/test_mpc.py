"""Flight MPC: one tick per plan knot (the knot's feed-forward, the
horizon's window of the plan's schedule and the tick range), the config
checks, the warm start rule, the degraded path when the solver fails, the
real-time iteration against its oracles, and closed-loop tracking of the
benchmark jump."""

import dataclasses

import numpy as np
import pytest
from scipy import optimize

from wallhopper import mpc, planner, solvers
from wallhopper.integrator import COMPLEX_STEP, IntegratorConfig
from wallhopper.model import Scenario
from wallhopper.mpc import (
    MpcSolution,
    TrackingController,
    warm_start_from,
)
from wallhopper.planner import JumpPlan
from wallhopper.simulator import DisturbanceSpec, run_episode

SCEN = Scenario()


def solution(rows):
    rows = np.asarray(rows, dtype=float)
    return MpcSolution(delta_left=rows[:, 0], delta_right=rows[:, 1],
                       f_prop=rows[:, 2], predicted_positions=np.zeros((len(rows) + 1, 3)))


ROWS = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]


# 30 knots at a t_f where k * dt / dt rounds to just below k for k = 7, 14
# and 28: a controller on its own clock once flew the previous knot's forces.
N_KNOTS = 30
KNOT_PLAN = JumpPlan(f_leg=np.zeros(3), rope_left=-1.0 - np.arange(N_KNOTS),
                     rope_right=-100.0 - np.arange(N_KNOTS), t_f=0.31472586702134514,
                     states=np.zeros((N_KNOTS + 1, 6)),
                     positions=np.zeros((N_KNOTS + 1, 3)), p0=np.zeros(3),
                     p_target=np.zeros(3), rest_state=np.zeros(6))


def test_feed_forward_follows_the_plan_knots():
    ctl = TrackingController(KNOT_PLAN, SCEN)
    assert ctl.n_ticks == N_KNOTS
    for got, expected in zip(ctl.schedule, KNOT_PLAN.schedule(SCEN.t_th)):
        np.testing.assert_array_equal(got, expected)
    assert ctl.p_ref is KNOT_PLAN.positions


@pytest.mark.parametrize("k", [0, 5, 28, 29])
def test_horizon_steps_a_window_of_the_schedule(k, frozen_track_plan, monkeypatch):
    # Tick k's first rollout, at the cold start's zero deviations, steps
    # the schedule's rows k+1 .. k+H for their lengths, the horizon cut at
    # the plan's 30 knots.
    stepped = []
    substep_schedule = mpc.substep_schedule

    def recorded(u, dt, cfg):
        stepped.append((u, dt))
        return substep_schedule(u, dt, cfg)

    monkeypatch.setattr(mpc, "substep_schedule", recorded)
    plan = frozen_track_plan
    TrackingController(plan, SCEN, mpc.MpcConfig(n_horizon=4)).command(plan.states[k], k)
    window = slice(k + 1, min(k + 5, plan.n_knots + 1))
    for got, expected in zip(stepped[0], plan.schedule(SCEN.t_th)):
        np.testing.assert_array_equal(got, expected[window])


@pytest.mark.parametrize("k", [-1, N_KNOTS, N_KNOTS + 1])
def test_tick_outside_the_plan_rejected(k):
    ctl = TrackingController(KNOT_PLAN, SCEN)
    with pytest.raises(ValueError, match=rf"tick {k} outside \[0, {N_KNOTS}\)"):
        ctl.command(np.zeros(6), k)
    assert ctl.prev_solution is None


@pytest.mark.parametrize("max_iter", [0, -1, 1.0])
def test_config_rejects_no_iteration(max_iter):
    # max_iter = 0 once applied the unoptimised warm start, flagged as not degraded.
    with pytest.raises(ValueError, match="max_iter"):
        mpc.MpcConfig(max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter"):
        mpc.MpcConfig.from_plan(KNOT_PLAN, max_iter=max_iter)


@pytest.mark.parametrize("n_horizon", [12.0, 2.5, np.nan])
def test_config_rejects_non_integer_horizon(n_horizon):
    with pytest.raises(ValueError, match="horizon must be an integer"):
        mpc.MpcConfig(n_horizon=n_horizon)


class TestWarmStart:
    def test_cold_start_is_zero(self):
        np.testing.assert_array_equal(warm_start_from(None, 4), np.zeros((4, 3)))

    def test_shift_by_one_repeats_last_knot(self):
        np.testing.assert_array_equal(warm_start_from(solution(ROWS), 3),
                                      [ROWS[1], ROWS[2], ROWS[2]])

    def test_shorter_horizon_truncates(self):
        np.testing.assert_array_equal(warm_start_from(solution(ROWS), 1), [ROWS[1]])

    def test_longer_horizon_pads_with_last_row(self):
        np.testing.assert_array_equal(warm_start_from(solution(ROWS), 5),
                                      [ROWS[1], ROWS[2], ROWS[2], ROWS[2], ROWS[2]])


class TestSolverFailure:
    def step(self, plan, warm_start):
        """Tick 0 with the warm start given as the previous solution's rows
        (constant rows, so the shift by one leaves them as they are)."""
        ctl = TrackingController(plan, SCEN)
        if warm_start is not None:
            ctl.prev_solution = solution(warm_start)
        return ctl, ctl.command(plan.states[0], 0)[1]

    def test_runtime_error_degrades_to_clipped_warm_start(self, benchmark_plan,
                                                          monkeypatch):
        def failing(problem):
            raise RuntimeError("iteration limit reached")

        monkeypatch.setattr(mpc, "solve_nlp", failing)
        H = TrackingController(benchmark_plan, SCEN).cfg.n_horizon
        warm = np.full((H, 3), 1e9)          # far above every upper bound
        ctl, sol = self.step(benchmark_plan, warm)
        assert sol.degraded
        assert sol.diagnostics["status"] == "failed"
        assert "iteration limit" in sol.diagnostics["error"]
        # Clipped to the upper bounds: rope force 0 and full propeller thrust.
        ff = ctl.schedule[0][1:H + 1]                    # tick 0: steps 1 .. H
        np.testing.assert_allclose(sol.delta_left, -ff[:, 0], rtol=1e-12)
        np.testing.assert_allclose(sol.delta_right, -ff[:, 1], rtol=1e-12)
        np.testing.assert_array_equal(sol.f_prop, np.full(H, SCEN.f_p_max))
        assert np.all(np.isfinite(sol.predicted_positions))

    def test_code_error_propagates(self, benchmark_plan, monkeypatch):
        def broken(problem):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr(mpc, "solve_nlp", broken)
        with pytest.raises(ZeroDivisionError, match="injected"):
            self.step(benchmark_plan, None)


def test_undisturbed_mpc_no_worse_than_open_loop(benchmark_plan):
    open_loop = run_episode(benchmark_plan, SCEN, controller="open_loop")
    closed = run_episode(benchmark_plan, SCEN, controller="mpc")
    assert closed.landing_error_norm <= open_loop.landing_error_norm + 1e-6


def perturbed_tick(plan, monkeypatch, max_iter=1, rates=(0.05, 0.1, 0.0), k=3):
    """Tick k from the plan's knot state with its rates perturbed; returns
    (the NlpProblem the tick posed, the solution)."""
    posed = []

    def capture(problem):
        posed.append(problem)
        return solvers.solve_nlp(problem)

    monkeypatch.setattr(mpc, "solve_nlp", capture)
    ctl = TrackingController(plan, SCEN, mpc.MpcConfig.from_plan(plan, max_iter=max_iter))
    sol = ctl.command(plan.states[k] + np.concatenate([np.zeros(3), rates]), k)[1]
    return posed[0], sol


class TestRealTimeIteration:
    def test_position_jacobian_matches_differences(self, frozen_track_plan, monkeypatch):
        problem, _ = perturbed_tick(frozen_track_plan, monkeypatch)
        z = problem.x0 + 0.01 * np.random.default_rng(3).normal(size=problem.x0.size)
        J = problem.residuals_jac(z)
        n_pos = 3 * (z.size // 3)                    # position rows come first
        r, h = problem.residuals, 1e-6
        central = np.column_stack([(r(z + h * e) - r(z - h * e)) / (2.0 * h)
                                   for e in np.eye(z.size)])
        np.testing.assert_allclose(J[:n_pos], central[:n_pos], rtol=0, atol=1e-6)
        h = COMPLEX_STEP
        complex_step = np.column_stack([r(z + 1j * h * e).imag / h for e in np.eye(z.size)])
        np.testing.assert_allclose(J, complex_step, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("horizon", [2, 1])
    def test_short_horizon_jacobian_matches_complex_step(self, frozen_track_plan,
                                                         monkeypatch, horizon):
        # The last two ticks: at H = 1 the only tracked knot is the measured
        # state and only the smoothing rows move.
        k = TrackingController(frozen_track_plan, SCEN).n_ticks - horizon
        problem, _ = perturbed_tick(frozen_track_plan, monkeypatch, k=k)
        z = problem.x0 + 0.01 * np.random.default_rng(4).normal(size=problem.x0.size)
        J = problem.residuals_jac(z)
        assert J.shape == (5 * horizon, 3 * horizon)
        h = COMPLEX_STEP
        complex_step = np.column_stack([problem.residuals(z + 1j * h * e).imag / h
                                        for e in np.eye(z.size)])
        assert np.any(complex_step[3 * horizon:])
        np.testing.assert_allclose(J, complex_step, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rates", [(0.05, 0.1, 0.0), (0.3, 1.0, -1.0)])
    def test_converged_steps_match_least_squares(self, frozen_track_plan, monkeypatch,
                                                 rates):
        problem, _ = perturbed_tick(frozen_track_plan, monkeypatch, rates=rates)
        res = solvers.solve_nlp(dataclasses.replace(problem, max_iter=50, tol_stat=1e-12))
        ref = optimize.least_squares(problem.residuals, problem.x0, jac=problem.residuals_jac,
                                     bounds=(problem.lower, problem.upper), method="trf",
                                     xtol=1e-15, ftol=1e-15, gtol=1e-15)
        assert res.status == solvers.STATUS_OPTIMAL
        assert res.objective == pytest.approx(ref.cost, rel=0, abs=1e-8)

    def test_one_step_per_jacobian_and_no_batched_rollout(self, frozen_track_plan,
                                                          monkeypatch):
        calls = {"jacobians": 0, "rollouts": 0}
        rollout_jacobian, rollout_arrays = mpc.rollout_jacobian, mpc.rollout_arrays

        def counted_jacobians(*args):
            calls["jacobians"] += 1
            return rollout_jacobian(*args)

        def single_rollout(x0, *args):
            assert np.ndim(x0) == 1, "batched rollout in an MPC tick"
            calls["rollouts"] += 1
            return rollout_arrays(x0, *args)

        monkeypatch.setattr(mpc, "rollout_jacobian", counted_jacobians)
        monkeypatch.setattr(mpc, "rollout_arrays", single_rollout)
        _, sol = perturbed_tick(frozen_track_plan, monkeypatch)
        assert (sol.diagnostics["n_iter"], calls) == (1, {"jacobians": 1, "rollouts": 2})
        calls.update(jacobians=0, rollouts=0)
        _, sol = perturbed_tick(frozen_track_plan, monkeypatch, max_iter=4)
        d = sol.diagnostics
        assert calls["jacobians"] == d["n_iter"] + (d["status"] == solvers.STATUS_OPTIMAL)
        assert calls["rollouts"] == d["n_iter"] + 1

    def test_predictions_step_on_floats(self, frozen_track_plan, monkeypatch,
                                        substep_calls):
        added = []
        rollout_arrays = mpc.rollout_arrays

        def watched(*args):
            before = len(substep_calls)
            states = rollout_arrays(*args)
            added.append(len(substep_calls) - before)
            return states

        monkeypatch.setattr(mpc, "rollout_arrays", watched)
        perturbed_tick(frozen_track_plan, monkeypatch)
        assert added == [0, 0]
        assert substep_calls            # the Jacobian's complex steps are arrays

    def test_jacobian_steps_nine_directions(self, frozen_track_plan, monkeypatch,
                                            substep_calls):
        # Each step of the horizon moves the two rope forces and the
        # propeller, not its length: 6 + 3 complex directions per step, not 13,
        # and all their sub-steps go through one array call per Jacobian.
        _, sol = perturbed_tick(frozen_track_plan, monkeypatch, max_iter=4)
        H, d = len(sol.predicted_positions) - 1, sol.diagnostics
        n_jacobians = d["n_iter"] + (d["status"] == solvers.STATUS_OPTIMAL)
        assert substep_calls == [(H, IntegratorConfig().n_sub, 9, 6)] * n_jacobians

    def test_command_applies_the_first_step_input(self, frozen_track_plan):
        ctl = TrackingController(frozen_track_plan, SCEN)
        for k in (0, 5):
            u, sol = ctl.command(frozen_track_plan.states[k], k)
            expected = ctl.schedule[0][k + 1].copy()
            expected[:2] += [sol.delta_left[0], sol.delta_right[0]]
            expected[5] = sol.f_prop[0]
            np.testing.assert_array_equal(u, expected)

    def test_out_of_domain_tick_degrades_before_bvls(self, frozen_track_plan, monkeypatch):
        # Both ropes reeling in at 30 m/s carry the warm start through the
        # anchor line (r^2 <= 0) within the horizon.
        lsq_linear = optimize.lsq_linear

        def finite_only(A, b, *args, **kwargs):
            assert np.all(np.isfinite(A)) and np.all(np.isfinite(b)), "NaN reached BVLS"
            return lsq_linear(A, b, *args, **kwargs)

        monkeypatch.setattr(solvers.optimize, "lsq_linear", finite_only)
        _, sol = perturbed_tick(frozen_track_plan, monkeypatch, rates=(0.0, -30.0, -30.0))
        assert sol.degraded
        assert sol.diagnostics["status"] == "failed"
        assert "non-finite" in sol.diagnostics["error"]
        assert not np.all(np.isfinite(sol.predicted_positions))

    def test_step_never_raises_the_cost(self, frozen_track_plan, monkeypatch):
        costs = []

        def checked(problem):
            r0 = problem.residuals(np.clip(problem.x0, problem.lower, problem.upper))
            res = solvers.solve_nlp(problem)
            costs.append((res.objective, 0.5 * r0 @ r0))
            return res

        monkeypatch.setattr(mpc, "solve_nlp", checked)
        run_episode(frozen_track_plan, SCEN, controller="mpc",
                    disturbance=DisturbanceSpec("constant", [0.0, 0.0, -20.0]))
        stepped, warm = np.array(costs).T
        assert stepped.size == TrackingController(frozen_track_plan, SCEN).n_ticks
        assert np.all(stepped <= warm)


@pytest.mark.parametrize("module", [planner, mpc])
def test_no_derivative_of_their_own(module):
    # The planner's and the MPC's derivatives come from
    # integrator.rollout_jacobian alone.
    for name in ("COMPLEX_STEP", "step_jacobians", "jacobian_arrays"):
        assert not hasattr(module, name), name
