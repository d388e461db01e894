"""Flight MPC: one tick per plan knot (the knot's feed-forward, the
horizon's window of the plan's schedule and the tick range), the config
checks, the warm start rule, the degraded path when the solver fails, the
real-time iteration against its oracles, its box steps against scipy's
BVLS, and closed-loop tracking of the benchmark jump."""

import dataclasses

import numpy as np
import pytest
from scipy import optimize

from wallhopper import integrator, mpc, planner, solvers
from wallhopper.integrator import COMPLEX_STEP, IntegratorConfig, rollout_arrays
from wallhopper.model import Scenario, position_arrays
from wallhopper.mpc import (
    MpcSolution,
    TrackingController,
    warm_start_from,
)
from wallhopper.planner import JumpPlan
from wallhopper.simulator import DisturbanceSpec, run_episode

SCEN = Scenario()
DISTURBED = DisturbanceSpec("constant", [0.0, 0.0, -20.0])


def solution(rows):
    return MpcSolution(np.asarray(rows, dtype=float))


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


@pytest.mark.parametrize("k", [2.5, np.float64(3.0)])
def test_non_integer_tick_rejected(k):
    # Inside the tick range, a float once failed on a slice index deep in
    # the solve; a numpy integer stays a tick.
    ctl = TrackingController(KNOT_PLAN, SCEN)
    with pytest.raises(ValueError, match=rf"tick {k} is not an integer"):
        ctl.command(np.zeros(6), k)
    assert ctl.prev_solution is None
    ctl.command(np.zeros(6), np.int64(3))
    assert ctl.prev_solution is not None


@pytest.mark.parametrize("shape", [(1, 6), (5,), (7,)])
def test_malformed_state_rejected(frozen_track_plan, shape):
    ctl = TrackingController(frozen_track_plan, SCEN)
    with pytest.raises(ValueError, match=rf"6-vector, got shape \({shape[0]},"):
        ctl.command(np.zeros(shape), 0)
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
        assert sol.deviations.shape == (H, 3)
        np.testing.assert_allclose(sol.deviations[:, :2], -ff[:, :2], rtol=1e-12)
        np.testing.assert_array_equal(sol.deviations[:, 2], np.full(H, SCEN.f_p_max))

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


def perturbed_state(plan, rates, k):
    return plan.states[k] + np.concatenate([np.zeros(3), rates])


def perturbed_tick(plan, monkeypatch, max_iter=1, rates=(0.05, 0.1, 0.0), k=3):
    """Tick k from the plan's knot state with its rates perturbed; returns
    (the NlpProblem the tick posed, the solution)."""
    posed = []

    def capture(problem):
        posed.append(problem)
        return solvers.solve_nlp(problem)

    monkeypatch.setattr(mpc, "solve_nlp", capture)
    ctl = TrackingController(plan, SCEN, mpc.MpcConfig.from_plan(plan, max_iter=max_iter))
    sol = ctl.command(perturbed_state(plan, rates, k), k)[1]
    return posed[0], sol


def cold_tick_residuals(plan, rates=(0.05, 0.1, 0.0), k=3):
    """Oracle: the residuals of perturbed_tick's tick at scaled deviations
    z (..., 3H), real or complex, rebuilt from the plan: the schedule's
    steps k+1 .. k+H plus the deviations (rope forces and propeller) flown
    by one rollout_arrays call, the knot positions k .. k+H-1 tracked, and
    the rope deviations' first differences, from zero, weighted by
    sqrt(W_SMOOTH)."""
    u_plan, dt = plan.schedule(SCEN.t_th)
    f_scale = np.array([SCEN.f_r_max, SCEN.f_r_max, SCEN.f_p_max])

    def residuals(z):
        batch, H = z.shape[:-1], z.shape[-1] // 3
        v = z.reshape(batch + (H, 3)) * f_scale
        u = np.broadcast_to(u_plan[k + 1:k + 1 + H], batch + (H, 6)).astype(z.dtype)
        u[..., [0, 1, 5]] += v
        states = rollout_arrays(perturbed_state(plan, rates, k), u, dt[k + 1:k + 1 + H],
                                IntegratorConfig(), SCEN)[..., :H, :]
        pos = position_arrays(states[..., 0], states[..., 1], states[..., 2], SCEN.d_a)
        smooth = np.sqrt(mpc.W_SMOOTH) * np.diff(v[..., :2], axis=-2, prepend=0.0)
        return np.concatenate([(pos - plan.positions[k:k + H]).reshape(batch + (3 * H,)),
                               np.swapaxes(smooth, -1, -2).reshape(batch + (2 * H,))], axis=-1)

    return residuals


def complex_step(residuals, z):
    """The Jacobian of residuals at z, all directions in one call."""
    h = COMPLEX_STEP
    return residuals(z + 1j * h * np.eye(z.size)).imag.T / h


class TestRealTimeIteration:
    def test_position_jacobian_matches_differences(self, frozen_track_plan, monkeypatch):
        problem, _ = perturbed_tick(frozen_track_plan, monkeypatch)
        z = problem.x0 + 0.01 * np.random.default_rng(3).normal(size=problem.x0.size)
        r_tick, J = problem.residuals(z)
        r = cold_tick_residuals(frozen_track_plan)
        np.testing.assert_array_equal(r_tick, r(z))
        n_pos = 3 * (z.size // 3)                    # position rows come first
        h = 1e-6
        central = np.column_stack([(r(z + h * e) - r(z - h * e)) / (2.0 * h)
                                   for e in np.eye(z.size)])
        np.testing.assert_allclose(J[:n_pos], central[:n_pos], rtol=0, atol=1e-6)
        np.testing.assert_allclose(J, complex_step(r, z), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("horizon", [2, 1])
    def test_short_horizon_jacobian_matches_complex_step(self, frozen_track_plan,
                                                         monkeypatch, horizon):
        # The last two ticks: at H = 1 the only tracked knot is the measured
        # state and only the smoothing rows move.
        k = TrackingController(frozen_track_plan, SCEN).n_ticks - horizon
        problem, _ = perturbed_tick(frozen_track_plan, monkeypatch, k=k)
        z = problem.x0 + 0.01 * np.random.default_rng(4).normal(size=problem.x0.size)
        r_tick, J = problem.residuals(z)
        assert J.shape == (5 * horizon, 3 * horizon)
        r = cold_tick_residuals(frozen_track_plan, k=k)
        np.testing.assert_array_equal(r_tick, r(z))
        oracle = complex_step(r, z)
        assert np.any(oracle[3 * horizon:])
        np.testing.assert_allclose(J, oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rates", [(0.05, 0.1, 0.0), (0.3, 1.0, -1.0)])
    def test_converged_steps_match_least_squares(self, frozen_track_plan, monkeypatch,
                                                 rates):
        problem, _ = perturbed_tick(frozen_track_plan, monkeypatch, rates=rates)
        res = solvers.solve_nlp(dataclasses.replace(problem, max_iter=50, tol_stat=1e-12))
        r = cold_tick_residuals(frozen_track_plan, rates=rates)
        ref = optimize.least_squares(r, problem.x0, jac=lambda z: complex_step(r, z),
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
        # One rollout per Gauss-Newton iterate, and the tick applies its last
        # step without simulating it: at a cap of 1 one rollout, at the warm
        # start.  This tick is stationary after two steps: at a cap of 2 it
        # returns the second step unsimulated, at a cap of 4 it rolls that
        # point out and stops there.
        for max_iter, n_iter, ending in ((1, 1, solvers.STATUS_MAX_ITERS),
                                         (2, 2, solvers.STATUS_MAX_ITERS),
                                         (4, 2, solvers.STATUS_OPTIMAL)):
            calls.update(jacobians=0, rollouts=0)
            _, sol = perturbed_tick(frozen_track_plan, monkeypatch, max_iter=max_iter)
            d = sol.diagnostics
            assert (d["n_iter"], d["status"]) == (n_iter, ending)
            iterates = n_iter + (ending == solvers.STATUS_OPTIMAL)
            assert calls == {"jacobians": iterates, "rollouts": iterates}

    def test_layouts_built_once_per_controller(self, frozen_track_plan, monkeypatch):
        # Two episodes, each with its own controller, build one layout each,
        # of the longest window, before that controller's first tick, and no
        # tick builds a perturbation or direction block of its own: both
        # blocks are made from identities, so every np.eye call of the
        # integrator's falls inside a layout build.
        events, eyes = [], {"all": 0, "in_builds": 0}
        input_tangents, command = mpc.input_tangents, TrackingController.command

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def eye(*args, **kwargs):
                eyes["all"] += 1
                return np.eye(*args, **kwargs)

        def counted_build(step_inputs, n):
            before = eyes["all"]
            layout = input_tangents(step_inputs, n)
            eyes["in_builds"] += eyes["all"] - before
            events.append(n // 3)
            return layout

        def counted_command(self, *args):
            events.append("tick")
            return command(self, *args)

        monkeypatch.setattr(integrator, "np", CountingNumpy())
        monkeypatch.setattr(mpc, "input_tangents", counted_build)
        monkeypatch.setattr(TrackingController, "command", counted_command)
        for disturbance in (None, DISTURBED):
            meta = run_episode(frozen_track_plan, SCEN, controller="mpc",
                               disturbance=disturbance).meta
            assert meta["ticks"] == 30
        assert [e for e in events if e != "tick"] == [12, 12]
        assert events == ([12] + ["tick"] * 30) * 2
        assert eyes["in_builds"] > 0 and eyes["all"] == eyes["in_builds"]

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
        assert added == [0]
        assert substep_calls            # the Jacobian's complex steps are arrays

    def test_jacobian_steps_nine_directions(self, frozen_track_plan, monkeypatch,
                                            substep_calls):
        # Each step of the horizon moves the two rope forces and the
        # propeller, not its length: 6 + 3 complex directions per step, not 13,
        # and all their sub-steps go through one array call per Jacobian.
        _, sol = perturbed_tick(frozen_track_plan, monkeypatch, max_iter=4)
        H, d = len(sol.deviations), sol.diagnostics
        n_jacobians = d["n_iter"] + (d["status"] == solvers.STATUS_OPTIMAL)
        assert substep_calls == [(H, IntegratorConfig().n_sub, 9, 6)] * n_jacobians

    def test_command_applies_the_first_step_input(self, frozen_track_plan):
        ctl = TrackingController(frozen_track_plan, SCEN)
        for k in (0, 5):
            u, sol = ctl.command(frozen_track_plan.states[k], k)
            expected = ctl.schedule[0][k + 1].copy()
            expected[:2] += sol.deviations[0, :2]
            expected[5] = sol.deviations[0, 2]
            np.testing.assert_array_equal(u, expected)

    def test_out_of_domain_tick_degrades_before_the_box_step(self, frozen_track_plan,
                                                              monkeypatch):
        # Both ropes reeling in at 30 m/s carry the warm start through the
        # anchor line (r^2 <= 0) within the horizon.
        qr, nnls = np.linalg.qr, solvers.optimize.nnls

        def finite_only(solve):
            def checked(A, *args, **kwargs):
                arrays = (A,) + tuple(a for a in args if isinstance(a, np.ndarray))
                assert all(np.all(np.isfinite(a)) for a in arrays), "NaN reached the step"
                return solve(A, *args, **kwargs)
            return checked

        monkeypatch.setattr(np.linalg, "qr", finite_only(qr))
        monkeypatch.setattr(solvers.optimize, "nnls", finite_only(nnls))
        _, sol = perturbed_tick(frozen_track_plan, monkeypatch, rates=(0.0, -30.0, -30.0))
        assert sol.degraded
        assert sol.diagnostics["status"] == "failed"
        assert "non-finite" in sol.diagnostics["error"]

    def test_rank_deficient_tick_degrades(self, frozen_track_plan, monkeypatch):
        # The first step's left rope column copied onto its right rope's:
        # the step cannot tell the two apart.
        rollout_jacobian = mpc.rollout_jacobian

        def dependent(*args):
            J = rollout_jacobian(*args)
            J[:, 1] = J[:, 0]
            return J

        monkeypatch.setattr(mpc, "rollout_jacobian", dependent)
        _, sol = perturbed_tick(frozen_track_plan, monkeypatch)
        assert sol.degraded
        assert (sol.diagnostics["status"], sol.diagnostics["step_s"]) == ("failed", 0.0)
        assert "rank-deficient" in sol.diagnostics["error"]

    def test_step_never_raises_the_cost(self, frozen_track_plan, monkeypatch):
        # The tick does not evaluate the residuals at its step's end; the
        # check does.
        costs = []

        def checked(problem):
            r0 = problem.residuals(np.clip(problem.x0, problem.lower, problem.upper))[0]
            res = solvers.solve_nlp(problem)
            r = problem.residuals(res.x)[0]
            costs.append((0.5 * r @ r, 0.5 * r0 @ r0))
            return res

        monkeypatch.setattr(mpc, "solve_nlp", checked)
        run_episode(frozen_track_plan, SCEN, controller="mpc", disturbance=DISTURBED)
        stepped, warm = np.array(costs).T
        assert stepped.size == TrackingController(frozen_track_plan, SCEN).n_ticks
        assert np.all(stepped <= warm)


def record_box_steps(monkeypatch):
    """Wrap solvers.box_step and nnls: one (J, r, lower, upper, step, nnls
    calls made inside the step) per step, and the count of every nnls call
    and of those made by active_set_multipliers."""
    steps, count = [], {"nnls": 0, "kkt": 0}
    nnls, box_step, fit = (solvers.optimize.nnls, solvers.box_step,
                           solvers.active_set_multipliers)

    def counted_nnls(*args, **kwargs):
        count["nnls"] += 1
        return nnls(*args, **kwargs)

    def recorded_step(J, r, lower, upper):
        before = count["nnls"]
        d = box_step(J, r, lower, upper)
        steps.append((J, r, lower, upper, d, count["nnls"] - before))
        return d

    def counted_fit(*args, **kwargs):
        before = count["nnls"]
        resid = fit(*args, **kwargs)
        count["kkt"] += count["nnls"] - before
        return resid

    def no_bvls(*args, **kwargs):
        raise AssertionError("lsq_linear called")

    monkeypatch.setattr(solvers.optimize, "nnls", counted_nnls)
    monkeypatch.setattr(solvers.optimize, "lsq_linear", no_bvls)
    monkeypatch.setattr(solvers, "box_step", recorded_step)
    monkeypatch.setattr(solvers, "active_set_multipliers", counted_fit)
    return steps, count


def test_saturated_episode_makes_one_nnls_call_per_step(frozen_track_plan, monkeypatch):
    # Under -20 N rope bounds are active on several ticks; each step costs
    # one QR and at most one nnls call, and scipy's BVLS is never called.
    steps, count = record_box_steps(monkeypatch)
    meta = run_episode(frozen_track_plan, SCEN, controller="mpc", disturbance=DISTURBED).meta
    calls = np.array([s[-1] for s in steps])
    assert calls.size == meta["n_iter"].sum() > 0
    assert set(calls) == {0, 1}
    assert count["nnls"] == count["kkt"] + calls.sum()
    assert not np.any(meta["degraded"])


@pytest.mark.parametrize("disturbance", [None, DISTURBED], ids=["undisturbed", "-20N"])
def test_episode_steps_match_bvls(frozen_track_plan, monkeypatch, bvls_step, disturbance):
    steps, _ = record_box_steps(monkeypatch)
    meta = run_episode(frozen_track_plan, SCEN, controller="mpc",
                       disturbance=disturbance).meta
    assert len(steps) == meta["n_iter"].sum()
    monkeypatch.undo()                   # BVLS back, for the oracle
    for J, r, lower, upper, d, _ in steps:
        np.testing.assert_allclose(d, bvls_step(J, r, lower, upper), rtol=0, atol=1e-10)


@pytest.mark.parametrize("module", [planner, mpc])
def test_no_derivative_of_their_own(module):
    # The planner's and the MPC's derivatives come from
    # integrator.rollout_jacobian alone.
    for name in ("COMPLEX_STEP", "step_jacobians", "jacobian_arrays"):
        assert not hasattr(module, name), name
