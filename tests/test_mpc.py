"""Flight MPC: the feed-forward resample, the warm start and horizon rules,
the degraded path when the solver fails, and closed-loop tracking of the
benchmark jump."""

import numpy as np
import pytest

from wallhopper import mpc
from wallhopper.model import Scenario
from wallhopper.mpc import (
    MpcSolution,
    TrackingController,
    shrink_horizon,
    warm_start_from,
)
from wallhopper.planner import JumpPlan
from wallhopper.simulator import run_episode

SCEN = Scenario()


def solution(rows):
    rows = np.asarray(rows, dtype=float)
    return MpcSolution(delta_left=rows[:, 0], delta_right=rows[:, 1],
                       f_prop=rows[:, 2], predicted_positions=np.zeros((len(rows) + 1, 3)))


ROWS = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]


def test_feed_forward_follows_the_plan_knots():
    # At this t_f, k * dt / dt rounds to just below k for k = 7, 14 and 28;
    # with the controller on the plan clock each tick must still fly its
    # own knot's rope forces.
    n = 30
    plan = JumpPlan(f_leg=np.zeros(3), rope_left=-1.0 - np.arange(n),
                    rope_right=-100.0 - np.arange(n), t_f=0.31472586702134514,
                    states=np.zeros((n + 1, 6)), positions=np.zeros((n + 1, 3)),
                    p0=np.zeros(3), p_target=np.zeros(3), rest_state=np.zeros(6))
    ctl = TrackingController(plan, SCEN)
    assert ctl.n_ticks == n
    np.testing.assert_array_equal(ctl.ff, np.column_stack([plan.rope_left,
                                                           plan.rope_right]))


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


class TestShrinkHorizon:
    @pytest.mark.parametrize("k, expected", [(0, 12), (8, 12), (9, 11), (19, 1), (20, 0)])
    def test_min_rule(self, k, expected):
        assert shrink_horizon(k, 12, 20) == expected

    def test_beyond_reference_rejected(self):
        with pytest.raises(ValueError):
            shrink_horizon(21, 12, 20)


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
        np.testing.assert_allclose(sol.delta_left, -ctl.ff[:H, 0], rtol=1e-12)
        np.testing.assert_allclose(sol.delta_right, -ctl.ff[:H, 1], rtol=1e-12)
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
