"""Episode simulator: open-loop replay against the plan, the recorded
trace, reproducibility and error handling of the robustness batch, and the
landing damping."""

import numpy as np
import pytest

from wallhopper import simulator
from wallhopper.model import ReducedState, Scenario, cartesian_velocity
from wallhopper.simulator import (
    LandingParams,
    batch_robustness,
    critically_damped_gain,
    run_episode,
)

SCEN = Scenario()


class TestOpenLoopReplay:
    @pytest.mark.parametrize("dt_sim", [1e-3, 5e-4])
    def test_ends_on_the_plan(self, benchmark_plan, dt_sim):
        # The plan's knot interval is no multiple of dt_sim; the simulator
        # must still end the flight at t_th + t_f, on the plan's last knot.
        plan = benchmark_plan
        trace = run_episode(plan, SCEN, controller="open_loop", dt_sim=dt_sim)
        assert trace.events["lift_off"] == pytest.approx(SCEN.t_th, abs=1e-12)
        assert trace.times[-1] == pytest.approx(SCEN.t_th + plan.t_f, abs=1e-12)
        assert np.linalg.norm(trace.positions[-1] - plan.positions[-1]) < 1e-8
        assert trace.landing_error_norm == pytest.approx(plan.terminal_error, abs=1e-8)

    def test_trace_velocities(self, benchmark_plan):
        trace = run_episode(benchmark_plan, SCEN, controller="open_loop", dt_sim=0.005)
        for i in range(0, trace.times.size, 7):
            v = cartesian_velocity(ReducedState.from_array(trace.states[i]), SCEN)
            np.testing.assert_allclose(trace.velocities[i], v, rtol=1e-12, atol=1e-12)

    def test_explicit_velocity_overrides(self):
        rec = simulator._Recorder(SCEN)
        x = np.array([0.3, 6.0, 7.0, 0.1, 0.2, 0.3])
        rec.add(0.0, x, np.zeros(6), np.zeros(3), simulator.PHASE_FLIGHT)
        rec.add(0.1, x, np.zeros(6), np.zeros(3), simulator.PHASE_CONTACT,
                velocity=np.array([1.0, 2.0, 3.0]))
        trace = rec.build({}, np.zeros(3), {})
        np.testing.assert_array_equal(trace.velocities[1], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(
            trace.velocities[0], cartesian_velocity(ReducedState.from_array(x), SCEN))


class TestBatchRobustness:
    def run(self, plan, n_runs=4):
        return batch_robustness(plan, n_runs, SCEN, seed=5, controller="open_loop",
                                n_intervals=4)

    def test_fixed_seed_bit_identical(self, benchmark_plan):
        a, b = self.run(benchmark_plan), self.run(benchmark_plan)
        assert repr(a) == repr(b)
        assert a["failures"] == 0
        assert all(iv["n"] == 1 for iv in a["intervals"])

    @pytest.mark.parametrize("error", [ZeroDivisionError, RuntimeError])
    def test_code_errors_propagate(self, benchmark_plan, monkeypatch, error):
        def broken(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(simulator, "step_arrays", broken)
        with pytest.raises(error, match="injected"):
            self.run(benchmark_plan)

    def test_non_finite_state_counted(self, benchmark_plan, monkeypatch):
        real = simulator.step_arrays
        calls = []

        def nan_once(*args, **kwargs):
            calls.append(None)
            x = real(*args, **kwargs)
            return np.full_like(x, np.nan) if len(calls) == 100 else x

        monkeypatch.setattr(simulator, "step_arrays", nan_once)
        stats = self.run(benchmark_plan)
        assert stats["failures"] == 1
        assert sum(iv["n"] for iv in stats["intervals"]) == 3


class TestLandingDamping:
    def test_critically_damped(self):
        K, m = 60.0, 5.0
        D = critically_damped_gain(K, m)
        # m s^2 + D s + K has a double root.
        assert D * D == pytest.approx(4.0 * K * m, rel=1e-15)
        assert LandingParams(stiffness=K).damping_for(m) == D
        assert LandingParams(damping=3.0).damping_for(m) == 3.0

    @pytest.mark.parametrize("K, m", [(0.0, 5.0), (60.0, 0.0), (-1.0, 5.0), (60.0, -2.0)])
    def test_non_positive_rejected(self, K, m):
        with pytest.raises(ValueError):
            critically_damped_gain(K, m)
