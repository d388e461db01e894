"""Integration schemes checked against closed-form ballistics and a
fine-step reference."""

import numpy as np
import pytest

from wallhopper.integrator import (
    IntegrationError,
    IntegratorConfig,
    rollout,
    rollout_arrays,
    step,
    step_arrays,
)
from wallhopper.model import (
    ControlInput,
    ReducedState,
    Scenario,
    SingularityError,
    ZERO_INPUT,
    inverse_kinematics,
    jacobian_arrays,
    position_arrays,
)

SCEN = Scenario()


def make_state(p, v=None):
    psi, l1, l2 = inverse_kinematics(np.asarray(p, dtype=float), SCEN)
    if v is None:
        return ReducedState(psi, l1, l2)
    A = jacobian_arrays(psi, l1, l2, SCEN.d_a)
    qdot = np.linalg.solve(A, np.asarray(v, dtype=float))
    return ReducedState(psi, l1, l2, *qdot)


def final_position(states):
    return position_arrays(states[-1, 0], states[-1, 1], states[-1, 2], SCEN.d_a)


# A smooth forced trajectory shared by the accuracy tests: constant rope pull
# plus a small propeller push over 1.6 s.
FORCED_U = ControlInput(-30.0, -20.0, np.zeros(3), 5.0)
T_END = 1.6
X0 = make_state([0.4, 2.5, -6.0], [1.0, 0.3, 2.2])


def integrate_forced(method, n_knots, n_sub):
    cfg = IntegratorConfig(method=method, n_sub=n_sub, dt=T_END / n_knots)
    states, _ = rollout(X0, [FORCED_U] * n_knots, cfg, SCEN)
    return states


REFERENCE = integrate_forced("rk4", 16000, 1)


class TestStep:
    def test_free_fall_matches_closed_form(self):
        p0, v0 = np.array([0.2, 2.5, -6.0]), np.array([0.5, 0.2, 1.0])
        cfg = IntegratorConfig(method="rk4", n_sub=1, dt=0.001)
        states, positions = rollout(make_state(p0, v0), [ZERO_INPUT] * 1000, cfg, SCEN)
        p_exact = p0 + v0 * 1.0 + 0.5 * SCEN.gravity
        assert abs(positions[-1][2] - p_exact[2]) < 1e-6

    def test_rk4_beats_euler_at_coarse_step(self):
        # Integration error at dt = t_f/40 without sub-steps.
        ref = final_position(REFERENCE)
        err_euler = np.linalg.norm(final_position(integrate_forced("euler", 40, 1)) - ref)
        err_rk4 = np.linalg.norm(final_position(integrate_forced("rk4", 40, 1)) - ref)
        assert err_rk4 * 5.0 <= err_euler

    def test_substepped_rk4_close_to_fine_reference(self):
        ref = final_position(REFERENCE)
        err = np.linalg.norm(final_position(integrate_forced("rk4", 160, 5)) - ref)
        assert err < 0.05

    def test_singularity_propagates(self):
        cfg = IntegratorConfig(method="rk4", n_sub=1, dt=0.01)
        with pytest.raises(SingularityError):
            step(ReducedState(0.0, 6.0, 7.0), ZERO_INPUT, cfg, SCEN)

    def test_non_finite_flagged(self):
        cfg = IntegratorConfig(method="euler", n_sub=1, dt=10.0)
        crazy = ControlInput(0.0, 0.0, np.array([1e300, 0.0, 0.0]), 0.0)
        with pytest.raises(IntegrationError):
            q = make_state([0.4, 2.5, -6.0])
            for _ in range(10):
                q = step(q, crazy, cfg, SCEN)


class TestSingleStatePath:
    """One state is stepped on Python floats; it must match its row of a
    batched step bit for bit."""

    @pytest.mark.parametrize("method", ["rk4", "euler"])
    @pytest.mark.parametrize("with_force", [False, True])
    def test_single_row_matches_batch(self, method, with_force):
        rng = np.random.default_rng(11)
        n = 40
        x = np.stack([make_state([rng.uniform(0.1, 2.0), rng.uniform(0.0, 5.0),
                                  rng.uniform(-9.0, -3.0)],
                                 rng.uniform(-2.0, 2.0, 3)).as_array() for _ in range(n)])
        x[0, 1:3] = 1.0, 10.0                            # out of domain: NaN row
        u = np.column_stack([rng.uniform(-60, 0, (n, 2)), rng.uniform(-50, 50, (n, 4))])
        force = rng.normal(0.0, 20.0, (n, 3)) if with_force else None
        cfg = IntegratorConfig(method=method, n_sub=3, dt=0.02)
        batch = step_arrays(x, u, 0.02, cfg, SCEN, force)
        for i in range(n):
            single = step_arrays(x[i], u[i], 0.02, cfg, SCEN,
                                 None if force is None else force[i])
            assert single.shape == (6,)
            np.testing.assert_array_equal(single, batch[i])
        assert np.isnan(batch[0, 3:]).all()


class TestRollout:
    def test_empty_schedule_rejected(self):
        cfg = IntegratorConfig(dt=0.01)
        with pytest.raises(ValueError):
            rollout(X0, [], cfg, SCEN)

    def test_prefix_stability(self):
        cfg = IntegratorConfig(method="rk4", n_sub=2, dt=0.02)
        inputs = [FORCED_U] * 20
        full, _ = rollout(X0, inputs, cfg, SCEN)
        part, _ = rollout(X0, inputs[:7], cfg, SCEN)
        np.testing.assert_array_equal(full[:8], part)

    def test_failing_knot_reported(self):
        cfg = IntegratorConfig(method="euler", n_sub=1, dt=5.0)
        crazy = ControlInput(0.0, 0.0, np.array([1e200, 0.0, 0.0]), 0.0)
        with pytest.raises((IntegrationError, SingularityError)) as err:
            rollout(X0, [ZERO_INPUT, crazy, crazy, crazy], cfg, SCEN)
        assert "knot" in str(err.value)

    def test_batched_rollout_matches_plain(self):
        cfg = IntegratorConfig(method="rk4", n_sub=3, dt=0.05)
        inputs = [FORCED_U] * 10
        states, _ = rollout(X0, inputs, cfg, SCEN)
        u_arr = np.tile(FORCED_U.as_array(), (10, 1))
        batch = rollout_arrays(np.stack([X0.as_array()] * 4), np.stack([u_arr] * 4),
                               0.05, cfg, SCEN)
        for i in range(4):
            np.testing.assert_allclose(batch[i], states, rtol=1e-12)


class TestProperties:
    def test_convergence_orders(self):
        ref = final_position(REFERENCE)

        def err(method, n):
            return np.linalg.norm(final_position(integrate_forced(method, n, 1)) - ref)

        order_rk4 = np.log2(err("rk4", 50) / err("rk4", 100))
        order_euler = np.log2(err("euler", 200) / err("euler", 400))
        assert 3.5 < order_rk4 < 4.5
        assert 0.8 < order_euler < 1.2

    def test_substepping_equivalence_exact(self):
        cfg_a = IntegratorConfig(method="rk4", n_sub=4, dt=0.2)
        cfg_b = IntegratorConfig(method="rk4", n_sub=1, dt=0.05)
        qa = step(X0, FORCED_U, cfg_a, SCEN)
        qb = X0
        for _ in range(4):
            qb = step(qb, FORCED_U, cfg_b, SCEN)
        np.testing.assert_array_equal(qa.as_array(), qb.as_array())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="heun")
        with pytest.raises(ValueError):
            IntegratorConfig(n_sub=0)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0)
