"""RK4 integration checked against closed-form ballistics and a fine-step
reference."""

import numpy as np
import pytest

from wallhopper import integrator, model, mpc, planner, simulator
from wallhopper.integrator import (
    COMPLEX_STEP,
    IntegratorConfig,
    input_tangents,
    knot_rows,
    perturbations,
    rollout_arrays,
    rollout_jacobian,
    step_arrays,
    step_jacobians,
    substep_schedule,
)
from wallhopper.model import (
    Scenario,
    inverse_kinematics,
    jacobian_arrays,
    position_arrays,
)

SCEN = Scenario()


def make_state(p, v=None):
    psi, l1, l2 = inverse_kinematics(np.asarray(p, dtype=float), SCEN)
    if v is None:
        return np.array([psi, l1, l2, 0.0, 0.0, 0.0])
    A = jacobian_arrays(psi, l1, l2, SCEN.d_a)
    qdot = np.linalg.solve(A, np.asarray(v, dtype=float))
    return np.array([psi, l1, l2, *qdot])


def final_position(states):
    return position_arrays(states[-1, 0], states[-1, 1], states[-1, 2], SCEN.d_a)


# A smooth forced trajectory shared by the accuracy tests: constant rope pull
# plus a small propeller push over 1.6 s.
FORCED_U = np.array([-30.0, -20.0, 0.0, 0.0, 0.0, 5.0])
T_END = 1.6
X0 = make_state([0.4, 2.5, -6.0], [1.0, 0.3, 2.2])


def integrate_forced(n_knots, n_sub):
    return rollout_arrays(X0, np.tile(FORCED_U, (n_knots, 1)), T_END / n_knots,
                          IntegratorConfig(n_sub=n_sub), SCEN)


REFERENCE = integrate_forced(16000, 1)

# A constant downward force, as the benchmark's disturbed MPC episode has it.
DOWN_20 = simulator.DisturbanceSpec("constant", [0.0, 0.0, -20.0])


class TestStep:
    def test_free_fall_matches_closed_form(self):
        p0, v0 = np.array([0.2, 2.5, -6.0]), np.array([0.5, 0.2, 1.0])
        states = rollout_arrays(make_state(p0, v0), np.zeros((1000, 6)), 0.001,
                                IntegratorConfig(n_sub=1), SCEN)
        p_exact = p0 + v0 * 1.0 + 0.5 * SCEN.gravity
        assert abs(final_position(states)[2] - p_exact[2]) < 1e-6

    def test_substepped_rk4_close_to_fine_reference(self):
        ref = final_position(REFERENCE)
        err = np.linalg.norm(final_position(integrate_forced(160, 5)) - ref)
        assert err < 0.05


def random_states_and_inputs(rng, n):
    """n states, in domain except row 0 (a NaN row), and n inputs."""
    x = np.stack([make_state([rng.uniform(0.1, 2.0), rng.uniform(0.0, 5.0),
                              rng.uniform(-9.0, -3.0)],
                             rng.uniform(-2.0, 2.0, 3)) for _ in range(n)])
    x[0, 1:3] = 1.0, 10.0                            # out of domain: NaN row
    u = np.column_stack([rng.uniform(-60, 0, (n, 2)), rng.uniform(-50, 50, (n, 4))])
    return x, u


def add_force(u, force):
    """u with force added to its external force u[..., 2:5]."""
    u = np.array(u, dtype=float)
    u[..., 2:5] += force
    return u


def assert_rows_match_batch(x, u, dt, cfg, scen=SCEN):
    """Each state stepped alone equals its row of the batched step, bit for
    bit; returns the batched step."""
    batch = step_arrays(x, u, dt, cfg, scen)
    for i in range(x.shape[0]):
        single = step_arrays(x[i], u[i], dt, cfg, scen)
        assert single.shape == (6,) and single.dtype == float
        np.testing.assert_array_equal(single, batch[i])
    return batch


class TestSingleStatePath:
    """One state is stepped on Python floats; it must match its row of a
    batched step bit for bit."""

    @pytest.mark.parametrize("with_force", [False, True])
    def test_single_row_matches_batch(self, with_force):
        rng = np.random.default_rng(11)
        x, u = random_states_and_inputs(rng, 40)
        if with_force:
            u = add_force(u, rng.normal(0.0, 20.0, (40, 3)))
        batch = assert_rows_match_batch(x, u, 0.02, IntegratorConfig(n_sub=3))
        assert np.isnan(batch[0, 3:]).all()

    @pytest.mark.parametrize("n_sub", [1, 5])
    def test_fused_loop_matches_batch(self, n_sub):
        rng = np.random.default_rng(12)
        x, u = random_states_and_inputs(rng, 20)
        assert_rows_match_batch(x, add_force(u, rng.normal(0.0, 20.0, (20, 3))), 0.05,
                                IntegratorConfig(n_sub=n_sub))

    def test_leaving_the_domain_mid_step(self):
        # Both ropes shorten at 5 m/s from l1 + l2 = 5.2 m > d_a: the state
        # leaves the domain (l1 + l2 < d_a) during the step, and the NaN of
        # that stage propagates to the end of the step.
        x = np.array([[0.3, 2.6, 2.6, 0.0, -5.0, -5.0]])
        cfg = IntegratorConfig(n_sub=5)
        assert np.isfinite(step_arrays(x[0], np.zeros(6), 0.01, cfg, SCEN)).all()
        stepped = assert_rows_match_batch(x, np.zeros((1, 6)), 0.05, cfg)
        assert np.isnan(stepped[0, 3:]).all()

    # Rolled out from each state: out of the domain (r^2 <= 0, l2 = 0 or a
    # non-finite psi) a stage's accelerations are NaN.
    @pytest.mark.parametrize("x, scen", [
        ([0.3, 2.6, 2.6, 0.0, -5.0, -5.0], SCEN),       # r^2 reaches 0 mid-step
        ([0.3, 2.0, 3.0, 0.1, 0.2, -0.2], SCEN),        # r^2 = 0 exactly: l1 + l2 = d_a
        ([np.inf, 3.0, 4.0, 0.1, 0.2, -0.2], SCEN),
        ([-np.inf, 3.0, 4.0, 0.1, 0.2, -0.2], SCEN),
        ([np.nan, 3.0, 4.0, 0.1, 0.2, -0.2], SCEN),
        ([0.3, 3.0, 4.0, 1e154, -1e154, 1e153], SCEN),  # squares near overflow
        # At the right anchor, where r^2 rounds to 1.8e-15 > 0 and the float
        # loop would divide by l2 = 0.
        ([0.3, 2.999999999999914, 0.0, 0.1, 0.2, -0.2], SCEN.with_(d_a=3.0)),
    ], ids=["r2_reaches_0", "r2_exactly_0", "psi_inf", "psi_minus_inf", "psi_nan",
            "rates_near_overflow", "l2_exactly_0"])
    def test_domain_exit(self, x, scen, monkeypatch):
        x = np.array(x)
        u = np.tile([-20.0, -10.0, 1.0, -2.0, 3.0, 4.0], (4, 1))
        cfg = IntegratorConfig(n_sub=3)
        single = rollout_arrays(x, u, 0.02, cfg, scen)
        np.testing.assert_array_equal(single, rollout_arrays(x[None], u[None], 0.02, cfg,
                                                             scen)[0])
        assert np.isnan(single[-1]).any()
        # The loop catches nothing: a ValueError, say from a bug,
        # propagates instead of falling back to the arrays.
        chord = integrator._chord_and_radius

        def raising(*args):
            chord(*args)
            raise ValueError("inside the loop")

        monkeypatch.setattr(integrator, "_chord_and_radius", raising)
        with pytest.raises(ValueError, match="inside the loop"):
            rollout_arrays(x, u, 0.02, cfg, scen)

    def test_integer_state_is_stepped_as_floats(self):
        x = np.array([0, 3, 4, 1, 0, -1])
        u = np.array([-20.0, -10.0, 0.0, 0.0, 0.0, 3.0])
        cfg = IntegratorConfig(n_sub=3)
        stepped = step_arrays(x, u, 0.05, cfg, SCEN)
        assert stepped.dtype == float
        np.testing.assert_array_equal(stepped, step_arrays(x.astype(float), u, 0.05, cfg,
                                                           SCEN))
        np.testing.assert_array_equal(stepped, step_arrays(x[None], u[None], 0.05, cfg,
                                                           SCEN)[0])


class TestSingleStateStaysOffNumpy:
    """Every single real state, in every caller's form, is stepped without
    the array binding of the kernel."""

    @pytest.fixture(autouse=True)
    def no_array_binding(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a single state took the array binding")

        monkeypatch.setattr(integrator, "state_derivative_arrays", fail)

    # Any real scalar length: an int or a 0-d array once took the array
    # binding and made plan_jump about 4x slower.
    @pytest.mark.parametrize("dt", [0.02, np.float64(0.02), 1, np.array(0.02)],
                             ids=["float", "float64", "int", "0d_array"])
    @pytest.mark.parametrize("n_sub", [1, 5])
    @pytest.mark.parametrize("force", [None, np.array([3.0, -2.0, 5.0])],
                             ids=["no_force", "force"])
    def test_step(self, dt, n_sub, force):
        u = FORCED_U if force is None else add_force(FORCED_U, force)
        x = step_arrays(X0, u, dt, IntegratorConfig(n_sub=n_sub), SCEN)
        assert x.shape == (6,) and np.isfinite(x).all()

    def test_single_state_rollout(self):
        states = rollout_arrays(X0, np.tile(FORCED_U, (10, 1)), 0.05, IntegratorConfig(),
                                SCEN)
        assert states.shape == (11, 6) and np.isfinite(states).all()

    def test_open_loop_episode(self, frozen_track_plan):
        # The disturbance rides in the input's u[2:5] on the steps it acts.
        for disturbance in (None, DOWN_20,
                            simulator.DisturbanceSpec("impulsive", [30.0, 0.0, -20.0],
                                                      t_start=0.3)):
            trace = simulator.run_episode(frozen_track_plan, SCEN, controller="open_loop",
                                          disturbance=disturbance)
            assert np.isfinite(trace.e_a).all()
            assert np.any(trace.disturbance != 0.0) == (disturbance is not None)

    def test_mpc_episode(self, frozen_track_plan, monkeypatch):
        # The MPC's Jacobians step complex batches on the array binding by
        # design; the plant's steps and the predictions, all real single
        # states, stay off it.
        arrays, calls = model.state_derivative_arrays, []

        def complex_only(x, u, scenario):
            assert np.iscomplexobj(x), "a single state took the array binding"
            calls.append(None)
            return arrays(x, u, scenario)

        monkeypatch.setattr(integrator, "state_derivative_arrays", complex_only)
        trace = simulator.run_episode(frozen_track_plan, SCEN, controller="mpc",
                                      disturbance=DOWN_20,
                                      mpc_cfg=mpc.MpcConfig(n_horizon=2))
        assert np.isfinite(trace.e_a).all() and calls


def random_rows(rng, n):
    """n in-domain states with random rates and inputs of both signs."""
    x = np.stack([make_state([rng.uniform(0.1, 2.0), rng.uniform(0.0, 5.0),
                              rng.uniform(-9.0, -3.0)], rng.uniform(-2.0, 2.0, 3))
                  for _ in range(n)])
    u = np.column_stack([rng.uniform(-60, 0, (n, 2)), rng.uniform(-50, 50, (n, 4))])
    return x, u, rng.uniform(0.02, 0.1, n)


# The start state and every input of a step, u's six entries and dt: all
# 13 directions.
ALL_DIRECTIONS = perturbations(np.arange(7))


def substep_starts(x, u, dt, cfg):
    """The states (..., n_sub, 6) each row's step (x, u, dt) starts its
    sub-steps from, as step_jacobians takes them."""
    u = np.asarray(u)[..., None, :]
    return rollout_arrays(x, *substep_schedule(u, np.asarray(dt)[..., None], cfg),
                          SCEN)[..., :-1, :]


def substep_rollout(x0, u, dt, cfg):
    """A schedule's states at sub-step resolution, as rollout_jacobian takes
    them."""
    return rollout_arrays(x0, *substep_schedule(u, dt, cfg), SCEN)


class TestStepJacobians:
    """The complex-step Jacobian against differences of the real step."""

    def test_columns_match_central_differences(self):
        rng = np.random.default_rng(21)
        x, u, dt = random_rows(rng, 8)
        cfg = IntegratorConfig(n_sub=3)
        J = step_jacobians(substep_starts(x, u, dt, cfg), u, dt, ALL_DIRECTIONS, cfg, SCEN)
        assert J.shape == (8, 6, 13)
        base = np.column_stack([x, u, dt])
        for j in range(13):
            h = 1e-6 * max(1.0, np.max(np.abs(base[:, j])))
            hi, lo = base.copy(), base.copy()
            hi[:, j] += h
            lo[:, j] -= h
            diff = (step_arrays(hi[:, :6], hi[:, 6:12], hi[:, 12], cfg, SCEN)
                    - step_arrays(lo[:, :6], lo[:, 6:12], lo[:, 12], cfg, SCEN)) / (2 * h)
            np.testing.assert_allclose(J[:, :, j], diff, rtol=1e-7,
                                       atol=1e-7 * np.max(np.abs(diff)))

    def test_chosen_inputs_equal_their_full_columns(self):
        # Each row differentiates by its own three inputs, in its own order;
        # row 0 is out of domain.
        rng = np.random.default_rng(24)
        x, u, dt = random_rows(rng, 8)
        x[0, 1:3] = 1.0, 10.0
        cfg = IntegratorConfig(n_sub=3)
        cols = np.stack([rng.permutation(7)[:3] for _ in range(8)])
        starts = substep_starts(x, u, dt, cfg)
        J = step_jacobians(starts, u, dt, perturbations(cols), cfg, SCEN)
        assert J.shape == (8, 6, 9)
        full = step_jacobians(starts, u, dt, ALL_DIRECTIONS, cfg, SCEN)
        np.testing.assert_array_equal(J[:, :, :6], full[:, :, :6])
        np.testing.assert_array_equal(J[:, :, 6:],
                                      np.take_along_axis(full[:, :, 6:], cols[:, None], -1))
        assert np.isnan(J[0, 3:]).all() and np.isfinite(J[1:]).all()

    def test_real_part_is_the_real_step(self):
        rng = np.random.default_rng(22)
        x, u, dt = random_rows(rng, 8)
        cfg = IntegratorConfig(n_sub=3)
        x_c = x + 1e-30j * rng.normal(size=x.shape)
        u_c = u + 1e-30j * rng.normal(size=u.shape)
        stepped = step_arrays(x_c, u_c, dt + 1e-30j, cfg, SCEN)
        np.testing.assert_allclose(stepped.real, step_arrays(x, u, dt, cfg, SCEN),
                                   rtol=1e-14, atol=1e-14)

    def test_single_complex_state_stays_complex(self):
        # One 6-vector state would take the float path if it were real; a
        # complex one must keep its imaginary part, as in a batch.
        rng = np.random.default_rng(23)
        x, u, dt = random_rows(rng, 3)
        x_c = x + 1e-30j * rng.normal(size=x.shape)
        cfg = IntegratorConfig(n_sub=2)
        batch = step_arrays(x_c, u, 0.05, cfg, SCEN)
        for i in range(3):
            np.testing.assert_array_equal(step_arrays(x_c[i], u[i], 0.05, cfg, SCEN),
                                          batch[i])
        assert np.all(batch.imag != 0.0)

    def test_complex_rollout_keeps_its_dtype(self):
        inputs = np.tile(FORCED_U, (10, 1)).astype(complex)
        inputs[3, 0] += 1e-30j
        cfg = IntegratorConfig(n_sub=2)
        states = rollout_arrays(X0, inputs, 0.05, cfg, SCEN)
        assert states.dtype == complex
        np.testing.assert_array_equal(states[:4].imag, 0.0)
        assert np.all(states[5:, 3:].imag != 0.0)
        np.testing.assert_allclose(states.real,
                                   rollout_arrays(X0, inputs.real, 0.05, cfg, SCEN),
                                   rtol=1e-14, atol=1e-14)

    def test_out_of_domain_row_is_nan(self):
        x = np.array([[0.1, 1.0, 10.0, 0.0, 0.0, 0.0]])      # l1 + d_a < l2
        u, cfg = np.zeros((1, 6)), IntegratorConfig()
        J = step_jacobians(substep_starts(x, u, 0.05, cfg), u, 0.05, ALL_DIRECTIONS, cfg, SCEN)
        assert np.isnan(J[0, 3:]).all()

    def test_knot_states_rejected(self):
        rng = np.random.default_rng(25)
        x, u, dt = random_rows(rng, 4)
        with pytest.raises(ValueError, match="sub-step states"):
            step_jacobians(x, u, dt, ALL_DIRECTIONS, IntegratorConfig(n_sub=5), SCEN)


class TestRolloutTangents:
    """The knot tangents of rollout_jacobian against a complex step through
    a loop of step_arrays over the whole schedule, under a linear map from
    the decision vector to the step inputs and lengths."""

    @staticmethod
    def linear_inputs(K, n, per_step, seed=41, moves=None):
        """moves (K, 7), if given, says which of u's entries and dt each
        step's inputs depend on."""
        rng = np.random.default_rng(seed)
        u0 = FORCED_U + rng.normal(scale=5.0, size=(K, 6))
        W_u = rng.normal(size=(n, K, 6))
        dt0 = rng.uniform(0.03, 0.08, K)
        W_dt = 1e-3 * rng.normal(size=(n, K))
        if moves is not None:
            W_u, W_dt = W_u * moves[:, :6], W_dt * moves[:, 6]

        def step_inputs(Z):
            u = u0 + np.tensordot(Z, W_u, axes=1)
            if per_step:
                return u, dt0 + Z @ W_dt
            return u, np.full(u.shape[:-1], 0.05)    # real, fixed lengths
        return step_inputs

    @staticmethod
    def oracle(step_inputs, z, cfg):
        h = 1e-30
        u, dt = step_inputs(z + 1j * h * np.eye(z.size))    # one row per direction
        x = np.tile(X0, (z.size, 1)).astype(complex)
        out = [x]
        for k in range(u.shape[1]):
            x = step_arrays(x, u[:, k], dt[:, k], cfg, SCEN)
            out.append(x)
        return np.stack(out, axis=1).imag.reshape(z.size, -1).T / h

    @staticmethod
    def value(Z, states):
        """Z itself, then every knot state."""
        return np.concatenate([Z, states.reshape(Z.shape[:-1] + (-1,))], axis=-1)

    @pytest.mark.parametrize("per_step", [True, False])
    def test_match_complex_step_through_the_schedule(self, per_step):
        K, n, cfg = 9, 5, IntegratorConfig(n_sub=3)
        step_inputs = self.linear_inputs(K, n, per_step)
        z = np.random.default_rng(42).normal(size=n)
        states = substep_rollout(X0, *step_inputs(z), cfg)
        J = rollout_jacobian(self.value, z, states, *step_inputs(z),
                             input_tangents(step_inputs, n), cfg, SCEN)
        assert J.shape == (n + 6 * (K + 1), n)
        np.testing.assert_array_equal(J[:n], np.eye(n))
        np.testing.assert_array_equal(J[n:n + 6], 0.0)         # the start state
        ref = self.oracle(step_inputs, z, cfg)
        np.testing.assert_allclose(J[n:], ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("per_step", [True, False])
    def test_no_steps(self, per_step):
        n = 4
        step_inputs = self.linear_inputs(0, n, per_step)
        J = rollout_jacobian(self.value, np.ones(n), X0[None], *step_inputs(np.ones(n)),
                             input_tangents(step_inputs, n), IntegratorConfig(), SCEN)
        np.testing.assert_array_equal(J, np.vstack([np.eye(n), np.zeros((6, n))]))


def full_direction_jacobian(value, z, states, step_inputs, cfg):
    """rollout_jacobian's chain built by hand from the full 13-direction
    step Jacobian: B = J_(u,dt) w over all 7 inputs of every step.  states
    are the schedule's sub-step states."""
    h = COMPLEX_STEP
    dz = 1j * h * np.eye(z.size)
    u, dt = step_inputs(z)
    u_c, dt_c = step_inputs(z + dz)
    w = np.moveaxis(np.concatenate([u_c.imag, dt_c.imag[..., None]], axis=-1), 0, -1) / h
    J = step_jacobians(states[:-1].reshape(len(u), cfg.n_sub, 6), u, dt, ALL_DIRECTIONS, cfg,
                       SCEN)
    B = J[:, :, 6:] @ w
    S = np.zeros((len(J) + 1, 6, z.size))
    for k in range(len(J)):
        S[k + 1] = J[k, :, :6] @ S[k] + B[k]
    return value(z + dz, knot_rows(states, cfg) + 1j * h * np.moveaxis(S, -1, 0)).imag.T / h


def window_inputs(ctl, k):
    """The schedule of ctl's tick k as a function of its deviations, built
    as mpc.TrackingController._solve builds it."""
    window = slice(k + 1, k + 1 + ctl.cfg.n_horizon)
    ff, dt = ctl.schedule[0][window, :2], ctl.schedule[1][window]
    return lambda Z: mpc._window_inputs(Z, ff, dt, ctl.f_scale)


def assert_schedule_at(step_inputs, z, u, dt):
    """(u, dt), as a caller passed them to rollout_jacobian, are
    step_inputs(z) to the bit."""
    u_z, dt_z = step_inputs(z)
    assert u.tobytes() == u_z.tobytes() and np.asarray(dt).tobytes() == dt_z.tobytes()


class TestTrimmedDirections:
    """rollout_jacobian differentiates each step only by the inputs the
    schedule moves; its result equals, bit for bit, the chain over all 13
    directions of every step.  TestRolloutTangents.test_no_steps pins the
    exact result for K = 0."""

    def test_planner_schedule(self, frozen_track_plan):
        # Thrust step: the leg force moves, dt = t_th does not; knot steps:
        # the two rope forces and t_f / N.
        plan = frozen_track_plan
        prob = planner.ShootingProblem(plan.p0, plan.p_target, SCEN, planner.PlannerWeights(),
                                       IntegratorConfig())
        z = np.concatenate([plan.f_leg, plan.rope_left, plan.rope_right, [plan.t_f]])
        z = z / prob.scale

        def value(Z, s):
            return np.column_stack(prob.cost_and_constraints(Z, s))

        states = substep_rollout(prob.x_rest, *prob.step_inputs(z), prob.cfg)
        J = rollout_jacobian(value, z, states, *prob.step_inputs(z), prob.tangents, prob.cfg,
                             SCEN)
        np.testing.assert_array_equal(
            J, full_direction_jacobian(value, z, states, prob.step_inputs, prob.cfg))
        np.testing.assert_array_equal(J[0], prob.gradient(z))

    def test_mpc_schedule(self, frozen_track_plan, monkeypatch):
        # Rope forces and propeller move; every length is the fixed period.
        calls = []
        jacobian = mpc.rollout_jacobian

        def recorded(*args):
            calls.append(args)
            return jacobian(*args)

        monkeypatch.setattr(mpc, "rollout_jacobian", recorded)
        plan = frozen_track_plan
        ctl = mpc.TrackingController(plan, SCEN, mpc.MpcConfig.from_plan(plan, max_iter=3))
        ctl.command(plan.states[3] + np.array([0, 0, 0, 0.05, 0.1, 0.0]), 3)
        assert calls
        step_inputs = window_inputs(ctl, 3)
        for value, z, states, u, dt, tangents, cfg, scen in calls:
            assert_schedule_at(step_inputs, z, u, dt)
            assert np.all(step_inputs(z + 1j)[1].imag == 0.0)
            np.testing.assert_array_equal(
                jacobian(value, z, states, u, dt, tangents, cfg, scen),
                full_direction_jacobian(value, z, states, step_inputs, cfg))

    @pytest.mark.parametrize("per_step", [True, False])
    def test_steps_that_move_fewer_inputs(self, per_step):
        # Most steps move u0, u1 and, with per_step, dt; step 1 moves u5
        # alone, step 3 all its inputs and step 4 none: every other step is
        # padded.  Without per_step every length is 0.05, where the real
        # quotient 0.05 / n_sub rounds differently from the complex one.
        K, n, cfg = 7, 5, IntegratorConfig(n_sub=5)
        moves = np.zeros((K, 7), dtype=bool)
        moves[:, [0, 1, 6]] = True
        moves[1], moves[3], moves[4] = np.arange(7) == 5, True, False
        step_inputs = TestRolloutTangents.linear_inputs(K, n, per_step, moves=moves)
        z = np.random.default_rng(44).normal(size=n)
        states = substep_rollout(X0, *step_inputs(z), cfg)
        value = TestRolloutTangents.value
        J = rollout_jacobian(value, z, states, *step_inputs(z), input_tangents(step_inputs, n),
                             cfg, SCEN)
        np.testing.assert_array_equal(J, full_direction_jacobian(value, z, states, step_inputs,
                                                                 cfg))
        np.testing.assert_allclose(J[n:], TestRolloutTangents.oracle(step_inputs, z, cfg),
                                   rtol=1e-12, atol=1e-12 * np.max(np.abs(J[n:])))


class TestTangentsOncePerLayout:
    """Each owner builds its layout once: per ShootingProblem and per
    TrackingController, whose ticks read slices of the layout of its
    longest window.  Their schedules are affine in the decision vector, so
    every field of the layout a Jacobian reads equals, byte for byte, one
    built afresh at the point itself: the tangents by a complex step
    through step_inputs there, the perturbation and direction blocks entry
    by entry.  So does the Jacobian taken with it."""

    @staticmethod
    def layout_at(step_inputs, z):
        h, n = COMPLEX_STEP, z.size
        u_c, dt_c = step_inputs(z + 1j * h * np.eye(n))
        w = np.moveaxis(np.concatenate([u_c.imag, dt_c.imag[..., None]], axis=-1), 0, -1) / h
        moves = np.any(w != 0.0, axis=-1)
        cols = np.argsort(~moves, axis=-1, kind="stable")[:, :moves.sum(axis=-1).max()]
        K, m = cols.shape
        e = np.zeros((K, 1, 6 + m, 13), dtype=complex)
        for k in range(K):
            for j in range(6):
                e[k, 0, j, j] = 1j * h
            for i, c in enumerate(cols[k]):
                e[k, 0, 6 + i, 6 + c] = 1j * h
        directions = np.zeros((n, n), dtype=complex)
        directions[np.arange(n), np.arange(n)] = 1j * h
        return integrator.Layout(np.take_along_axis(w, cols[:, :, None], axis=1), e,
                                 directions)

    def check(self, value, z, states, step_inputs, layout, cfg):
        K, _, m_e, _ = layout.perturbations.shape
        assert layout.w.shape == (K, m_e - 6, z.size)
        here = self.layout_at(step_inputs, z)
        assert len(layout) == len(here) == 3
        for cached, fresh in zip(layout, here):
            assert (cached.shape, cached.dtype) == (fresh.shape, fresh.dtype)
            assert cached.tobytes() == fresh.tobytes()
            assert not cached.flags.writeable
        u, dt = step_inputs(z)
        J = rollout_jacobian(value, z, states, u, dt, layout, cfg, SCEN)
        assert J.tobytes() == rollout_jacobian(value, z, states, u, dt, here, cfg,
                                               SCEN).tobytes()

    def test_planner(self, frozen_track_plan):
        plan = frozen_track_plan
        prob = planner.ShootingProblem(plan.p0, plan.p_target, SCEN, planner.PlannerWeights(),
                                       IntegratorConfig())
        guess = prob.initial_guess()
        for z in (guess, guess + 0.05 * np.random.default_rng(45).normal(size=guess.size)):
            states = substep_rollout(prob.x_rest, *prob.step_inputs(z), prob.cfg)
            assert np.all(np.isfinite(states))
            self.check(lambda Z, s: np.column_stack(prob.cost_and_constraints(Z, s)), z,
                       states, prob.step_inputs, prob.tangents, prob.cfg)

    def test_mpc_every_horizon(self, frozen_track_plan, monkeypatch):
        calls = []
        jacobian = mpc.rollout_jacobian

        def recorded(*args):
            calls.append(args)
            return jacobian(*args)

        monkeypatch.setattr(mpc, "rollout_jacobian", recorded)
        plan = frozen_track_plan
        ctl = mpc.TrackingController(plan, SCEN)
        assert ctl.cfg.n_horizon == 12
        rates = np.array([0.0, 0.0, 0.0, 0.05, 0.1, 0.0])
        ticks = []
        for k in range(ctl.n_ticks):
            before = len(calls)
            ctl.command(plan.states[k] + rates, k)
            ticks += [k] * (len(calls) - before)
        horizons = set()
        for k, (value, z, states, u, dt, layout, cfg, scen) in zip(ticks, calls):
            H = z.size // 3
            horizons.add(H)
            step_inputs = window_inputs(ctl, k)
            assert_schedule_at(step_inputs, z, u, dt)
            self.check(value, z, states, step_inputs, layout, cfg)
        assert horizons == set(range(1, 13))

    def test_mpc_force_limits_in_turn(self, frozen_track_plan, monkeypatch):
        # Two controllers under different force limits, ticked in turn in
        # one process: each tick's layout is its own controller's, equal to
        # one built afresh for that controller's window.
        layouts = []
        jacobian = mpc.rollout_jacobian

        def recorded(*args):
            layouts.append(args[5])
            return jacobian(*args)

        monkeypatch.setattr(mpc, "rollout_jacobian", recorded)
        plan = frozen_track_plan
        controllers = [mpc.TrackingController(plan, scen)
                       for scen in (SCEN, SCEN.with_(f_p_max=0.0))]
        assert controllers[0].f_scale[2] != controllers[1].f_scale[2]
        rates = np.array([0.0, 0.0, 0.0, 0.05, 0.1, 0.0])
        for k in range(plan.n_knots):
            for ctl in controllers:
                del layouts[:]
                ctl.command(plan.states[k] + rates, k)
                assert layouts
                H = min(ctl.cfg.n_horizon, plan.n_knots - k)
                fresh = integrator.input_tangents(window_inputs(ctl, k), 3 * H)
                for layout in layouts:
                    for got, expected in zip(layout, fresh):
                        assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
                        assert got.tobytes() == expected.tobytes()


class TestRollout:
    def test_prefix_stability(self):
        cfg = IntegratorConfig(n_sub=2)
        inputs = np.tile(FORCED_U, (20, 1))
        full = rollout_arrays(X0, inputs, 0.02, cfg, SCEN)
        part = rollout_arrays(X0, inputs[:7], 0.02, cfg, SCEN)
        np.testing.assert_array_equal(full[:8], part)

    def test_batched_rollout_matches_plain(self):
        # One state is stepped on Python floats, four on numpy arrays.
        cfg = IntegratorConfig(n_sub=3)
        inputs = np.tile(FORCED_U, (10, 1))
        states = rollout_arrays(X0, inputs, 0.05, cfg, SCEN)
        batch = rollout_arrays(np.stack([X0] * 4), np.stack([inputs] * 4), 0.05, cfg,
                               SCEN)
        for i in range(4):
            np.testing.assert_allclose(batch[i], states, rtol=1e-12)


class TestPerStepLengths:
    """A length per step: the planner's and the MPC's step schedules."""

    K = 6

    def schedule(self, seed=43):
        rng = np.random.default_rng(seed)
        x, u, _ = random_rows(rng, 3)
        inputs = u[:, None, :] + rng.normal(scale=5.0, size=(3, self.K, 6))
        return x, inputs, rng.uniform(0.02, 0.08, (3, self.K))

    def test_single_state_steps_on_floats(self, substep_calls):
        x, inputs, dt = self.schedule()
        states = rollout_arrays(x[0], inputs[0], dt[0], IntegratorConfig(), SCEN)
        assert states.shape == (self.K + 1, 6) and np.isfinite(states).all()
        assert substep_calls == []

    @pytest.mark.parametrize("B", [1, K])
    def test_one_length_per_step_for_every_row(self, B):
        # dt (K,) with a batch of B schedules (B, K, 6): every row steps
        # step k for dt[k], at knot and at sub-step resolution.
        rng = np.random.default_rng(46)
        x, u, _ = random_rows(rng, B)
        inputs = u[:, None, :] + rng.normal(scale=5.0, size=(B, self.K, 6))
        dt = rng.uniform(0.02, 0.08, self.K)
        cfg = IntegratorConfig(n_sub=3)
        batch = rollout_arrays(x, inputs, dt, cfg, SCEN)
        sub = knot_rows(rollout_arrays(x, *substep_schedule(inputs, dt, cfg), SCEN), cfg)
        for i in range(B):
            ref = rollout_arrays(x[i], inputs[i], dt, cfg, SCEN)
            np.testing.assert_array_equal(batch[i], ref)
            np.testing.assert_array_equal(sub[i], ref)

    def test_match_step_by_step(self):
        x, inputs, dt = self.schedule()
        cfg = IntegratorConfig(n_sub=3)
        batch = rollout_arrays(x, inputs, dt, cfg, SCEN)
        ref = [x]
        for k in range(self.K):
            ref.append(step_arrays(ref[-1], inputs[:, k], dt[:, k], cfg, SCEN))
        np.testing.assert_array_equal(batch, np.stack(ref, axis=1))
        for i in range(3):
            ref = [x[i]]
            for k in range(self.K):
                ref.append(step_arrays(ref[-1], inputs[i, k], float(dt[i, k]), cfg, SCEN))
            np.testing.assert_array_equal(rollout_arrays(x[i], inputs[i], dt[i], cfg, SCEN),
                                          ref)

    def test_one_start_state_broadcasts_over_a_batch(self):
        x, inputs, dt = self.schedule()
        cfg = IntegratorConfig(n_sub=2)
        np.testing.assert_array_equal(
            rollout_arrays(x[0], inputs, dt, cfg, SCEN),
            rollout_arrays(np.stack([x[0]] * 3), inputs, dt, cfg, SCEN))


class TestWholeScheduleOnFloats:
    """One real state runs its whole schedule in one Python-float loop; each
    state equals stepping the step before it with step_arrays, on floats
    and as a batch of one row, bit for bit."""

    @staticmethod
    def step_by_step(x0, u, dt, cfg):
        floats, rows = [x0], [x0[None]]
        for k in range(len(u)):
            floats.append(step_arrays(floats[-1], u[k], float(dt[k]), cfg, SCEN))
            rows.append(step_arrays(rows[-1], u[k][None], dt[k][None], cfg, SCEN))
        return np.array(floats), np.concatenate(rows)

    @pytest.mark.parametrize("K, nan_step", [(0, None), (1, None), (12, None), (12, 5)])
    def test_equals_step_by_step(self, K, nan_step, substep_calls):
        rng = np.random.default_rng(45)
        x, u, _ = random_rows(rng, 1)
        inputs = u + rng.normal(scale=5.0, size=(K, 6))
        dt = rng.uniform(0.02, 0.08, K)
        if nan_step is not None:
            inputs[nan_step, 1] = np.nan
        cfg = IntegratorConfig(n_sub=3)
        states = rollout_arrays(x[0], inputs, dt, cfg, SCEN)
        assert substep_calls == []
        assert states.shape == (K + 1, 6)
        floats, rows = self.step_by_step(x[0], inputs, dt, cfg)
        np.testing.assert_array_equal(states, floats)
        np.testing.assert_array_equal(states, rows)
        if nan_step is not None:
            assert np.isfinite(states[:nan_step + 1]).all()
            assert np.isnan(states[nan_step + 1:, 3:]).all()


class TestSubstepSchedule:
    """A schedule rolled out at sub-step resolution passes through the knot
    states of the knot-resolution rollout, bit for bit."""

    @staticmethod
    def assert_knots_match(x0, u, dt, cfg):
        sub = rollout_arrays(x0, *substep_schedule(u, dt, cfg), SCEN)
        assert sub.shape[-2] == u.shape[-2] * cfg.n_sub + 1
        np.testing.assert_array_equal(knot_rows(sub, cfg),
                                      rollout_arrays(x0, u, dt, cfg, SCEN))

    def test_frozen_track_plan(self, frozen_track_plan):
        # The flight from lift-off, one fixed length for every knot step, as
        # the benchmark re-rolls it, and a batch of two (the array binding).
        plan, cfg = frozen_track_plan, IntegratorConfig()
        u = plan.input_schedule()
        self.assert_knots_match(plan.states[0], u, plan.dt, cfg)
        self.assert_knots_match(plan.states[:2], np.stack([u, u + 1.0]), plan.dt, cfg)

    def test_planner_schedule(self, frozen_track_plan):
        # The thrust step from rest, then the knot steps of length t_f / N.
        plan = frozen_track_plan
        prob = planner.ShootingProblem(plan.p0, plan.p_target, SCEN, planner.PlannerWeights(),
                                       IntegratorConfig())
        z = np.concatenate([plan.f_leg, plan.rope_left, plan.rope_right, [plan.t_f]])
        z = z / prob.scale
        u, dt = prob.step_inputs(z)
        self.assert_knots_match(prob.x_rest, u, dt, prob.cfg)
        np.testing.assert_array_equal(prob.rollout(z),
                                      rollout_arrays(prob.x_rest, u, dt, prob.cfg, SCEN))


class TestProperties:
    def test_convergence_orders(self):
        ref = final_position(REFERENCE)

        def err(n):
            return np.linalg.norm(final_position(integrate_forced(n, 1)) - ref)

        order_rk4 = np.log2(err(50) / err(100))
        assert 3.5 < order_rk4 < 4.5

    def test_substepping_equivalence_exact(self):
        xa = step_arrays(X0, FORCED_U, 0.2, IntegratorConfig(n_sub=4), SCEN)
        xb = X0
        for _ in range(4):
            xb = step_arrays(xb, FORCED_U, 0.05, IntegratorConfig(n_sub=1), SCEN)
        np.testing.assert_array_equal(xa, xb)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(n_sub=0)

    @pytest.mark.parametrize("n_sub", [5.0, 2.5, np.nan, "5"])
    def test_non_integer_n_sub_rejected(self, n_sub):
        with pytest.raises(ValueError, match="n_sub must be an integer"):
            IntegratorConfig(n_sub=n_sub)
        IntegratorConfig(n_sub=np.int64(5))
