"""Kinematics and dynamics of the reduced two-rope model, checked against
direct-norm, finite-difference and closed-form ballistic oracles, and the
rope geometry against hand-built rope axes."""

import numpy as np
import pytest

from wallhopper.integrator import IntegratorConfig, rollout_arrays
from wallhopper.model import (
    Ellipsoid,
    KinematicsError,
    Scenario,
    bias_arrays,
    inverse_kinematics,
    jacobian_arrays,
    position_arrays,
    rope_axes,
    state_derivative_arrays,
    state_derivative_scalar,
    static_rope_pull,
)

SCEN = Scenario()


def position(x):
    return position_arrays(x[0], x[1], x[2], SCEN.d_a)


def propeller_axis(psi):
    """Direction of the propeller force u[5]: the base X axis, normal to
    the plane of the ropes."""
    return np.array([np.cos(psi), 0.0, np.sin(psi)])


def accelerations(x, u, extra_force=None):
    """(psi_dd, l1_dd, l2_dd) from the batched kernel binding."""
    return state_derivative_arrays(x, u, SCEN, extra_force)[3:]


def oracle_terms(x):
    """A_d and b_d at the state x = (psi, l1, l2, rates)."""
    return jacobian_arrays(x[0], x[1], x[2], SCEN.d_a), bias_arrays(*x, SCEN.d_a)


def total_force(x, u, extra):
    """Gravity, leg, ropes along their axes, propeller and an extra force,
    assembled from the geometry alone."""
    p = position(x)
    return (SCEN.mass * SCEN.gravity + u[2:5] + extra
            + p / x[1] * u[0]
            + (p - SCEN.anchor_right) / x[2] * u[1]
            + propeller_axis(x[0]) * u[5])


def random_states(rng, n, with_rates=True):
    """Sample reachable states by picking Cartesian points and inverting."""
    p = np.column_stack([rng.uniform(0.05, 4.0, n),
                         rng.uniform(-1.0, 6.0, n),
                         rng.uniform(-12.0, -0.5, n)])
    states = np.zeros((n, 6))
    for i in range(n):
        psi, l1, l2 = inverse_kinematics(p[i], SCEN)
        states[i, :3] = psi, l1, l2
    if with_rates:
        states[:, 3] = rng.uniform(-1.0, 1.0, n)
        states[:, 4:6] = rng.uniform(-2.0, 2.0, (n, 2))
    return states


class TestForwardKinematics:
    def test_symmetric_ropes_midpoint(self):
        p = position_arrays(0.7, 6.0, 6.0, SCEN.d_a)
        assert p[1] == pytest.approx(2.5, abs=0.0)

    def test_zero_psi_in_wall_plane(self):
        p = position_arrays(0.0, 6.0, 7.0, SCEN.d_a)
        assert p[0] == pytest.approx(0.0, abs=1e-15)

    def test_distances_match_rope_lengths(self):
        p = position_arrays(0.3, 6.0, 7.0, SCEN.d_a)
        assert np.linalg.norm(p - SCEN.anchor_left) == pytest.approx(6.0, abs=1e-12)
        assert np.linalg.norm(p - SCEN.anchor_right) == pytest.approx(7.0, abs=1e-12)

    def test_rope_length_consistency_random(self):
        rng = np.random.default_rng(0)
        states = random_states(rng, 200, with_rates=False)
        p = position_arrays(states[:, 0], states[:, 1], states[:, 2], SCEN.d_a)
        np.testing.assert_allclose(np.linalg.norm(p, axis=1), states[:, 1], atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(p - SCEN.anchor_right, axis=1),
                                   states[:, 2], atol=1e-9)

    def test_inconsistent_lengths_give_nan(self):
        # No point lies 1 m from one anchor and 10 m from the other; only
        # the coordinate along the anchor line is still defined.
        p = position_arrays(0.3, 1.0, 10.0, SCEN.d_a)
        assert np.isnan(p[[0, 2]]).all()


class TestInverseKinematics:
    def test_round_trip_start_point(self):
        p = np.array([0.2, 2.5, -6.0])
        psi, l1, l2 = inverse_kinematics(p, SCEN)
        p_back = position_arrays(psi, l1, l2, SCEN.d_a)
        assert np.linalg.norm(p_back - p) < 1e-9

    def test_zero_x_gives_zero_psi(self):
        psi, _, _ = inverse_kinematics(np.array([0.0, 2.5, -6.0]), SCEN)
        assert psi == pytest.approx(0.0)

    def test_anchor_line_rejected(self):
        with pytest.raises(KinematicsError):
            inverse_kinematics(np.array([0.0, 2.5, 0.0]), SCEN)

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = np.array([rng.uniform(0.01, 4.0), rng.uniform(-1.0, 6.0),
                          rng.uniform(-12.0, -0.5)])
            psi, l1, l2 = inverse_kinematics(p, SCEN)
            p_back = position_arrays(psi, l1, l2, SCEN.d_a)
            assert np.linalg.norm(p_back - p) < 1e-9


class TestPropellerAxis:
    def test_plumb_configuration(self):
        np.testing.assert_allclose(propeller_axis(0.0), [1.0, 0.0, 0.0], atol=1e-15)

    def test_quarter_turn(self):
        np.testing.assert_allclose(propeller_axis(np.pi / 2), [0.0, 0.0, 1.0],
                                   atol=1e-12)

    def test_orthogonal_to_ropes_plane(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = random_states(rng, 1, with_rates=False)[0]
            axis = propeller_axis(x[0])
            p = position(x)
            assert abs(axis @ (p - SCEN.anchor_left)) < 1e-9
            assert abs(axis @ np.array([0.0, 1.0, 0.0])) < 1e-15
            assert np.linalg.norm(axis) == pytest.approx(1.0)


def fd_position_jacobian(x, h=1e-6):
    """Central-difference Jacobian of the forward kinematics."""
    J = np.zeros((3, 3))
    for j in range(3):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        pp = position_arrays(xp[0], xp[1], xp[2], SCEN.d_a)
        pm = position_arrays(xm[0], xm[1], xm[2], SCEN.d_a)
        J[:, j] = (pp - pm) / (2.0 * h)
    return J


class TestMassMatrixTerms:
    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        states = random_states(rng, 1000)
        A = jacobian_arrays(states[:, 0], states[:, 1], states[:, 2], SCEN.d_a)
        for i in range(states.shape[0]):
            J = fd_position_jacobian(states[i, :3])
            np.testing.assert_allclose(A[i], J, rtol=1e-5, atol=1e-7)

    def test_bias_zero_at_zero_rates(self):
        b = bias_arrays(0.4, 6.0, 7.0, 0.0, 0.0, 0.0, SCEN.d_a)
        np.testing.assert_allclose(b, 0.0, atol=1e-14)

    def test_zero_psi_is_ordinary(self):
        # psi = 0 puts the mass in the wall plane; A_d stays invertible
        # there, with det A_d = -l1 l2 / d_a, and the kernel is regular.
        rng = np.random.default_rng(13)
        l1, l2 = 6.0, 7.0
        x = np.array([0.0, l1, l2, *rng.uniform(-1.0, 1.0, 3)])
        u = np.array([*rng.uniform(-90, 0, 2), *rng.uniform(-50, 50, 4)])
        extra = rng.normal(0.0, 20.0, 3)
        A, b = oracle_terms(x)
        assert np.linalg.det(A) == pytest.approx(-l1 * l2 / SCEN.d_a, rel=1e-12)
        qdd = accelerations(x, u, extra)
        assert np.all(np.isfinite(qdd))
        np.testing.assert_allclose(A @ qdd + b, total_force(x, u, extra) / SCEN.mass,
                                   rtol=1e-9, atol=1e-9)


class TestDynamics:
    def test_free_fall_reproduces_gravity(self):
        x = np.array([0.5, 6.0, 7.0, 0.0, 0.0, 0.0])
        qdd = accelerations(x, np.zeros(6))
        A, b = oracle_terms(x)
        np.testing.assert_allclose(A @ qdd + b, SCEN.gravity, rtol=1e-8, atol=1e-12)

    def test_acceleration_matches_time_finite_difference(self):
        rng = np.random.default_rng(4)
        cfg = IntegratorConfig(n_sub=1)
        for _ in range(10):
            x0 = random_states(rng, 1)[0]
            u = np.array([rng.uniform(-40, 0), rng.uniform(-40, 0),
                          rng.uniform(-20, 20), rng.uniform(-20, 20),
                          rng.uniform(-20, 20), rng.uniform(-10, 10)])
            traj = rollout_arrays(x0, np.tile(u, (2, 1)), 1e-5, cfg, SCEN)
            p = position_arrays(traj[:, 0], traj[:, 1], traj[:, 2], SCEN.d_a)
            pdd_fd = (p[2] - 2 * p[1] + p[0]) / 1e-10
            qdd = accelerations(traj[1], u)
            A, b = oracle_terms(traj[1])
            np.testing.assert_allclose(A @ qdd + b, pdd_fd, rtol=1e-4, atol=1e-4)

    def test_newton_equation_with_all_forces(self):
        # A_d q_dd + b_d must equal the total force over m, assembled here
        # from the rope axes, the leg, the propeller axis and an extra force.
        rng = np.random.default_rng(9)
        for x in random_states(rng, 20):
            u = np.array([rng.uniform(-90, 0), rng.uniform(-90, 0),
                          *rng.uniform(-50, 50, 3), rng.uniform(-50, 50)])
            extra = rng.normal(0.0, 20.0, 3)
            qdd = accelerations(x, u, extra)
            A, b = oracle_terms(x)
            np.testing.assert_allclose(A @ qdd + b, total_force(x, u, extra) / SCEN.mass,
                                       rtol=1e-9, atol=1e-9)

    def test_ballistic_closed_form(self):
        # Zero rope/leg/propeller force must reproduce p0 + v0 t + g t^2 / 2.
        p0 = np.array([0.2, 2.5, -6.0])
        psi, l1, l2 = inverse_kinematics(p0, SCEN)
        v0 = np.array([0.8, 0.5, 2.0])
        A = jacobian_arrays(psi, l1, l2, SCEN.d_a)
        qdot = np.linalg.solve(A, v0)
        x0 = np.array([psi, l1, l2, *qdot])
        n_steps = 10000
        cfg = IntegratorConfig(n_sub=1)
        traj = rollout_arrays(x0, np.zeros((n_steps, 6)), 1e-4, cfg, SCEN)
        xf = traj[-1]
        p_end = position_arrays(xf[0], xf[1], xf[2], SCEN.d_a)
        t = n_steps * 1e-4
        p_exact = p0 + v0 * t + 0.5 * SCEN.gravity * t * t
        assert np.linalg.norm(p_end - p_exact) < 1e-6

    def test_cartesian_velocity_consistent(self):
        rng = np.random.default_rng(5)
        x = random_states(rng, 1)[0]
        v = jacobian_arrays(x[0], x[1], x[2], SCEN.d_a) @ x[3:]
        h = 1e-7
        x2 = x.copy()
        x2[:3] += h * x[3:]
        p1 = position_arrays(x[0], x[1], x[2], SCEN.d_a)
        p2 = position_arrays(x2[0], x2[1], x2[2], SCEN.d_a)
        np.testing.assert_allclose(v, (p2 - p1) / h, rtol=1e-5, atol=1e-6)


class TestBatchedKernels:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(6)
        states = random_states(rng, 32)
        u = np.zeros((32, 6))
        u[:, 0] = rng.uniform(-50, 0, 32)
        u[:, 1] = rng.uniform(-50, 0, 32)
        u[:, 5] = rng.uniform(-10, 10, 32)
        batch = state_derivative_arrays(states, u, SCEN)
        for i in range(32):
            single = state_derivative_arrays(states[i], u[i], SCEN)
            np.testing.assert_allclose(batch[i], single, rtol=1e-12)

    def test_out_of_domain_marks_nan(self):
        x = np.array([[0.3, 1.0, 10.0, 0, 0, 0],      # violates triangle inequality
                      [0.3, 6.0, 7.0, 0, 0, 0]])
        out = state_derivative_arrays(x, np.zeros((2, 6)), SCEN)
        assert np.isnan(out[0, 3:]).all()
        assert np.isfinite(out[1]).all()


def mixed_states(rng, n):
    """Reachable states, then out-of-domain lengths (r^2 <= 0), NaN entries,
    +-inf psi and huge rates mixed in."""
    x = random_states(rng, n)
    k = n // 8
    x[:k, 1] = rng.uniform(0.0, 12.0, k)                 # mostly unreachable
    x[:k, 2] = rng.uniform(0.0, 12.0, k)
    x[k:2 * k, 3:] *= 10.0 ** rng.uniform(100, 300, (k, 1))
    x[2 * k:3 * k, 0] = rng.choice([np.inf, -np.inf], k)
    x[np.arange(3 * k, 4 * k), rng.integers(0, 6, k)] = np.nan
    return x


class TestKernelBindings:
    """The numpy and Python-float bindings of the dynamics kernel agree bit
    for bit, NaN rows included."""

    def check_rows(self, scen, x, u, extra=None):
        batch = state_derivative_arrays(x, u, scen, extra)
        for i in range(x.shape[0]):
            e = None if extra is None else extra[i].tolist()
            single = state_derivative_scalar(x[i].tolist(), u[i].tolist(), scen, e)
            np.testing.assert_array_equal(np.array(single), batch[i])

    def test_bit_identical_on_mixed_states(self):
        rng = np.random.default_rng(7)
        x = mixed_states(rng, 2400)
        assert np.sum(np.isnan(state_derivative_arrays(x, np.zeros_like(x), SCEN)[:, 3])) > 600
        u = np.column_stack([rng.uniform(-90, 0, (2400, 2)),
                             rng.uniform(-300, 300, (2400, 3)),
                             rng.uniform(-50, 50, 2400)])
        u[:100, 2] = 1e300
        extra = rng.normal(0.0, 20.0, (2400, 3))
        self.check_rows(SCEN, x, u)
        self.check_rows(SCEN, x, u, extra)

    def test_zero_mass_matches(self):
        rng = np.random.default_rng(8)
        x = random_states(rng, 20)
        u = rng.uniform(-10.0, 0.0, (20, 6))
        self.check_rows(SCEN.with_(mass=0.0), x, u)

    def test_out_of_domain_row(self):
        x = [0.3, 1.0, 10.0, 0.1, 0.2, 0.3]
        out = state_derivative_scalar(x, [0.0] * 6, SCEN)
        assert out[:3] == x[3:] and np.isnan(out[3:]).all()
        out = state_derivative_scalar([np.inf, 6.0, 7.0, 0, 0, 0], [0.0] * 6, SCEN)
        assert np.isnan(out[3:]).all()


class TestRopeGeometry:
    @staticmethod
    def axes_by_hand(y, z, d_a):
        """Rope axes (anchor -> mass) of a CoM at (0, y, z), in the anchor plane."""
        a_l = np.array([0.0, y, z]) / np.hypot(y, z)
        a_r = np.array([0.0, y - d_a, z]) / np.hypot(y - d_a, z)
        return a_l, a_r

    @pytest.mark.parametrize("y, z", [(2.5, -6.0), (1.0, -3.0), (4.2, -0.8)])
    def test_pull_balances_gravity_in_the_anchor_plane(self, y, z):
        scen = SCEN.with_(f_r_max=1e6)          # no clipping
        a_l, a_r = self.axes_by_hand(y, z, scen.d_a)
        for got, want in zip(rope_axes([0.0, y, z], scen), (a_l, a_r)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        f = static_rope_pull(np.array([0.0, y, z]), scen)
        np.testing.assert_allclose(np.column_stack([a_l, a_r]) @ f,
                                   -scen.mass * scen.gravity, rtol=0, atol=1e-9)
        assert np.all(f <= 0.0)

    def test_pull_clipped_to_the_rope_limit(self):
        f = static_rope_pull(np.array([0.0, 2.5, -6.0]), SCEN.with_(f_r_max=1.0))
        np.testing.assert_array_equal(f, [-1.0, -1.0])

    def test_pull_off_the_plane_is_least_squares(self):
        p = np.array([0.5, 1.5, -4.0])
        A = np.column_stack(rope_axes(p, SCEN))
        f = static_rope_pull(p, SCEN)
        assert np.all((-SCEN.f_r_max < f) & (f < 0.0))
        np.testing.assert_allclose(A.T @ (A @ f + SCEN.mass * SCEN.gravity), 0.0,
                                   atol=1e-12)


class TestScenarioValidation:
    def test_defaults_are_consistent(self):
        s = Scenario()
        assert s.anchor_right[1] == s.d_a
        np.testing.assert_allclose(np.linalg.norm(s.wall_normal), 1.0)

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            Scenario(mu=-1.0)
        with pytest.raises(ValueError):
            Scenario(mass=-5.0)
        with pytest.raises(ValueError):
            Scenario(t_th=-0.1)

    @pytest.mark.parametrize("name, value", [
        ("d_a", np.nan), ("mass", np.nan), ("wall_offset", np.nan), ("mu", np.nan),
        ("f_leg_max", np.nan), ("f_r_max", np.inf), ("f_p_max", np.nan), ("t_th", np.nan),
        ("d_b", np.nan), ("d_w", np.nan), ("d_h", np.inf), ("wheel_z_offset", np.nan),
        ("gravity", [0.0, np.nan, -9.81]), ("gravity", [0.0, -9.81])])
    def test_non_finite_or_misshapen_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            Scenario(**{name: value})

    # A NaN bump once passed and then vanished: wall_gap at (0.5, 2.5, -6)
    # under semi-axes (1, nan, 1) centred at (nan, 2.5, -6) gave the flat
    # wall's 0.45 m.
    @pytest.mark.parametrize("center, semi_axes", [
        ([np.nan, 2.5, -6.0], [1.0, np.nan, 1.0]), ([np.nan, 2.5, -6.0], [1.0, 1.0, 1.0]),
        ([np.inf, 2.5, -6.0], [1.0, 1.0, 1.0]), ([0.0, 2.5, -6.0], [1.0, np.nan, 1.0]),
        ([0.0, 2.5, -6.0], [1.0, np.inf, 1.0]), ([0.0, 2.5, -6.0], [1.0, 0.0, 1.0]),
        ([0.0, 2.5, -6.0], [1.0, -1.0, 1.0]), ([0.0, 2.5], [1.0, 1.0, 1.0])])
    def test_bad_ellipsoid_rejected(self, center, semi_axes):
        with pytest.raises(ValueError, match="Ellipsoid"):
            Ellipsoid(center=np.array(center), semi_axes=np.array(semi_axes))

    def test_obstacle_needs_x_wall_normal(self):
        # The ellipsoid is axis-aligned with x normal to the wall; under any
        # other wall normal the planner would bound p_x instead of n.p.
        bump = Ellipsoid(center=np.array([50.0, 2.5, -6.0]), semi_axes=np.ones(3))
        tilted = np.array([0.98, 0.0, 0.2])
        with pytest.raises(ValueError, match="obstacle"):
            Scenario(wall_normal=tilted, obstacle=bump)
        with pytest.raises(ValueError, match="obstacle"):
            Scenario(wall_normal=tilted).with_(obstacle=bump)
        Scenario(wall_normal=tilted)
        Scenario(obstacle=bump)
        Scenario(wall_normal=np.array([2.0, 0.0, 0.0]), obstacle=bump)
