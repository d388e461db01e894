"""NLP and LP solver checks against enumeration-based brute-force oracles:
SLSQP for objectives, bounded Gauss-Newton and its box step for residuals
(scipy's BVLS as a second oracle), HiGHS for LPs (milp and linprog as the
oracles of the direct HiGHS call)."""

import itertools
import sys
import threading

import numpy as np
import pytest
from scipy import optimize, sparse

from wallhopper import solvers, stability
from wallhopper.model import Scenario
from wallhopper.solvers import (
    STATUS_FAILED,
    STATUS_INFEASIBLE,
    STATUS_MAX_ITERS,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    NlpProblem,
    box_step,
    solve_lp,
    solve_nlp,
)


def make_qp(rng, n):
    """Random strictly convex quadratic: 0.5 x'Qx + c'x."""
    A = rng.normal(size=(n, n))
    Q = A.T @ A + np.eye(n)
    c = rng.normal(size=n)

    def f(x):
        return 0.5 * x @ Q @ x + c @ x

    def g(x):
        return Q @ x + c

    return Q, c, f, g


def projected_gradient_box(Q, c, lo, hi, iters=20000):
    """Brute-force oracle: projected gradient descent on a box."""
    x = np.clip(np.zeros_like(c), lo, hi)
    step = 1.0 / np.linalg.eigvalsh(Q).max()
    for _ in range(iters):
        x = np.clip(x - step * (Q @ x + c), lo, hi)
    return x


def active_set_enumeration(Q, c, G, h):
    """Brute-force oracle for convex QP with inequalities G x <= h:
    enumerate active subsets, solve the KKT system, keep the feasible
    candidate with non-negative multipliers."""
    n, m = c.size, h.size
    best, best_val = None, np.inf
    for k in range(0, n + 1):
        for subset in itertools.combinations(range(m), k):
            idx = list(subset)
            Ga = G[idx]
            K = np.block([[Q, Ga.T], [Ga, np.zeros((k, k))]])
            rhs = np.concatenate([-c, h[idx]])
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                continue
            x, lam = sol[:n], sol[n:]
            if np.any(lam < -1e-9):
                continue
            if np.any(G @ x > h + 1e-9):
                continue
            val = 0.5 * x @ Q @ x + c @ x
            if val < best_val - 1e-12:
                best, best_val = x, val
    return best


class TestNlp:
    def test_active_bound(self):
        p = NlpProblem(objective=lambda x: (x[0] - 3.0) ** 2,
                       gradient=lambda x: np.array([2.0 * (x[0] - 3.0)]),
                       x0=np.array([0.0]), upper=np.array([2.0]))
        res = solve_nlp(p)
        assert res.status == STATUS_OPTIMAL
        assert res.x[0] == pytest.approx(2.0, abs=1e-8)

    def test_unconstrained_minimum(self):
        p = NlpProblem(objective=lambda x: float(x @ x),
                       gradient=lambda x: 2.0 * x,
                       x0=np.array([3.0, -4.0, 1.0]))
        res = solve_nlp(p)
        assert res.status == STATUS_OPTIMAL
        np.testing.assert_allclose(res.x, 0.0, atol=1e-7)

    def test_box_qp_matches_projected_gradient(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            n = 6
            Q, c, f, g = make_qp(rng, n)
            lo, hi = -0.3 * np.ones(n), 0.3 * np.ones(n)
            p = NlpProblem(objective=f, gradient=g, x0=np.zeros(n),
                           lower=lo, upper=hi)
            res = solve_nlp(p)
            x_pg = projected_gradient_box(Q, c, lo, hi)
            np.testing.assert_allclose(res.x, x_pg, atol=1e-5)

    def test_inequality_qp_matches_active_set_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n, m = 4, 4
            Q, c, f, g = make_qp(rng, n)
            G = rng.normal(size=(m, n))
            h = rng.uniform(0.1, 0.5, size=m)   # origin strictly feasible
            p = NlpProblem(objective=f, gradient=g, x0=np.zeros(n),
                           constraints=lambda x, G=G, h=h: G @ x - h,
                           constraints_jac=lambda x, G=G: G)
            res = solve_nlp(p)
            x_ref = active_set_enumeration(Q, c, G, h)
            assert res.status == STATUS_OPTIMAL
            np.testing.assert_allclose(res.x, x_ref, atol=1e-5)
        with pytest.raises(ValueError, match="constraints_jac"):
            NlpProblem(objective=f, gradient=g, x0=np.zeros(n),
                       constraints=lambda x: G @ x - h)

    def test_kkt_residual_recomputable(self):
        # On a box the best multiplier of an active bound is the gradient
        # entry clipped to its sign, so the residual is closed-form: |g_i|
        # off the bounds, max(-g_i, 0) on a lower and max(g_i, 0) on an
        # upper bound.
        rng = np.random.default_rng(12)
        Q, c, f, g = make_qp(rng, 5)
        lo, hi = -0.1 * np.ones(5), 0.1 * np.ones(5)
        p = NlpProblem(objective=f, gradient=g, x0=np.zeros(5), lower=lo, upper=hi)
        res = solve_nlp(p)
        grad, tol = g(res.x), 1e-6 * np.maximum(1.0, np.abs(res.x))
        at_lo, at_hi = res.x - lo <= tol, hi - res.x <= tol
        assert np.any(at_lo | at_hi)
        closed_form = np.where(at_lo, np.maximum(-grad, 0.0),
                               np.where(at_hi, np.maximum(grad, 0.0), np.abs(grad)))
        assert res.kkt_residual == pytest.approx(np.max(closed_form), rel=0, abs=1e-12)
        assert res.kkt_residual < 1e-5

    def test_strided_gradient(self):
        # scipy 1.17's SLSQP reads a strided gradient as if it were
        # contiguous: handed this column view, it reports success at
        # (1, 1, 1).
        target = np.array([1.0, 2.0, 0.0])
        buf = np.zeros((3, 2))

        def column_view(x):
            buf[:, 0] = 2.0 * (x - target)
            return buf[:, 0]

        p = NlpProblem(objective=lambda x: float(np.sum((x - target) ** 2)),
                       gradient=column_view, x0=np.ones(3), lower=-5.0 * np.ones(3),
                       upper=5.0 * np.ones(3))
        res = solve_nlp(p)
        assert res.status == STATUS_OPTIMAL
        np.testing.assert_allclose(res.x, target, rtol=0, atol=1e-8)


def rosenbrock(x):
    """Rosenbrock's residuals and their Jacobian."""
    return (np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
            np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]]))


def counted(residuals):
    """residuals, and the list that gets one point per call."""
    points = []

    def wrapped(x):
        points.append(x.copy())
        return residuals(x)

    return wrapped, points


class TestGaussNewton:
    def test_linear_residuals_one_step_matches_projected_gradient(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            A = rng.normal(size=(9, 6))
            b = rng.normal(size=9)
            lo, hi = -0.3 * np.ones(6), 0.3 * np.ones(6)
            p = NlpProblem(residuals=lambda x, A=A, b=b: (A @ x - b, A),
                           x0=np.zeros(6), lower=lo, upper=hi, max_iter=1)
            res = solve_nlp(p)
            assert res.n_iter == 1
            x_pg = projected_gradient_box(A.T @ A, -A.T @ b, lo, hi)
            np.testing.assert_allclose(res.x, x_pg, rtol=0, atol=1e-8)
            # The capped solve does not evaluate the residuals at its end.
            assert np.isnan(res.objective)
            cost = 0.5 * np.sum((A @ res.x - b) ** 2)
            assert cost == pytest.approx(0.5 * np.sum((A @ x_pg - b) ** 2), rel=1e-7)
            assert cost <= 0.5 * np.sum(b ** 2)          # the cost at x0 = 0

    def test_bounded_rosenbrock_converges(self):
        # With x0 <= 0.5 the minimiser is on the bound, on the valley floor.
        p = NlpProblem(residuals=rosenbrock, x0=np.array([-1.2, 1.0]),
                       upper=np.array([0.5, np.inf]), max_iter=20)
        res = solve_nlp(p)
        assert res.status == STATUS_OPTIMAL
        assert res.n_iter < 20
        np.testing.assert_allclose(res.x, [0.5, 0.25], rtol=0, atol=1e-10)
        # The bound holds x_0 back: the cost still falls as x_0 grows.
        r, J = rosenbrock(res.x)
        assert (J.T @ r)[0] < -0.1
        assert res.kkt_residual <= p.tol_stat

    def test_step_cap_leaves_stationarity_unmeasured(self):
        p = NlpProblem(residuals=rosenbrock, x0=np.array([-1.2, 1.0]), max_iter=1)
        res = solve_nlp(p)
        assert (res.status, res.n_iter) == (STATUS_MAX_ITERS, 1)
        assert np.isnan(res.kkt_residual) and np.isnan(res.objective)
        # The undamped step solves 1 - x_0 = 0 and the linearised
        # x_1 = x_0^2 exactly, and overshoots the valley.
        np.testing.assert_allclose(res.x, [1.0, 1.44 - 2.4 * 2.2], rtol=0, atol=1e-12)
        assert 0.5 * np.sum(rosenbrock(res.x)[0] ** 2) == pytest.approx(0.5 * 48.4 ** 2)

    def test_step_seconds(self):
        p = NlpProblem(residuals=rosenbrock, x0=np.array([-1.2, 1.0]), max_iter=20)
        res = solve_nlp(p)
        assert res.n_iter > 0 and res.step_s > 0.0
        at_optimum = solve_nlp(NlpProblem(residuals=rosenbrock, x0=np.ones(2)))
        assert (at_optimum.n_iter, at_optimum.step_s) == (0, 0.0)
        slsqp = solve_nlp(NlpProblem(objective=lambda x: float(x @ x),
                                     gradient=lambda x: 2.0 * x, x0=np.ones(2)))
        assert slsqp.step_s == 0.0

    def test_fixed_variable_stays(self):
        p = NlpProblem(residuals=rosenbrock, x0=np.array([-1.2, 1.0]),
                       lower=np.array([-1.2, -np.inf]), upper=np.array([-1.2, np.inf]),
                       max_iter=5)
        res = solve_nlp(p)
        assert res.status == STATUS_OPTIMAL
        np.testing.assert_allclose(res.x, [-1.2, 1.44], rtol=0, atol=1e-12)

    def test_non_finite_residuals_raise(self):
        p = NlpProblem(residuals=lambda x: (np.sqrt(x - 1.0), np.diag(0.5 / np.sqrt(x - 1.0))),
                       x0=np.zeros(2))
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="non-finite"):
            solve_nlp(p)

    def test_one_residual_call_per_iterate(self):
        # From 0, Newton's iteration on e^x = (2, 3) is still off its root
        # after 3 steps: three steps at a cap of 3, each after one call at
        # its start point, and the capped end point never evaluated.
        residuals, points = counted(lambda x: (np.exp(x) - [2.0, 3.0], np.diag(np.exp(x))))
        res = solve_nlp(NlpProblem(residuals=residuals, x0=np.zeros(2), max_iter=3))
        assert (res.status, res.n_iter, len(points)) == (STATUS_MAX_ITERS, 3, 3)
        assert not any(np.array_equal(res.x, x) for x in points)
        # Stationary at x0: one call, and no step.
        residuals, points = counted(rosenbrock)
        res = solve_nlp(NlpProblem(residuals=residuals, x0=np.ones(2), max_iter=3))
        assert (res.status, res.n_iter, len(points)) == (STATUS_OPTIMAL, 0, 1)

    def test_malformed_problems_rejected(self):
        with pytest.raises(ValueError, match="bounds only"):
            NlpProblem(residuals=rosenbrock, x0=np.zeros(2),
                       constraints=lambda x: x, constraints_jac=lambda x: np.eye(2))
        with pytest.raises(ValueError, match="gradient"):
            NlpProblem(objective=lambda x: float(x @ x), x0=np.zeros(2))

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, 2.0, np.nan, "5"])
    def test_bad_iteration_cap_rejected(self, max_iter):
        # -3 once ran SLSQP into a misleading non-convergence; 2.5 was cut to 2.
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            NlpProblem(objective=lambda x: float(x @ x), gradient=lambda x: 2 * x,
                       x0=np.zeros(2), max_iter=max_iter)
        NlpProblem(objective=lambda x: float(x @ x), gradient=lambda x: 2 * x,
                   x0=np.zeros(2), max_iter=np.int64(1))

    @pytest.mark.parametrize("name", ["tol_stat", "tol_feas", "tol_obj"])
    @pytest.mark.parametrize("value", [np.nan, -1e-8, -np.inf])
    def test_bad_tolerance_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a number >= 0"):
            NlpProblem(residuals=rosenbrock, x0=np.zeros(2), **{name: value})
        NlpProblem(residuals=rosenbrock, x0=np.zeros(2), **{name: 0.0})


def box_problem(rng, m=10, n=9):
    """A linearised residual r + J d over a box around d = 0 with exactly
    zero columns (1, 4), a fixed variable (6), infinite bounds (one-sided
    on 0 and 2, none on 3) and residuals large enough to press the step
    against bounds on both sides."""
    J = rng.normal(size=(m, n))
    J[:, [1, 4]] = 0.0
    r = 5.0 * rng.normal(size=m)
    lower = -rng.uniform(0.05, 0.5, size=n)
    upper = rng.uniform(0.05, 0.5, size=n)
    lower[[0, 3]] = -np.inf
    upper[[2, 3]] = np.inf
    lower[6] = upper[6] = 0.0
    return J, r, lower, upper


class TestBoxStep:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_oracles(self, seed, bvls_step):
        J, r, lower, upper = box_problem(np.random.default_rng(100 + seed))
        d = box_step(J, r, lower, upper)
        assert d[1] == d[4] == d[6] == 0.0
        assert np.all((lower <= d) & (d <= upper))
        # Bounds hold the step back on both sides.
        assert np.any(np.isclose(d, lower, rtol=0, atol=1e-12))
        assert np.any(np.isclose(d, upper, rtol=0, atol=1e-12))
        np.testing.assert_allclose(d, projected_gradient_box(J.T @ J, J.T @ r, lower, upper),
                                   rtol=0, atol=1e-8)
        # The moving columns alone as a QP with the finite bounds as rows.
        cols = np.flatnonzero((lower < upper) & np.any(J != 0.0, axis=0))
        eye = np.eye(cols.size)
        lo, hi = lower[cols], upper[cols]
        G = np.vstack([-eye[np.isfinite(lo)], eye[np.isfinite(hi)]])
        h = np.concatenate([-lo[np.isfinite(lo)], hi[np.isfinite(hi)]])
        A = J[:, cols]
        np.testing.assert_allclose(d[cols], active_set_enumeration(A.T @ A, A.T @ r, G, h),
                                   rtol=0, atol=1e-8)
        np.testing.assert_allclose(d, bvls_step(J, r, lower, upper), rtol=0, atol=1e-10)

    def test_interior_minimiser_needs_no_nnls(self, monkeypatch, bvls_step):
        J, r, lower, upper = box_problem(np.random.default_rng(7))
        r *= 1e-3
        monkeypatch.setattr(solvers.optimize, "nnls", None)
        d = box_step(J, r, lower, upper)
        assert np.all((lower < d) & (d < upper) | (lower == upper) | ~np.any(J, axis=0))
        np.testing.assert_allclose(d, bvls_step(J, r, lower, upper), rtol=0, atol=1e-12)

    def test_nothing_moves(self):
        J = np.zeros((3, 2))
        J[:, 0] = 1.0
        d = box_step(J, np.ones(3), np.zeros(2), np.array([0.0, 1.0]))
        np.testing.assert_array_equal(d, [0.0, 0.0])

    @pytest.mark.parametrize("combine", [lambda a, b: 2.0 * a, lambda a, b: a - 3.0 * b])
    def test_dependent_columns_raise(self, combine):
        J, r, lower, upper = box_problem(np.random.default_rng(3))
        J[:, 5] = combine(J[:, 0], J[:, 7])
        with pytest.raises(RuntimeError, match="rank-deficient"):
            box_step(J, r, lower, upper)
        # Through solve_nlp, from a linear residual with that Jacobian.
        p = NlpProblem(residuals=lambda x: (r + J @ x, J), x0=np.zeros(J.shape[1]),
                       lower=lower, upper=upper)
        with pytest.raises(RuntimeError, match="rank-deficient"):
            solve_nlp(p)

    def test_exactly_singular_factor_raises(self):
        # A repeated unit column leaves an exact zero on R's diagonal.
        J = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        with pytest.raises(RuntimeError, match="rank-deficient"):
            box_step(J, np.ones(3), -np.ones(3), np.ones(3))

    def test_more_moving_columns_than_rows_raise(self):
        J, r, lower, upper = box_problem(np.random.default_rng(5), m=5)
        with pytest.raises(RuntimeError, match="rank-deficient"):
            box_step(J, r, lower, upper)

    def test_badly_scaled_columns_are_not_dependent(self):
        J, r, lower, upper = box_problem(np.random.default_rng(4))
        scale = 10.0 ** np.arange(-4, 5)
        d = box_step(J * scale, r, lower / scale, upper / scale)
        np.testing.assert_allclose(d * scale, box_step(J, r, lower, upper),
                                   rtol=0, atol=1e-10)


def vertex_enumeration(c, A, b, lo, hi):
    """Brute-force LP oracle: enumerate basic feasible points of
    A x <= b, lo <= x <= hi and take the best objective."""
    n = c.size
    rows = [*(np.column_stack([A, b])),]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append(np.concatenate([e, [hi[i]]]))
        rows.append(np.concatenate([-e, [-lo[i]]]))
    rows = np.array(rows)
    best, best_val = None, np.inf
    for subset in itertools.combinations(range(rows.shape[0]), n):
        M = rows[list(subset), :n]
        rhs = rows[list(subset), n]
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.any(A @ x > b + 1e-9) or np.any(x > hi + 1e-9) or np.any(x < lo - 1e-9):
            continue
        val = c @ x
        if val < best_val - 1e-12:
            best, best_val = x, val
    return best, best_val


MILP_STATUS = {0: STATUS_OPTIMAL, 1: STATUS_MAX_ITERS, 2: STATUS_INFEASIBLE,
               3: STATUS_UNBOUNDED, 4: STATUS_FAILED}


def milp_lp(c, A, row_lower, row_upper, lower=-np.inf, upper=np.inf, presolve=False):
    """solve_lp's LP posed to scipy.optimize.milp, with no integer variables;
    HiGHS presolve is off, as solve_lp runs it, unless presolve is True."""
    return optimize.milp(c, bounds=optimize.Bounds(lower, upper),
                         constraints=optimize.LinearConstraint(A, row_lower, row_upper),
                         options={"presolve": presolve})


def random_lps(kind, count=40, seed=53):
    """Seeded LPs with inequality and equality rows, free, one-sided and
    boxed variables and, for kind "sparse", a scipy.sparse matrix with some
    explicit zeros; some end infeasible or unbounded."""
    rng = np.random.default_rng(seed)
    lps = []
    for _ in range(count):
        m, n = rng.integers(1, 9), rng.integers(1, 9)
        A = rng.normal(size=(m, n)) * (rng.uniform(size=(m, n)) < 0.6)
        row_upper = rng.uniform(-0.5, 1.0, size=m)
        row_lower = np.where(rng.uniform(size=m) < 0.3, row_upper, -np.inf)
        lower = rng.choice([-np.inf, -1.0, 0.0], size=n)
        upper = rng.choice([np.inf, 1.0, 2.0], size=n)
        if kind == "sparse":
            A = sparse.coo_array(A)
            A = sparse.coo_array((np.append(A.data, 0.0),
                                  (np.append(A.row, m - 1), np.append(A.col, 0))), (m, n))
        lps.append((rng.normal(size=n), A, row_lower, row_upper, lower, upper))
    return lps


def stub_highs(model_status):
    """solvers.highs._Highs, ending every run with model_status."""
    class StubHighs(solvers.highs._Highs):
        def getModelStatus(self):
            return model_status

    return StubHighs


MILP_CASES = ["heatmap-mu0.8", "heatmap-mu0.3", "dense", "sparse", "endings"]


def heatmap_lps(mu, n):
    """The margin LPs of an n x n heatmap at friction coefficient mu, and
    the heatmap's count of cells ending "ok"."""
    lps = []
    solve = stability.solve_lp

    def recorded(*args):
        lps.append(args)
        return solve(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stability, "solve_lp", recorded)
        scen = Scenario(mass=15.0, f_leg_max=600.0, f_r_max=300.0, mu=mu)
        hm = stability.margin_heatmap(stability.HeatmapGrid.regular(ny=n, nz=n),
                                      np.array([-1.0, 0, 0, 0, 0, 0]), scen)
    assert len(lps) == n * n
    return lps, hm.endings["ok"]


def milp_case_lps(case):
    """The LPs of a test_matches_milp case: a 6 x 6 heatmap's margin LPs
    at one friction coefficient, random_lps, or one LP per ending."""
    if case.startswith("heatmap"):
        lps, ok = heatmap_lps(float(case[len("heatmap-mu"):]), 6)
        assert ok > 0
        return lps
    if case in ("dense", "sparse"):
        return random_lps(case)
    return [([1.0], [[1.0], [-1.0]], -np.inf, [-2.0, -2.0]),              # infeasible
            ([1.0, -1.0], [[1.0, 1.0]], 1.0, 1.0, 0.0, [np.inf, 2.0]),   # optimal
            ([-1.0, 0.5], [[1.0, -1.0]], -np.inf, 1.0),                 # unbounded
            ([-1.0], np.zeros((0, 1)), [], []),                         # no rows, unbounded
            ([1.0, -2.0], np.zeros((0, 2)), [], [], -1.0, 3.0),          # no rows, optimal
            ([-1.0], sparse.csr_array((0, 1)), [], [], 0.0, 1.0)]


def answer(res):
    """An LpResult as status, x's bytes and value; no x or value unless x is
    returned."""
    if res.x is None:
        return res.status, None, None
    return res.status, res.x.tobytes(), res.value


def milp_answer(lp):
    """milp's answer to solve_lp's LP, in answer's form."""
    ref = milp_lp(*lp)
    if ref.x is None:
        return MILP_STATUS[ref.status], None, None
    return MILP_STATUS[ref.status], ref.x.tobytes(), ref.fun


BAD_INPUT = [
    (([np.nan], [[1.0]], -np.inf, 1.0), "c must"),
    (([np.inf], [[1.0]], -np.inf, 1.0), "c must"),
    (([[1.0]], [[1.0]], -np.inf, 1.0), "c must"),
    (([], np.zeros((1, 0)), -np.inf, 1.0), "c must"),
    (([1.0, 1.0], [[1.0]], -np.inf, 1.0), "A must"),
    (([1.0], [1.0], -np.inf, 1.0), "A must"),
    (([1.0, 1.0], sparse.csr_array(np.ones((1, 3))), -np.inf, 1.0), "A must"),
    (([1.0], [[np.nan]], -np.inf, 1.0), "A must be finite"),
    (([1.0], [[np.inf]], -np.inf, 1.0), "A must be finite"),
    (([1.0], sparse.csr_array([[-np.inf]]), -np.inf, 1.0), "A must be finite"),
    (([1.0], [[1.0]], np.nan, 1.0), "NaN in row bounds"),
    (([1.0], [[1.0]], -np.inf, [1.0, np.nan]), "row bounds do not broadcast"),
    (([1.0], [[1.0]], -np.inf, 1.0, np.nan), "NaN in variable bounds"),
    (([1.0, 1.0], [[1.0, 1.0]], -np.inf, 1.0, 0.0, [1.0, 2.0, 3.0]),
     "variable bounds do not broadcast"),
    (([1.0], [[1e16]], -np.inf, 1.0), "HiGHS rejected"),
    (([1.0], [[1.0]], -np.inf, 1.0, np.inf), "HiGHS rejected"),
]
BAD_INPUT_IDS = ["c-nan", "c-inf", "c-2d", "c-empty", "A-columns", "A-1d", "A-sparse-columns",
                 "A-nan", "A-inf", "A-sparse-inf", "row-nan", "row-shape", "col-nan",
                 "col-shape", "A-huge", "col-lower-inf"]


class TestLp:
    def test_simple_maximum(self):
        # max gamma s.t. gamma <= 1, posed as min -gamma.
        res = solve_lp([-1.0], [[1.0]], -np.inf, 1.0)
        assert res.status == STATUS_OPTIMAL
        assert res.x[0] == pytest.approx(1.0)

    def test_unbounded_detected(self):
        # No rows at all, and a free variable.
        assert solve_lp([-1.0], np.zeros((0, 1)), [], []).status == STATUS_UNBOUNDED

    def test_infeasible_detected(self):
        assert solve_lp([1.0], [[1.0], [-1.0]], -np.inf, [-2.0, -2.0]).status == "infeasible"

    def test_random_lp_matches_vertex_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            n, m = 4, 6
            c = rng.normal(size=n)
            A = rng.normal(size=(m, n))
            b = rng.uniform(0.2, 1.0, size=m)
            lo, hi = -np.ones(n), np.ones(n)
            res = solve_lp(c, A, -np.inf, b, lo, hi)
            assert res.status == STATUS_OPTIMAL
            _, val_ref = vertex_enumeration(c, A, b, lo, hi)
            assert res.value == pytest.approx(val_ref, abs=1e-7)
            assert np.all(A @ res.x <= b + 1e-8)

    def test_matches_linprog(self):
        # Equalities and inequalities together, free, one-sided and boxed
        # variables: solve_lp hands HiGHS what linprog(method="highs") with
        # presolve off hands it, so both give the same answer to the last bit.
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = 6
            c = rng.normal(size=n)
            A_ub, b_ub = rng.normal(size=(5, n)), rng.uniform(0.2, 1.0, size=5)
            A_eq, b_eq = rng.normal(size=(2, n)), rng.normal(size=2)
            bounds = [(None, None), (0.0, None), (None, 1.0)] + [(-2.0, 2.0)] * 3
            lower = [-np.inf, 0.0, -np.inf] + [-2.0] * 3
            upper = [np.inf, np.inf, 1.0] + [2.0] * 3
            ours = solve_lp(c, np.vstack([A_ub, A_eq]),
                            np.concatenate([np.full(5, -np.inf), b_eq]),
                            np.concatenate([b_ub, b_eq]), lower, upper)
            ref = optimize.linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                                   bounds=bounds, method="highs",
                                   options={"presolve": False})
            assert ref.status == 0 and ours.status == STATUS_OPTIMAL
            assert np.array_equal(ours.x, ref.x)
            assert ours.value == ref.fun

    # The ids keep milp's status codes for these endings.
    @pytest.mark.parametrize("model_status, status", [
        pytest.param(solvers.highs.HighsModelStatus.kOptimal, STATUS_OPTIMAL, id="0-optimal"),
        pytest.param(solvers.highs.HighsModelStatus.kIterationLimit, STATUS_MAX_ITERS,
                     id="1-max_iters"),
        pytest.param(solvers.highs.HighsModelStatus.kInfeasible, STATUS_INFEASIBLE,
                     id="2-infeasible"),
        pytest.param(solvers.highs.HighsModelStatus.kUnbounded, STATUS_UNBOUNDED,
                     id="3-unbounded"),
        pytest.param(solvers.highs.HighsModelStatus.kUnboundedOrInfeasible, STATUS_FAILED,
                     id="4-failed")])
    def test_highs_endings(self, monkeypatch, model_status, status):
        # A fresh per-thread holder, so that solve_lp builds the stub.
        monkeypatch.setattr(solvers, "_THREAD", threading.local())
        monkeypatch.setattr(solvers.highs, "_Highs", stub_highs(model_status))
        res = solve_lp([-1.0], [[1.0]], -np.inf, 1.0)
        assert res.status == status
        assert (res.x is not None) == (status == STATUS_OPTIMAL)

    def test_never_calls_linprog(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("solve_lp called optimize.linprog or optimize.milp")

        monkeypatch.setattr(solvers.optimize, "linprog", forbidden)
        monkeypatch.setattr(solvers.optimize, "milp", forbidden)
        assert solve_lp([-1.0], [[1.0]], -np.inf, 1.0).status == STATUS_OPTIMAL
        assert solve_lp([-1.0], np.zeros((0, 1)), [], []).status == STATUS_UNBOUNDED
        assert solve_lp([1.0, 1.0], [[1.0, -1.0]], 1.0, 1.0,
                        lower=0.0).value == pytest.approx(1.0)

    @pytest.mark.parametrize("case", MILP_CASES)
    def test_matches_milp(self, case):
        # HiGHS gets the model and options of milp with presolve off, so x,
        # value and status are that milp's to the last bit.
        endings = set()
        for lp in milp_case_lps(case):
            ours = answer(solve_lp(*lp))
            endings.add(ours[0])
            assert ours == milp_answer(lp)
        if case != "heatmap-mu0.8":
            assert len(endings) > 1, endings

    def test_presolve_moves_no_margin_verdict(self):
        # Against milp with HiGHS's default presolve, every margin LP of the
        # two 6 x 6 heatmaps and of the near-frictionless 8 x 8 grid (all
        # infeasible) ends the same way, and gamma moves only by round-off.
        grids = [heatmap_lps(mu, n) for mu, n in ((0.8, 6), (0.3, 6), (1e-9, 8))]
        assert [ok > 0 for _, ok in grids] == [True, True, False]
        for lps, _ in grids:
            for lp in lps:
                ours, ref = solve_lp(*lp), milp_lp(*lp, presolve=True)
                assert ours.status == MILP_STATUS[ref.status]
                if ref.x is not None:
                    assert abs(ours.x[-1] - ref.x[-1]) <= 1e-12

    def test_reused_solver_matches_milp(self):
        # The thread's one solver runs every LP of test_matches_milp, forward,
        # reversed and after each model HiGHS rejects, and each answer is
        # still milp's to the last bit: passModel replaces the model, and no
        # basis or solution of an earlier LP reaches the next.
        lps = [lp for case in MILP_CASES for lp in milp_case_lps(case)]
        expected = [milp_answer(lp) for lp in lps]
        rejected = [args for args, match in BAD_INPUT if match == "HiGHS rejected"]
        assert len(rejected) == 2
        solve_lp(*lps[0])
        solver = solvers._THREAD.highs
        assert [answer(solve_lp(*lp)) for lp in lps] == expected
        assert [answer(solve_lp(*lp)) for lp in lps[::-1]] == expected[::-1]
        for k, lp in enumerate(lps):
            with pytest.raises(ValueError, match="HiGHS rejected"):
                solve_lp(*rejected[k % 2])
            assert answer(solve_lp(*lp)) == expected[k]
        assert solvers._THREAD.highs is solver

    def test_threads_keep_their_own_solver(self):
        # Threads solving different LPs at once each get their one-thread
        # answers, each from a solver of its own.
        lists = [random_lps("dense"), random_lps("sparse")[::-1] + milp_case_lps(
            "heatmap-mu0.3")]
        expected = [[answer(solve_lp(*lp)) for lp in lps] for lps in lists]
        answers, used = {}, {}

        def work(k):
            lps = lists[k % 2]
            answers[k] = [[answer(solve_lp(*lp)) for lp in lps] for _ in range(3)]
            used[k] = solvers._THREAD.highs

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(answers) == [0, 1, 2, 3]
        for k, runs in answers.items():
            assert runs == [expected[k % 2]] * 3
        assert len({id(solver) for solver in [*used.values(), solvers._THREAD.highs]}) == 5

    @pytest.mark.parametrize("args, match", BAD_INPUT, ids=BAD_INPUT_IDS)
    def test_bad_input_rejected(self, args, match):
        with pytest.raises(ValueError, match=match):
            solve_lp(*args)

    def test_sparse_matrix_matches_dense(self):
        # A scipy.sparse matrix goes to HiGHS as it is and gives the dense
        # call's answer to the last bit.
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = 8
            c = rng.normal(size=n)
            A = rng.normal(size=(7, n)) * (rng.uniform(size=(7, n)) < 0.4)
            A[-1] = 1.0
            row_lower = np.append(np.full(6, -np.inf), 1.0)
            row_upper = np.append(rng.uniform(0.2, 1.0, size=6), 1.0)
            dense = solve_lp(c, A, row_lower, row_upper, -2.0, 2.0)
            sparse_ = solve_lp(c, sparse.csr_array(A), row_lower, row_upper, -2.0, 2.0)
            assert dense.status == sparse_.status == STATUS_OPTIMAL
            assert np.array_equal(sparse_.x, dense.x)
            assert sparse_.value == dense.value
