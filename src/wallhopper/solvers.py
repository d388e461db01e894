"""Small dense NLP and LP solving used by the planner, the MPC and the
stability margins.

Problem sizes here are tiny (at most a few hundred variables).  An NLP is
either a smooth objective under bounds and inequality constraints, solved
by SLSQP with the caller's gradient and constraint Jacobian, or a sum of
squares 0.5 |r(x)|^2 under bounds only, solved by bounded Gauss-Newton:
one callback gives the residuals r and their Jacobian J, once per
iterate, and each step minimises the linearised residual |r + J dx|^2 in
the box exactly, by one QR factorisation and, when a bound is active, one
``scipy.optimize.nnls`` call (box_step).  Stationarity is measured a
posteriori: active_set_multipliers fits non-negative multipliers to the
active constraints and bounds by least squares, and the reported KKT
residual is the largest entry of the Lagrangian gradient they leave.

The LP path hands HiGHS its model directly, through the binding scipy
bundles (``scipy.optimize._highspy._core``, scipy >= 1.15), the HighsLp and
_Highs pair that ``scipy.optimize.milp`` builds underneath: ``solve_lp``
takes the LP in HiGHS's own form, one constraint matrix (dense or sparse)
with lower and upper bounds on its rows and on the variables, checks it,
stores the matrix column-wise, runs it on the calling thread's one solver
with no console log and presolve off, and maps HiGHS's ending to one of
the status strings below (optimal, unbounded, infeasible, max_iters,
failed).  HiGHS gets the model and options that milp with presolve off
would give it, so the answers are that milp's to the last bit: passModel
replaces the model and clears the last basis and solution, so nothing of
one LP, even a rejected one, reaches the next (tests/test_solvers.py checks
this against milp in any order and across threads).  Presolve is off
because on LPs this small it costs more than the simplex: a 16 x 21 margin
LP takes about a dozen dual simplex iterations, and presolve more than
doubled HiGHS's run time on it.  milp's input checks, constraint objects,
option manager and dual bookkeeping cost more than HiGHS itself on these
LPs too.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np
from scipy import optimize, sparse
from scipy.optimize._highspy import _core as highs

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITERS = "max_iters"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_FAILED = "failed"

# box_step's least reciprocal condition of its columns scaled to unit
# norm: below it the step would keep fewer than half its digits.
RCOND_MIN = np.sqrt(np.finfo(float).eps)
# A bound or constraint is active within this distance, relative to
# max(1, |x|) for bounds.
TOL_ACT = 1e-6


@dataclass
class NlpProblem:
    """Minimise objective(x), or 0.5 |r|^2 when residuals(x) -> (r, J)
    is given, subject to lower <= x <= upper and, for an objective only,
    constraints(x) <= 0.  Each function comes with its derivative; the
    residuals return theirs, J = dr/dx, with them."""

    x0: np.ndarray
    objective: Callable[[np.ndarray], float] | None = None
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    residuals: Callable[[np.ndarray], tuple] | None = None          # (r (m,), J (m, n))
    constraints: Callable[[np.ndarray], np.ndarray] | None = None   # g(x) <= 0
    constraints_jac: Callable[[np.ndarray], np.ndarray] | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    tol_stat: float = 1e-8
    tol_feas: float = 1e-8
    tol_obj: float = 1e-12
    max_iter: int = 300

    def __post_init__(self):
        if not (isinstance(self.max_iter, Integral) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        for name in ("tol_stat", "tol_feas", "tol_obj"):
            if not (getattr(self, name) >= 0.0):
                raise ValueError(f"{name} must be a number >= 0, got {getattr(self, name)!r}")
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        n = self.x0.size
        self.lower = (np.full(n, -np.inf) if self.lower is None
                      else np.broadcast_to(np.asarray(self.lower, float), (n,)).copy())
        self.upper = (np.full(n, np.inf) if self.upper is None
                      else np.broadcast_to(np.asarray(self.upper, float), (n,)).copy())
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")
        if self.constraints is not None and self.constraints_jac is None:
            raise ValueError("constraints need constraints_jac")
        if self.residuals is None:
            if self.objective is None or self.gradient is None:
                raise ValueError("give residuals, or an objective with its gradient")
        elif not (self.objective is None and self.gradient is None
                  and self.constraints is None):
            raise ValueError("residuals take bounds only: no objective or constraints")


@dataclass
class NlpResult:
    x: np.ndarray
    objective: float               # NaN, as kkt_residual, at a Gauss-Newton step cap
    kkt_residual: float
    status: str
    n_iter: int
    constraint_violation: float
    kkt_s: float                   # seconds in active_set_multipliers
    step_s: float                  # seconds in box_step


def active_set_multipliers(problem: NlpProblem, x: np.ndarray, grad: np.ndarray) -> float:
    """KKT residual at x, where the objective's gradient is grad: the
    infinity norm of grad + A lam, with A's columns the outward normals of
    the active constraints and bounds and lam >= 0 their non-negative
    least-squares fit to -grad.  perfbench/tracing.py times the fit under
    this name."""
    scale = np.maximum(1.0, np.abs(x))
    idx = np.arange(x.size)
    # The outward normals of the active bounds: -e_i for a lower bound on
    # x_i, e_i for an upper one.
    cols = [-1.0 * (idx[:, None] == idx[x - problem.lower <= TOL_ACT * scale]),
            1.0 * (idx[:, None] == idx[problem.upper - x <= TOL_ACT * scale])]
    if problem.constraints is not None:
        g = np.atleast_1d(problem.constraints(x))
        cols.append(np.atleast_2d(problem.constraints_jac(x))[g >= -TOL_ACT].T)
    A = np.hstack(cols)
    lam = optimize.nnls(A, -grad)[0] if A.shape[1] else np.zeros(0)
    return float(np.max(np.abs(grad + A @ lam)))


def solve_nlp(problem: NlpProblem) -> NlpResult:
    """Bound/inequality-constrained smooth minimisation.

    Residual problems take bounded Gauss-Newton steps; every other problem
    goes to SLSQP.
    """
    if problem.residuals is not None:
        return _gauss_newton(problem)
    bounds = list(zip(np.where(np.isfinite(problem.lower), problem.lower, None),
                      np.where(np.isfinite(problem.upper), problem.upper, None)))
    cons = []
    if problem.constraints is not None:
        # scipy's ineq convention is fun(x) >= 0; ours is g(x) <= 0.
        cons = [{"type": "ineq", "fun": lambda x: -np.atleast_1d(problem.constraints(x)),
                 "jac": lambda x: -np.atleast_2d(problem.constraints_jac(x))}]
    # SLSQP reads a strided gradient as if it were contiguous.
    res = optimize.minimize(
        problem.objective, problem.x0, method="SLSQP",
        jac=lambda x: np.ascontiguousarray(problem.gradient(x), dtype=float),
        bounds=bounds, constraints=cons,
        options={"maxiter": problem.max_iter, "ftol": problem.tol_obj})
    x = np.clip(res.x, problem.lower, problem.upper)
    violation = 0.0
    if problem.constraints is not None:
        violation = float(max(0.0, np.max(np.atleast_1d(problem.constraints(x)))))
    grad = problem.gradient(x)
    t0 = time.perf_counter()
    resid = active_set_multipliers(problem, x, grad)
    kkt_s = time.perf_counter() - t0
    if violation > problem.tol_feas:
        status = STATUS_INFEASIBLE if res.status == 4 or res.success else STATUS_MAX_ITERS
    elif res.success or resid <= problem.tol_stat:
        status = STATUS_OPTIMAL
    else:
        status = STATUS_MAX_ITERS
    return NlpResult(x=x, objective=float(problem.objective(x)), kkt_residual=resid,
                     status=status, n_iter=int(getattr(res, "nit", -1)),
                     constraint_violation=violation, kkt_s=kkt_s, step_s=0.0)


def _finite(values, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        # Stop before a NaN reaches the QR or nnls of the box step, whose
        # answer on it would mean nothing.
        raise RuntimeError(f"non-finite {what}")
    return values


def box_step(J: np.ndarray, r: np.ndarray, lower: np.ndarray,
             upper: np.ndarray) -> np.ndarray:
    """The minimiser d of |r + J d| subject to lower <= d <= upper, for a
    box that holds d = 0 (bounds may be infinite or equal).

    A column that is fixed (lower == upper) or exactly zero gets a step of
    0.  The other columns are QR-factorised, J = Q R; if the unconstrained
    minimiser d0 = -R^-1 Q'r lies in the box it is the step.  Otherwise,
    with the finite bounds written G d >= h, the step is d0 + R^-1 y for
    the y of least norm with G R^-1 y >= h - G d0, found by one nnls call
    (least distance programming; Lawson & Hanson, Solving Least Squares
    Problems, 1974, ch. 23).
    Raises RuntimeError if those columns are linearly dependent, or so
    nearly that their reciprocal condition is at most RCOND_MIN.
    """
    d = np.zeros(J.shape[1])
    cols = (lower < upper) & np.any(J != 0.0, axis=0)
    if not cols.any():
        return d
    Q, R = np.linalg.qr(J[:, cols])
    # The 1-norm condition of R with unit columns (R's column norms are
    # J's), exactly, from R^-1.  A wide R, or a zero on its diagonal, has
    # dependent columns.
    rcond = 0.0
    if R.shape[0] == R.shape[1] and np.all(np.diag(R) != 0.0):
        norms = np.linalg.norm(R, axis=0)
        R_inv = np.linalg.inv(R)
        rcond = 1.0 / (np.abs(R / norms).sum(axis=0).max()
                       * np.abs(norms[:, None] * R_inv).sum(axis=0).max())
    if not rcond > RCOND_MIN:
        raise RuntimeError(f"rank-deficient residual Jacobian: its moving columns are "
                           f"linearly dependent (reciprocal condition {rcond:.1e})")
    d0 = -R_inv @ (Q.T @ r)
    lo, hi = lower[cols], upper[cols]
    if np.all((lo <= d0) & (d0 <= hi)):
        d[cols] = d0
        return d
    # G's rows are e_i for the finite lower and -e_i for the finite upper
    # bounds.  With E = G R^-1 and f = h - G d0, nnls fits w >= 0 to
    # [E'; f'] w = (0, 1), and y = E'w / (1 - f'w).
    at_lo, at_hi = np.isfinite(lo), np.isfinite(hi)
    E = np.vstack([R_inv[at_lo], -R_inv[at_hi]])
    f = np.concatenate([(lo - d0)[at_lo], (d0 - hi)[at_hi]])
    rhs = np.zeros(R.shape[0] + 1)
    rhs[-1] = 1.0
    w = optimize.nnls(np.vstack([E.T, f]), rhs)[0]
    gap = 1.0 - f @ w
    if not gap > 0.0:                   # the box holds d = 0, so it is never empty
        raise RuntimeError("box step: bounds found inconsistent")
    d[cols] = np.clip(d0 + R_inv @ (E.T @ w) / gap, lo, hi)
    return d


def _gauss_newton(problem: NlpProblem) -> NlpResult:
    """At most max_iter bounded Gauss-Newton steps from the clipped x0.

    Each step evaluates the residuals and their Jacobian by one call, stops
    if the point is stationary to tol_stat, and otherwise moves to the
    minimiser of the linearised residual in the box (box_step, undamped).
    The last allowed step is returned unevaluated, with objective and
    kkt_residual NaN.  Raises RuntimeError on non-finite residuals or
    Jacobian, and on a rank-deficient Jacobian.
    """
    lo, hi = problem.lower, problem.upper
    x = np.clip(problem.x0, lo, hi)
    kkt_s = step_s = 0.0
    for n_iter in range(problem.max_iter):
        r, J = problem.residuals(x)
        r, J = _finite(r, "residuals"), _finite(J, "residual Jacobian")
        grad = J.T @ r
        t0 = time.perf_counter()
        resid = active_set_multipliers(problem, x, grad)
        t1 = time.perf_counter()
        kkt_s += t1 - t0
        if resid <= problem.tol_stat:
            return NlpResult(x=x, objective=0.5 * float(r @ r), kkt_residual=resid,
                             status=STATUS_OPTIMAL, n_iter=n_iter, constraint_violation=0.0,
                             kkt_s=kkt_s, step_s=step_s)
        step = box_step(J, r, lo - x, hi - x)
        step_s += time.perf_counter() - t1
        x = np.clip(x + step, lo, hi)
    return NlpResult(x=x, objective=np.nan, kkt_residual=np.nan, status=STATUS_MAX_ITERS,
                     n_iter=problem.max_iter, constraint_violation=0.0,
                     kkt_s=kkt_s, step_s=step_s)


@dataclass
class LpResult:
    x: np.ndarray | None
    value: float
    status: str


# No console log and no presolve (see solve_lp); every other option keeps
# HiGHS's default.
_HIGHS_OPTIONS = highs.HighsOptions()
_HIGHS_OPTIONS.log_to_console = False
_HIGHS_OPTIONS.presolve = "off"
# Each thread's one solver, built on its first solve_lp call.
_THREAD = threading.local()
# HiGHS's model status -> ours, as milp maps them; any other is "failed"
# (numerical trouble, or no verdict between infeasible and unbounded).
_ENDINGS = {
    highs.HighsModelStatus.kOptimal: STATUS_OPTIMAL,
    highs.HighsModelStatus.kIterationLimit: STATUS_MAX_ITERS,
    highs.HighsModelStatus.kTimeLimit: STATUS_MAX_ITERS,
    highs.HighsModelStatus.kInfeasible: STATUS_INFEASIBLE,
    highs.HighsModelStatus.kUnbounded: STATUS_UNBOUNDED,
}


def _bounds(values, size: int, what: str) -> list:
    try:
        values = np.asarray(values, dtype=float)
        if values.shape not in ((), (size,)):
            values = np.broadcast_to(values, (size,))
    except ValueError:
        raise ValueError(f"{what} do not broadcast to ({size},)") from None
    if np.isnan(values).any():
        raise ValueError(f"NaN in {what}")
    return values.tolist() if values.ndim else [values.item()] * size


def solve_lp(c, A, row_lower, row_upper, lower=-np.inf, upper=np.inf) -> LpResult:
    """Minimise c.x subject to row_lower <= A x <= row_upper and
    lower <= x <= upper.

    A is dense or a scipy.sparse matrix of shape (m, c.size), possibly with
    no rows; the bounds broadcast to A's rows and columns, and an infinite
    one is no bound (equal ones make an equality).  HiGHS gets exactly this
    model, rows in A's order and A column-wise as scipy.sparse.csc_array
    stores it, on the thread's one solver with presolve off, so
    ``milp(..., options={"presolve": False})`` and a linprog call with that
    option whose inequality and equality rows stack to A get the same
    answer to the last bit; only linprog's re-check of an optimal point
    against the rows, at 3e-4, is not repeated.  Presolve is off because on
    LPs this small it costs more than the simplex itself.
    Raises ValueError unless c is a non-empty 1-D array of finite numbers
    and A has that shape with finite entries, or if a bound is NaN or does
    not broadcast, or if HiGHS rejects the model (an entry of A too large
    for it, a lower bound of +inf).
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size == 0 or not np.isfinite(c).all():
        raise ValueError("c must be a non-empty 1-D array of finite numbers")
    n = c.size
    dense = not sparse.issparse(A)
    A = np.asarray(A, dtype=float) if dense else sparse.csc_array(A)
    if A.ndim != 2 or A.shape[1] != n:
        raise ValueError(f"A must be (m, {n}), got {A.shape}")
    if dense:
        # csc_array's layout, without building one: each column's non-zeros
        # in row order.
        col, index = np.nonzero(A.T)
        start, value = np.searchsorted(col, np.arange(n + 1)), A.T[col, index]
    else:
        start, index, value = A.indptr, A.indices, A.data.astype(float)
    if not np.isfinite(value).all():
        raise ValueError("A must be finite")
    m = A.shape[0]
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_ = start.tolist(), index.tolist()
    lp.a_matrix_.value_, lp.col_cost_ = value.tolist(), c.tolist()
    lp.col_lower_ = _bounds(lower, n, "variable bounds")
    lp.col_upper_ = _bounds(upper, n, "variable bounds")
    lp.row_lower_ = _bounds(row_lower, m, "row bounds")
    lp.row_upper_ = _bounds(row_upper, m, "row bounds")
    solver = getattr(_THREAD, "highs", None)
    if solver is None:
        solver = _THREAD.highs = highs._Highs()
        solver.passOptions(_HIGHS_OPTIONS)
    if solver.passModel(lp) == highs.HighsStatus.kError:
        raise ValueError("HiGHS rejected the LP")
    solver.run()
    status = _ENDINGS.get(solver.getModelStatus(), STATUS_FAILED)
    if status == STATUS_OPTIMAL:
        return LpResult(np.array(solver.getSolution().col_value),
                        solver.getObjectiveValue(), status)
    return LpResult(None, -np.inf if status == STATUS_UNBOUNDED else np.nan, status)
