"""Small dense NLP and LP solving used by the planner, the MPC and the
stability margins.

Problem sizes here are tiny (at most a few hundred variables).  An NLP is
either a smooth objective under bounds and inequality constraints, solved
by SLSQP with the caller's gradient and constraint Jacobian, or a sum of
squares 0.5 |r(x)|^2 under bounds only, solved by bounded Gauss-Newton:
each step minimises the linearised residual |r + J dx|^2 in the box by
bounded-variable least squares (BVLS, ``scipy.optimize.lsq_linear``), so
one step solves a linear problem exactly and the caller's residual
Jacobian is the only derivative needed.  Stationarity is measured a
posteriori: active_set_multipliers fits non-negative multipliers to the
active constraints and bounds by least squares, and the reported KKT
residual is the largest entry of the Lagrangian gradient they leave.

The LP path is one thin call to HiGHS through ``scipy.optimize.linprog``:
``solve_lp`` takes linprog's own arguments, leaves variables free unless
bounds are given, and maps linprog's ending to one of the status strings
below (optimal, unbounded, infeasible, max_iters, failed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np
from scipy import optimize

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITERS = "max_iters"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_FAILED = "failed"


@dataclass
class NlpProblem:
    """Minimise objective(x), or 0.5 |residuals(x)|^2 when residuals are
    given, subject to lower <= x <= upper and, for an objective only,
    constraints(x) <= 0.  Each function comes with its derivative."""

    x0: np.ndarray
    objective: Callable[[np.ndarray], float] | None = None
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    residuals: Callable[[np.ndarray], np.ndarray] | None = None      # r(x), (m,)
    residuals_jac: Callable[[np.ndarray], np.ndarray] | None = None  # (m, n)
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
        elif self.residuals_jac is None:
            raise ValueError("residuals need residuals_jac")
        elif not (self.objective is None and self.gradient is None
                  and self.constraints is None):
            raise ValueError("residuals take bounds only: no objective or constraints")


@dataclass
class NlpResult:
    x: np.ndarray
    objective: float
    kkt_residual: float
    status: str
    n_iter: int
    constraint_violation: float
    kkt_s: float                   # seconds in active_set_multipliers
    message: str = ""


def active_set_multipliers(problem: NlpProblem, x: np.ndarray, grad: np.ndarray,
                           tol_act: float = 1e-6) -> float:
    """KKT residual at x, where the objective's gradient is grad: the
    infinity norm of grad + A lam, with A's columns the outward normals of
    the active constraints and bounds and lam >= 0 their non-negative
    least-squares fit to -grad.  perfbench/tracing.py times the fit under
    this name."""
    scale = np.maximum(1.0, np.abs(x))
    eye = np.eye(x.size)
    cols = [-eye[:, x - problem.lower <= tol_act * scale],
            eye[:, problem.upper - x <= tol_act * scale]]
    if problem.constraints is not None:
        g = np.atleast_1d(problem.constraints(x))
        cols.append(np.atleast_2d(problem.constraints_jac(x))[g >= -tol_act].T)
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
                     constraint_violation=violation, kkt_s=kkt_s, message=str(res.message))


def _finite(values, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        # BVLS does not return on NaN input (LAPACK DLASCL error), so stop here.
        raise RuntimeError(f"non-finite {what}")
    return values


def _gauss_newton(problem: NlpProblem) -> NlpResult:
    """At most max_iter bounded Gauss-Newton steps from the clipped x0.

    Each step evaluates the residual Jacobian once, stops if the point is
    stationary to tol_stat, and otherwise moves to the BVLS minimiser of
    the linearised residual in the box.  The last residuals call is at the
    returned point.  After max_iter steps the Jacobian at that point has not
    been evaluated, so kkt_residual is NaN.
    Raises RuntimeError on non-finite residuals or Jacobian.
    """
    lo, hi = problem.lower, problem.upper
    free = lo < hi                      # lsq_linear rejects equal bounds
    x = np.clip(problem.x0, lo, hi)
    r = _finite(problem.residuals(x), "residuals")
    status, resid, kkt_s = STATUS_MAX_ITERS, np.nan, 0.0
    for n_iter in range(problem.max_iter):
        J = _finite(problem.residuals_jac(x), "residual Jacobian")
        grad = J.T @ r
        t0 = time.perf_counter()
        resid = active_set_multipliers(problem, x, grad)
        kkt_s += time.perf_counter() - t0
        if resid <= problem.tol_stat:
            status = STATUS_OPTIMAL
            break
        box = ((lo - x)[free], (hi - x)[free])
        step = np.zeros_like(x)
        step[free] = optimize.lsq_linear(J[:, free], -r, bounds=box, method="bvls").x
        x = np.clip(x + step, lo, hi)
        r = _finite(problem.residuals(x), "residuals")
        resid = np.nan
    else:
        n_iter = problem.max_iter
    return NlpResult(x=x, objective=0.5 * float(r @ r), kkt_residual=resid,
                     status=status, n_iter=n_iter, constraint_violation=0.0, kkt_s=kkt_s)


@dataclass
class LpResult:
    x: np.ndarray | None
    value: float
    status: str


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None) -> LpResult:
    """Minimise c.x subject to A_ub x <= b_ub and A_eq x = b_eq.

    The arguments are linprog's own; bounds default to free variables
    (not linprog's x >= 0).
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if bounds is None:
        bounds = [(None, None)] * c.size
    res = optimize.linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                           bounds=bounds, method="highs")
    if res.status == 0:
        return LpResult(res.x, float(res.fun), STATUS_OPTIMAL)
    if res.status == 3:
        return LpResult(None, -np.inf, STATUS_UNBOUNDED)
    if res.status == 2:
        return LpResult(None, np.nan, STATUS_INFEASIBLE)
    # 1: iteration limit; 4: numerical trouble, or no verdict between
    # infeasible and unbounded.
    return LpResult(None, np.nan, STATUS_MAX_ITERS if res.status == 1 else STATUS_FAILED)
