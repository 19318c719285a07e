"""Newton solvers for the response-probability estimating equations.

Four equation kinds are supported: the maximum-likelihood score over the full
sample (unit weights or survey weights 1/pi) and calibration of the
respondent-weighted auxiliary totals against a population-level or
sample-level target. Calibration residuals are evaluated in raking form,
1/f = 1 + exp(-x.lam), which is exact and avoids dividing by saturated
probabilities. Raking calibration is the minimisation of a convex function
(Deville & Sarndal 1992), which the calibration solver uses both to
globalise Newton's method and to certify that a target has no solution.
solve is the reference; solve_block takes the same Newton steps on a stack
of equations at once and leaves every fit that does not converge to it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .population import expit

__all__ = [
    "EEKind",
    "EstimatingEquation",
    "SolverControls",
    "FitStatus",
    "FitResult",
    "FitNotConvergedError",
    "score_mle",
    "calib_residual",
    "residual",
    "jacobian",
    "solve",
    "solve_block",
    "response_probabilities",
]

_COND_LIMIT = 1e12
_MAX_HALVINGS = 30
_ARMIJO = 1e-4
_CERT_RTOL = 1e-12
_EPS = float(np.finfo(float).eps)


class EEKind(enum.Enum):
    MLE_K1 = "mle_k1"
    MLE_KINVPI = "mle_kinvpi"
    CAL_POPULATION = "cal_population"
    CAL_SAMPLE = "cal_sample"


_CAL_KINDS = (EEKind.CAL_POPULATION, EEKind.CAL_SAMPLE)


class FitStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    SINGULAR_JACOBIAN = "singular_jacobian"
    DIVERGED = "diverged"


class FitNotConvergedError(RuntimeError):
    """Raised when a downstream consumer requires a converged fit."""


@dataclass(frozen=True)
class EstimatingEquation:
    """Per-unit data (x_i, pi_i, r_i) over the sample plus the equation target.

    The target is the zero vector for the MLE kinds, the population totals of
    the auxiliaries for population-level calibration, and the full-sample HT
    totals for sample-level calibration. Calibration kinds need at least q
    respondents spanning R^q for the Jacobian to be invertible.
    """

    kind: EEKind
    x: np.ndarray
    pi: np.ndarray
    r: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        pi = np.asarray(self.pi, dtype=float)
        r = np.asarray(self.r, dtype=np.int64)
        target = np.asarray(self.target, dtype=float)
        n, q = x.shape
        if pi.shape != (n,) or r.shape != (n,):
            raise ValueError("x, pi, r must agree on the number of sampled units")
        if target.shape != (q,):
            raise ValueError("target length must match the auxiliary dimension")
        if not np.all((pi > 0.0) & (pi <= 1.0)):
            raise ValueError("inclusion probabilities must lie in (0, 1]")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(target))):
            raise ValueError("auxiliaries and target must be finite")
        if not np.all((r == 0) | (r == 1)):
            raise ValueError("r must be 0/1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "target", target)

    @classmethod
    def mle(cls, x, pi, r, survey_weighted: bool = False) -> "EstimatingEquation":
        q = np.atleast_2d(np.asarray(x)).shape[1]
        kind = EEKind.MLE_KINVPI if survey_weighted else EEKind.MLE_K1
        return cls(kind=kind, x=x, pi=pi, r=r, target=np.zeros(q))

    @classmethod
    def cal_population(cls, x, pi, r, population_totals) -> "EstimatingEquation":
        return cls(kind=EEKind.CAL_POPULATION, x=x, pi=pi, r=r, target=population_totals)

    @classmethod
    def cal_sample(cls, x, pi, r) -> "EstimatingEquation":
        x = np.atleast_2d(np.asarray(x, dtype=float))
        pi = np.asarray(pi, dtype=float)
        target = (x / pi[:, None]).sum(axis=0)
        return cls(kind=EEKind.CAL_SAMPLE, x=x, pi=pi, r=r, target=target)

    @property
    def n_respondents(self) -> int:
        return int(self.r.sum())


@dataclass(frozen=True)
class SolverControls:
    """Newton iteration controls.

    tol is relative to max(1, ||target||_inf). max_step and divergence_bound
    act on the MLE kinds only: max_step caps a single Newton step in the
    infinity norm before any halving, and divergence_bound cuts off runaway
    coefficients (the logistic saturates well before 50). Calibration
    solutions can lie far beyond 50 and are not cut off.
    """

    tol: float = 1e-8
    max_iter: int = 50
    max_step: float = 10.0
    lambda0: np.ndarray | None = None
    divergence_bound: float = 50.0
    trace: bool = False

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.max_step <= 0.0 or self.divergence_bound <= 0.0:
            raise ValueError("max_step and divergence_bound must be positive")


@dataclass(frozen=True)
class FitResult:
    """Outcome of one estimating-equation solve.

    p_hat holds fitted probabilities for every sampled unit (clipped into the
    open interval so reweighting never divides by zero); trace rows are
    (iteration, residual_norm, step_size) when tracing was requested.
    """

    lambda_hat: np.ndarray
    p_hat: np.ndarray
    status: FitStatus
    iterations: int
    residual_norm: float
    condition_estimate: float
    trace: tuple = ()

    @property
    def converged(self) -> bool:
        return self.status is FitStatus.CONVERGED


def _k_weights(eq: EstimatingEquation) -> np.ndarray:
    if eq.kind is EEKind.MLE_K1:
        return np.ones_like(eq.pi)
    if eq.kind is EEKind.MLE_KINVPI:
        return 1.0 / eq.pi
    raise ValueError(f"no k weights for equation kind {eq.kind}")


def score_mle(lam, x, pi, r, survey_weighted: bool = False) -> np.ndarray:
    """MLE score sum_S k_i (r_i - f_i) x_i with k = 1 or 1/pi."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    pi = np.asarray(pi, dtype=float)
    r = np.asarray(r, dtype=float)
    f = expit(x @ np.asarray(lam, dtype=float))
    k = 1.0 / pi if survey_weighted else np.ones_like(pi)
    return (k * (r - f)) @ x


def calib_residual(lam, x_r, pi_r, target) -> np.ndarray:
    """Calibration residual sum_{S_r} x_i/(pi_i f_i) - target in raking form."""
    x_r = np.atleast_2d(np.asarray(x_r, dtype=float))
    pi_r = np.asarray(pi_r, dtype=float)
    eta = x_r @ np.asarray(lam, dtype=float)
    with np.errstate(over="ignore"):
        inv_f = 1.0 + np.exp(-eta)
    return (inv_f / pi_r) @ x_r - np.asarray(target, dtype=float)


def residual(lam, eq: EstimatingEquation) -> np.ndarray:
    """Residual of the estimating equation at lam (zero at a solution)."""
    if eq.kind in (EEKind.MLE_K1, EEKind.MLE_KINVPI):
        return score_mle(lam, eq.x, eq.pi, eq.r, survey_weighted=eq.kind is EEKind.MLE_KINVPI)
    mask = eq.r == 1
    return calib_residual(lam, eq.x[mask], eq.pi[mask], eq.target)


def jacobian(lam, eq: EstimatingEquation) -> np.ndarray:
    """Analytical Jacobian of the residual with respect to lam."""
    lam = np.asarray(lam, dtype=float)
    if eq.kind in (EEKind.MLE_K1, EEKind.MLE_KINVPI):
        f = expit(eq.x @ lam)
        u = _k_weights(eq) * f * (1.0 - f)
        return -(eq.x * u[:, None]).T @ eq.x
    mask = eq.r == 1
    x_r = eq.x[mask]
    with np.errstate(over="ignore"):
        g = np.exp(-(x_r @ lam)) / eq.pi[mask]
    return -(x_r * g[:, None]).T @ x_r


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _initial_point(eq: EstimatingEquation) -> np.ndarray:
    # Intercept-only solution of each equation: a cheap globalization that
    # starts Newton at the correct overall response level.
    inv_pi = 1.0 / eq.pi
    resp = eq.r == 1
    if eq.kind is EEKind.MLE_K1:
        frac = eq.r.mean()
    elif eq.kind is EEKind.MLE_KINVPI:
        frac = float(inv_pi @ eq.r) / float(inv_pi.sum())
    elif eq.kind is EEKind.CAL_SAMPLE:
        frac = float(inv_pi[resp].sum()) / float(inv_pi.sum())
    else:
        frac = float(inv_pi[resp].sum()) / float(eq.target[0])
    frac = min(max(frac, 1e-6), 1.0 - 1e-6)
    lam0 = np.zeros(eq.x.shape[1])
    lam0[0] = _logit(frac)
    return lam0


def response_probabilities(x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Fitted probabilities expit(x_i.lam), clipped into the open interval so
    reweighting never divides by zero. A stack of coefficient rows (B, q)
    goes with a stack of units (B, n, q)."""
    eta = x @ lam if lam.ndim == 1 else _matvec(x, lam)
    return np.clip(expit(eta), np.finfo(float).tiny, np.nextafter(1.0, 0.0))


def _newton_calibration(eq: EstimatingEquation, lam: np.ndarray, controls: SolverControls):
    """Newton's method with an Armijo line search on the raking objective

        G(lam) = sum_{S_r} d_i exp(-x_i.lam) + c.lam,   c = target - sum_{S_r} d_i x_i,

    with d_i = 1/pi_i. G is convex, its gradient is minus the calibration
    residual and its Hessian sum_{S_r} d_i exp(-x_i.lam) x_i x_i' is minus
    the Jacobian, so the calibration equation has a finite solution exactly
    when G has a minimiser. A direction v != 0 with x_i.v >= 0 on every
    respondent and c.v <= 0 proves that G has no minimiser (it never
    increases along v); finding one gives DIVERGED. Otherwise a Hessian
    without a Cholesky factor gives SINGULAR_JACOBIAN, and a stalled line
    search or max_iter iterations give MAX_ITERATIONS.
    """
    mask = eq.r == 1
    x_r = eq.x[mask]
    d_r = 1.0 / eq.pi[mask]
    c = eq.target - d_r @ x_r
    tol = controls.tol * max(1.0, float(np.max(np.abs(eq.target))))
    with np.errstate(over="ignore"):
        e = d_r * np.exp(-(x_r @ lam))
    res = e @ x_r - c
    rn = float(np.max(np.abs(res)))
    hess = None
    iterations = 0
    trace: list[tuple[int, float, float]] = []
    delta = None
    while True:
        if rn <= tol:
            status = FitStatus.CONVERGED
            break
        if iterations >= controls.max_iter:
            status = FitStatus.MAX_ITERATIONS
            break
        hess = (x_r * e[:, None]).T @ x_r
        if not np.all(np.isfinite(hess)):
            status = FitStatus.SINGULAR_JACOBIAN
            break
        try:
            np.linalg.cholesky(hess)
            delta = np.linalg.solve(hess, res)
        except np.linalg.LinAlgError:
            status = FitStatus.SINGULAR_JACOBIAN
            break
        xd = x_r @ delta
        cd = float(c @ delta)
        if np.min(xd) >= 0.0 and cd <= 0.0:
            # G never increases along delta: no minimiser.
            status = FitStatus.DIVERGED
            break
        slope = cd - float(e @ xd)
        # Backtrack until the Armijo condition holds, or until the step no
        # longer moves lam in floating point (the iteration has stalled).
        alpha = 1.0
        floor = _EPS * (1.0 + float(np.max(np.abs(lam)))) / float(np.max(np.abs(delta)))
        with np.errstate(over="ignore", invalid="ignore"):
            # G(lam + alpha delta) - G(lam), free of the cancellation in the
            # large c.lam term.
            while not float(e @ np.expm1(-alpha * xd)) + alpha * cd <= _ARMIJO * alpha * slope:
                alpha *= 0.5
                if alpha < floor:
                    break
        if alpha < floor:
            status = FitStatus.MAX_ITERATIONS
            break
        lam = lam + alpha * delta
        with np.errstate(over="ignore"):
            e = d_r * np.exp(-(x_r @ lam))
        res = e @ x_r - c
        rn = float(np.max(np.abs(res)))
        iterations += 1
        if controls.trace:
            trace.append((iterations, rn, alpha * float(np.max(np.abs(delta)))))
    if status is not FitStatus.CONVERGED and _has_certificate(x_r, c, (delta, lam)):
        status = FitStatus.DIVERGED
    cond = float(np.linalg.cond(hess)) if hess is not None and np.all(np.isfinite(hess)) else math.nan
    return lam, status, iterations, rn, cond, trace


def _has_certificate(x_r: np.ndarray, c: np.ndarray, directions) -> bool:
    """Whether some v != 0 has x_i.v >= 0 on every respondent and c.v <= 0,
    up to rounding relative to |x_i||v| and |c||v|, with x_i.v > 0 for some i.

    Candidates are each given direction and its projections off the
    respondents most opposed to it: an iterate running away along a
    recession direction keeps x_j.lam bounded on the respondents of the face
    it approaches, so lam/|lam| misses the face by O(1/|lam|).
    """
    norms = np.linalg.norm(x_r, axis=1)
    c_norm = float(np.linalg.norm(c))
    for u in directions:
        if u is None or not np.all(np.isfinite(u)):
            continue
        order = np.argsort((x_r @ u) / norms)
        for k in range(x_r.shape[1]):
            basis = np.linalg.qr(x_r[order[:k]].T)[0]
            v = u - basis @ (basis.T @ u)
            slack = _CERT_RTOL * float(np.linalg.norm(v))
            xv = x_r @ v
            if (
                np.all(xv >= -slack * norms)
                and np.any(xv > slack * norms)
                and float(c @ v) <= slack * c_norm
            ):
                return True
    return False


def _newton_mle(eq: EstimatingEquation, lam: np.ndarray, controls: SolverControls):
    """Damped Newton on the MLE score: the step is capped at max_step and
    halved (at most 30 times) until the residual infinity norm decreases. A
    Jacobian with condition estimate above 1e12 gives SINGULAR_JACOBIAN and
    coefficients passing divergence_bound (separation) give DIVERGED."""
    scale = max(1.0, float(np.max(np.abs(eq.target))))
    res = residual(lam, eq)
    rn = float(np.max(np.abs(res)))
    cond = math.nan
    iterations = 0
    trace: list[tuple[int, float, float]] = []
    status = None

    while status is None:
        if rn <= controls.tol * scale:
            status = FitStatus.CONVERGED
            break
        if iterations >= controls.max_iter:
            status = FitStatus.MAX_ITERATIONS
            break
        jac = jacobian(lam, eq)
        if not np.all(np.isfinite(jac)):
            status = FitStatus.SINGULAR_JACOBIAN
            break
        cond = float(np.linalg.cond(jac))
        if not math.isfinite(cond) or cond > _COND_LIMIT:
            status = FitStatus.SINGULAR_JACOBIAN
            break
        delta = np.linalg.solve(jac, -res)
        dn = float(np.max(np.abs(delta)))
        if dn > controls.max_step:
            delta *= controls.max_step / dn
        alpha = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            cand = lam + alpha * delta
            cand_res = residual(cand, eq)
            cand_rn = float(np.max(np.abs(cand_res)))
            if cand_rn < rn:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            # No descent along the Newton direction within 30 halvings:
            # the iteration has stalled.
            status = FitStatus.MAX_ITERATIONS
            break
        lam, res, rn = cand, cand_res, cand_rn
        iterations += 1
        if controls.trace:
            trace.append((iterations, rn, alpha * float(np.max(np.abs(delta)))))
        if float(np.max(np.abs(lam))) > controls.divergence_bound:
            status = FitStatus.DIVERGED
            break

    return lam, status, iterations, rn, cond, trace


def solve(eq: EstimatingEquation, controls: SolverControls = SolverControls()) -> FitResult:
    """Solve the estimating equation by Newton iteration.

    Convergence requires ||residual||_inf <= tol * max(1, ||target||_inf).
    Calibration kinds minimise the convex raking objective with an Armijo
    line search, so they converge whenever a finite solution exists; the MLE
    kinds use a damped Newton iteration on the score. Non-convergence is
    reported through the status, never raised. DIVERGED means the equation
    has no finite solution: no respondents, a full respondent set for the
    MLE kinds or for sample-level calibration (separation or a target on the
    boundary of the feasible cone), MLE coefficients passing the divergence
    bound, or a calibration target certified outside the interior of the
    cone of respondent auxiliaries. SINGULAR_JACOBIAN and MAX_ITERATIONS are
    solver failures that no such certificate explains.
    """
    n = eq.x.shape[0]
    n_r = eq.n_respondents
    if n_r == 0 or (n_r == n and eq.kind is not EEKind.CAL_POPULATION):
        lam = (
            np.asarray(controls.lambda0, dtype=float).copy()
            if controls.lambda0 is not None
            else np.zeros(eq.x.shape[1])
        )
        return FitResult(
            lambda_hat=lam,
            p_hat=response_probabilities(eq.x, lam),
            status=FitStatus.DIVERGED,
            iterations=0,
            residual_norm=float(np.max(np.abs(residual(lam, eq)))),
            condition_estimate=math.nan,
        )
    lam = (
        np.asarray(controls.lambda0, dtype=float).copy()
        if controls.lambda0 is not None
        else _initial_point(eq)
    )
    newton = _newton_calibration if eq.kind in _CAL_KINDS else _newton_mle
    lam, status, iterations, rn, cond, trace = newton(eq, lam, controls)
    return FitResult(
        lambda_hat=lam,
        p_hat=response_probabilities(eq.x, lam),
        status=status,
        iterations=iterations,
        residual_norm=rn,
        condition_estimate=cond,
        trace=tuple(trace),
    )


# ---------------------------------------------------------------- stacks
#
# solve_block runs the Newton iterations of solve on a stack of equations at
# once. Every array carries a leading stack axis; samples of different sizes
# are padded to a common length with rows that add exact zeros. Each
# equation takes exactly the steps solve takes; one that leaves the
# converging path is dropped, and the caller re-solves it with solve.


def _rows_dot(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_i w_i x_i per equation: (B, n) and (B, n, k) to (B, k)."""
    return (w[:, None, :] @ x)[:, 0]


def _matvec(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """x_i.v_b per equation: (B, n, q) and (B, q) to (B, n)."""
    return (x @ v[..., None])[..., 0]


def _outer_rows(x: np.ndarray) -> np.ndarray:
    """x_i x_i' per unit, flattened: (B, n, q) to (B, n, q*q), so that
    sum_i w_i x_i x_i' = _rows_dot(w, _outer_rows(x)) reshaped to (B, q, q)."""
    return np.concatenate([x * x[..., j, None] for j in range(x.shape[-1])], axis=-1)


def _subset(mask: np.ndarray, *arrays):
    """The arrays' rows where mask holds (the arrays themselves where it holds everywhere)."""
    if mask.all():
        return arrays
    return tuple(a[mask] for a in arrays)


def _stacked(step, a: np.ndarray, b: np.ndarray):
    """step(a_b, b_b) for a stack of finite (q, q) matrices and (q,) vectors.

    Returns (result, ok): where LAPACK raises for a matrix, as it would in
    the scalar solver, ok is False and the result NaN. A stack that raises
    is split in halves until the failing matrices are found.
    """
    try:
        return step(a, b[..., None])[..., 0], np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full_like(b, np.nan), np.zeros(1, dtype=bool)
        h = len(a) // 2
        (r1, ok1), (r2, ok2) = _stacked(step, a[:h], b[:h]), _stacked(step, a[h:], b[h:])
        return np.concatenate([r1, r2]), np.concatenate([ok1, ok2])


def _cholesky_solve(hess: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # The Cholesky factor is only the positive-definiteness test.
    np.linalg.cholesky(hess)
    return np.linalg.solve(hess, rhs)


def _finite_or_eye(a: np.ndarray, ok: np.ndarray) -> np.ndarray:
    return np.where(ok[:, None, None], a, np.eye(a.shape[-1]))


def _initial_points(kinds: np.ndarray, pi, r, valid, target) -> np.ndarray:
    """_initial_point for each equation of a stack."""
    inv_pi = np.where(valid, 1.0 / pi, 0.0)
    resp_total = np.where(r == 1, inv_pi, 0.0).sum(axis=1)
    denom = np.where(kinds == EEKind.CAL_POPULATION, target[:, 0], inv_pi.sum(axis=1))
    frac = np.where(kinds == EEKind.MLE_K1, r.sum(axis=1) / valid.sum(axis=1), resp_total / denom)
    frac = np.clip(frac, 1e-6, 1.0 - 1e-6)
    lam0 = np.zeros(target.shape)
    lam0[:, 0] = np.log(frac / (1.0 - frac))
    return lam0


class _Outcome:
    """Where a stack's converged equations are recorded, by original position."""

    def __init__(self, lam: np.ndarray):
        self.lam = np.full_like(lam, np.nan)
        self.converged = np.zeros(len(lam), dtype=bool)
        self.iterations = np.zeros(len(lam), dtype=np.int64)

    def record(self, done, ids, lam, it) -> None:
        if not done.any():
            return
        self.lam[ids[done]] = lam[done]
        self.converged[ids[done]] = True
        self.iterations[ids[done]] = it[done]

    def result(self):
        return self.lam, self.converged, self.iterations


def _block_calibration(x, pi, r, target, lam, controls: SolverControls):
    """_newton_calibration on a stack; returns (lambda, converged, iterations)."""
    # The respondents of each equation first, padded with zero rows (d = 0).
    resp = r == 1
    m = int(resp.sum(axis=1).max())
    order = np.argsort(~resp, axis=1, kind="stable")[:, :m]
    keep = np.take_along_axis(resp, order, axis=1)
    x = np.take_along_axis(x, order[..., None], axis=1) * keep[..., None]
    d = np.where(keep, 1.0 / np.take_along_axis(pi, order, axis=1), 0.0)
    xx = _outer_rows(x)
    q = lam.shape[1]
    out = _Outcome(lam)
    c = target - _rows_dot(d, x)
    tol = controls.tol * np.maximum(1.0, np.max(np.abs(target), axis=1))
    ids = np.arange(len(lam))
    it = np.zeros(len(lam), dtype=np.int64)
    # exp(-x.lam) may overflow and G(lam + alpha delta) - G(lam) then be
    # NaN; both fail the tests below as they do in solve.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            e = d * np.exp(-_matvec(x, lam))
            res = _rows_dot(e, x) - c
            done = np.max(np.abs(res), axis=1) <= tol
            out.record(done, ids, lam, it)
            go = ~done & (it < controls.max_iter)
            if not go.any():
                return out.result()
            ids, x, xx, d, c, tol, lam, it, e, res = _subset(
                go, ids, x, xx, d, c, tol, lam, it, e, res
            )
            hess = _rows_dot(e, xx).reshape(-1, q, q)
            ok = np.isfinite(hess).all(axis=(1, 2))
            delta, solved = _stacked(_cholesky_solve, _finite_or_eye(hess, ok), res)
            ok &= solved
            xd = _matvec(x, delta)
            cd = np.sum(c * delta, axis=1)
            # A certificate that G has no minimiser: solve reports DIVERGED.
            ok &= ~((np.min(xd, axis=1) >= 0.0) & (cd <= 0.0))
            slope = cd - np.sum(e * xd, axis=1)
            floor = _EPS * (1.0 + np.max(np.abs(lam), axis=1)) / np.max(np.abs(delta), axis=1)
            # Backtrack each equation until the Armijo condition holds, or
            # hand it back once its step no longer moves lambda.
            alpha = np.ones(len(ids))
            pending = ok.copy()
            while pending.any():
                e_p, xd_p, cd_p, slope_p, a = _subset(pending, e, xd, cd, slope, alpha)
                change = np.sum(e_p * np.expm1(-a[:, None] * xd_p), axis=1) + a * cd_p
                rejected = np.flatnonzero(pending)[~(change <= _ARMIJO * a * slope_p)]
                alpha[rejected] *= 0.5
                moving = alpha[rejected] >= floor[rejected]
                pending[:] = False
                pending[rejected[moving]] = True
                ok[rejected[~moving]] = False
            lam = lam + alpha[:, None] * delta
            ids, x, xx, d, c, tol, lam, it = _subset(ok, ids, x, xx, d, c, tol, lam, it + 1)


def _block_mle(x, k, r, target, lam, controls: SolverControls):
    """_newton_mle on a stack, with k the MLE weights (zero on padding);
    returns (lambda, converged, iterations).

    The condition test uses the eigenvalues of the symmetric Jacobian and
    hands an equation back at _COND_LIMIT / 100, so every equation whose
    Jacobian solve would call singular is handed back to it.
    """
    xx = _outer_rows(x)
    q = lam.shape[1]
    out = _Outcome(lam)
    tol = controls.tol * np.maximum(1.0, np.max(np.abs(target), axis=1))

    def score(x, k, r, lam):
        res = _rows_dot(k * (r - expit(_matvec(x, lam))), x)
        return res, np.max(np.abs(res), axis=1)

    res, rn = score(x, k, r, lam)
    ids = np.arange(len(lam))
    it = np.zeros(len(lam), dtype=np.int64)
    # Equations already handed back may carry NaN or infinite steps.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            done = rn <= tol
            out.record(done, ids, lam, it)
            go = ~done & (it < controls.max_iter)
            if not go.any():
                return out.result()
            ids, x, xx, k, r, tol, lam, res, rn, it = _subset(
                go, ids, x, xx, k, r, tol, lam, res, rn, it
            )
            f = expit(_matvec(x, lam))
            jac = -_rows_dot(k * f * (1.0 - f), xx).reshape(-1, q, q)
            ok = np.isfinite(jac).all(axis=(1, 2))
            jac = _finite_or_eye(jac, ok)
            ev = np.abs(np.linalg.eigvalsh(jac))
            ok &= np.max(ev, axis=1) <= _COND_LIMIT / 100.0 * np.min(ev, axis=1)
            delta, solved = _stacked(np.linalg.solve, jac, -res)
            ok &= solved
            dn = np.max(np.abs(delta), axis=1)
            capped = dn > controls.max_step
            delta[capped] *= (controls.max_step / dn[capped])[:, None]
            # Halve until the residual norm decreases, at most _MAX_HALVINGS times.
            alpha = np.ones(len(ids))
            lam_new = lam + delta
            res_new, rn_new = score(x, k, r, lam_new)
            pending = ok & ~(rn_new < rn)
            for _ in range(_MAX_HALVINGS):
                if not pending.any():
                    break
                alpha[pending] *= 0.5
                x_p, k_p, r_p, lam_p, delta_p, rn_p, a = _subset(
                    pending, x, k, r, lam, delta, rn, alpha
                )
                cand = lam_p + a[:, None] * delta_p
                cand_res, cand_rn = score(x_p, k_p, r_p, cand)
                better = cand_rn < rn_p
                acc = np.flatnonzero(pending)[better]
                lam_new[acc] = cand[better]
                res_new[acc], rn_new[acc] = cand_res[better], cand_rn[better]
                pending[acc] = False
            ok &= ~pending
            # Coefficients past the divergence bound: solve reports DIVERGED.
            ok &= np.max(np.abs(lam_new), axis=1) <= controls.divergence_bound
            ids, x, xx, k, r, tol, lam, res, rn, it = _subset(
                ok, ids, x, xx, k, r, tol, lam_new, res_new, rn_new, it + 1
            )


def solve_block(
    kinds,
    x: np.ndarray,
    pi: np.ndarray,
    r: np.ndarray,
    valid: np.ndarray,
    target: np.ndarray,
    controls: SolverControls = SolverControls(),
):
    """Solve a stack of B estimating equations by the iteration of solve.

    ``kinds`` gives each equation's EEKind, ``x`` is (B, n, q), ``pi``,
    ``r`` and ``valid`` are (B, n) and ``target`` is (B, q): equation b is
    EstimatingEquation(kinds[b], x[b, :n_b], pi[b, :n_b], r[b, :n_b],
    target[b]), its rows past n_b marked False in ``valid`` and holding
    x = 0, pi = 1, r = 0. Each equation needs at least one respondent, and
    at least one nonrespondent unless it is a population-level calibration
    (solve short-cuts those to DIVERGED).

    Returns (lambda_hat, converged, iterations), each indexed by equation.
    An equation converges here in exactly the iterations solve takes, up to
    rounding in the sums. Every other outcome (a certificate, a singular
    Hessian or Jacobian, a stalled line search, the divergence bound or
    max_iter) leaves converged False and lambda_hat NaN: solve, re-run from
    the start, gives its status.
    """
    kinds = np.asarray(kinds, dtype=object)
    if controls.lambda0 is not None:
        lam = np.broadcast_to(np.asarray(controls.lambda0, dtype=float), target.shape).copy()
    else:
        lam = _initial_points(kinds, pi, r, valid, target)
    lam_hat = np.full_like(lam, np.nan)
    converged = np.zeros(len(lam), dtype=bool)
    iterations = np.zeros(len(lam), dtype=np.int64)
    cal = (kinds == EEKind.CAL_POPULATION) | (kinds == EEKind.CAL_SAMPLE)
    if cal.any():
        lam_hat[cal], converged[cal], iterations[cal] = _block_calibration(
            x[cal], pi[cal], r[cal], target[cal], lam[cal], controls
        )
    mle = ~cal
    if mle.any():
        survey_weighted = (kinds[mle] == EEKind.MLE_KINVPI)[:, None]
        k = np.where(valid[mle], np.where(survey_weighted, 1.0 / pi[mle], 1.0), 0.0)
        lam_hat[mle], converged[mle], iterations[mle] = _block_mle(
            x[mle], k, r[mle].astype(float), target[mle], lam[mle], controls
        )
    return lam_hat, converged, iterations
