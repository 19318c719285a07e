"""Newton solver for the response-probability estimating equations.

Each fitted variant (see Variant) solves one estimating equation: the
maximum-likelihood score over the full sample (mle_1 with unit weights,
mle_invpi with survey weights 1/pi) or calibration of the respondent-weighted
auxiliary totals against a population-level (cal_U) or sample-level (cal_S)
target. Each equation is the gradient of a convex function

    F(lam) = sum_i w_i phi(-a_i.lam) + c.lam,

and is solved by one Newton iteration with an Armijo line search on F.
Calibration (raking, Deville & Sarndal 1992) has rows a_i = x_i over the
respondents, w_i = 1/pi_i, phi = exp and c = target - sum_i w_i a_i. The MLE
variants have rows a_i = x_i for respondents and -x_i for nonrespondents
over the whole sample, w_i = k_i (1 or 1/pi_i), phi = softplus and c = 0, so
F is the k-weighted negative log-likelihood. CONVERGED and DIVERGED each rest
on a proof: a converged fit writes c as a strictly positive combination of
the rows, so a finite solution exists; a diverged one has a direction along
which F never increases, so none does (for the MLE variants, separation).
solve_block runs the iteration on a stack of equations and gives every
equation its status; solve is its stack of one, and residual and jacobian
evaluate its terms for the stack of one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .population import expit

__all__ = [
    "Variant",
    "EstimatingEquation",
    "SolverControls",
    "FitStatus",
    "FitResult",
    "FitNotConvergedError",
    "residual",
    "jacobian",
    "solve",
    "solve_block",
    "Stack",
    "BlockFit",
    "response_probabilities",
]

_ARMIJO = 1e-4
# A Newton step delta with |a_i.delta| <= _SAFE_STEP on every row meets the
# Armijo condition without evaluating F: as |phi'''| <= phi'' for exp and
# softplus, F(lam + delta) - F(lam) <= -(1 - k(v)) res.delta with
# v = max_i |a_i.delta| and k(v) = (e^v - 1 - v)/v^2, which is 0.88 at
# v = 1.5 (the self-concordance bound of Bach 2010).
_SAFE_STEP = 1.5
_CERT_RTOL = 1e-12
_EPS = float(np.finfo(float).eps)
# A Cholesky pivot at most this multiple of its diagonal entry marks the
# matrix singular (see _cholesky_solve). An exactly singular matrix leaves
# pivots of a few rounding errors of that size, of either sign; a bare
# pivot > 0 test would solve such a system from its rounding noise.
_PIVOT_RTOL = 16.0 * _EPS


class Variant(enum.Enum):
    """The six estimators of a total; a value is the name in every output.
    The fitted ones take their response probabilities from an estimating
    equation: the maximum-likelihood score (mle: phi = softplus in F, with
    score weights k_i = 1/pi_i where k_inv_pi, else 1) or raking calibration
    (phi = exp) of the respondents' auxiliary totals to the population totals
    over U (population_level) or to the HT totals over the sample."""

    #            value        fitted mle    k_inv_pi population_level
    HT =         "ht",        False, False, False,   False
    TRUE_P =     "p",         False, False, False,   False
    MLE_K1 =     "mle_1",     True,  True,  False,   False
    MLE_KINVPI = "mle_invpi", True,  True,  True,    False
    CAL_U =      "cal_U",     True,  False, False,   True
    CAL_S =      "cal_S",     True,  False, False,   False

    def __new__(cls, value: str, fitted: bool, mle: bool, k_inv_pi: bool, population_level: bool):
        member = object.__new__(cls)
        member._value_ = value
        member.fitted, member.mle, member.k_inv_pi, member.population_level = fitted, mle, k_inv_pi, population_level
        return member


def _require_fitted(variant: Variant) -> None:
    """Refuse a variant that fits no response model (ValueError)."""
    if not variant.fitted:
        raise ValueError(f"variant {variant.value} fits no response model")


class FitStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    SINGULAR_JACOBIAN = "singular_jacobian"
    DIVERGED = "diverged"


class FitNotConvergedError(RuntimeError):
    """Raised when a downstream consumer requires a converged fit."""


@dataclass(frozen=True)
class EstimatingEquation:
    """Per-unit data (x_i, pi_i, r_i) over the sample of one fitted variant.

    kind is the fitted Variant whose equation this is; an unfitted one is
    refused (ValueError). The variant fixes the target (see _targets); only
    cal_U reads ``totals``, the population totals of the auxiliaries. The
    calibration variants need at least q respondents spanning R^q for the
    Jacobian to be invertible, and refuse data whose target - sum_i x_i/pi_i
    over the respondents overflows.
    """

    kind: Variant
    x: np.ndarray
    pi: np.ndarray
    r: np.ndarray
    totals: np.ndarray | None = None

    def __post_init__(self):
        _require_fitted(self.kind)
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        pi = np.asarray(self.pi, dtype=float)
        r = np.asarray(self.r, dtype=np.int64)
        totals = None if self.totals is None else np.asarray(self.totals, dtype=float)
        n, q = x.shape
        if pi.shape != (n,) or r.shape != (n,):
            raise ValueError("x, pi, r must agree on the number of sampled units")
        if self.kind.population_level and totals is not None and totals.shape != (q,):
            raise ValueError("target length must match the auxiliary dimension")
        if not np.all((pi > 0.0) & (pi <= 1.0)):
            raise ValueError("inclusion probabilities must lie in (0, 1]")
        target = _targets([self.kind], [0], x[None], pi[None], totals)[0]
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(target))):
            raise ValueError("auxiliaries and target must be finite")
        if not np.all((r == 0) | (r == 1)):
            raise ValueError("r must be 0/1")
        if not self.kind.mle:
            # c = target - sum_i x_i/pi_i over the respondents, by solve_block's own product.
            with np.errstate(**_QUIET):
                c = target - _rows_dot(1.0 / pi[r == 1][None], x[r == 1][None])[0]
            if not np.all(np.isfinite(c)):
                raise ValueError("target - sum_i x_i/pi_i over the respondents overflows float64 (rescale x)")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "totals", totals)

    @property
    def target(self) -> np.ndarray:
        """The right-hand side that the variant fixes, as solve_block takes it."""
        return _targets([self.kind], [0], self.x[None], self.pi[None], self.totals)[0]

    @classmethod
    def mle(cls, x, pi, r, survey_weighted: bool = False) -> "EstimatingEquation":
        return cls(Variant.MLE_KINVPI if survey_weighted else Variant.MLE_K1, x, pi, r)

    @classmethod
    def cal_population(cls, x, pi, r, population_totals) -> "EstimatingEquation":
        return cls(Variant.CAL_U, x, pi, r, population_totals)

    @classmethod
    def cal_sample(cls, x, pi, r) -> "EstimatingEquation":
        return cls(Variant.CAL_S, x, pi, r)


@dataclass(frozen=True)
class SolverControls:
    """Newton iteration controls.

    tol is relative to max(1, ||target||_inf); a fit converges once the
    residual is within it and the existence test holds (see solve). trace
    records every iteration in FitResult.trace.
    """

    tol: float = 1e-8
    max_iter: int = 50
    trace: bool = False

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class FitResult:
    """Outcome of one estimating-equation solve.

    p_hat holds fitted probabilities for every sampled unit (clipped into the
    open interval so reweighting never divides by zero); trace rows are
    (iteration, residual_norm, step_size) when tracing was requested.
    residual_norm is taken at the last iterate; a converged lambda_hat is one
    Newton step past it.
    """

    lambda_hat: np.ndarray
    p_hat: np.ndarray
    status: FitStatus
    iterations: int
    residual_norm: float
    trace: tuple = ()

    @property
    def converged(self) -> bool:
        return self.status is FitStatus.CONVERGED


def response_probabilities(x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Fitted probabilities expit(x_i.lam), clipped into the open interval so
    reweighting never divides by zero. A stack of coefficient rows (B, q)
    goes with a stack of units (B, n, q)."""
    eta = x @ lam if lam.ndim == 1 else _matvec(x, lam)
    return np.clip(expit(eta), np.finfo(float).tiny, np.nextafter(1.0, 0.0))


def _row_terms(eta: np.ndarray, w: np.ndarray, r: np.ndarray, softplus: bool, g: np.ndarray, h: np.ndarray):
    """Per-row terms of F where x_i.lam = eta, for one equation or a stack,
    written into the storage of eta and the buffers g and h.

    Returns (u, h, g): the residual -grad F is sum_i u_i x_i - c and the
    Hessian sum_i h_i x_i x_i'; g is |r_i - f_i| = sigma(-a_i.lam) for
    softplus and w_i exp(-a_i.lam) for exp. The MLE terms come from
    f = expit(x.lam) = 1/(1 + exp(-eta)) in the r - f form of the score
    sum_i k_i (r_i - f_i) x_i, with r boolean; u takes eta's storage. The
    exp terms are one array in eta's storage (u = h = g), and the buffers
    are left as they were.
    """
    e = np.exp(np.negative(eta, out=eta), out=eta)
    if softplus:
        e += 1.0
        f = np.divide(1.0, e, out=e)
        np.subtract(r, f, out=g)
        np.multiply(w, f, out=h)
        h *= np.subtract(1.0, f, out=f)
        u = np.multiply(w, g, out=eta)
        return u, h, np.abs(g, out=g)
    e *= w
    return e, e, e


def _exists(ad: np.ndarray, ad_max, g: np.ndarray, softplus: bool, v: np.ndarray):
    """The existence test max_i s_i a_i.delta < 1 (per equation for a
    stack), with s_i = sigma(a_i.lam) = 1 - g_i for softplus, 1 for exp,
    computed in the buffer v. As 0 < s_i <= 1, ad_max = max_i a_i.delta < 1
    already passes it."""
    holds = ad_max < 1.0
    if softplus and not np.all(holds):
        holds = np.multiply(np.subtract(1.0, g, out=v), ad, out=v).max(axis=-1) < 1.0
    return holds


def _change(alpha, p, ad: np.ndarray, w: np.ndarray, g: np.ndarray, softplus: bool, v: np.ndarray):
    """F(lam + alpha delta) - F(lam) less its linear term, free of
    cancellation: sum_i w_i (phi(-a_i.lam - alpha a_i.delta) - phi(-a_i.lam))
    for the equations p of a stack, with g from _row_terms, w = g (exp)
    or the weights (softplus) and alpha of shape (len(p), 1), in v's rows
    (mode "clip": take fills them unbuffered)."""
    v = np.take(ad, p, axis=0, out=v[: len(p)], mode="clip")
    v *= -alpha
    np.expm1(v, out=v)
    if softplus:
        v *= g[p]
        np.log1p(v, out=v)
    return (w[p][:, None, :] @ v[:, :, None])[:, 0, 0]


def _has_certificate(a: np.ndarray, c: np.ndarray, directions) -> bool:
    """Whether some v != 0 has a_i.v >= 0 on every row and c.v <= 0, up to
    rounding relative to |a_i||v| and |c||v|, with a_i.v > 0 for some i or
    c.v < 0: F never increases along v, and is not constant on it.

    Candidates are each given direction and its projections off the rows
    most opposed to it: an iterate running away along a recession direction
    keeps a_j.lam bounded on the rows of the face it approaches, so
    lam/|lam| misses the face by O(1/|lam|). The last candidate is -c
    projected onto the null space of the rows, along which F falls linearly.
    """
    norms = np.linalg.norm(a, axis=1)
    c_norm = float(np.linalg.norm(c))
    # q zero rows keep the row space and make vt square.
    _, sv, vt = np.linalg.svd(np.vstack([a, np.zeros((a.shape[1], a.shape[1]))]), full_matrices=False)
    null = vt[np.count_nonzero(sv > sv.max(initial=0.0) * max(a.shape) * _EPS):]
    for u in (*directions, -null.T @ (null @ c)):
        if u is None or not (np.all(np.isfinite(u)) and u.any()):
            continue
        order = np.argsort((a @ u) / norms)
        for k in range(a.shape[1]):
            basis = np.linalg.qr(a[order[:k]].T)[0]
            v = u - basis @ (basis.T @ u)
            slack = _CERT_RTOL * float(np.linalg.norm(v))
            av = a @ v
            cv = float(c @ v)
            if (
                np.all(av >= -slack * norms)
                and (np.any(av > slack * norms) or cv < -slack * c_norm)
                and cv <= slack * c_norm
            ):
                return True
    return False


# ---------------------------------------------------------------- stacks
#
# Every equation is solved as part of a stack: each array carries a leading
# stack axis, and samples of different sizes are padded to a common length
# with rows that add exact zeros. solve is the stack of one. A family's
# equations sit on a grid of slots over the samples (see _slots).

# exp(-x.lam) and x_i x_i' may overflow, and F(lam + alpha delta) - F(lam)
# then be NaN: the loop and its terms leave that to the tests on results.
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


class Stack(NamedTuple):
    """R samples and their respondents, padded to common lengths: the
    sample stack x (R, n, q) and pi, y, the true p, r and valid (R, n), and
    the respondent stack x_r (R, m, q) and pi_r, y_r, p_r and valid_r
    (R, m), whose row k holds the units of sample row k with r = 1, in the
    same order. n_s and n_r (R,) count each sample's units and respondents
    (r = 1), the real rows that valid and valid_r mark. Padding rows hold
    x = 0, pi = 1, y = 0, p = 1, r = 0, so they add exact zeros to every sum
    taken over them. solve_block reads neither y nor p; p and p_r are None
    where the true probabilities are unknown, and y and y_r where no
    estimate is asked."""

    n_s: np.ndarray
    n_r: np.ndarray
    x: np.ndarray
    pi: np.ndarray
    y: np.ndarray | None
    p: np.ndarray | None
    r: np.ndarray
    valid: np.ndarray
    x_r: np.ndarray
    pi_r: np.ndarray
    y_r: np.ndarray | None
    p_r: np.ndarray | None
    valid_r: np.ndarray

    @classmethod
    def of_one(cls, x: np.ndarray, pi: np.ndarray, r: np.ndarray, y: np.ndarray | None = None) -> Stack:
        """The stack of the one sample (x, pi, r, y), without padding, with
        unknown true probabilities."""
        resp = r == 1
        n_s, n_r = len(r), int(resp.sum())
        y, y_r = (None, None) if y is None else (y[None], y[resp][None])
        return cls(np.array([n_s]), np.array([n_r]), x[None], pi[None], y, None, r[None], np.ones((1, n_s), bool),
                   x[resp][None], pi[resp][None], y_r, None, np.ones((1, n_r), bool))


def _rows_dot(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_i w_i x_i per equation: (..., n) and (..., n, k) to (..., k)."""
    return (w[..., None, :] @ x)[..., 0, :]


def _targets(kinds, rep, x: np.ndarray, pi: np.ndarray, totals) -> np.ndarray:
    """The target (B, q) that each equation's variant fixes: 0 for the MLE
    variants, ``totals`` ((q,), or one row per equation) for cal_U, and
    sum_i x_i/pi_i over its sample, row rep[b] of the sample stack (x, pi),
    for cal_S. A cal_U equation without totals is refused (ValueError)."""
    at_u = np.fromiter((k.population_level for k in kinds), bool, len(kinds))
    at_s = np.fromiter((not (k.mle or k.population_level) for k in kinds), bool, len(kinds))
    target = np.zeros((len(kinds), x.shape[2]))
    if at_u.any():
        if totals is None:
            raise ValueError(f"{Variant.CAL_U.value} needs the population totals of the auxiliaries")
        target[at_u] = np.broadcast_to(totals, target.shape)[at_u]
    if at_s.any():
        with np.errstate(**_QUIET):
            target[at_s] = _rows_dot(1.0 / pi, x)[np.asarray(rep)[at_s]]
    return target


def _matvec(x: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x_i.v per equation: (..., n, q) and (..., q) to (..., n), into out if given."""
    return np.matmul(x, v[..., None], out=None if out is None else out[..., None])[..., 0]


def _outer_rows(x: np.ndarray) -> np.ndarray:
    """x_i x_i' per unit, flattened: (R, n, q) to (R, n, q*q), so that
    sum_i w_i x_i x_i' = _rows_dot(w, _outer_rows(x)) reshaped to (..., q, q).
    Each entry is the one product x_ia x_ib, written in place column by
    column (a copy between the triangles of one array would be buffered)."""
    q = x.shape[-1]
    xx = np.empty((*x.shape, q))
    for a, b in np.ndindex(q, q):
        np.multiply(x[..., a], x[..., b], out=xx[..., a, b])
    return xx.reshape(*x.shape[:-1], q * q)


def _cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_k^-1 b_k for a stack of symmetric (q, q) matrices a and (q,)
    vectors b, by a Cholesky factorization unrolled over the stack.

    The package's one rule for "singular": a system whose entries are not
    all finite, or where some pivot of the factorization is at most
    _PIVOT_RTOL times its own diagonal entry, is singular, and its row of
    the result is NaN. Only the lower triangle of a enters the
    factorization.
    """
    q = b.shape[1]
    # A non-finite system becomes all zeros, whose first pivot fails.
    finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
    h = np.where(finite[:, None, None], a, 0.0).transpose(1, 2, 0)
    low = [[None] * q for _ in range(q)]
    for j in range(q):
        pivot = h[j, j]
        for k in range(j):
            pivot = pivot - low[j][k] * low[j][k]
        low[j][j] = np.sqrt(np.where(pivot > _PIVOT_RTOL * h[j, j], pivot, np.nan))
        for i in range(j + 1, q):
            v = h[i, j]
            for k in range(j):
                v = v - low[i][k] * low[j][k]
            low[i][j] = v / low[j][j]
    z = []
    for i in range(q):
        v = b[:, i]
        for k in range(i):
            v = v - low[i][k] * z[k]
        z.append(v / low[i][i])
    x = [None] * q
    for i in reversed(range(q)):
        v = z[i]
        for k in range(i + 1, q):
            v = v - low[k][i] * x[k]
        x[i] = v / low[i][i]
    return np.stack(x, axis=1)


def _initial_points(unweighted, population_level, rep: np.ndarray, inv_pi, st: Stack, target) -> np.ndarray:
    """The intercept-only solution of each equation of a stack, from the
    totals of its sample (row rep of st, with inv_pi the 1/pi of its real
    rows): a cheap globalization that starts Newton at the correct overall
    response level. ``unweighted`` marks mle_1 and ``population_level``
    cal_U. Only the equations' samples are divided by their sizes, so an
    empty sample that no equation fits divides nothing."""
    resp_total = np.where(st.r == 1, inv_pi, 0.0).sum(axis=1)[rep]
    denom = np.where(population_level, target[:, 0], inv_pi.sum(axis=1)[rep])
    frac = np.where(unweighted, st.n_r[rep] / st.n_s[rep], resp_total / denom)
    frac = np.clip(frac, 1e-6, 1.0 - 1e-6)
    lam0 = np.zeros(target.shape)
    lam0[:, 0] = np.log(frac / (1.0 - frac))
    return lam0


# _block_newton's status codes index _CODES.
_CODES = (FitStatus.CONVERGED, FitStatus.MAX_ITERATIONS, FitStatus.SINGULAR_JACOBIAN, FitStatus.DIVERGED)
_CONVERGED, _MAX_ITERATIONS, _SINGULAR, _DIVERGED = range(4)
# The status of an equation that stopped on an earlier pass.
_STOPPED = len(_CODES)


def _block_newton(x, w, r, c, softplus: bool, lam, tol, short, ids, controls: SolverControls, work, out):
    """Newton's method with an Armijo line search on the convex

        F(lam) = sum_i w_i phi(-a_i.lam) + c.lam,   a_i = (2 r_i - 1) x_i,

    for each slot of a grid over R samples (see _terms; c, lam, tol, short
    and ids hold slot (k, s) in row k R + s). The residual is -grad F and
    the Hessian sum_i w_i phi''(-a_i.lam) a_i a_i' is minus the Jacobian.
    Each iteration solves for the Newton direction delta with
    _cholesky_solve (a Hessian singular by its rule: SINGULAR_JACOBIAN).

    CONVERGED needs ||residual||_inf <= tol and max_i s_i a_i.delta < 1:
    since c = sum_i u_i (1 - s_i a_i.delta) a_i with u_i = w_i phi'(-a_i.lam),
    that writes c as a strictly positive combination of the rows, so F has a
    minimiser (Gordan); the fit returns lam + delta. A direction with
    a_i.delta >= 0 on every row and c.delta <= 0 proves that F has none (it
    never increases along delta) and gives DIVERGED. A stalled line search
    or max_iter iterations give MAX_ITERATIONS. A fit that stops without
    either proof, or whose residual is within tol without the existence
    proof, is DIVERGED when _has_certificate finds a direction of the second
    kind. Equations marked ``short`` are DIVERGED before the first step.

    Slot e solves equation ids[e] (none if ids[e] < 0) and writes its
    lambda, status code into FitStatus, iterations, residual norm and trace
    rows into item ids[e] of each of the five ``out``. A slot that stops
    stays in the grid, frozen, until at most half of the samples have a
    slot still running; the grid is then cut to them. r is boolean (all
    True for calibration, whose terms never read it). x_i x_i' is formed
    once per sample. Every pass writes its per-row terms (x.lam, u, g, h,
    a.delta) into three (K R, n) buffers in the flat float array ``work``,
    or their first rows once the grid is cut; nothing else is written into
    the arguments.
    """
    E, q = lam.shape
    K, n = E // len(x), x.shape[1]

    def grid(a):
        return a.reshape(K, len(x), *a.shape[1:])

    work = work[: 3 * E * n].reshape(3, E, n)
    lam_out, status_out, it_out, rn_out, traces = out
    it = np.zeros(E, dtype=np.int64)
    step = np.zeros(E)
    running = ids >= 0
    with np.errstate(**_QUIET):
        xx = _outer_rows(x)
        while True:
            eta, g_buf, h_buf = work[:, : len(ids)]
            u, h, g = _row_terms(_matvec(x, grid(lam), out=grid(eta)), w, r, softplus, grid(g_buf), grid(h_buf))
            res = _rows_dot(u, x).reshape(-1, q) - c
            rn = np.abs(res).max(axis=1)
            if controls.trace:
                for k in np.flatnonzero(running & (it > 0)):
                    traces[ids[k]].append((int(it[k]), float(rn[k]), float(step[k])))
            hess = _rows_dot(h, xx).reshape(-1, q, q)
            delta = _cholesky_solve(hess, res)
            ok = np.isfinite(delta).all(axis=1)
            # a_i.delta takes u's storage, read only by res (softplus), or
            # g's buffer, which the exp terms leave unused.
            ad = _matvec(x, grid(delta), out=grid(eta if softplus else g_buf))
            if softplus:
                np.negative(ad, out=ad, where=~r)
            ad, g = ad.reshape(len(ids), n), g.reshape(len(ids), n)
            ad_min, ad_max = ad.min(axis=1, initial=np.inf), ad.max(axis=1, initial=-np.inf)
            near = running & ok & (rn <= tol)
            exists = near & _exists(ad, ad_max, g, softplus, h_buf) if near.any() else near
            cd = (c * delta).sum(axis=1)
            # Stopped equations hold the code _STOPPED and take no part below.
            status = np.where(running, np.where(short, _DIVERGED, -1), _STOPPED)
            for code, holds in (
                (_CONVERGED, exists),
                (_DIVERGED, ok & (ad_min >= 0.0) & (cd <= 0.0)),
                (_MAX_ITERATIONS, it >= controls.max_iter),
                (_SINGULAR, ~ok),
            ):
                status[(status < 0) & holds] = code
            slope = -(res * delta).sum(axis=1)
            # Backtrack each equation until the Armijo condition holds; one
            # whose step no longer moves lambda has stalled.
            alpha = np.ones(len(ids))
            pending = (status < 0) & (np.maximum(ad_max, -ad_min) > _SAFE_STEP)
            if pending.any():
                floor = _EPS * (1.0 + np.abs(lam).max(axis=1)) / np.abs(delta).max(axis=1)
            while pending.any():
                p = np.flatnonzero(pending)
                a = alpha[p]
                # h is read by the Hessian alone (softplus) or is g (exp).
                weights = w.reshape(-1, n) if softplus else g
                change = _change(a[:, None], p, ad, weights, g, softplus, h_buf) + a * cd[p]
                rejected = p[~(change <= _ARMIJO * a * slope[p])]
                alpha[rejected] *= 0.5
                moving = alpha[rejected] >= floor[rejected]
                pending[:] = False
                pending[rejected[moving]] = True
                status[rejected[~moving]] = _MAX_ITERATIONS
            unproved = (status == _MAX_ITERATIONS) | (status == _SINGULAR) | (near & (status < 0))
            for k in np.flatnonzero(unproved):
                j, s = divmod(k, len(x))
                rows = w[j % len(w), s] > 0.0
                a_k = np.where(r[s, rows, None], x[s, rows], -x[s, rows])
                if _has_certificate(a_k, c[k], (delta[k], lam[k])):
                    status[k] = _DIVERGED
            done = running & (status >= 0)
            if done.any():
                j = ids[done]
                lam_out[j] = lam[done] + np.where((status[done] == _CONVERGED)[:, None], delta[done], 0.0)
                status_out[j], it_out[j], rn_out[j] = status[done], it[done], rn[done]
                running &= ~done
                if not running.any():
                    return
            if controls.trace:
                step = alpha * np.abs(delta).max(axis=1)
            lam = np.where(running[:, None], lam + alpha[:, None] * delta, lam)
            it = it + 1
            keep = grid(running).any(axis=0)
            if 2 * np.count_nonzero(keep) <= len(keep):
                ids, c, tol, lam, it, step, short, running = [
                    grid(a)[:, keep].reshape(-1, *a.shape[1:])
                    for a in (ids, c, tol, lam, it, step, short, running)
                ]
                x, xx, r, w = x[keep], xx[keep], r[keep], w[:, keep]


def _slots(rep: np.ndarray, R: int) -> np.ndarray:
    """The grid (K, R) of one family's equations: (k, s) indexes rep at the k-th on sample s, or is -1."""
    counts = np.bincount(rep, minlength=R)
    order = np.argsort(rep, kind="stable")
    grid = np.full((counts.max(initial=0), R), -1)
    grid[np.arange(len(rep)) - (np.cumsum(counts) - counts)[rep[order]], rep[order]] = order
    return grid


def _terms(softplus: bool, survey, st: Stack, inv_pi, target):
    """The terms (x, w, r, c) of the F of one family's equations on the
    stack st, with inv_pi the 1/pi of its real rows; slot (k, s) has
    target[k R + s] on sample s and, where survey[k R + s] holds (an
    mle_invpi equation), score weights 1/pi. x (R, n, q; C-ordered, so any
    layout runs one matrix kernel) and r (R, n) hold each sample's rows
    once, w is (K, R, n) or, shared, (1, R, n), and c (K R, q); padding
    rows have w = 0. MLE (softplus): the sample, w_i = k_i, c = 0;
    calibration: the respondents, w_i = 1/pi_i, c = target - sum_i w_i x_i."""
    if softplus:
        survey = survey.reshape(-1, len(st.x), 1)
        return np.ascontiguousarray(st.x), np.where(survey, inv_pi, st.valid), st.r == 1, np.zeros(target.shape)
    d = np.where(st.valid_r, 1.0 / st.pi_r, 0.0)
    with np.errstate(**_QUIET):
        c = target.reshape(-1, len(st.x), target.shape[1]) - _rows_dot(d, st.x_r)
    return np.ascontiguousarray(st.x_r), d[None], np.broadcast_to(True, d.shape), c.reshape(target.shape)


class BlockFit(NamedTuple):
    """Outcome of solve_block, indexed by equation: the coefficients, the
    FitStatus, the Newton iterations, the residual norm at the last iterate
    and, with controls.trace, the trace rows of FitResult.trace."""

    lambda_hat: np.ndarray
    status: np.ndarray
    iterations: np.ndarray
    residual_norm: np.ndarray
    trace: list


def solve_block(
    kinds, rep: np.ndarray, stack: Stack, totals, controls: SolverControls = SolverControls()
) -> BlockFit:
    """Solve a stack of estimating equations on a Stack of R samples by
    Newton iteration on their convex F (see _block_newton).

    Equation b fits the variant ``kinds[b]`` on sample ``rep[b]``: it is
    EstimatingEquation(kinds[b], x[k, :n_k], pi[k, :n_k], r[k, :n_k],
    totals) with k = rep[b] and n_k = n_s[k] of the stack, and totals (q,)
    or one row per equation (B, q); None will do where no kind is cal_U.
    The MLE variants read the sample stack and calibration the respondent
    stack (which may be empty without calibration); the equations that
    share a sample read its rows, x_i x_i' and weights 1/pi once (see
    _slots), and per-sample totals are taken once per sample.
    Each equation takes the same steps and gets the same status as it would
    alone, up to rounding in the sums: padding, and numpy's stacked matrix
    products, can add in another order than a stack of one. Sharing a
    sample changes no bit. An equation with no respondents, or with no
    nonrespondents unless it is a cal_U equation, has no finite solution:
    it is DIVERGED after no iterations, at zero.
    """
    rep = np.asarray(rep, dtype=np.intp)
    target = _targets(kinds, rep, stack.x, stack.pi, totals)
    mle = np.fromiter((k.mle for k in kinds), bool, len(kinds))
    survey = np.fromiter((k.k_inv_pi for k in kinds), bool, len(kinds))
    at_u = np.fromiter((k.population_level for k in kinds), bool, len(kinds))
    inv_pi = np.where(stack.valid, 1.0 / stack.pi, 0.0)
    short = (stack.n_r == 0)[rep] | ((stack.n_r == stack.n_s)[rep] & ~at_u)
    lam = np.where(short[:, None], 0.0, _initial_points(mle & ~survey, at_u, rep, inv_pi, stack, target))
    tol = controls.tol * np.maximum(1.0, np.max(np.abs(target), axis=1))
    out = np.empty_like(lam), *(np.empty(len(lam), t) for t in (np.int8, np.int64, float)), [[] for _ in lam]
    families = [(b, _slots(rep[b], len(stack.x)), softplus) for b, softplus in
                ((np.flatnonzero(~mle), False), (np.flatnonzero(mle), True)) if b.size]
    # One workspace for the larger grid serves both: the second touches no new pages.
    work = np.empty(3 * max((g.size * (stack.x if sp else stack.x_r).shape[1] for _, g, sp in families), default=0))
    for b, grid, softplus in families:
        # An absent slot (-1) reads the last equation's terms; it never runs.
        eq = np.where(grid.ravel() < 0, -1, b[grid.ravel()])
        terms = _terms(softplus, survey[eq], stack, inv_pi, target[eq])
        _block_newton(*terms, softplus, lam[eq], tol[eq], short[eq], eq, controls, work, out)
    lam_hat, codes, iterations, rn, trace = out
    return BlockFit(lam_hat, np.array(_CODES, dtype=object)[codes], iterations, rn, trace)


def solve(eq: EstimatingEquation, controls: SolverControls = SolverControls()) -> FitResult:
    """Solve the estimating equation by Newton iteration on its convex F: a
    stack of one for solve_block.

    Convergence requires ||residual||_inf <= tol * max(1, ||target||_inf)
    and a Newton step that proves a finite solution exists. Non-convergence
    is reported through the status, never raised. DIVERGED means the
    equation has no finite solution: no respondents, a full respondent set
    for the MLE variants or for cal_S, or a direction along
    which F never increases (for the MLE variants, complete or quasi-complete
    separation; for calibration, a target outside the interior of the cone
    of respondent auxiliaries). SINGULAR_JACOBIAN and MAX_ITERATIONS are
    solver failures that no such certificate explains. SINGULAR_JACOBIAN
    means the Hessian at an iterate was singular by the package's one rule
    (a non-finite entry, or a Cholesky pivot at most 16 machine epsilons
    times its diagonal entry), the rule that also flags singular gamma
    systems in the variance estimators.
    """
    fit = solve_block([eq.kind], [0], Stack.of_one(eq.x, eq.pi, eq.r), eq.totals, controls)
    lam = fit.lambda_hat[0]
    return FitResult(
        lambda_hat=lam,
        p_hat=response_probabilities(eq.x, lam),
        status=fit.status[0],
        iterations=int(fit.iterations[0]),
        residual_norm=float(fit.residual_norm[0]),
        trace=tuple(fit.trace[0]),
    )


def _terms_at(lam, eq: EstimatingEquation):
    """The residual sum_i u_i x_i - c and Jacobian -sum_i h_i x_i x_i' of eq at lam: the
    terms that solve_block builds and _block_newton evaluates (as it does), for the stack of one."""
    st, softplus = Stack.of_one(eq.x, eq.pi, eq.r), eq.kind.mle
    x, w, r, c = _terms(softplus, np.array([eq.kind.k_inv_pi]), st, 1.0 / st.pi, eq.target[None])
    with np.errstate(**_QUIET):
        eta = _matvec(x, np.asarray(lam, dtype=float)[None, None])
        u, h, _ = _row_terms(eta, w, r, softplus, np.empty_like(eta), np.empty_like(eta))
        return _rows_dot(u, x)[0, 0] - c[0], -_rows_dot(h, _outer_rows(x))[0, 0].reshape(len(c[0]), -1)


def residual(lam, eq: EstimatingEquation) -> np.ndarray:
    """Residual -grad F = sum_i u_i x_i - c of the estimating equation at lam
    (zero at a solution), from the solver's own per-row terms."""
    return _terms_at(lam, eq)[0]


def jacobian(lam, eq: EstimatingEquation) -> np.ndarray:
    """Jacobian -sum_i h_i x_i x_i' of the residual with respect to lam,
    from the solver's own per-row terms."""
    return _terms_at(lam, eq)[1]
