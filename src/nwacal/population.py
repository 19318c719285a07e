"""Finite populations with a logistic response model.

A population carries an auxiliary matrix whose first column is identically 1,
a study variable, and per-unit response probabilities following a logistic
model. The synthetic generator draws (y, x1) pairs from a bivariate normal
with unit marginal variances and configurable correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Population",
    "GenConfig",
    "expit",
    "logistic_probs",
    "generate_population",
]


def expit(x) -> np.ndarray:
    """Elementwise logistic function 1 / (1 + exp(-x)).

    Saturates to exactly 0.0 below about -709.8, where exp(-x) overflows to
    inf, and to exactly 1.0 above about 37, without a warning.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def logistic_probs(aux: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Vectorized logistic probabilities for the rows of an auxiliary matrix."""
    return expit(np.asarray(aux, dtype=float) @ np.asarray(lam, dtype=float))


def _frozen(a) -> np.ndarray:
    """``a`` itself when it is a read-only float64 array that owns its data
    (as the generator and the designs hand over), else a read-only float64
    copy, so that no caller's array can change a value after the checks."""
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.owndata and not a.flags.writeable:
        return a
    a = np.array(a, dtype=float, copy=True)
    a.flags.writeable = False
    return a


#: Units per step of the generator: working arrays stay this long whatever N is.
_CHUNK = 4096


def _chunks(n: int):
    return (slice(start, min(start + _CHUNK, n)) for start in range(0, n, _CHUNK))


@dataclass(frozen=True)
class Population:
    """Finite population of size N with auxiliaries, study variable, and response model.

    Fields
    ------
    aux : (N, q) matrix whose first column is identically 1.
    y : study variable, length N.
    true_p : per-unit response probabilities, in (0, 1].
    total : sum of y, cached at construction via compensated summation.
    aux_total : column sums of aux, the population totals of the
        auxiliaries, cached at construction.
    """

    aux: np.ndarray
    y: np.ndarray
    true_p: np.ndarray
    total: float = field(init=False)
    aux_total: np.ndarray = field(init=False)

    def __post_init__(self):
        aux = _frozen(np.atleast_2d(self.aux))
        y = _frozen(self.y)
        p = _frozen(self.true_p)
        n = aux.shape[0]
        if n < 1:
            raise ValueError("population must contain at least one unit")
        if y.shape != (n,) or p.shape != (n,):
            raise ValueError("aux, y, and true_p must agree on the number of units")
        # Reductions, not comparisons of length N: the checks add no array
        # of the population's length. Each is written so that a NaN,
        # which min and max propagate, fails it.
        if not aux[:, 0].min() == 1.0 == aux[:, 0].max():
            raise ValueError("first auxiliary column must be identically 1")
        if not np.isfinite([aux.min(), aux.max(), y.min(), y.max()]).all():
            raise ValueError("aux and y must be finite")
        # The generator only ever produces interior probabilities; p == 1 is
        # tolerated so the degenerate full-response mechanism stays representable.
        if not (p.min() > 0.0 and p.max() <= 1.0):
            raise ValueError("true_p must lie in (0, 1]")
        object.__setattr__(self, "aux", aux)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "true_p", p)
        object.__setattr__(self, "total", math.fsum(y))
        aux_total = aux.sum(axis=0)
        aux_total.flags.writeable = False
        object.__setattr__(self, "aux_total", aux_total)

    @property
    def size(self) -> int:
        return self.aux.shape[0]

    @property
    def n_aux(self) -> int:
        return self.aux.shape[1]


@dataclass(frozen=True)
class GenConfig:
    """Settings for the synthetic bivariate-normal population generator."""

    N: int
    mean_mu: tuple[float, float] = (4.0, 4.0)
    rho: float = 0.6
    lam: tuple[float, float] = (0.1, 0.4)
    seed: int = 0

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be at least 2")
        if not abs(self.rho) < 1.0:
            raise ValueError("|rho| must be strictly less than 1")
        if len(self.mean_mu) != 2 or len(self.lam) != 2:
            raise ValueError("mean_mu and lam must have length 2")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


# Inverse of the standard normal CDF, ported from the Cephes Math Library
# (ndtri.c, Stephen L. Moshier): a rational approximation in y - 1/2 on
# exp(-2) < y < 1 - exp(-2), and in 1/sqrt(-2 log y) for the tails, split at
# sqrt(-2 log y) = 8. The coefficients, branch tests and Horner order are
# Cephes's, so the result matches it to the bit.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    ans = np.full_like(x, coef[0])
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    # As _polevl with an implied leading coefficient of 1.
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _log(v: np.ndarray) -> np.ndarray:
    # libm's log, as Cephes takes it; numpy's vectorised log can differ from
    # it in the last bit.
    return np.fromiter(map(math.log, v.tolist()), dtype=float, count=v.size)


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """Standard normal quantile of each probability: -inf at 0, +inf at 1,
    NaN outside [0, 1]."""
    y0 = np.asarray(y0, dtype=float)
    out = np.full(y0.shape, np.nan)
    out[y0 == 0.0] = -np.inf
    out[y0 == 1.0] = np.inf
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    inside = (y0 > 0.0) & (y0 < 1.0)

    mid = inside & (y > _EXP_M2)
    ym = y[mid] - 0.5
    y2 = ym * ym
    out[mid] = (ym + ym * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI

    tail = inside & ~mid
    x = np.sqrt(-2.0 * _log(y[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    x1 = np.empty_like(z)
    for sel, p, q in ((x < 8.0, _P1, _Q1), (x >= 8.0, _P2, _Q2)):
        zs = z[sel]
        x1[sel] = zs * _polevl(zs, p) / _p1evl(zs, q)
    out[tail] = np.where(upper[tail], x0 - x1, x1 - x0)
    return out


def _standard_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    # Inverse-CDF transform of (k + 0.5) / 2^64 with k a raw PCG64 64-bit
    # draw: deterministic and reproducible from the seed alone (no
    # dependence on the generator's rejection-sampling internals). A draw
    # k >= 2^64 - 1024 rounds to u = 1.0 in double precision, where the
    # transform is +inf, so u is clamped to the largest double below 1.
    k = rng.integers(0, 2**64, size=size, dtype=np.uint64)
    u = np.minimum((k.astype(np.float64) + 0.5) * 2.0**-64, np.nextafter(1.0, 0.0))
    return _ndtri(u)


def generate_population(cfg: GenConfig) -> Population:
    """Draw a population of (y, x1) pairs per the generator settings.

    The pairs are i.i.d. bivariate normal with mean ``cfg.mean_mu``, unit
    marginal variances, and correlation ``cfg.rho``, realized through the
    conditional decomposition y = mu_y + z1, x1 = mu_x + rho*z1 +
    sqrt(1-rho^2)*z2 with independent standard normals. Response
    probabilities follow the logistic model at ``cfg.lam``. Deterministic
    for a fixed seed (PCG64 stream).

    The outputs are allocated once and filled in chunks of _CHUNK units, so
    the working set beyond them does not grow with N. z1 takes the first N
    draws of the stream and z2 the next N; each draw is one 64-bit output,
    so drawing a chunk at a time gives the same stream.
    """
    rng = np.random.default_rng(int(cfg.seed))
    mu_y, mu_x = float(cfg.mean_mu[0]), float(cfg.mean_mu[1])
    rho = float(cfg.rho)
    lam = np.asarray(cfg.lam, dtype=float)
    y, aux, p = np.empty(cfg.N), np.ones((cfg.N, 2)), np.empty(cfg.N)
    for c in _chunks(cfg.N):  # z1 waits in y until z2 is drawn
        y[c] = _standard_normal(rng, c.stop - c.start)
    for c in _chunks(cfg.N):
        z1 = y[c]
        aux[c, 1] = mu_x + rho * z1 + math.sqrt(1.0 - rho * rho) * _standard_normal(rng, c.stop - c.start)
        y[c] = mu_y + z1
        p[c] = logistic_probs(aux[c], lam)
    for a in (aux, y, p):  # handed over to Population without a copy
        a.flags.writeable = False
    return Population(aux=aux, y=y, true_p=p)
