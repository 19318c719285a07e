"""Independent oracles used by the tests: brute-force minimizers, finite
differences, and the paper's estimating equations in their own form.

Kept free of any solver internals so the checks stay meaningful.
"""

import math
from pathlib import Path

import numpy as np

from nwacal.designs import DesignKind, DesignSpec
from nwacal.estimators import Variant
from nwacal.montecarlo import STATUSES, VARIANTS
from nwacal.solvers import EstimatingEquation, residual


def srswor_indices_loop(N: int, n: int, seed: int) -> np.ndarray:
    """Sorted SRSWOR sample by a partial Fisher-Yates shuffle with one
    rng.integers(i, N) call per step: the stream draw_sample must reproduce."""
    rng = np.random.default_rng(int(seed))
    idx = np.arange(N)
    for i in range(n):
        j = int(rng.integers(i, N))
        idx[i], idx[j] = idx[j], idx[i]
    return np.sort(idx[:n])


def draw_replicates_loop(design: DesignSpec, p: np.ndarray, seeds):
    """The per-replicate draw loop of the engine before its block kernel:
    for each (sampling seed, response seed) pair, a list-based partial
    Fisher-Yates shuffle of range(N) (SRSWOR) or a Bernoulli(pi_i) draw per
    unit (Poisson), then a Bernoulli(p_i) response per sampled unit.
    Returns the concatenated unit indices and r, and the sample sizes."""
    units, r = [], []
    for s, t in seeds:
        rng = np.random.default_rng(int(s))
        N = design.size
        if design.kind is DesignKind.SRSWOR:
            n = int(round(design.n_target))
            idx = list(range(N))
            for i, j in enumerate(rng.integers(np.arange(n), N).tolist()):
                idx[i], idx[j] = idx[j], idx[i]
            chosen = np.sort(np.array(idx[:n], dtype=np.int64))
        else:
            chosen = np.nonzero(rng.random(N) < design.pi)[0]
        u = np.random.default_rng(int(t)).random(chosen.size)
        units.append(chosen)
        r.append((u < p[chosen]).astype(np.int64))
    return np.concatenate(units), np.concatenate(r), np.array([u.size for u in units])


def write_raw_records_loop(path, cols, header: str) -> None:
    """The raw-CSV writer of the per-replicate outcome objects, one line per
    replicate and variant, reading the engine's columns row by row. A failed
    fit has no numbers; ``ht`` and ``p`` have an estimate and a largest
    weight; a fitted variant has an estimate, two variances, an interval
    when its lower end is a number, and a largest weight. A missing number
    is an empty field; an estimate or variance that is NaN prints nan."""

    def fmt(v) -> str:
        return "" if v is None else f"{v:.17g}"

    def number(v):
        return None if math.isnan(v) else v

    with open(path, "w", newline="") as fh:
        fh.write(f"# {header}\n")
        fh.write("replicate,variant,estimate,v_sam,v_nr,ci_low,ci_high,max_w,status\n")
        for i in range(len(cols.status)):
            for vi, variant in enumerate(VARIANTS):
                status = STATUSES[int(cols.status[i, vi])]
                estimate, v_sam, v_nr, lo, hi, max_w = cols.values[i, vi].tolist()
                if status != "ok":
                    fields = (None,) * 6
                elif variant in (Variant.HT, Variant.TRUE_P):
                    fields = (estimate, None, None, None, None, number(max_w))
                elif math.isnan(lo):
                    fields = (estimate, v_sam, v_nr, None, None, number(max_w))
                else:
                    fields = (estimate, v_sam, v_nr, lo, hi, number(max_w))
                fh.write(f"{i},{variant.value},{','.join(map(fmt, fields))},{status}\n")


def score_mle(lam, x, pi, r, survey_weighted: bool = False) -> np.ndarray:
    """The paper's MLE score sum_S k_i (r_i - f_i) x_i with f = expit(x.lam)
    and k = 1 or 1/pi."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    pi = np.asarray(pi, dtype=float)
    with np.errstate(over="ignore"):
        f = 1.0 / (1.0 + np.exp(-(x @ np.asarray(lam, dtype=float))))
    k = 1.0 / pi if survey_weighted else np.ones_like(pi)
    return (k * (np.asarray(r, dtype=float) - f)) @ x


def calib_residual(lam, x_r, pi_r, target) -> np.ndarray:
    """The paper's calibration residual sum_{S_r} x_i/(pi_i f_i) - target in
    raking form, 1/f_i = 1 + exp(-x_i.lam)."""
    x_r = np.atleast_2d(np.asarray(x_r, dtype=float))
    with np.errstate(over="ignore"):
        inv_f = 1.0 + np.exp(-(x_r @ np.asarray(lam, dtype=float)))
    return (inv_f / np.asarray(pi_r, dtype=float)) @ x_r - np.asarray(target, dtype=float)


def paper_residual(lam, eq: EstimatingEquation) -> np.ndarray:
    """The residual of eq at lam by the paper's formulas: score_mle for the
    MLE variants, calib_residual over the respondents for calibration."""
    if eq.kind in (Variant.MLE_K1, Variant.MLE_KINVPI):
        return score_mle(lam, eq.x, eq.pi, eq.r, survey_weighted=eq.kind is Variant.MLE_KINVPI)
    mask = eq.r == 1
    return calib_residual(lam, eq.x[mask], eq.pi[mask], eq.target)


def gamma_normal_equations(variant: Variant, x, y, pi, p, level: str) -> np.ndarray:
    """gamma of a fitted variant's linearization from the paper's normal
    equations at one level, written out as scalar sums: with b_i the weight
    of x_i y_i and a_i that of x_i x_i', gamma solves
    [sum_i a_i x_i x_i'] gamma = sum_i b_i x_i y_i, where

        level  MLE (k = 1, or 1/pi for mle_invpi)     calibration
        U      a = k pi p (1 - p),  b = 1 - p           a = b = 1 - p
        S      a = k p (1 - p),     b = (1 - p)/pi      a = b = (1 - p)/pi
        S_r    a = k (1 - p),       b = (1 - p)/(pi p)  a = b = (1 - p)/(pi p)

    over U, the sample S or the respondents S_r; p is the fitted p_hat over S_r."""
    n, q = len(y), len(x[0])
    lhs, rhs = np.zeros((q, q)), np.zeros(q)
    for i in range(n):
        pi_i, p_i = float(pi[i]), float(p[i])
        if variant in (Variant.MLE_K1, Variant.MLE_KINVPI):
            k = 1.0 / pi_i if variant is Variant.MLE_KINVPI else 1.0
            a, b = {
                "U": (k * pi_i * p_i * (1.0 - p_i), 1.0 - p_i),
                "S": (k * p_i * (1.0 - p_i), (1.0 - p_i) / pi_i),
                "S_r": (k * (1.0 - p_i), (1.0 - p_i) / (pi_i * p_i)),
            }[level]
        else:
            a = b = {"U": 1.0 - p_i, "S": (1.0 - p_i) / pi_i, "S_r": (1.0 - p_i) / (pi_i * p_i)}[level]
        for j in range(q):
            rhs[j] += b * x[i][j] * y[i]
            for m in range(q):
                lhs[j, m] += a * x[i][j] * x[i][m]
    return np.linalg.solve(lhs, rhs)


def fd_jacobian(lam, eq: EstimatingEquation, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference Jacobian of the estimating-equation residual."""
    lam = np.asarray(lam, dtype=float)
    q = lam.shape[0]
    out = np.empty((q, q))
    for j in range(q):
        e = np.zeros(q)
        e[j] = h
        out[:, j] = (residual(lam + e, eq) - residual(lam - e, eq)) / (2.0 * h)
    return out


def grid_minimizer(eq: EstimatingEquation, lo=-5.0, hi=5.0, coarse=400, rounds=14):
    """Brute-force minimizer of ||residual||_2 over a 2-D grid, then refined.

    A coarse x coarse sweep locates the best cell; each refinement round
    shrinks the window around the incumbent (bisection-style) until the
    spacing is far below 1e-4.
    """
    assert eq.x.shape[1] == 2

    def norms(avals, bvals):
        mask = eq.r == 1
        if eq.kind in (Variant.MLE_K1, Variant.MLE_KINVPI):
            x, pi, r = eq.x, eq.pi, eq.r.astype(float)
            k = 1.0 / pi if eq.kind is Variant.MLE_KINVPI else np.ones_like(pi)
            grid = np.stack(np.meshgrid(avals, bvals, indexing="ij"), axis=-1)
            eta = np.tensordot(grid, x.T, axes=([2], [0]))
            f = 1.0 / (1.0 + np.exp(-eta))
            res = np.tensordot((k * (r[None, None, :] - f)), x, axes=([2], [0]))
        else:
            x, pi = eq.x[mask], eq.pi[mask]
            grid = np.stack(np.meshgrid(avals, bvals, indexing="ij"), axis=-1)
            eta = np.tensordot(grid, x.T, axes=([2], [0]))
            with np.errstate(over="ignore"):
                inv_f = 1.0 + np.exp(-eta)
            res = np.tensordot(inv_f / pi, x, axes=([2], [0])) - eq.target
        return np.linalg.norm(res, axis=-1)

    a_lo, a_hi, b_lo, b_hi = lo, hi, lo, hi
    best = None
    n_pts = coarse
    for _ in range(rounds):
        avals = np.linspace(a_lo, a_hi, n_pts)
        bvals = np.linspace(b_lo, b_hi, n_pts)
        nm = norms(avals, bvals)
        ia, ib = np.unravel_index(np.argmin(nm), nm.shape)
        best = np.array([avals[ia], bvals[ib]])
        a_span = (a_hi - a_lo) / n_pts * 4.0
        b_span = (b_hi - b_lo) / n_pts * 4.0
        a_lo, a_hi = best[0] - a_span, best[0] + a_span
        b_lo, b_hi = best[1] - b_span, best[1] + b_span
        n_pts = 21
    return best


def calibration_margin(eq: EstimatingEquation):
    """Interior margin of a calibration target, from a linear program.

    With a_i = x_i / pi_i over the respondents and c = target - sum a_i, the
    calibration equation sum a_i (1 + w_i) = target with w_i = exp(-x_i.lam)
    has a finite solution iff c = sum w_i a_i for some w > 0, that is iff c
    lies in the interior of cone{a_i}. The program solved here is

        margin = min c.v  subject to  a_i.v >= 0 for all i,  sum_i a_i.v = 1,

    the LP dual of max { min_i w_i : sum w_i a_i = c }. A positive margin
    means the target is interior (a solution exists); a margin <= 0 comes
    with its minimiser v, a certificate that the equation has no solution:
    x_i.v >= 0 on every respondent and c.v <= 0. Returns (margin, v); an
    unbounded program (respondents not spanning R^q) gives (-inf, None).
    """
    from scipy.optimize import linprog

    mask = eq.r == 1
    a = eq.x[mask] / eq.pi[mask][:, None]
    c = eq.target - a.sum(axis=0)
    # The margin is linear in c and in 1/a: solve on unit scales, rescale after.
    scale_a = float(np.max(np.abs(a)))
    scale_c = float(np.max(np.abs(c))) or 1.0
    a, c = a / scale_a, c / scale_c
    q = a.shape[1]
    out = linprog(
        c,
        A_ub=-a,
        b_ub=np.zeros(a.shape[0]),
        A_eq=a.sum(axis=0)[None, :],
        b_eq=[1.0],
        bounds=[(None, None)] * q,
        method="highs",
    )
    if out.status == 3:
        return -np.inf, None
    if out.status != 0:
        raise RuntimeError(f"calibration LP failed: {out.message}")
    return float(out.fun) * scale_c / scale_a, out.x / scale_a


def mle_margin(eq: EstimatingEquation) -> float:
    """Interior margin of an MLE equation, from a linear program.

    The likelihood has a maximiser iff no v != 0 has a_i.v >= 0 on every
    signed row a_i = (2 r_i - 1) x_i (no complete or quasi-complete
    separation, Albert & Anderson 1984), that is iff 0 = sum w_i a_i for
    some w > 0 when the rows span R^q. The margin is

        max min_i w_i  subject to  sum_i w_i a_i = 0,  sum_i w_i = 1,

    computed by its LP dual min mu subject to a_i.v <= mu for all i and
    n mu - sum_i a_i.v = 1. It is positive iff the data are not separated.
    """
    from scipy.optimize import linprog

    a = np.where(eq.r[:, None] == 1, eq.x, -eq.x)
    n, q = a.shape
    out = linprog(
        np.r_[np.zeros(q), 1.0],
        A_ub=np.column_stack([a, -np.ones(n)]),
        b_ub=np.zeros(n),
        A_eq=np.r_[-a.sum(axis=0), n][None, :],
        b_eq=[1.0],
        bounds=[(None, None)] * (q + 1),
        method="highs",
    )
    if out.status != 0:
        raise RuntimeError(f"MLE margin LP failed: {out.message}")
    return float(out.fun)


def read_fit_csv_lines(path: Path):
    """The fit-file reader before the columnar one: each kept line split,
    stripped and converted on its own. Returns (units, pi, r, aux, y) or
    raises ValueError naming the line, as nwacal.cli._read_fit_csv must."""
    lines = [
        (lineno, ln)
        for lineno, ln in enumerate(path.read_text().splitlines(), start=1)
        if ln.strip() and not ln.startswith("#")
    ]
    if not lines:
        raise ValueError(f"{path} is empty: expected header unit,pi,r,x...,y")
    header = [h.strip() for h in lines[0][1].split(",")]
    if header[:3] != ["unit", "pi", "r"] or header[-1] != "y" or len(header) < 5:
        raise ValueError(
            f"expected header unit,pi,r,x...,y with at least one x column, got {lines[0][1]!r}"
        )
    if len(lines) < 2:
        raise ValueError(f"{path} has no data rows")
    width = len(header)
    units, linenos, numbers = [], [], []
    for lineno, ln in lines[1:]:
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != width:
            raise ValueError(f"line {lineno}: expected {width} fields, got {len(cells)}")
        try:
            # pi, r, the x columns, then y (blank for a nonrespondent)
            y_cell = float(cells[-1]) if cells[-1] else math.nan
            numbers.append([float(c) for c in cells[1:-1]] + [y_cell])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        units.append(cells[0])
        linenos.append(lineno)
    table = np.array(numbers)
    pi, r, x, y = table[:, 0], table[:, 1], table[:, 2:-1], table[:, -1]
    for bad, what in (
        (~((pi > 0.0) & (pi <= 1.0)), "pi must lie in (0, 1]"),
        ((r != 0.0) & (r != 1.0), "r must be 0 or 1"),
        (~np.isfinite(x).all(axis=1), "x values must be finite"),
        ((r == 1.0) & ~np.isfinite(y), "a respondent needs a finite y value"),
    ):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"line {linenos[i]}: {what} (unit {units[i]})")
    aux = np.column_stack([np.ones(len(units)), x])
    return units, pi, r.astype(np.int64), aux, y
