"""Replicate engine and metric aggregation for the simulation study.

Each replicate derives its sampling and response seeds from (master_seed,
replicate index, phase tag) through a splitmix64 mixer. Replicates run in
blocks of consecutive indices: each block draws the units and response
indicators of all its replicates in one call, without building a Sample or
RespondentSet, stacks them into padded arrays, and fits, estimates and
evaluates variances for all of them at once. Each fit is solved once: the
stacked solver gives every fit its status. A block holds about BLOCK_UNITS
sampled units (block_replicates), so its arrays take about the same memory
at any sample size: large samples get few replicates per block, and small
ones enough to share out the per-block overhead. Block boundaries depend
only on the replicate index and the design, so blocks can run in any order
or in parallel worker processes and still produce a bit-identical study
report: aggregation always runs over replicates in index order.
The per-replicate results are the engine's arrays (ReplicateColumns), with
one column per variant of VARIANTS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .designs import DesignSpec
from .estimators import Variant, gamma, linearized_block
from .population import Population
from .response import _draw_replicates
from .solvers import FitStatus, SolverControls, Stack, _rows_dot, response_probabilities, solve_block
from .variance import Z_95, var_hat_block

__all__ = [
    "BLOCK_UNITS",
    "block_replicates",
    "TAG_SAMPLING",
    "TAG_RESPONSE",
    "TAG_POPULATION",
    "mix_seed",
    "Scenario",
    "VARIANTS",
    "STATUSES",
    "ReplicateColumns",
    "VariantMetrics",
    "run_study",
    "write_raw_records",
    "linearization_gap",
    "STATUS_OK",
    "STATUS_DEGENERATE",
]

_MASK64 = (1 << 64) - 1

# Phase tags keep the sampling, response, and population streams disjoint.
TAG_SAMPLING = 0x53414D50
TAG_RESPONSE = 0x52455350
TAG_POPULATION = 0x504F5055

STATUS_OK = "ok"
STATUS_DEGENERATE = "degenerate"


def _splitmix64(z):
    """The splitmix64 finaliser of a 64-bit int, or elementwise of a uint64
    array (whose arithmetic wraps, so the masks leave it unchanged)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(*parts: int) -> int:
    """Fold integers into one 64-bit seed with a splitmix64 avalanche per part."""
    acc = 0
    for part in parts:
        acc = _splitmix64((acc ^ (int(part) & _MASK64)) & _MASK64)
    return acc


def _block_seeds(master_seed: int, indices: range, tag: int) -> np.ndarray:
    """mix_seed(master_seed, i, tag) for every i in ``indices``, as uint64."""
    acc = np.uint64(mix_seed(master_seed)) ^ np.arange(indices.start, indices.stop, dtype=np.uint64)
    return _splitmix64(_splitmix64(acc) ^ np.uint64(tag & _MASK64))


@dataclass(frozen=True)
class Scenario:
    """One simulation cell: fixed population and design, replicated L times."""

    population: Population
    design: DesignSpec
    reps: int
    master_seed: int
    controls: SolverControls = SolverControls()

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.population.size != self.design.size:
            raise ValueError("population and design sizes differ")


#: Sampled units per block. Past about 20,000 units a block runs no faster
#: per replicate, while its memory keeps growing by about 0.28 MB per 1,000
#: units; well below it the per-block overhead dominates.
BLOCK_UNITS = 20_000


def block_replicates(design: DesignSpec) -> int:
    """Replicates per block of a design: BLOCK_UNITS sampled units at its
    expected sample size n_target, and at least one. It depends on the
    design alone, never on the replicate or worker count."""
    return max(1, int(BLOCK_UNITS // design.n_target))


#: Every estimator variant of a study, in the order of the variant axis of
#: ReplicateColumns, of the report's metrics and of the raw CSV.
VARIANTS = tuple(Variant)

#: Per-replicate numeric fields of each variant, in raw-CSV order.
_FIELDS = ("estimate", "v_sam", "v_nr", "ci_low", "ci_high", "max_w")
#: The per-replicate statuses; ReplicateColumns.status holds indices into it.
STATUSES = (STATUS_OK, STATUS_DEGENERATE) + tuple(
    s.value for s in FitStatus if s is not FitStatus.CONVERGED
)
_OK = STATUSES.index(STATUS_OK)
_STATUS_CODE = {s: _OK if s is FitStatus.CONVERGED else STATUSES.index(s.value) for s in FitStatus}


class ReplicateColumns(NamedTuple):
    """The per-replicate results of consecutive replicates, one array per
    field: per replicate (row) the sample and respondent counts, and per
    replicate and variant (column, in VARIANTS order) the status (an index
    into STATUSES), the raw-CSV values (estimate, v_sam, v_nr, ci_low,
    ci_high, max_w; NaN where absent) and the Newton iterations (0 for the
    unfitted variants)."""

    n_sampled: np.ndarray
    n_respondents: np.ndarray
    status: np.ndarray
    values: np.ndarray
    iterations: np.ndarray

    @classmethod
    def concat(cls, parts: list[ReplicateColumns]) -> ReplicateColumns:
        return cls(*(np.concatenate(f) for f in zip(*parts)))


def _pad(units: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated per-replicate unit indices as a (B, max size) array,
    padded with unit 0, and its mask of real rows."""
    valid = np.arange(sizes.max(initial=0)) < sizes[:, None]
    idx = np.zeros(valid.shape, dtype=np.int64)
    idx[valid] = units
    return idx, valid


def _row_max(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Largest value over each row's unmasked entries, NaN on an empty row."""
    top = np.max(np.where(mask, values, -np.inf), axis=1, initial=-np.inf)
    return np.where(np.isfinite(top), top, np.nan)


def _gather(scenario: Scenario, u: np.ndarray, valid: np.ndarray) -> tuple[np.ndarray, ...]:
    """(x, pi, y, true p) of the padded unit indices ``u``, with the
    padding rows (outside ``valid``) set in place to x = 0, pi = 1, y = 0, p = 1."""
    pop, pad = scenario.population, ~valid
    columns = pop.aux[u], scenario.design.pi[u], pop.y[u], pop.true_p[u]
    for column, fill in zip(columns, (0.0, 1.0, 0.0, 1.0)):
        column[pad] = fill
    return columns


def _stack_draws(scenario: Scenario, indices: range) -> Stack:
    """The padded samples and respondents of the replicates ``indices``,
    gathered from the population and design, with r as booleans."""
    seed = scenario.master_seed
    seeds = np.column_stack([_block_seeds(seed, indices, TAG_SAMPLING), _block_seeds(seed, indices, TAG_RESPONSE)])
    units, r_all, n_s = _draw_replicates(scenario.design, scenario.population.true_p, seeds)
    u, valid = _pad(units, n_s)
    r = np.zeros(valid.shape, dtype=bool)
    r[valid] = r_all
    n_r = r.sum(axis=1)
    u_r, valid_r = _pad(units[r_all == 1], n_r)
    return Stack(n_s, n_r, *_gather(scenario, u, valid), r, valid, *_gather(scenario, u_r, valid_r), valid_r)


def _fit(st: Stack, rows: np.ndarray, columns: np.ndarray, totals: np.ndarray | None, controls: SolverControls):
    """Fit the variant columns ``columns`` of the replicates ``rows`` of a
    stack, with ``totals`` the population totals of the auxiliaries (read
    only by population-level calibration).

    All the equations go to solve_block as one stack, on st itself.
    Returns (replicate, variant column) of each equation, variant-major,
    and the BlockFit.
    """
    # Equation j fits variant column fit_v[j] on replicate fit_b[j].
    fit_b, fit_v = np.tile(rows, columns.size), np.repeat(columns, rows.size)
    target = np.zeros((fit_b.size, st.x.shape[2]))
    for column in columns:
        variant, j = VARIANTS[column], fit_v == column
        if not variant.mle:
            target[j] = totals if variant.population_level else _rows_dot(1.0 / st.pi, st.x)[fit_b[j]]
    kinds = np.array(VARIANTS, dtype=object)[fit_v]
    fits = solve_block(kinds, fit_b, st, target, controls)
    return fit_b, fit_v, fits


def _estimates(st: Stack, b: np.ndarray, lam: np.ndarray):
    """The respondent rows (pi_r, x_r, y_r, valid_r) of replicates ``b``
    and, from their converged fits ``lam``, the fitted probabilities p_hat
    (1 on padding rows), the weights 1/(pi p_hat) and the totals."""
    pi_r, x_r, y_r, valid_r = rows = st.pi_r[b], st.x_r[b], st.y_r[b], st.valid_r[b]
    p_hat = np.where(valid_r, response_probabilities(x_r, lam), 1.0)
    w = 1.0 / (pi_r * p_hat)
    return rows, p_hat, w, np.sum(w * y_r, axis=1)


def _evaluate(variant: Variant, design: DesignSpec, st: Stack, b: np.ndarray, lam: np.ndarray):
    """The raw-CSV values (_FIELDS) of ``variant`` on replicates ``b`` from
    their converged fits ``lam``: the estimate, the variance components of
    var_hat_block, the 95% interval (NaN where the variance is negative or
    not finite) and the largest weight; and the weights (B, m)."""
    (pi_r, x_r, y_r, valid_r), p_hat, w, estimate = _estimates(st, b, lam)
    v_sam, v_nr, _ = var_hat_block(variant, design, pi_r, x_r, y_r, p_hat)
    v_total = v_sam + v_nr
    with np.errstate(invalid="ignore"):
        half = Z_95 * np.sqrt(np.where(np.isfinite(v_total) & (v_total >= 0.0), v_total, np.nan))
    values = np.column_stack([estimate, v_sam, v_nr, estimate - half, estimate + half, _row_max(w, valid_r)])
    return values, w


def _run_block(scenario: Scenario, st: Stack) -> ReplicateColumns:
    """Fit, estimate and evaluate every variant for a block's draws."""
    B, V = len(st.n_s), len(VARIANTS)
    status = np.full((B, V), _OK, dtype=np.int8)
    values = np.full((B, V, len(_FIELDS)), np.nan)
    iterations = np.zeros((B, V), dtype=np.int64)
    ht, true_p = VARIANTS.index(Variant.HT), VARIANTS.index(Variant.TRUE_P)
    values[:, ht, 0] = np.sum(st.y / st.pi, axis=1)
    values[:, ht, 5] = _row_max(1.0 / st.pi, st.valid)
    w_true = 1.0 / (st.pi_r * st.p_r)
    values[:, true_p, 0] = np.sum(st.y_r * w_true, axis=1)
    values[:, true_p, 5] = _row_max(w_true, st.valid_r)
    del w_true  # not held through the fits

    # A replicate with fewer than q respondents is degenerate: not fitted.
    degenerate = st.n_r < scenario.population.n_aux
    fitted = np.array([v.fitted for v in VARIANTS])
    status[np.outer(degenerate, fitted)] = STATUSES.index(STATUS_DEGENERATE)
    fit_b, fit_v, fits = _fit(
        st, np.flatnonzero(~degenerate), np.flatnonzero(fitted), scenario.population.aux_total, scenario.controls
    )
    status[fit_b, fit_v] = [_STATUS_CODE[s] for s in fits.status]
    iterations[fit_b, fit_v] = fits.iterations
    ok = fits.status == FitStatus.CONVERGED
    for vi in np.flatnonzero(np.bincount(fit_v[ok], minlength=V)):
        j = ok & (fit_v == vi)
        values[fit_b[j], vi] = _evaluate(VARIANTS[vi], scenario.design, st, fit_b[j], fits.lambda_hat[j])[0]
    return ReplicateColumns(st.n_s, st.n_r, status, values, iterations)


def _run_blocks(args: tuple[Scenario, int, int]) -> ReplicateColumns:
    """Blocks first..last-1 of a scenario's replicates."""
    scenario, first, last = args
    size = block_replicates(scenario.design)
    blocks = (range(k * size, min((k + 1) * size, scenario.reps)) for k in range(first, last))
    return ReplicateColumns.concat([_run_block(scenario, _stack_draws(scenario, b)) for b in blocks])


@dataclass(frozen=True)
class VariantMetrics:
    """Study aggregates for one variant (None where undefined)."""

    n_ok: int
    failure_rate: float
    rb: float | None
    rrvar: float | None
    mc_variance: float | None
    mean_variance_estimate: float | None
    variance_rb: float | None
    mean_ci_length: float | None
    coverage: float | None
    max_weight: float | None


def _aggregate(scenario: Scenario, cols: ReplicateColumns) -> dict[Variant, VariantMetrics]:
    y_total = scenario.population.total
    metrics: dict[Variant, VariantMetrics] = {}
    for vi, variant in enumerate(VARIANTS):
        ok = cols.status[:, vi] == _OK
        estimates, v_sam, v_nr, lo, hi, max_w = cols.values[ok, vi].T
        n_ok = int(ok.sum())
        mc_var = float(np.var(estimates, ddof=1)) if n_ok >= 2 else None
        v_totals = v_sam + v_nr
        v_totals = v_totals[np.isfinite(v_totals)]
        mean_v = float(np.mean(v_totals)) if v_totals.size else None
        var_rb = None
        if mean_v is not None and mc_var is not None and mc_var > 0.0:
            var_rb = (mean_v - mc_var) / mc_var
        has_ci = ~np.isnan(lo)
        lo, hi = lo[has_ci], hi[has_ci]
        weights = max_w[~np.isnan(max_w)]
        metrics[variant] = VariantMetrics(
            n_ok=n_ok,
            failure_rate=(ok.size - n_ok) / ok.size,
            rb=(float(np.mean(estimates)) - y_total) / y_total if n_ok else None,
            rrvar=math.sqrt(mc_var) / y_total if mc_var is not None else None,
            mc_variance=mc_var,
            mean_variance_estimate=mean_v,
            variance_rb=var_rb,
            mean_ci_length=float(np.mean(hi - lo)) if lo.size else None,
            coverage=float(np.mean((lo <= y_total) & (y_total <= hi))) if lo.size else None,
            max_weight=float(np.max(weights)) if weights.size else None,
        )
    return metrics


def run_study(scenario: Scenario, threads: int = 1) -> tuple[dict[Variant, VariantMetrics], ReplicateColumns]:
    """Run every replicate and aggregate; bit-identical for any worker count.

    Returns the metrics of each variant, in VARIANTS order, and the
    per-replicate results, row i being replicate i. ``threads`` > 1 fans
    contiguous runs of whole blocks out to worker processes; results are
    re-assembled in index order before aggregation, so neither depends on
    scheduling.
    """
    n_blocks = -(-scenario.reps // block_replicates(scenario.design))
    if threads <= 1 or n_blocks < 2:
        cols = _run_blocks((scenario, 0, n_blocks))
    else:
        workers = min(threads, n_blocks)
        bounds = np.linspace(0, n_blocks, min(n_blocks, workers * 4) + 1, dtype=int)
        tasks = [(scenario, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
        import multiprocessing  # only here: a serial run never needs it

        with multiprocessing.get_context("fork").Pool(processes=workers) as pool:
            cols = ReplicateColumns.concat(pool.map(_run_blocks, tasks))
    return _aggregate(scenario, cols), cols


#: Replicates per chunk of write_raw_records: it holds one chunk's fields as
#: Python strings at a time, so its memory does not grow with the replicates.
_RAW_CHUNK = 500


def write_raw_records(path, records: ReplicateColumns, header: str) -> None:
    """Write per-replicate outcomes to CSV with round-trippable floats,
    after the comment line "# header".

    A field is empty where the outcome has no number: every field of a
    failed fit, the variances and interval of ``ht`` and ``p``, an interval
    that was not formed, a missing largest weight. The estimate, and the
    variances of a fitted variant, print ``nan`` when they are NaN (a
    singular gamma system).
    """
    if not isinstance(records, ReplicateColumns):
        raise TypeError("write_raw_records takes the ReplicateColumns of run_study")
    V, F = len(VARIANTS), len(_FIELDS)
    blank = np.isnan(records.values)
    blank[..., 4] = blank[..., 3]  # an interval is formed whole or not at all
    as_number = np.array([[True, v.fitted, v.fitted, False, False, False] for v in VARIANTS])
    blank &= ~(as_number & (records.status == _OK)[..., None])
    names = [v.value for v in VARIANTS]
    with open(path, "w", newline="") as fh:
        fh.write(f"# {header}\nreplicate,variant,estimate,v_sam,v_nr,ci_low,ci_high,max_w,status\n")
        for start in range(0, len(records.status), _RAW_CHUNK):
            chunk = slice(start, start + _RAW_CHUNK)
            values, blanks = records.values[chunk].ravel().tolist(), blank[chunk].ravel().tolist()
            cells = ["" if b else f"{v:.17g}" for v, b in zip(values, blanks)]
            fh.write("".join(
                f"{start + k // V},{names[k % V]},{','.join(cells[F * k:F * k + F])},{STATUSES[code]}\n"
                for k, code in enumerate(records.status[chunk].ravel().tolist())
            ))


def linearization_gap(scenario: Scenario, variants: tuple[Variant, ...]) -> dict[Variant, float]:
    """Median of |reweighted - linearized| / N over converged replicates,
    for each fitted variant in ``variants``.

    Diagnostic for the first-order equivalence: the gap shrinks with the
    sample size. Each block of the scenario's replicates is drawn once and
    fits only the variants asked for; linearized_block takes the same stack
    with the true probabilities, and the population gamma of population-level
    calibration, solved once per call. Replicates whose fit did not converge,
    or whose gamma system is singular, are skipped.
    """
    pop = scenario.population
    size = block_replicates(scenario.design)
    asked = np.array([VARIANTS.index(v) for v in variants])
    coef = {v: gamma(v, pop.aux, pop.y, 1.0, pop.true_p, "U") for v in variants if v.population_level}
    gaps: dict[Variant, list[float]] = {v: [] for v in variants}
    for start in range(0, scenario.reps, size):
        st = _stack_draws(scenario, range(start, min(start + size, scenario.reps)))
        rows = np.flatnonzero(st.n_r >= pop.n_aux)
        fit_b, fit_v, fits = _fit(st, rows, asked, pop.aux_total, scenario.controls)
        ok = fits.status == FitStatus.CONVERGED
        for variant in gaps:
            j = ok & (fit_v == VARIANTS.index(variant))
            b = fit_b[j]
            estimate = _estimates(st, b, fits.lambda_hat[j])[3]
            lin = linearized_block(variant, pop, st.x[b], st.y[b], st.pi[b], st.p[b], st.r[b], coef=coef.get(variant))
            gap = np.abs(estimate - lin) / pop.size
            gaps[variant].extend(gap[~np.isnan(gap)].tolist())
    return {v: float(np.median(g)) for v, g in gaps.items() if g}
