"""Replicate engine and metric aggregation for the simulation study.

Each replicate derives its sampling and response seeds from (master_seed,
replicate index, phase tag) through a splitmix64 mixer. Replicates run in
blocks of BLOCK consecutive indices: each block draws the units and
response indicators of all its replicates in one call, without building a
Sample or RespondentSet, stacks them into padded arrays, and fits,
estimates and evaluates variances for all of them at once. Each fit is
solved once: the stacked solver gives every fit its status. Block
boundaries depend only on the replicate index, so blocks can run in any
order or in parallel worker processes and still produce a bit-identical
study report: aggregation always runs over replicates in index order.
"""

from __future__ import annotations

import math
import multiprocessing
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

# draw_sample and draw_response stay importable here: perfbench/layers.py
# wraps montecarlo.draw_sample and montecarlo.draw_response when tracing.
from .designs import DesignSpec, Sample, draw_sample  # noqa: F401
from .estimators import (
    VARIANT_TO_EEKIND,
    Variant,
    gamma_cal_population,
    linearized_estimate,
)
from .population import Population
from .response import RespondentSet, _draw_replicates, draw_response  # noqa: F401
from .solvers import EEKind, FitStatus, SolverControls, response_probabilities, solve_block
from .variance import Z_95, var_hat_block

__all__ = [
    "BLOCK",
    "TAG_SAMPLING",
    "TAG_RESPONSE",
    "TAG_POPULATION",
    "mix_seed",
    "Scenario",
    "VariantOutcome",
    "ReplicateRecord",
    "ReplicateRecords",
    "VariantMetrics",
    "StudyReport",
    "run_replicate",
    "run_study",
    "relative_bias",
    "rrvar",
    "coverage_rate",
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
    variants: tuple[Variant, ...] = (
        Variant.HT,
        Variant.TRUE_P,
        Variant.MLE_K1,
        Variant.MLE_KINVPI,
        Variant.CAL_U,
        Variant.CAL_S,
    )
    controls: SolverControls = SolverControls()

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.population.size != self.design.size:
            raise ValueError("population and design sizes differ")


@dataclass(frozen=True)
class VariantOutcome:
    """Per-replicate result for one estimator variant.

    Failed fits carry a status and no numbers; the CI is None whenever the
    variance estimate was unavailable or negative.
    """

    status: str
    estimate: float | None = None
    v_sam: float | None = None
    v_nr: float | None = None
    ci: tuple[float, float] | None = None
    max_weight: float | None = None
    iterations: int = 0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass(frozen=True)
class ReplicateRecord:
    index: int
    n_sampled: int
    n_respondents: int
    outcomes: dict[Variant, VariantOutcome]


#: Replicates per block: a fixed constant, so block boundaries depend only on
#: the replicate index and never on the worker count.
BLOCK = 64

#: Per-replicate numeric fields of each variant, in raw-CSV order.
_FIELDS = ("estimate", "v_sam", "v_nr", "ci_low", "ci_high", "max_w")
_STATUSES = (STATUS_OK, STATUS_DEGENERATE) + tuple(
    s.value for s in FitStatus if s is not FitStatus.CONVERGED
)
_OK = _STATUSES.index(STATUS_OK)
_STATUS_CODE = {s: _OK if s is FitStatus.CONVERGED else _STATUSES.index(s.value) for s in FitStatus}


class _Columns(NamedTuple):
    """Results of consecutive replicates, one array per field: per replicate
    the sample and respondent counts, and per replicate and variant the
    status (an index into _STATUSES), the _FIELDS (NaN where absent) and the
    Newton iterations."""

    n_sampled: np.ndarray
    n_respondents: np.ndarray
    status: np.ndarray
    values: np.ndarray
    iterations: np.ndarray

    @classmethod
    def concat(cls, parts: list[_Columns]) -> _Columns:
        return cls(*(np.concatenate(f) for f in zip(*parts)))


def _pad(units: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated per-replicate unit indices as a (B, max size) array,
    padded with unit 0, and its mask of real rows."""
    valid = np.arange(sizes.max(initial=0)) < sizes[:, None]
    idx = np.zeros(valid.shape, dtype=np.int64)
    idx[valid] = units
    return idx, valid


def _take(values: np.ndarray, idx: np.ndarray, valid: np.ndarray, fill: float) -> np.ndarray:
    """values[idx] with fill on the padding rows."""
    v = values[idx]
    return np.where(valid.reshape(valid.shape + (1,) * (v.ndim - 2)), v, fill)


def _row_max(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Largest value over each row's unmasked entries, NaN on an empty row."""
    top = np.max(np.where(mask, values, -np.inf), axis=1, initial=-np.inf)
    return np.where(np.isfinite(top), top, np.nan)


class _Stack(NamedTuple):
    """A block's samples (x, pi, y, r) and respondents (x_r, pi_r, y_r and
    the true p_r) as arrays padded to a common length, with masks of the
    real rows. Padding rows (x = 0, y = 0, pi = 1, r = 0, p = 1) add exact
    zeros to every sum the engine takes."""

    n_s: np.ndarray
    n_r: np.ndarray
    x: np.ndarray
    pi: np.ndarray
    y: np.ndarray
    r: np.ndarray
    valid: np.ndarray
    x_r: np.ndarray
    pi_r: np.ndarray
    y_r: np.ndarray
    p_r: np.ndarray
    valid_r: np.ndarray


def _stack_draws(scenario: Scenario, indices: range) -> _Stack:
    """The padded samples and respondents of the replicates ``indices``."""
    pop, design, seed = scenario.population, scenario.design, scenario.master_seed
    seeds = np.column_stack([_block_seeds(seed, indices, TAG_SAMPLING), _block_seeds(seed, indices, TAG_RESPONSE)])
    units, r_all, n_s = _draw_replicates(design, pop.true_p, seeds)
    u, valid = _pad(units, n_s)
    r = np.zeros(valid.shape, dtype=np.int64)
    r[valid] = r_all
    n_r = r.sum(axis=1)
    u_r, valid_r = _pad(units[r_all == 1], n_r)
    return _Stack(
        n_s, n_r,
        _take(pop.aux, u, valid, 0.0), _take(design.pi, u, valid, 1.0), _take(pop.y, u, valid, 0.0), r, valid,
        _take(pop.aux, u_r, valid_r, 0.0), _take(design.pi, u_r, valid_r, 1.0), _take(pop.y, u_r, valid_r, 0.0),
        _take(pop.true_p, u_r, valid_r, 1.0), valid_r,
    )


def _fit(scenario: Scenario, st: _Stack, status: np.ndarray, iterations: np.ndarray):
    """Fit every fitted variant of every replicate of a block.

    All the block's equations go to solve_block as one stack. Fills
    ``status`` and ``iterations`` (replicate x variant) and returns the
    converged fits as (replicate, variant column, lambda_hat) arrays.
    """
    pop, controls = scenario.population, scenario.controls
    q = pop.n_aux
    fitted = np.array([v in VARIANT_TO_EEKIND for v in scenario.variants])
    status[np.outer(st.n_r < q, fitted)] = _STATUSES.index(STATUS_DEGENERATE)
    # Row j of the stack fits variant column fit_v[j] on replicate fit_b[j].
    rows, columns = np.flatnonzero(st.n_r >= q), np.flatnonzero(fitted)
    fit_b, fit_v = np.tile(rows, columns.size), np.repeat(columns, rows.size)
    kinds = np.array([VARIANT_TO_EEKIND[scenario.variants[vi]] for vi in fit_v], dtype=object)
    target = np.zeros((fit_b.size, q))
    target[kinds == EEKind.CAL_POPULATION] = pop.aux.sum(axis=0)
    cal_s = fit_b[kinds == EEKind.CAL_SAMPLE]
    target[kinds == EEKind.CAL_SAMPLE] = ((1.0 / st.pi[cal_s])[:, None, :] @ st.x[cal_s])[:, 0]
    fits = solve_block(kinds, st.x[fit_b], st.pi[fit_b], st.r[fit_b], st.valid[fit_b], target, controls)
    status[fit_b, fit_v] = [_STATUS_CODE[s] for s in fits.status]
    iterations[fit_b, fit_v] = fits.iterations
    ok = fits.status == FitStatus.CONVERGED
    return fit_b[ok], fit_v[ok], fits.lambda_hat[ok]


def _run_block(scenario: Scenario, indices: range) -> _Columns:
    """Draw, fit, estimate and evaluate every variant for a block of replicates."""
    st = _stack_draws(scenario, indices)
    B, V = len(indices), len(scenario.variants)
    status = np.full((B, V), _OK, dtype=np.int8)
    values = np.full((B, V, len(_FIELDS)), np.nan)
    iterations = np.zeros((B, V), dtype=np.int64)
    for vi, variant in enumerate(scenario.variants):
        if variant is Variant.HT:
            values[:, vi, 0] = np.sum(st.y / st.pi, axis=1)
            values[:, vi, 5] = _row_max(1.0 / st.pi, st.valid)
        elif variant is Variant.TRUE_P:
            w = 1.0 / (st.pi_r * st.p_r)
            values[:, vi, 0] = np.sum(st.y_r * w, axis=1)
            values[:, vi, 5] = _row_max(w, st.valid_r)

    ok_b, ok_v, lam = _fit(scenario, st, status, iterations)
    pi_r, x_r, y_r, valid_r = st.pi_r[ok_b], st.x_r[ok_b], st.y_r[ok_b], st.valid_r[ok_b]
    p_hat = np.where(valid_r, response_probabilities(x_r, lam), 1.0)
    w = 1.0 / (pi_r * p_hat)
    estimate = np.sum(w * y_r, axis=1)
    v_sam, v_nr = np.empty_like(estimate), np.empty_like(estimate)
    for vi in np.flatnonzero(np.bincount(ok_v, minlength=len(scenario.variants))):
        j = ok_v == vi
        v_sam[j], v_nr[j], _, _ = var_hat_block(
            scenario.variants[vi], scenario.design, pi_r[j], x_r[j], y_r[j], p_hat[j]
        )
    v_total = v_sam + v_nr
    with np.errstate(invalid="ignore"):
        half = Z_95 * np.sqrt(np.where(np.isfinite(v_total) & (v_total >= 0.0), v_total, np.nan))
    values[ok_b, ok_v] = np.column_stack(
        [estimate, v_sam, v_nr, estimate - half, estimate + half, _row_max(w, valid_r)]
    )
    return _Columns(st.n_s, st.n_r, status, values, iterations)


def _run_blocks(args: tuple[Scenario, int, int]) -> _Columns:
    """Blocks first..last-1 of a scenario's replicates."""
    scenario, first, last = args
    return _Columns.concat([
        _run_block(scenario, range(k * BLOCK, min((k + 1) * BLOCK, scenario.reps)))
        for k in range(first, last)
    ])


def _records(
    variants: tuple[Variant, ...], cols: _Columns, first_index: int = 0
) -> list[ReplicateRecord]:
    status, values, iterations = (a.tolist() for a in (cols.status, cols.values, cols.iterations))

    def outcome(variant, code, vals, iters):
        if code != _OK:
            return VariantOutcome(status=_STATUSES[code], iterations=iters)
        estimate, v_sam, v_nr, lo, hi, max_w = vals
        max_w = None if math.isnan(max_w) else max_w
        if variant in (Variant.HT, Variant.TRUE_P):
            return VariantOutcome(status=STATUS_OK, estimate=estimate, max_weight=max_w)
        ci = None if math.isnan(lo) else (lo, hi)
        return VariantOutcome(STATUS_OK, estimate, v_sam, v_nr, ci, max_w, iters)

    return [
        ReplicateRecord(
            index=first_index + i,
            n_sampled=int(cols.n_sampled[i]),
            n_respondents=int(cols.n_respondents[i]),
            outcomes={
                v: outcome(v, status[i][vi], values[i][vi], iterations[i][vi])
                for vi, v in enumerate(variants)
            },
        )
        for i in range(len(status))
    ]


@dataclass(frozen=True, eq=False)
class ReplicateRecords(Sequence):
    """The per-replicate outcomes of a study, in replicate order. They are
    kept as the engine's columns; the ReplicateRecord objects are built the
    first time one is read, and write_raw_records never builds them."""

    variants: tuple[Variant, ...]
    columns: _Columns

    @cached_property
    def _records(self) -> list[ReplicateRecord]:
        return _records(self.variants, self.columns)

    def __len__(self) -> int:
        return len(self.columns.status)

    def __getitem__(self, i):
        return self._records[i]


def run_replicate(scenario: Scenario, index: int) -> ReplicateRecord:
    """One replicate, run as a block of its own. Its numbers agree with the
    same replicate inside a study up to rounding in the padded sums."""
    cols = _run_block(scenario, range(index, index + 1))
    return _records(scenario.variants, cols, index)[0]


def relative_bias(values: np.ndarray, true_total: float) -> float | None:
    """(mean estimate - Y) / Y; None on an empty stream."""
    if len(values) == 0:
        return None
    return (float(np.mean(values)) - true_total) / true_total


def rrvar(values: np.ndarray, true_total: float) -> float | None:
    """sqrt(sample variance of the estimates) / Y; None below two values."""
    if len(values) < 2:
        return None
    return math.sqrt(float(np.var(values, ddof=1))) / true_total


def coverage_rate(intervals, true_total: float) -> float | None:
    """Fraction of intervals (pairs lo, hi) containing Y; None when no
    interval was formed."""
    ci = np.asarray(intervals, dtype=float).reshape(-1, 2)
    if not len(ci):
        return None
    return float(np.mean((ci[:, 0] <= true_total) & (true_total <= ci[:, 1])))


@dataclass(frozen=True)
class VariantMetrics:
    """Study aggregates for one variant (None where undefined)."""

    variant: Variant
    n_ok: int
    n_failed: int
    failure_rate: float
    rb: float | None
    rrvar: float | None
    mc_variance: float | None
    mean_variance_estimate: float | None
    variance_rb: float | None
    mean_ci_length: float | None
    n_ci: int
    coverage: float | None
    max_weight: float | None


@dataclass(frozen=True)
class StudyReport:
    """Monte Carlo aggregates over all replicates of one scenario."""

    true_total: float
    reps: int
    master_seed: int
    design_kind: str
    rho: float
    metrics: dict[Variant, VariantMetrics] = field(default_factory=dict)


def _aggregate(scenario: Scenario, cols: _Columns) -> StudyReport:
    y_total = scenario.population.total
    metrics: dict[Variant, VariantMetrics] = {}
    for vi, variant in enumerate(scenario.variants):
        ok = cols.status[:, vi] == _OK
        estimates, v_sam, v_nr, lo, hi, max_w = cols.values[ok, vi].T
        n_ok = int(ok.sum())
        n_failed = ok.size - n_ok
        rb = relative_bias(estimates, y_total) if n_ok else None
        rr = rrvar(estimates, y_total) if n_ok else None
        mc_var = float(np.var(estimates, ddof=1)) if n_ok >= 2 else None
        v_totals = v_sam + v_nr
        v_totals = v_totals[np.isfinite(v_totals)]
        mean_v = float(np.mean(v_totals)) if v_totals.size else None
        var_rb = (
            (mean_v - mc_var) / mc_var
            if mean_v is not None and mc_var is not None and mc_var > 0.0
            else None
        )
        has_ci = ~np.isnan(lo)
        lengths = (hi - lo)[has_ci]
        weights = max_w[~np.isnan(max_w)]
        metrics[variant] = VariantMetrics(
            variant=variant,
            n_ok=n_ok,
            n_failed=n_failed,
            failure_rate=n_failed / ok.size,
            rb=rb,
            rrvar=rr,
            mc_variance=mc_var,
            mean_variance_estimate=mean_v,
            variance_rb=var_rb,
            mean_ci_length=float(np.mean(lengths)) if lengths.size else None,
            n_ci=int(has_ci.sum()),
            coverage=coverage_rate(np.column_stack([lo, hi])[has_ci], y_total),
            max_weight=float(np.max(weights)) if weights.size else None,
        )
    return StudyReport(
        true_total=y_total,
        reps=scenario.reps,
        master_seed=scenario.master_seed,
        design_kind=scenario.design.kind.value,
        rho=scenario.population.rho,
        metrics=metrics,
    )


def run_study(
    scenario: Scenario, threads: int = 1, return_records: bool = False
) -> StudyReport | tuple[StudyReport, ReplicateRecords]:
    """Run every replicate and aggregate; bit-identical for any worker count.

    ``threads`` > 1 fans contiguous runs of whole blocks out to worker
    processes; results are re-assembled in index order before aggregation,
    so the report does not depend on scheduling. ``return_records`` also
    returns the per-replicate outcomes.
    """
    n_blocks = -(-scenario.reps // BLOCK)
    if threads <= 1 or n_blocks < 2:
        cols = _run_blocks((scenario, 0, n_blocks))
    else:
        workers = min(threads, n_blocks)
        bounds = np.linspace(0, n_blocks, min(n_blocks, workers * 4) + 1, dtype=int)
        tasks = [(scenario, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            cols = _Columns.concat(pool.map(_run_blocks, tasks))
    report = _aggregate(scenario, cols)
    if return_records:
        return report, ReplicateRecords(scenario.variants, cols)
    return report


def write_raw_records(path, records: ReplicateRecords, header_comment: str | None = None) -> None:
    """Write per-replicate outcomes to CSV with round-trippable floats.

    A field is empty where the outcome has no number: every field of a
    failed fit, the variances and interval of ``ht`` and ``p``, an interval
    that was not formed, a missing largest weight. The estimate, and the
    variances of a fitted variant, print ``nan`` when they are NaN (a
    singular gamma system).
    """
    if not isinstance(records, ReplicateRecords):
        raise TypeError("write_raw_records takes the records of run_study(..., return_records=True)")
    cols, V, F = records.columns, len(records.variants), len(_FIELDS)
    blank = np.isnan(cols.values)
    blank[..., 4] = blank[..., 3]  # an interval is formed whole or not at all
    fitted = [v not in (Variant.HT, Variant.TRUE_P) for v in records.variants]
    as_number = np.array([[True, f, f, False, False, False] for f in fitted])
    blank &= ~(as_number & (cols.status == _OK)[..., None])
    cells = ["" if b else f"{v:.17g}" for v, b in zip(cols.values.ravel().tolist(), blank.ravel().tolist())]
    names = [v.value for v in records.variants]
    rows = [
        f"{k // V},{names[k % V]},{','.join(cells[F * k:F * k + F])},{_STATUSES[code]}\n"
        for k, code in enumerate(cols.status.ravel().tolist())
    ]
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("replicate,variant,estimate,v_sam,v_nr,ci_low,ci_high,max_w,status\n")
        fh.write("".join(rows))


def linearization_gap(
    scenario: Scenario, variants: tuple[Variant, ...], reps: int | None = None
) -> dict[Variant, float]:
    """Median of |reweighted - linearized| / N over converged replicates.

    Diagnostic for the first-order equivalence: the gap shrinks with the
    sample size. Runs the scenario's replicates through the block engine,
    uses true probabilities for the linearized form, and skips replicates
    whose fit did not converge.
    """
    pop = scenario.population
    L = reps if reps is not None else scenario.reps
    scenario = replace(scenario, variants=tuple(variants))
    gamma_u = gamma_cal_population(pop)
    gaps: dict[Variant, list[float]] = {v: [] for v in variants}
    design, seed = scenario.design, scenario.master_seed
    for start in range(0, L, BLOCK):
        indices = range(start, min(start + BLOCK, L))
        cols = _run_block(scenario, indices)
        seeds = np.column_stack([_block_seeds(seed, indices, TAG_SAMPLING), _block_seeds(seed, indices, TAG_RESPONSE)])
        units, r_all, n_s = _draw_replicates(design, pop.true_p, seeds)
        ends = np.cumsum(n_s)
        for b in np.flatnonzero((cols.status == _OK).any(axis=1)):
            u, r = units[ends[b] - n_s[b]:ends[b]], r_all[ends[b] - n_s[b]:ends[b]]
            sample = Sample(indices=u, pi_s=design.pi[u], design=design)
            resp = RespondentSet(sample=sample, r=r, respondents=u[r == 1], nonrespondents=u[r == 0])
            for vi in np.flatnonzero(cols.status[b] == _OK):
                variant = scenario.variants[vi]
                gamma = gamma_u if variant is Variant.CAL_U else None
                lin = linearized_estimate(variant, pop, sample, resp, gamma=gamma)
                gaps[variant].append(abs(float(cols.values[b, vi, 0]) - lin) / pop.size)
    return {v: float(np.median(g)) for v, g in gaps.items() if g}
