"""Command-line entry point: scenario configuration and study reproduction.

Subcommands: ``study`` (the full six-scenario simulation), ``scenario`` (one
cell, the study's own at a study design and rho), ``fit`` (one-shot
estimation from a user CSV), and ``trace`` (solver iteration diagnostics).
The CLI is a thin shell over the Monte Carlo engine: ``study`` and
``scenario`` build their cells with study_scenarios, run them through one
loop over run_study and differ only in what they write (the tables, or
report.csv), and ``fit`` and ``trace`` fit their file as a stack of one
sample, every variant in one solve_block call, and evaluate it as the
engine evaluates a replicate. A config key is a RunConfig field, parsed as
the type of its default.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass, fields
from itertools import compress, repeat
from pathlib import Path

import numpy as np

from .designs import DesignKind, DesignSpec, poisson_design, srs_design
from .estimators import FITTED_VARIANTS, Variant
from .montecarlo import (
    VARIANTS,
    Scenario,
    TAG_POPULATION,
    VariantMetrics,
    _evaluate,
    _fit,
    mix_seed,
    run_study,
    write_raw_records,
)
from .population import GenConfig, generate_population
from .solvers import FitStatus, SolverControls, Stack, _cholesky_solve

__all__ = ["RunConfig", "parse_config", "main"]

TAG_SCENARIO = 0x5343454E

#: Population correlations of the six-cell study, in fixed order.
STUDY_RHOS = (0.6, 0.3, 0.0)
STUDY_DESIGNS = ("srs", "poisson")


@dataclass(frozen=True)
class RunConfig:
    """Validated scenario parameters; defaults match the primary study cell."""

    N: int = 1000
    n: int = 100
    mu: tuple[float, float] = (4.0, 4.0)
    rho: float = 0.6
    lam: tuple[float, float] = (0.1, 0.4)
    design: str = "srs"
    reps: int = 10000
    seed: int = 1729
    tol: float = 1e-8
    max_iter: int = 50
    threads: int = 1
    out: str = "results"
    emit_raw: bool = False

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N: must be an integer >= 2")
        if not 0 < self.n < self.N:
            raise ValueError("n: must satisfy 0 < n < N")
        for key in ("mu", "lam"):
            if not np.all(np.isfinite(getattr(self, key))):
                raise ValueError(f"{key}: values must be finite")
        # From 2^53 on, mu + 1 can equal mu in float64: the unit-variance
        # draws added to mu round away.
        if any(abs(m) >= 2.0**53 for m in self.mu):
            raise ValueError("mu: values must be below 2^53 in magnitude, where mu + 1 != mu in float64")
        if not abs(self.rho) < 1.0:
            raise ValueError("rho: must satisfy |rho| < 1")
        if self.design not in ("srs", "poisson"):
            raise ValueError("design: must be 'srs' or 'poisson'")
        if self.reps < 1:
            raise ValueError("reps: must be an integer >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed: must fit in an unsigned 64-bit integer")
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol: must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter: must be an integer >= 1")
        if self.threads < 1:
            raise ValueError("threads: must be an integer >= 1")

    @property
    def controls(self) -> SolverControls:
        return SolverControls(tol=self.tol, max_iter=self.max_iter)


#: The config keys: the RunConfig fields, each parsed as the type of its default.
_KEYS = {f.name for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    """The value of ``key = raw``, of the type of the key's RunConfig default."""
    kind = type(getattr(RunConfig, key))
    try:
        if kind is tuple:
            parts = [float(v) for v in raw.split(",")]
            if len(parts) != 2:
                raise ValueError
            return tuple(parts)
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError
        return kind(raw)
    except ValueError:
        raise ValueError(f"{key}: cannot parse value {raw!r}") from None


def parse_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from a flat key=value file plus flag overrides.

    Flags win over file values; unknown keys and out-of-range values raise
    with the offending key named.
    """
    values: dict = {}
    if path is not None:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, raw = line.partition("=")
            if not sep:
                raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
            key = key.strip()
            if key not in _KEYS:
                raise ValueError(f"unknown config key {key!r} (line {lineno})")
            values[key] = _coerce(key, raw.strip())
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in _KEYS:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = val
    return RunConfig(**values)


# Keys that define the statistical experiment; execution details (output
# paths, worker counts, raw emission) must not change the recorded hash.
_HASHED_KEYS = (
    "N", "n", "mu", "rho", "lam", "design", "reps", "seed", "tol", "max_iter",
)


def config_hash(cfg: RunConfig) -> str:
    parts = []
    for name in _HASHED_KEYS:
        v = getattr(cfg, name)
        if isinstance(v, tuple):
            v = ",".join(f"{x:.17g}" for x in v)
        elif isinstance(v, float):
            v = f"{v:.17g}"
        parts.append(f"{name}={v}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def _fmt4(v) -> str:
    """A table cell: empty for None, an int as it is, a float to 4 digits."""
    if v is None:
        return ""
    return str(v) if isinstance(v, int) else f"{v:.4g}"


#: The study tables: file stem, text title, variants (None: all, in report
#: order) and columns (VariantMetrics field, text label, text width).
_TABLES = (
    ("table2", "Point estimators: relative bias and relative root variance", None,
     (("rb", "RB", 12), ("rrvar", "RRVAR", 12))),
    ("table3", "Maximum final weight over all replicates",
     (Variant.TRUE_P, Variant.MLE_K1, Variant.MLE_KINVPI, Variant.CAL_U, Variant.CAL_S),
     (("max_weight", "max_w", 12),)),
    ("table4", "Variance estimators: relative bias, CI length, coverage, failures", FITTED_VARIANTS,
     (("variance_rb", "var_RB", 10), ("mean_ci_length", "CI_len", 12), ("coverage", "CR", 8), ("failure_rate", "fail", 8))),
)


#: The metrics of each run cell, with its design and rho, as run_study gives them.
_Results = list[tuple[str, float, dict[Variant, VariantMetrics]]]


def _table_rows(results: _Results, variants, columns):
    """(design, rho, variant name, formatted cells) per row of one table."""
    for design, rho, metrics in results:
        for variant in variants or metrics:
            m = metrics[variant]
            yield design, rho, variant.value, [_fmt4(getattr(m, field)) for field, _, _ in columns]


def _write_tables(out_dir: Path, header: str, results: _Results) -> None:
    for stem, _, variants, columns in _TABLES:
        head = ",".join(["design", "rho", "variant", *(field for field, _, _ in columns)])
        rows = [f"{d},{rho:.4g},{v},{','.join(cells)}\n" for d, rho, v, cells in _table_rows(results, variants, columns)]
        (out_dir / f"{stem}.csv").write_text(f"# {header}\n{head}\n" + "".join(rows))
    (out_dir / "tables.txt").write_text(f"# {header}\n" + format_study_text(results))


def format_study_text(results: _Results) -> str:
    """Aligned text rendering of the point, weight, and variance tables."""
    lines: list[str] = []
    for _, title, variants, columns in _TABLES:
        lines.append(title)
        lines.append(f"{'design':<9}{'rho':>5}  {'variant':<10}" + "".join(f"{lb:>{w}}" for _, lb, w in columns))
        for d, rho, v, cells in _table_rows(results, variants, columns):
            row = "".join(f"{c:>{w}}" for c, (_, _, w) in zip(cells, columns))
            lines.append(f"{d:<9}{rho:>5.2g}  {v:<10}{row}")
        lines.append("")
    return "\n".join(lines)


def study_scenarios(
    cfg: RunConfig, designs=STUDY_DESIGNS, rhos=STUDY_RHOS
) -> list[tuple[str, float, Scenario]]:
    """The (design, rho, scenario) cells of designs x rhos, design-major: the
    six study cells by default. Seeds follow the study's order, so a cell
    built alone is the study's cell: a population is seeded by its rho's
    index in STUDY_RHOS, and a cell's replicates by its index among the six.
    A rho outside the study takes index 0 for both."""
    def pop_of(rho):
        seed = mix_seed(cfg.seed, STUDY_RHOS.index(rho) if rho in STUDY_RHOS else 0, TAG_POPULATION)
        return generate_population(GenConfig(N=cfg.N, mean_mu=cfg.mu, rho=rho, lam=cfg.lam, seed=seed))

    pops = {rho: pop_of(rho) for rho in rhos}
    cells = []
    for d in designs:
        for rho in rhos:
            pop = pops[rho]
            design = srs_design(cfg.N, cfg.n) if d == "srs" else poisson_design(pop, float(cfg.n))
            index = STUDY_DESIGNS.index(d) * len(STUDY_RHOS) + STUDY_RHOS.index(rho) if rho in STUDY_RHOS else 0
            cells.append((d, rho, Scenario(pop, design, cfg.reps, mix_seed(cfg.seed, index, TAG_SCENARIO), cfg.controls)))
    return cells


def _run(cfg: RunConfig, cells, raw_name: str, write_outputs) -> int:
    """The run loop of study and scenario: run_study on every (design, rho,
    scenario) cell, with its raw CSV raw_name.format(design, rho) when asked,
    then write_outputs(out_dir, header, results) and the text tables on
    stdout."""
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = f"master_seed={cfg.seed} config_hash={config_hash(cfg)}"
    results: _Results = []
    for design_name, rho, scenario in cells:
        metrics, records = run_study(scenario, threads=cfg.threads)
        if cfg.emit_raw:
            write_raw_records(out_dir / raw_name.format(design_name, rho), records, header)
        results.append((design_name, rho, metrics))
    write_outputs(out_dir, header, results)
    print(format_study_text(results))
    return 0


#: The columns of report.csv after the variant: VariantMetrics fields.
_REPORT_COLUMNS = tuple(f.name for f in fields(VariantMetrics))


def _write_report(out_dir: Path, header: str, results: _Results) -> None:
    [(_, _, metrics)] = results
    rows = [",".join([v.value, *(_fmt4(getattr(m, f)) for f in _REPORT_COLUMNS)]) + "\n" for v, m in metrics.items()]
    (out_dir / "report.csv").write_text(f"# {header}\n" + ",".join(["variant", *_REPORT_COLUMNS]) + "\n" + "".join(rows))


class _CellError(ValueError):
    """A cell that float() cannot parse: its row in the column and the message."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _floats(cells: list[str]) -> np.ndarray:
    """float(cell.strip()) of every cell. float() takes the whole column in
    one pass when it can. It strips none of the separators U+001C to U+001F,
    which str.strip does, so a column it refuses is redone cell by cell; a
    cell that still fails raises _CellError with its index and message."""
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        out = np.empty(len(cells))
        for row, cell in enumerate(cells):
            try:
                out[row] = float(cell.strip())
            except ValueError as exc:
                raise _CellError(row, str(exc)) from None
        return out


def _read_fit_csv(path: Path):
    """Parse a unit,pi,r,x...,y file; any malformed or out-of-range value
    raises ValueError naming its line.

    Lines are those of str.splitlines. Blank lines and lines with # in
    column 1 are skipped, fields are stripped, and a blank y marks a
    nonrespondent. The data rows are joined and split once into a flat
    field list, and each column is converted by one float() pass; a bad row
    is found from its index.
    """
    lines = path.read_text().splitlines()
    linenos = [no for no, ln in enumerate(lines, start=1) if ln.strip() and ln[0] != "#"]
    if not linenos:
        raise ValueError(f"{path} is empty: expected header unit,pi,r,x...,y")
    if len(linenos) < len(lines):
        lines = [lines[no - 1] for no in linenos]
    header = [h.strip() for h in lines[0].split(",")]
    if header[:3] != ["unit", "pi", "r"] or header[-1] != "y" or len(header) < 5:
        raise ValueError(
            f"expected header unit,pi,r,x...,y with at least one x column, got {lines[0]!r}"
        )
    rows = lines[1:]
    del lines
    if not rows:
        raise ValueError(f"{path} has no data rows")
    width = len(header)
    commas = np.fromiter(map(str.count, rows, repeat(",")), np.int64, len(rows))
    ragged = np.flatnonzero(commas != width - 1)
    if ragged.size:
        # Rows before the first ragged one still report their own errors first.
        rows = rows[: ragged[0]]
    fields = ",".join(rows).split(",") if rows else []
    del rows  # not held beside the fields
    y_cells = [c.strip() or "nan" for c in fields[width - 1 :: width]]
    # A row reports its first bad cell in the order y, pi, r, x...
    columns, errors = {}, []
    for order, k in enumerate((width - 1, *range(1, width - 1))):
        try:
            columns[k] = _floats(y_cells if k == width - 1 else fields[k::width])
        except _CellError as exc:
            errors.append((exc.row, order, str(exc)))
    if errors:
        row, _, message = min(errors)
        raise ValueError(f"line {linenos[row + 1]}: {message}")
    if ragged.size:
        i = ragged[0]
        raise ValueError(f"line {linenos[i + 1]}: expected {width} fields, got {commas[i] + 1}")
    units = list(map(str.strip, fields[0::width]))
    pi, r, y = columns[1], columns[2], columns[width - 1]
    x = np.column_stack([columns[k] for k in range(3, width - 1)])
    for bad, what in (
        (~((pi > 0.0) & (pi <= 1.0)), "pi must lie in (0, 1]"),
        ((r != 0.0) & (r != 1.0), "r must be 0 or 1"),
        (~np.isfinite(x).all(axis=1), "x values must be finite"),
        ((r == 1.0) & ~np.isfinite(y), "a respondent needs a finite y value"),
    ):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"line {linenos[i + 1]}: {what} (unit {units[i]})")
    # The model's first auxiliary is the constant 1; the file carries only the
    # remaining x columns.
    aux = np.column_stack([np.ones(len(units)), x])
    return units, pi, r.astype(np.int64), aux, y


def _parse_totals(raw: str, q: int) -> np.ndarray:
    try:
        totals = np.array([float(v) for v in raw.split(",")])
    except ValueError as exc:
        raise ValueError(f"--totals: {exc}") from None
    if totals.shape != (q,):
        raise ValueError(f"--totals needs {q} values (count first, then each x column total)")
    if not np.all(np.isfinite(totals)):
        raise ValueError("--totals values must be finite")
    if totals[0] <= 0.0:
        raise ValueError("--totals: the population count (first value) must be positive")
    return totals


#: 10^0 .. 10^16, each exact in float64.
_POW10 = np.array([float(10**k) for k in range(17)])


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of float64 a into hi + lo, each of at most 26
    significant bits, so that products of halves are exact."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def _times_pow10(v: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p = fl(v 10^s) and p + e = v 10^s exactly: Dekker's
    two-product (Dekker 1971, Numer. Math. 18, 224-242)."""
    p = v * _POW10[s]
    vh, vl = _halves(v)
    ph, pl = _POW10_HI[s], _POW10_LO[s]
    return p, ((vh * ph - p) + vh * pl + vl * ph) + vl * pl


def _digits17(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each v in [1, 1e17): its 17 significant digits as the int64
    d in [10^16, 10^17), rounded half to even as %.17g rounds them, and the
    decimal exponent x of the rounded value, so that v ~ d 10^(x - 16)."""
    # log10 can be one off next to a power of ten (log10(nextafter(1e17, 0))
    # is 17.0): the exact product v 10^s, which must lie in [10^16, 10^17),
    # corrects the power.
    s = np.clip(16 - np.floor(np.log10(v)), 0, 16).astype(np.intp)
    p, e = _times_pow10(v, s)
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    fix = np.flatnonzero(low | high)
    s[fix] += np.where(low[fix], 1, -1)
    p[fix], e[fix] = _times_pow10(v[fix], s[fix])
    # p >= 10^16 > 2^53 is an even integer, so rounding e half to even
    # rounds p + e half to even. No v in the range rounds up to 10^17: the
    # double below each power of ten is further than half a 17th digit.
    d = p.astype(np.int64) + np.rint(e).astype(np.int64)
    return d, 16 - s


#: The padding byte of the weights.csv canvas: no UTF-8 text holds it.
_PAD = 0xFF
#: The widest unit, in UTF-8 bytes, that takes a canvas cell: one long unit
#: must not widen every row.
_UNIT_BYTES = 64


def _unit_cells(units: list[str]) -> np.ndarray | None:
    """The UTF-8 bytes of every unit, one row each padded with _PAD, or None
    when a unit is longer than _UNIT_BYTES."""
    encoded = list(map(str.encode, units))
    lengths = np.fromiter(map(len, encoded), np.intp, len(encoded))
    size = max(lengths.max(initial=0), 1)
    if size > _UNIT_BYTES:
        return None
    cells = np.fromiter(encoded, f"S{size}", len(encoded)).view(np.uint8).reshape(len(encoded), size)
    cells[np.arange(size) >= lengths[:, None]] = _PAD
    return cells


def _weights_csv(units: list[str], cells: np.ndarray | None, name: str, weights: np.ndarray) -> str:
    """The weights.csv rows f"{unit},{name},{w:.17g}" of one variant, each
    ended by a newline, byte for byte; cells is _unit_cells(units).

    Every row is laid out in one uint8 canvas and its _PAD bytes deleted:
    the unit's bytes, ",name,", the weight and the newline. A weight in
    [1, 1e17), every finite 1/(pi p_hat) that fit writes, is written from
    its 17 digits (_digits17) with a "." slot after each digit that can end
    the integer part; the fraction's trailing zeros, and a "." with no
    fraction left, are _PAD. %.17g writes any other weight (below 1,
    negative, NaN, inf, exponent notation). When a unit is longer than
    _UNIT_BYTES every row is one f-string, which takes two to three times
    the kernel's time.
    """
    if cells is None:
        return "".join(f"{u},{name},{w:.17g}\n" for u, w in zip(units, weights.tolist()))
    n = len(weights)
    fixed = (weights >= 1.0) & (weights < 1e17)
    d, x = _digits17(np.where(fixed, weights, 1.0))
    other = np.flatnonzero(~fixed)
    texts = np.array([("%.17g" % w).encode() for w in weights[other].tolist()], dtype=bytes)
    texts = texts.view(np.uint8).reshape(len(other), texts.itemsize)
    slots = min(int(x.max(initial=0)), 15) + 1
    col = np.array([j + min(j, slots) for j in range(17)])
    sep = np.frombuffer(f",{name},".encode(), np.uint8)
    u, k = cells.shape[1], len(sep)
    width = max(17 + slots, texts.shape[1])
    canvas = np.full((n, u + k + width + 1), _PAD, np.uint8)
    canvas[:, :u] = cells
    canvas[:, u : u + k] = sep
    canvas[:, -1] = ord("\n")
    num = canvas[:, u + k : u + k + width]
    # The digits from the last, in uint32: d's 9 low ones, then its 8 high ones.
    high, low = np.divmod(d, 10**9)
    high, low = high.astype(np.uint32), low.astype(np.uint32)
    for j in range(16, 8, -1):
        low, digit = np.divmod(low, np.uint32(10))
        num[:, col[j]] = digit + ord("0")
    num[:, col[8]] = low + ord("0")
    for j in range(7, -1, -1):
        high, digit = np.divmod(high, np.uint32(10))
        num[:, col[j]] = digit + ord("0")
    trailing = np.zeros(n, np.intp)  # the trailing zeros of d
    ends_in_zero = np.flatnonzero(fixed & (num[:, col[16]] == ord("0")))
    if ends_in_zero.size:
        block = num[ends_in_zero[:, None], col]
        zeros = np.logical_and.accumulate(block[:, ::-1] == ord("0"), axis=1)[:, ::-1]
        trailing[ends_in_zero] = zeros.sum(axis=1)
        block[zeros & (np.arange(17) > x[ends_in_zero, None])] = _PAD
        num[ends_in_zero[:, None], col] = block
    for j in range(slots):
        num[(x == j) & (trailing < 16 - j), col[j] + 1] = ord(".")
    num[other] = _PAD
    num[other, : texts.shape[1]] = np.where(texts == 0, _PAD, texts)
    return canvas.tobytes().translate(None, bytes([_PAD])).decode()


def _cmd_fit(args, trace: bool = False) -> int:
    path = Path(args.input)
    units, pi, r, aux, y = _read_fit_csv(path)
    totals = _parse_totals(args.totals, aux.shape[1]) if args.totals else None
    if args.variants is not None:
        names = args.variants.split(",")
        if "" in names:
            what = f"name in {args.variants!r}" if args.variants else "list"
            raise ValueError(f"--variants: empty {what}")
        unknown = sorted(set(names) - {v.value for v in FITTED_VARIANTS})
        if unknown:
            raise ValueError(f"--variants: unknown {', '.join(unknown)}")
        variants = tuple(dict.fromkeys(Variant(v) for v in names))
        if Variant.CAL_U in variants and totals is None:
            raise ValueError(
                f"--variants {Variant.CAL_U.value} needs --totals "
                "(the population count, then each x column total)"
            )
    else:
        # Population-level calibration runs only when its totals are given.
        variants = tuple(v for v in FITTED_VARIANTS if v is not Variant.CAL_U or totals is not None)
    # Every fit's Hessian sums x_i x_i' with weights of about 1/pi_i: past float64 none can run.
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite((aux.T / pi) @ aux).all():
            raise ValueError("the x columns overflow float64 in sum_i x_i x_i'/pi_i (rescale x)")
    # The package's one singularity rule, on the Gram matrix of the sample's
    # auxiliaries with each column scaled to a largest |x| of 1.
    z = aux / np.maximum(np.abs(aux).max(axis=0), np.finfo(float).tiny)
    if np.isnan(_cholesky_solve((z.T @ z)[None], np.zeros((1, z.shape[1])))).any():
        raise ValueError("the x columns are collinear with each other or the constant: drop the redundant ones")
    controls = SolverControls(trace=True) if trace else SolverControls()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # The file is a stack of one sample, and every variant is one equation
    # of one solve_block call, fitted whatever its number of respondents.
    st, first = Stack.of_one(aux, pi, r, y), np.zeros(1, dtype=np.intp)
    _, _, fits = _fit(st, first, np.array([VARIANTS.index(v) for v in variants]), totals, controls)
    if trace:
        for variant, status, iterations, rows in zip(variants, fits.status, fits.iterations, fits.trace):
            with (out_dir / f"trace_{variant.value}.csv").open("w") as fh:
                fh.write("iteration,residual_norm,step_size\n")
                for it, rn, step in rows:
                    fh.write(f"{it},{rn:.17g},{step:.17g}\n")
            print(f"{variant.value}: status={status.value} iterations={iterations}")
        return 0

    n, n_r = len(units), int(st.n_r[0])
    resp_units = list(compress(units, (r == 1).tolist()))
    unit_cells = _unit_cells(resp_units)
    # A one-shot fit carries no joint-inclusion information; treat the units
    # as independently drawn (Poisson design), which zeroes the pair term.
    design = DesignSpec(kind=DesignKind.POISSON, pi=st.pi_r[0], n_target=float(np.sum(st.pi_r[0])))
    results = {}
    for j, variant in ((j, v) for j, v in enumerate(variants) if fits.status[j] is FitStatus.CONVERGED):
        try:
            with np.errstate(over="raise", divide="raise"):
                results[variant] = _evaluate(variant, design, st, first, fits.lambda_hat[j : j + 1])
        except FloatingPointError:
            # The variance's (1 - pi)/pi^2 overflows for a pi below about
            # 1e-154, whatever y is; name that cause where it holds.
            pi_r = st.pi_r[0]
            with np.errstate(divide="ignore", over="ignore"):
                tiny = np.flatnonzero(~np.isfinite((1.0 - pi_r) / pi_r**2))
            if tiny.size:
                i = tiny[0]
                raise ValueError(
                    f"{variant.value}: the variance overflows float64 at unit {resp_units[i]}, "
                    f"whose pi = {pi_r[i]:.3g} is below about 1e-154 ((1 - pi)/pi^2 overflows)"
                ) from None
            raise ValueError(f"{variant.value}: the total or its variance overflows float64 (rescale y)") from None
    with (out_dir / "estimates.csv").open("w") as fh_est, (
        out_dir / "weights.csv"
    ).open("w") as fh_w, (out_dir / "variance.csv").open("w") as fh_v:
        fh_est.write("variant,value,n,n_r,max_weight,status,iterations\n")
        fh_w.write("unit,variant,weight\n")
        fh_v.write("variant,v_sam,v_nr,v_total,ci_low,ci_high\n")
        for variant, status, iterations in zip(variants, fits.status, fits.iterations):
            name = variant.value
            if variant not in results:
                fh_est.write(f"{name},nan,{n},{n_r},nan,{status.value},{iterations}\n")
                print(f"{name}: {status.value} after {iterations} iterations")
                continue
            values, w = results[variant]
            value, v_sam, v_nr, lo, hi, max_w = values[0].tolist()
            fh_est.write(f"{name},{value:.17g},{n},{n_r},{max_w:.17g},{status.value},{iterations}\n")
            fh_w.write(_weights_csv(resp_units, unit_cells, name, w[0]))
            fh_v.write(f"{name},{v_sam:.17g},{v_nr:.17g},{v_sam + v_nr:.17g},{lo:.17g},{hi:.17g}\n")
            print(f"{name}: total={value:.6g} (n_r={n_r})")
    return 0


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int, help="master seed (64-bit unsigned)")
    parser.add_argument("--reps", type=int, help="replicates per scenario")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--threads", type=int, help="worker process cap")
    parser.add_argument(
        "--emit-raw", action="store_const", const=True, dest="emit_raw",
        help="also write per-replicate record CSVs",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nwacal",
        description="Design-based total estimation under nonresponse with "
        "reweighted respondents",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common_flags(sub.add_parser("study", help="run the full six-scenario study"))
    p_scen = sub.add_parser("scenario", help="run one cell: the study's (design, rho) cell, or any rho")
    _add_common_flags(p_scen)
    p_scen.add_argument("--design", choices=STUDY_DESIGNS, help="sampling design")
    p_scen.add_argument("--rho", type=float, help="population correlation")

    for name, help_text in (
        ("fit", "estimate totals from a unit,pi,r,x...,y CSV"),
        ("trace", "emit per-iteration solver diagnostics for a fit"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="CSV with header unit,pi,r,x...,y")
        p.add_argument(
            "--totals",
            help="comma-separated population totals of the auxiliaries "
            "(count first); enables population-level calibration",
        )
        p.add_argument("--variants", help="comma-separated subset of mle_1,mle_invpi,cal_U,cal_S")
        p.add_argument("--out", default="results", help="output directory")

    args = parser.parse_args(argv)
    try:
        if args.command in ("study", "scenario"):
            # The flags are the config keys of their dest names; unset ones are None.
            cfg = parse_config(args.config, {k: v for k, v in vars(args).items() if k in _KEYS})
            if args.command == "scenario":
                return _run(cfg, study_scenarios(cfg, (cfg.design,), (cfg.rho,)), "raw.csv", _write_report)
            # study runs every design and rho: a config value of either that
            # is not the default would be ignored, yet hashed.
            for key in ("rho", "design"):
                if getattr(cfg, key) != getattr(RunConfig, key):
                    raise ValueError(f"{key}: study runs every design and rho; set it for scenario only")
            return _run(cfg, study_scenarios(cfg), "raw_{}_rho{:.4g}.csv", _write_tables)
        if args.command == "fit":
            return _cmd_fit(args, trace=False)
        return _cmd_fit(args, trace=True)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
