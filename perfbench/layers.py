"""Which public names of nwacal the traced run wraps, and the per-layer
metrics computed from the resulting spans.

Span names are ``<layer>.<function>``, the layer being the nwacal module that
defines the function. A name is wrapped in every module that imported it,
because that is the binding the caller looks up. Private helpers are not
wrapped: their time counts as self time of the public function around them.
"""

from __future__ import annotations

from spans import self_times, subtree

LAYERS = ("population", "designs", "response", "solvers", "estimators", "variance", "montecarlo", "cli")
SOLVE_KINDS = ("mle_k1", "mle_kinvpi", "cal_population", "cal_sample")
FIT_STATUSES = ("converged", "max_iterations", "singular_jacobian", "diverged")
VAR_FUNCS = ("var_hat_mle", "var_hat_calU", "var_hat_calS")

# (module under nwacal, attribute, span name)
PATCHES = (
    ("cli", "run_study", "montecarlo.run_study"),
    ("cli", "write_raw_records", "cli.write_raw_records"),
    ("cli", "generate_population", "population.generate_population"),
    ("cli", "srs_design", "designs.srs_design"),
    ("cli", "poisson_design", "designs.poisson_design"),
    ("cli", "solve", "solvers.solve"),
    ("cli", "nwa_estimate", "estimators.nwa_estimate"),
    *(("cli", f, f"variance.{f}") for f in VAR_FUNCS),
    ("montecarlo", "run_replicate", "montecarlo.run_replicate"),
    ("montecarlo", "draw_sample", "designs.draw_sample"),
    ("montecarlo", "draw_response", "response.draw_response"),
    ("montecarlo", "solve", "solvers.solve"),
    ("montecarlo", "ht_estimate", "estimators.ht_estimate"),
    ("montecarlo", "two_phase_estimate", "estimators.two_phase_estimate"),
    ("montecarlo", "nwa_estimate", "estimators.nwa_estimate"),
    *(("montecarlo", f, f"variance.{f}") for f in VAR_FUNCS),
    ("montecarlo", "confidence_interval", "variance.confidence_interval"),
    ("solvers", "residual", "solvers.residual"),
    ("solvers", "jacobian", "solvers.jacobian"),
)


def _annotate_solve(args, kwargs, fit):
    eq = args[0] if args else kwargs["eq"]
    return [eq.kind.value, fit.status.value, int(fit.iterations)]


def install(recorder, modules: dict, trace: bool) -> None:
    """Wrap every name in PATCHES, or only ``run_study`` when not tracing."""
    for mod, attr, name in PATCHES:
        if trace or attr == "run_study":
            annotate = _annotate_solve if attr == "solve" else None
            recorder.patch(modules[mod], attr, name, annotate)


def run_study_seconds(spans: list) -> float:
    """Total time inside the top-level ``run_study`` calls."""
    return sum(s[2] - s[1] for s in spans if s[0] == "montecarlo.run_study") / 1e9


def check_self_time_sum(spans: list) -> list[str]:
    """Self times inside each root span must add up to its duration exactly
    (integer nanoseconds); a mismatch means spans escaped their parent."""
    selfs = self_times(spans)
    errors = []
    for i, s in enumerate(spans):
        if s[3] == -1 or s[0] == "montecarlo.run_study":
            total = sum(selfs[j] for j in subtree(spans, i))
            if total != s[2] - s[1]:
                errors.append(f"{s[0]}#{i}: self times add to {total} ns, span lasts {s[2] - s[1]} ns")
    return errors


def per_layer_metrics(spans: list) -> dict[str, float]:
    """Counts and timings of one traced invocation; the root span is cli.main."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    incl: dict[str, int] = {}
    own: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0)
    for s, st in zip(spans, selfs):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0) + s[2] - s[1]
        own[name] = own.get(name, 0) + st
        layer_self[name.split(".")[0]] += st
    main_ns = sum(s[2] - s[1] for s in spans if s[3] == -1)

    def n(name):
        return calls.get(name, 0)

    def us_per_call(name):
        return incl.get(name, 0) / n(name) / 1e3 if n(name) else 0.0

    def share(ns):
        return ns / main_ns if main_ns else 0.0

    m: dict[str, float] = {}
    solves = [s[4] for s in spans if s[0] == "solvers.solve"]
    total_iters = 0
    for kind in SOLVE_KINDS:
        mine = [a for a in solves if a[0] == kind]
        k_ns = sum(s[2] - s[1] for s in spans if s[0] == "solvers.solve" and s[4][0] == kind)
        iters = sum(a[2] for a in mine)
        ok = sum(1 for a in mine if a[1] == "converged")
        total_iters += iters
        p = f"solvers.solve.{kind}"
        m[f"{p}.calls"] = len(mine)
        m[f"{p}.us_per_call"] = k_ns / len(mine) / 1e3 if mine else 0.0
        m[f"{p}.iterations"] = iters
        m[f"{p}.iterations_mean"] = iters / len(mine) if mine else 0.0
        m[f"{p}.converged_ratio"] = ok / len(mine) if mine else 0.0
        m[f"{p}.failed"] = len(mine) - ok
    for status in FIT_STATUSES:
        m[f"solvers.status.{status}"] = sum(1 for a in solves if a[1] == status)
    for f in ("residual", "jacobian"):
        m[f"solvers.{f}.calls"] = n(f"solvers.{f}")
        m[f"solvers.{f}.us_per_call"] = us_per_call(f"solvers.{f}")
    m["solvers.residual_per_iteration"] = n("solvers.residual") / total_iters if total_iters else 0.0
    m["solvers.share"] = share(layer_self["solvers"])

    for name in ("designs.draw_sample", "response.draw_response"):
        m[f"{name}.calls"] = n(name)
        m[f"{name}.us_per_call"] = us_per_call(name)
        m[f"{name}.share"] = share(incl.get(name, 0))
    m["estimators.nwa_estimate.calls"] = n("estimators.nwa_estimate")
    m["estimators.nwa_estimate.us_per_call"] = us_per_call("estimators.nwa_estimate")
    for f in VAR_FUNCS:
        m[f"variance.{f}.calls"] = n(f"variance.{f}")
        m[f"variance.{f}.us_per_call"] = us_per_call(f"variance.{f}")
    m["variance.share"] = share(layer_self["variance"])

    m["montecarlo.run_replicate.calls"] = n("montecarlo.run_replicate")
    m["montecarlo.run_replicate.self_us"] = (
        own["montecarlo.run_replicate"] / n("montecarlo.run_replicate") / 1e3
        if n("montecarlo.run_replicate") else 0.0
    )
    m["montecarlo.aggregate_ms"] = own.get("montecarlo.run_study", 0) / 1e6
    m["cli.self_s"] = own.get("cli.main", 0) / 1e9
    m["cli.write_raw_records.s"] = incl.get("cli.write_raw_records", 0) / 1e9
    m["population.generate_population.calls"] = n("population.generate_population")
    m["population.generate_population.ms"] = incl.get("population.generate_population", 0) / 1e6
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    last = name.rsplit(".", 1)[-1]
    if last in ("us_per_call", "self_us"):
        return "us"
    if last in ("ms", "aggregate_ms"):
        return "ms"
    if last in ("s", "self_s", "pool_overhead_s"):
        return "s"
    if last == "iterations_mean":
        return "iter/call"
    if last == "residual_per_iteration":
        return "calls/iter"
    if last in ("share", "converged_ratio", "parallel_efficiency", "trace_overhead", "fit_failure_rate"):
        return "ratio"
    return "count"
