"""One workload invocation in a fresh interpreter.

Usage: ``python3 child.py SPEC.json RESULT.json``. The spec names the
``nwacal`` argv, the populations and designs the invocation builds, and
whether to trace. The child times ``import nwacal.cli`` plus that set-up,
then calls ``nwacal.cli.main(argv)`` and writes its timings, peak memory and,
when tracing, every span to RESULT.json.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import layers
from spans import SpanRecorder


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    t0 = time.perf_counter()
    import nwacal.cli
    import_s = time.perf_counter() - t0

    from workloads import Cell  # benchmark code: not part of set-up

    t1 = time.perf_counter()
    for cell in spec["cells"]:
        Cell(**cell).build()
    setup_s = import_s + time.perf_counter() - t1

    modules = {name: sys.modules[f"nwacal.{name}"] for name in ("cli", "montecarlo", "solvers")}
    rec = SpanRecorder()
    layers.install(rec, modules, trace=spec["trace"])
    run = rec.wrap("cli.main", nwacal.cli.main)
    t2 = time.perf_counter()
    rc = run(spec["argv"])
    wall_s = time.perf_counter() - t2

    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "run_study_s": layers.run_study_seconds(rec.spans),
        "peak_rss_mb": rss_kb / 1024.0,
        "missing": rec.missing,
    }
    if spec["trace"]:
        result["spans"] = rec.spans
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
