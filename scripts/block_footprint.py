#!/usr/bin/env python3
"""What a run pays before its first block, and what one cold study block
allocates.

Builds a population and an SRSWOR design (by default at the sizes of the
perfbench large-srs workload: N = 20000, n = 2000), then runs the engine's
first block of it once in this fresh process: as many replicates as
montecarlo.block_replicates gives the design (BLOCK_UNITS sampled units at
n). It runs the block's draws, then its fits, estimates and variances,
then its fits alone again on the same draws (warm). For each stage, the
population and the design included, it prints the tracemalloc peak and the
process's minor page faults (ru_minflt, counted with tracemalloc on); then
the process's peak RSS (ru_maxrss).

    PYTHONPATH=src python scripts/block_footprint.py [--N 20000 --n 2000]
"""

import argparse
import resource
import tracemalloc

import numpy as np

from nwacal import GenConfig, generate_population, srs_design
from nwacal.montecarlo import VARIANTS, Scenario, _fit, _run_block, _stack_draws, block_replicates


def _stage(lines: list[str], name: str, run):
    """run() with tracemalloc on: appends its traced peak and its minor page
    faults to ``lines``, and returns its result."""
    tracemalloc.reset_peak()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    result = run()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    lines.append(f"{name:<16}{tracemalloc.get_traced_memory()[1] / 2**20:>16.3f}{faults:>10}")
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--N", type=int, default=20_000, help="population size")
    ap.add_argument("--n", type=int, default=2_000, help="sample size")
    ap.add_argument("--rho", type=float, default=0.6)
    ap.add_argument("--seed", type=int, default=3000)
    args = ap.parse_args(argv)

    fitted = np.flatnonzero([v.fitted for v in VARIANTS])
    lines = []
    # The population and the design are each traced from zero; the block's
    # stages from the start of its draws, so the later ones include the stack.
    tracemalloc.start()
    pop = _stage(lines, "population", lambda: generate_population(GenConfig(N=args.N, rho=args.rho, seed=args.seed)))
    tracemalloc.stop()
    tracemalloc.start()
    design = _stage(lines, "design", lambda: srs_design(args.N, args.n))
    tracemalloc.stop()
    reps = block_replicates(design)
    scenario = Scenario(population=pop, design=design, reps=reps, master_seed=args.seed)
    tracemalloc.start()
    st = _stage(lines, "draws", lambda: _stack_draws(scenario, range(reps)))
    _stage(lines, "fit_evaluate", lambda: _run_block(scenario, st))
    rows = np.flatnonzero(st.n_r >= pop.n_aux)
    _stage(lines, "fit_warm", lambda: _fit(st, rows, fitted, pop.aux_total, scenario.controls))
    tracemalloc.stop()
    print(f"one block of {reps} replicates, {reps * args.n} sampled units: "
          f"srs N={args.N} n={args.n} rho={args.rho} seed={args.seed}")
    print(f"{'stage':<16}{'traced_peak_mb':>16}{'minflt':>10}")
    print("\n".join(lines))
    print(f"ru_maxrss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
