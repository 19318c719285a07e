#!/usr/bin/env python3
"""Where the time of `nwacal fit` goes: seconds per stage and peak RSS.

Writes a seeded fit file (by default at the sizes of the perfbench fit-large
workload: a Poisson sample of n = 200000 from N = 2000000, rho = 0.6, every
fitted variant, --totals given), then runs `nwacal fit` on it in fresh
processes. Each process times the stages of its one call, read
(_read_fit_csv), solve (_fit), evaluate (_evaluate) and write (_weights_csv,
the weights.csv rows), and the whole call (main), and reads its own peak RSS
(ru_maxrss). One JSON line gives the median of each over the processes.

The file is written by a process of its own: Linux carries a process's
memory high-water mark into the processes it starts, so the timed
processes are started by this small one.

    PYTHONPATH=src python scripts/fit_stages.py [--N 2000000 --n 200000 --seed 1 --runs 5]
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
#: One BLAS thread, as in the benchmark.
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
STAGES = {"read": "_read_fit_csv", "solve": "_fit", "evaluate": "_evaluate", "write": "_weights_csv"}


def write_input(path: Path, N: int, n: int, seed: int) -> str:
    """Writes the fit file of a seeded population and returns its --totals."""
    from nwacal import GenConfig, draw_response, draw_sample, generate_population, poisson_design
    from nwacal.montecarlo import TAG_POPULATION, TAG_RESPONSE, TAG_SAMPLING, mix_seed

    pop = generate_population(GenConfig(N=N, rho=0.6, seed=mix_seed(seed, TAG_POPULATION)))
    sample = draw_sample(poisson_design(pop, float(n)), mix_seed(seed, TAG_SAMPLING))
    r = draw_response(sample, pop.true_p[sample.indices], mix_seed(seed, TAG_RESPONSE)).r
    x1, y = pop.aux[sample.indices, 1].tolist(), pop.y[sample.indices].tolist()
    rows = ["unit,pi,r,x1,y\n"]
    for u, p, ri, xi, yi in zip(sample.indices.tolist(), sample.pi_s.tolist(), r.tolist(), x1, y):
        rows.append(f"{u},{p!r},1,{xi!r},{yi!r}\n" if ri else f"{u},{p!r},0,{xi!r},\n")
    path.write_text("".join(rows))
    return f"{float(N)!r},{math.fsum(pop.aux[:, 1])!r}"


def time_fit(argv: list[str]) -> dict:
    """One `nwacal fit` call with its stages timed, in this process."""
    import resource

    from nwacal import cli

    seconds = dict.fromkeys(STAGES, 0.0)
    for stage, name in STAGES.items():
        def timed(*args, _f=getattr(cli, name), _stage=stage):
            t0 = time.perf_counter()
            try:
                return _f(*args)
            finally:
                seconds[_stage] += time.perf_counter() - t0

        setattr(cli, name, timed)
    t0 = time.perf_counter()
    if cli.main(argv) != 0:
        raise SystemExit("nwacal fit failed")
    seconds["main"] = time.perf_counter() - t0
    seconds["ru_maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return seconds


def _child(*args: str) -> str:
    env = {**os.environ, **ENV, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, __file__, *args], env=env, check=True, capture_output=True, text=True
    ).stdout.splitlines()[-1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--N", type=int, default=2_000_000, help="population size")
    parser.add_argument("--n", type=int, default=200_000, help="expected sample size")
    parser.add_argument("--seed", type=int, default=1, help="master seed of the file")
    parser.add_argument("--runs", type=int, default=5, help="fresh processes timed")
    parser.add_argument("--child", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        # In a child: "write PATH" prints the totals, "fit ARGS..." the stage times.
        if args.child[0] == "write":
            print(write_input(Path(args.child[1]), args.N, args.n, args.seed))
        else:
            print(json.dumps(time_fit(args.child)))
        return 0
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fit.csv"
        totals = _child("--N", str(args.N), "--n", str(args.n), "--seed", str(args.seed), "--child", "write", str(path))
        fit = ["fit", "--input", str(path), "--totals", totals, "--variants", "mle_1,mle_invpi,cal_U,cal_S",
               "--out", str(Path(tmp) / "out")]
        runs = [json.loads(_child("--child", *fit)) for _ in range(args.runs)]
    medians = {key: statistics.median(run[key] for run in runs) for key in runs[0]}
    print(json.dumps({"N": args.N, "n": args.n, "seed": args.seed, "runs": args.runs,
                      **{key: round(value, 4) for key, value in medians.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
