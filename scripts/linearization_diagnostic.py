#!/usr/bin/env python3
"""Two-scale linearization diagnostic.

For each reweighted variant, reports the median |plug-in - linearized| / N
gap at two sample sizes. The gap shrinking with n is the finite-sample
signature of the first-order equivalence the variance estimators rely on.
"""

import argparse

from nwacal import GenConfig, Variant, generate_population, linearization_gap, srs_design
from nwacal.montecarlo import Scenario


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reps", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=314159)
    ap.add_argument("--sizes", default="100,400", help="comma-separated sample sizes")
    ap.add_argument("--rho", type=float, default=0.6)
    args = ap.parse_args(argv)

    pop = generate_population(GenConfig(N=1000, rho=args.rho, seed=42))
    sizes = [int(s) for s in args.sizes.split(",")]
    variants = (Variant.MLE_K1, Variant.CAL_U, Variant.CAL_S)

    gaps = {}
    for n in sizes:
        scenario = Scenario(
            population=pop, design=srs_design(1000, n), reps=args.reps, master_seed=args.seed
        )
        gaps[n] = linearization_gap(scenario, variants)

    print(f"median |plug-in - linearized| / N over {args.reps} replicates")
    header = "variant".ljust(12) + "".join(f"n={n}".rjust(14) for n in sizes)
    print(header)
    for v in variants:
        row = v.value.ljust(12) + "".join(f"{gaps[n][v]:14.3e}" for n in sizes)
        print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
