#!/usr/bin/env python3
"""Worst-case relative decode error versus system size at fixed redundancy,
for the inner-split pair (matdot vs orthomatdot) or the outer-split pair
(polynomial vs orthopoly).  Five seeded input realizations per point,
sampled survivor subsets, Gaussian inputs.
"""

import argparse
import sys

from chebcoded.cli import emit_and_check, run
from chebcoded.sim_harness import error_growth_plan, sweep

PAIRS = {
    "inner": ("matdot", "orthomatdot"),
    "outer": ("polynomial", "orthopoly"),
}


def sweep_plan(args) -> int:
    plan = error_growth_plan(
        schemes=PAIRS[args.pair],
        workers=tuple(args.workers),
        delta=args.redundancy,
        dims=(args.dims, args.dims, args.dims),
        samples=args.samples,
        seed=args.seed,
    )
    return emit_and_check(args, sweep(plan))


def main(argv=None) -> int:
    # no abbreviations: a prefix of a flag is not a second spelling of it
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--pair", choices=tuple(PAIRS), default="inner")
    parser.add_argument("--workers", type=int, nargs="+", default=[20, 40, 60, 80])
    parser.add_argument("--redundancy", type=int, default=3)
    parser.add_argument("--dims", type=int, default=120)
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return run(parser.parse_args(argv), sweep_plan)


if __name__ == "__main__":
    sys.exit(main())
