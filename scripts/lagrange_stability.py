#!/usr/bin/env python3
"""Relative decode error of systematic Lagrange coded computing versus
system size, Chebyshev-basis interpolation against the monomial baseline,
with two redundant workers and a degree-1 map on Gaussian data.
"""

import argparse
import sys

from chebcoded.cli import emit_and_check, run
from chebcoded.sim_harness import lagrange_stability_plan, sweep


def sweep_plan(args) -> int:
    plan = lagrange_stability_plan(
        workers=tuple(args.workers),
        delta=args.redundancy,
        dim=args.dim,
        deg_f=args.degf,
        samples=args.samples,
        seed=args.seed,
    )
    return emit_and_check(args, sweep(plan))


def main(argv=None) -> int:
    # no abbreviations: a prefix of a flag is not a second spelling of it
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--workers", type=int, nargs="+", default=[20, 40, 60, 80, 100])
    parser.add_argument("--redundancy", type=int, default=2)
    parser.add_argument("--dim", type=int, default=10)
    parser.add_argument("--degf", type=int, default=1)
    parser.add_argument("--samples", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return run(parser.parse_args(argv), sweep_plan)


if __name__ == "__main__":
    sys.exit(main())
