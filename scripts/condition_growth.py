#!/usr/bin/env python3
"""Worst/average condition number of the decode submatrices versus system
size, Chebyshev basis against the monomial baseline, at fixed redundancy.

Condition numbers are not capped; a submatrix shows up as `inf` only when
its smallest singular value is at most k * eps times its largest (k the
submatrix size).  Chebyshev rows take them from the erased columns alone
(an s x s solve and two (s+1) x (s+1) eigenproblems per subset, s the
redundancy), so exhaustive sweeps stay cheap up to the subset budget
(P=100 at redundancy 3 in about 1.5 s).  Monomial rows take one LAPACK SVD
of each k x k submatrix; run them with OPENBLAS_NUM_THREADS=1, since
OpenBLAS threads only slow these small SVDs down (2.7 times the CPU per
matrix on 2 CPUs), and sample beyond about 50000 subsets.
"""

import argparse
import math
import sys

from chebcoded.cli import emit_and_check, run
from chebcoded.sim_harness import condition_growth_plan, sweep


def sweep_plan(args) -> int:
    for p in args.workers:
        subsets = math.comb(p, p - args.redundancy)
        if args.samples is None and subsets > 50000:
            print(
                f"note: the monomial row at P={p} has {subsets} subsets, one SVD each; "
                f"consider --samples 2000",
                file=sys.stderr,
            )
    plan = condition_growth_plan(
        kinds=("monomial", "chebyshev"),
        workers=tuple(args.workers),
        delta=args.redundancy,
        norm=args.norm,
        samples=args.samples,
        seed=args.seed,
    )
    return emit_and_check(args, sweep(plan))


def main(argv=None) -> int:
    # no abbreviations: a prefix of a flag is not a second spelling of it
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--workers", type=int, nargs="+", default=[16, 30, 60])
    parser.add_argument("--redundancy", type=int, default=3)
    parser.add_argument("--norm", choices=("l2", "frobenius"), default="l2")
    parser.add_argument("--samples", type=int, help="sampled subsets per point (default: every subset)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return run(parser.parse_args(argv), sweep_plan)


if __name__ == "__main__":
    sys.exit(main())
