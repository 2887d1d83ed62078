"""Command-line entry point.

Subcommands: cond (condition-number sweeps), mm (encode/compute/decode a
coded product with chosen erasures), table1 (the fixed worst/average
error table), sweep (run a JSON plan file), lagrange (Lagrange-coding
error trials), bound (condition-bound checks), selftest (re-run the
package's end-to-end checks).

Exit codes: 0 success, 2 usage error (one-line diagnostic on stderr),
1 runtime failure (machine-parsable ``error=`` line on stdout).
The CCC_SEED environment variable overrides --seed everywhere.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import lagrange_codes, matmul_codes, selfcheck, sim_harness
from .cheb_vandermonde import gaussian_bound_trial, subset_cond_stats, theorem_bound_value
from .linalg import Rng
from .poly_basis import cheb_grid

__all__ = ["main", "entrypoint"]


class UsageError(ValueError):
    """Bad flag combination or value; maps to exit code 2."""


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--quiet", action="store_true", help="suppress informational lines")
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chebcoded", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cond", help="worst/average condition number over decode submatrices")
    p.add_argument("--basis", choices=sim_harness.COND_SCHEMES, required=True)
    p.add_argument("--points", type=int, required=True, help="number of evaluation points (P)")
    p.add_argument("--rows", type=int, help="generator rows k (default: points - redundancy)")
    p.add_argument("--redundancy", type=int, help="points - rows")
    p.add_argument("--norm", choices=("l2", "frobenius"), default="l2")
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--samples", type=int, default=20000)
    _common_flags(p)

    p = sub.add_parser("mm", help="run one coded matrix multiplication")
    p.add_argument("--scheme", choices=matmul_codes.FAMILIES, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m1", type=int)
    p.add_argument("--m2", type=int)
    p.add_argument("--m3", type=int)
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--kill", metavar="IDX,IDX,...", help="1-based worker indices to erase")
    p.add_argument("--exhaustive", action="store_true", help="decode from every survivor subset")
    p.add_argument("--n1", type=int, default=120)
    p.add_argument("--n2", type=int, default=120)
    p.add_argument("--n3", type=int, default=120)
    _common_flags(p)

    p = sub.add_parser("table1", help="worst/average error table at redundancy 3")
    p.add_argument("--dims", type=int, default=120, help="requested N1=N2=N3 before split fitting")
    _common_flags(p)

    p = sub.add_parser("sweep", help="run a JSON plan file")
    p.add_argument("--plan", metavar="FILE.json", required=True)
    _common_flags(p)

    p = sub.add_parser("lagrange", help="Lagrange coded computing error trial")
    p.add_argument("--m", type=int, help="data points (default workers - 2)")
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--dim", type=int, default=10)
    p.add_argument("--degf", type=int, default=1)
    p.add_argument("--basis", choices=lagrange_codes.DECODE_BASES, default="chebyshev")
    p.add_argument("--mode", choices=("exhaustive", "random"), default="random")
    p.add_argument("--samples", type=int, default=50)
    _common_flags(p)

    p = sub.add_parser("bound", help="condition-bound checks")
    p.add_argument("--n", type=int, help="grid size for the growth-rate check")
    p.add_argument("--s", type=int, help="redundancy for the growth-rate check")
    p.add_argument("--gauss", action="store_true", help="Monte-Carlo Gaussian bound instead")
    p.add_argument("--m", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--trials", type=int, default=500)
    _common_flags(p)

    p = sub.add_parser("selftest", help="re-run the package's end-to-end checks")
    _common_flags(p)

    return parser


def _emit_lines(args, pairs) -> None:
    """key=value output for check-style subcommands; JSON writes inf as null."""
    if args.format == "json":
        finite = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in pairs}
        text = json.dumps(finite, indent=2, allow_nan=False) + "\n"
    else:
        text = "".join(f"{k}={v!r}\n" if isinstance(v, float) else f"{k}={v}\n" for k, v in pairs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if not args.quiet:
            sys.stdout.write(text)
    else:
        sys.stdout.write(text)


def _cmd_cond(args) -> int:
    if args.rows is None and args.redundancy is None:
        raise UsageError("cond needs --rows or --redundancy")
    rows = args.rows if args.rows is not None else args.points - args.redundancy
    if args.redundancy is not None and rows != args.points - args.redundancy:
        raise UsageError(
            f"--rows {args.rows} and --redundancy {args.redundancy} disagree at P={args.points}"
        )
    if not 1 <= rows <= args.points:
        raise UsageError(f"rows={rows} out of range [1, {args.points}]")
    row = {
        "scheme": args.basis,
        "P": args.points,
        "delta": args.points - rows,
        "norm": args.norm,
        "metrics": ["cond_worst", "cond_avg"],
        "fault": {"mode": "random", "samples": args.samples}
        if args.mode == "sampled"
        else {"mode": "exhaustive"},
        "seeds": [args.seed],
    }
    return _emit_and_check(args, sim_harness.sweep([row]))


def _cmd_mm(args) -> int:
    if bool(args.kill) == bool(args.exhaustive):
        raise UsageError("mm needs exactly one of --kill or --exhaustive")
    splits = {
        name: getattr(args, name) for name in matmul_codes.SPLITS if getattr(args, name) is not None
    }
    try:
        config = matmul_codes.scheme_config(args.scheme, args.workers, **splits)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    threshold = matmul_codes.recovery_threshold(config)

    if args.kill:
        try:
            killed = sorted({int(tok) for tok in args.kill.split(",") if tok.strip()})
        except ValueError as exc:
            raise UsageError(f"--kill must be a comma-separated index list, got {args.kill!r}") from exc
        if killed and (killed[0] < 1 or killed[-1] > args.workers):
            raise UsageError(f"--kill indices out of range [1, {args.workers}]")
        survivors = tuple(i for i in range(1, args.workers + 1) if i not in set(killed))
        if len(survivors) != threshold:
            raise UsageError(
                f"killing {len(killed)} workers leaves {len(survivors)} survivors; "
                f"decoder needs exactly {threshold}"
            )
        fault = {"mode": "fixed", "subset": survivors}
    else:
        fault = {"mode": "exhaustive"}
    row = dict(splits, scheme=args.scheme, P=args.workers, delta=args.workers - threshold,
               dims=[args.n1, args.n2, args.n3], metrics=["relerr_worst", "relerr_avg"],
               fault=fault, seeds=[args.seed])
    records = sim_harness.sweep([row])
    if args.exhaustive:
        return _emit_and_check(args, records)
    worst = records[0]
    if worst.error:
        print(f"error={worst.error}")
        return 1
    if not math.isfinite(worst.value):
        print("error=singular decode for the requested survivor set")
        return 1
    if not args.quiet:
        print(f"relative_error={worst.value!r}")
    if args.out:
        sim_harness.write_records(records, args.out, args.format)
    return 0


def _cmd_table1(args) -> int:
    plan = sim_harness.table1_plan(args.seed, dims=(args.dims, args.dims, args.dims))
    return _emit_and_check(args, sim_harness.sweep(plan))


def _cmd_sweep(args) -> int:
    try:
        with open(args.plan, encoding="utf-8") as fh:
            plan = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read plan file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"plan file is not valid JSON: {exc}") from exc
    if not isinstance(plan, list):
        raise UsageError("plan file must hold a JSON array of row objects")
    return _emit_and_check(args, sim_harness.sweep(plan))


def _cmd_lagrange(args) -> int:
    m = args.m if args.m is not None else args.workers - 2
    row = {
        "scheme": f"lagrange_{args.basis}",
        "P": args.workers,
        "delta": args.workers - ((m - 1) * args.degf + 1),
        "m": m,
        "dim": args.dim,
        "deg_f": args.degf,
        "metrics": ["relerr_worst", "relerr_avg"],
        "fault": {"mode": "random", "samples": args.samples}
        if args.mode == "random"
        else {"mode": "exhaustive"},
        "seeds": [args.seed + i for i in range(5)],
    }
    return _emit_and_check(args, sim_harness.sweep([row]))


def _cmd_bound(args) -> int:
    if args.gauss:
        if args.m is None or args.workers is None:
            raise UsageError("bound --gauss needs --m and --workers")
        violations, bound_prob = gaussian_bound_trial(
            args.m, args.workers, args.trials, Rng(args.seed)
        )
        _emit_lines(
            args,
            [
                ("m", args.m),
                ("workers", args.workers),
                ("trials", args.trials),
                ("violations", violations),
                ("violation_fraction", violations / args.trials),
                ("bound_prob", bound_prob),
            ],
        )
        return 0
    if args.n is None or args.s is None:
        raise UsageError("bound needs --n and --s (or --gauss --m --workers)")
    stats = subset_cond_stats("chebyshev", args.n - args.s, cheb_grid(args.n).points, "frobenius")
    bound = theorem_bound_value(args.n, args.s)
    _emit_lines(
        args,
        [
            ("n", args.n),
            ("s", args.s),
            ("kappa_f_max", stats.worst),
            ("kappa_f_avg", stats.average),
            ("bound", bound),
            ("ratio", stats.worst / bound),
        ],
    )
    return 0


def _cmd_selftest(args) -> int:
    failures = selfcheck.run_all(verbose=not args.quiet)
    return 1 if failures else 0


def _emit_and_check(args, records) -> int:
    """Write records, then fail loudly if any plan row errored; the error
    line comes last so the CSV stays parseable."""
    sim_harness.write_records(records, args.out, args.format)
    bad = [r for r in records if r.error]
    if bad:
        print(f"error={bad[0].error}")
        return 1
    return 0


_COMMANDS = {
    "cond": _cmd_cond,
    "mm": _cmd_mm,
    "table1": _cmd_table1,
    "sweep": _cmd_sweep,
    "lagrange": _cmd_lagrange,
    "bound": _cmd_bound,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "CCC_SEED" in os.environ and hasattr(args, "seed"):
        try:
            args.seed = int(os.environ["CCC_SEED"])
        except ValueError:
            print("usage error: CCC_SEED must be an integer", file=sys.stderr)
            return 2
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error={exc}")
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
