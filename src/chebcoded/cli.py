"""Command-line entry point.

Subcommands: cond (condition-number sweeps), mm (encode/compute/decode a
coded product with chosen erasures), table1 (the worst/average error
table, or an error-growth curve), sweep (run a JSON plan file), lagrange
(Lagrange-coding error trials), bound (condition-bound checks), selftest
(re-run the package's end-to-end checks).  cond, table1 and lagrange take
lists of bases, schemes and P, so each of the paper's curves is one
command.

Each subcommand declares only the flags its handler reads, and each
setting has one name: P is --workers, the redundancy is --redundancy.
--out PATH replaces stdout: the output goes to PATH, and stdout keeps at
most a final ``error=`` line.
Exit codes: 0 success, 2 usage error (one-line diagnostic on stderr),
1 runtime failure (machine-parsable ``error=`` line on stdout).
The CCC_SEED environment variable overrides --seed (see :func:`main`).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

from . import lagrange_codes, matmul_codes, selfcheck, sim_harness
from .cheb_vandermonde import GENERATOR_KINDS
from .cheb_vandermonde import gaussian_bound_trial, subset_cond_stats, theorem_bound_value
from .linalg import Rng
from .poly_basis import cheb_grid

__all__ = ["main", "entrypoint"]


class UsageError(ValueError):
    """Bad flag combination or value; maps to exit code 2."""


def _shared_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    specs = {
        "--out": {"metavar": "PATH", "help": "write the output to PATH instead of stdout"},
        "--format": {"choices": ("csv", "json"), "default": "csv"},
        "--quiet": {"action": "store_true", "help": "suppress informational lines"},
        "--seed": {"type": int, "default": 0},
    }
    for name in names:
        parser.add_argument(name, **specs[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chebcoded", description=__doc__.splitlines()[0])
    # no abbreviations: a prefix of a flag is not a second spelling of it
    one_spelling = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=one_spelling)

    p = sub.add_parser("cond", help="worst/average condition number over decode submatrices")
    p.set_defaults(handler=_cmd_cond)
    p.add_argument("--basis", choices=GENERATOR_KINDS, nargs="+", required=True)
    p.add_argument("--workers", type=int, nargs="+", required=True,
                   help="numbers of evaluation points (P); one row per basis and P")
    p.add_argument("--redundancy", type=int, required=True, help="P - generator rows")
    p.add_argument("--norm", choices=("l2", "frobenius"), default="l2")
    p.add_argument("--samples", type=int, help="sampled subsets (default: every subset)")
    _shared_flags(p, "--out", "--format", "--seed")

    p = sub.add_parser("mm", help="run one coded matrix multiplication")
    p.set_defaults(handler=_cmd_mm)
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
    _shared_flags(p, "--out", "--format", "--seed")
    p.set_defaults(format=None)  # csv, but --kill tells an explicit --format apart

    p = sub.add_parser("table1", help="worst/average error table (default: the paper's)")
    p.set_defaults(handler=_cmd_table1)
    p.add_argument("--scheme", choices=matmul_codes.FAMILIES, nargs="+",
                   default=["matdot", "orthomatdot"])
    p.add_argument("--workers", type=int, nargs="+", default=[30, 50, 80, 150])
    p.add_argument("--redundancy", type=int, default=3)
    p.add_argument("--samples", type=int,
                   help="sampled subsets per P (default: every subset up to 20000, else 2000)")
    p.add_argument("--dims", type=int, default=120, help="requested N1=N2=N3 before split fitting")
    _shared_flags(p, "--out", "--format", "--seed")

    p = sub.add_parser("sweep", help="run a JSON plan file")
    p.set_defaults(handler=_cmd_sweep)
    p.add_argument("--plan", metavar="FILE.json", required=True)
    _shared_flags(p, "--out", "--format")

    p = sub.add_parser("lagrange", help="Lagrange coded computing error trial")
    p.set_defaults(handler=_cmd_lagrange)
    p.add_argument("--workers", type=int, nargs="+", required=True)
    p.add_argument("--redundancy", type=int, help="P - threshold (default: 2 + (P - 3) %% degf)")
    p.add_argument("--dim", type=int, default=10)
    p.add_argument("--degf", type=int, default=1)
    p.add_argument("--basis", choices=lagrange_codes.DECODE_BASES, nargs="+",
                   default=["chebyshev"], help="one row per basis and P, basis-major")
    subsets = p.add_mutually_exclusive_group()
    subsets.add_argument("--exhaustive", action="store_true", help="decode from every survivor subset")
    subsets.add_argument("--samples", type=int, default=50, help="sampled survivor subsets")
    _shared_flags(p, "--out", "--format", "--seed")

    p = sub.add_parser("bound", help="condition-bound checks")
    p.set_defaults(handler=_cmd_bound)
    p.add_argument("--workers", type=int, required=True, help="grid size / matrix columns (P)")
    p.add_argument("--redundancy", type=int, required=True, help="S (Gaussian rows: P - S)")
    p.add_argument("--gauss", action="store_true", help="Monte-Carlo Gaussian bound instead")
    p.add_argument("--trials", type=int, default=500)
    _shared_flags(p, "--out", "--format", "--seed")

    p = sub.add_parser("selftest", help="re-run the package's end-to-end checks")
    p.set_defaults(handler=_cmd_selftest)
    _shared_flags(p, "--quiet")

    return parser


def _emit_lines(args, pairs) -> None:
    """key=value output for check-style subcommands; JSON writes inf as null."""
    if args.format == "json":
        finite = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in pairs}
        text = json.dumps(finite, indent=2, allow_nan=False) + "\n"
    else:
        text = "".join(f"{k}={v!r}\n" if isinstance(v, float) else f"{k}={v}\n" for k, v in pairs)
    sim_harness.write_text(text, args.out)


def _check_redundancy(redundancy: int, workers) -> None:
    for p in workers:
        if not 0 <= redundancy < p:
            raise UsageError(f"redundancy={redundancy} out of range [0, {p - 1}] at P={p}")


def _cmd_cond(args) -> int:
    _check_redundancy(args.redundancy, args.workers)
    plan = sim_harness.condition_growth_plan(
        args.basis, args.workers, args.redundancy, args.norm, args.samples, args.seed
    )
    return _emit_and_check(args, sim_harness.sweep(plan))


def _cmd_mm(args) -> int:
    if bool(args.kill) == bool(args.exhaustive):
        raise UsageError("mm needs exactly one of --kill or --exhaustive")
    if args.kill and args.format and not args.out:
        raise UsageError("mm --kill prints one relative_error= line; --format needs --out PATH")
    args.format = args.format or "csv"
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
    plan = sim_harness.plan_rows(
        [(args.scheme, args.workers)], args.workers - threshold,
        survivors if args.kill else None, args.seed, 1, dims=[args.n1, args.n2, args.n3], **splits,
    )
    records = sim_harness.sweep(plan)
    if args.exhaustive:
        return _emit_and_check(args, records)
    if args.out:
        sim_harness.write_records(records, args.out, args.format)
    worst = records[0]
    if not math.isfinite(worst.value):  # a singular decode, or an error row
        print(f"error={worst.error or 'singular decode for the requested survivor set'}")
        return 1
    if not args.out:
        print(f"relative_error={worst.value!r}")
    return 0


def _cmd_table1(args) -> int:
    _check_redundancy(args.redundancy, args.workers)
    plan = sim_harness.table1_plan(
        args.seed, (args.dims,) * 3, args.scheme, args.workers, args.redundancy, args.samples
    )
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
    if args.degf < 1:
        raise UsageError(f"--degf must be at least 1, got {args.degf}")
    if args.redundancy is not None:
        _check_redundancy(args.redundancy, args.workers)
    plan = []
    for basis, p in itertools.product(args.basis, args.workers):
        # by default the most data points that leave at least two redundant workers
        delta = args.redundancy if args.redundancy is not None else 2 + (p - 3) % args.degf
        plan += sim_harness.plan_rows(
            [(f"lagrange_{basis}", p)], delta,
            None if args.exhaustive else args.samples, args.seed, dim=args.dim, deg_f=args.degf,
        )
    return _emit_and_check(args, sim_harness.sweep(plan))


def _cmd_bound(args) -> int:
    p, s = args.workers, args.redundancy
    if not 1 <= s < p:
        raise UsageError(f"redundancy={s} out of range [1, {p - 1}]")
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    if args.gauss:
        violations, bound_prob = gaussian_bound_trial(p - s, p, args.trials, Rng(args.seed))
        pairs = [("m", p - s), ("workers", p), ("trials", args.trials), ("violations", violations),
                 ("violation_fraction", violations / args.trials), ("bound_prob", bound_prob)]
    else:
        stats = subset_cond_stats("chebyshev", p - s, cheb_grid(p).points, "frobenius")
        bound = theorem_bound_value(p, s)
        pairs = [("n", p), ("s", s), ("kappa_f_max", stats.worst), ("kappa_f_avg", stats.average),
                 ("bound", bound), ("ratio", stats.worst / bound)]
    _emit_lines(args, pairs)
    return 0


def _cmd_selftest(args) -> int:
    failures = selfcheck.run_all(verbose=not args.quiet)
    return 1 if failures else 0


def _emit_and_check(args, records) -> int:
    """Write records to ``args.out`` in ``args.format``, then fail loudly
    if any plan row errored; the error line comes last so the CSV stays
    parseable."""
    sim_harness.write_records(records, args.out, args.format)
    bad = [r for r in records if r.error]
    if bad:
        print(f"error={bad[0].error}")
        return 1
    return 0


def main(argv=None) -> int:
    """Run the subcommand ``argv`` names under this module's exit codes,
    after CCC_SEED (which must be an integer) has replaced ``--seed`` where
    the subcommand has one.  ``--out`` is checked before any work is done:
    it must name a file, not a directory, in a writable directory."""
    args = build_parser().parse_args(argv)
    try:
        out = getattr(args, "out", None)
        if out is not None:
            directory = os.path.dirname(os.path.abspath(out))
            if os.path.isdir(out):
                raise UsageError(f"--out {out} is a directory")
            if not os.path.isdir(directory) or not os.access(directory, os.W_OK | os.X_OK):
                raise UsageError(f"--out {out}: {directory} is not a writable directory")
        if "CCC_SEED" in os.environ:
            try:
                seed = int(os.environ["CCC_SEED"])
            except ValueError:
                raise UsageError("CCC_SEED must be an integer") from None
            if hasattr(args, "seed"):
                args.seed = seed
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # OSError: an --out write that still fails
        print(f"error={exc}")
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
