"""Benchmark of chebcoded: one workload per run, untraced or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the library is imported from its
``src/`` directory, never from an installed copy.  The seed makes every
input.  A run sets the workload up, warms it up on the smoke-size
inputs, then repeats passes (every call of the workload once) for at
most about ``--seconds`` seconds, checking every call's output outside
the timed region.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  The human-readable report and a machine block go to
stdout, the full report (and the spans of a traced run) to
``.perfbench_out/``, and the last stdout line is the JSON result.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# Set-up is timed this many times per run (this process plus fresh
# processes) and reported as the median.
SETUP_SAMPLES = 5
# Every sweep is compared with a repeat of itself, and a call's median
# over three passes discards the cold first one (page faults on its first
# large allocations cost coded_product up to 30% more CPU).
MIN_PASSES = 3
# A call has at least this many slower calls beyond the tail percentile.
TAIL_BEYOND = 10
# BLAS always runs single-threaded, whatever the caller's environment
# says: on a shared host a second BLAS thread spins while the hypervisor
# runs another tenant on the other CPU, which made the CPU time of
# coded_product passes spread three times as much as that of the
# single-threaded workloads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# Timings other than wall_s are CPU seconds of this process: they
# exclude the time the hypervisor gives to other tenants, which made
# wall-clock figures spread by up to 30% between runs (see README.md).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "subsets_per_cpu_s": "1/s",
    "call_cpu_s_p50": "s",
    "call_cpu_s_tail": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "digits_min": "digits",
}

# The traced functions and the statistics reported for each.
SPAN_METRICS = {
    "linalg.cond": ("calls", "self_s"),
    "parallel.parallel_map": ("self_s",),
    "cheb_vandermonde.subset_cond_stats": ("calls", "self_s"),
    "cheb_vandermonde.sample_column_subsets": ("self_s",),
    "sim_harness.survivor_subsets": ("self_s",),
    "cheb_vandermonde.build_generator": ("self_s",),
    "matmul_codes.decode_operator": ("self_s",),
    "lagrange_codes.decode_generator": ("self_s",),
    "linalg.gaussian_matrix": ("self_s",),
    "linalg.lu_factor": ("calls", "self_s"),
    "linalg.lu_solve": ("calls", "self_s"),
    "matmul_codes.decode": ("self_s",),
    "matmul_codes.encode": ("self_s",),
    "matmul_codes.truth_block_table": ("self_s",),
    "matmul_codes.worker_compute": ("calls", "self_s"),
    "sim_harness.run_trial": ("calls", "self_s"),
    "sim_harness.run_lagrange_trial": ("calls", "self_s"),
    "lagrange_codes.lagrange_encode": ("self_s",),
    "lagrange_codes.worker_outputs": ("self_s",),
    "sim_harness.sweep": ("self_s",),
    "sim_harness.records_to_csv": ("self_s",),
}
PER_LAYER = {
    **{
        f"{span}.{stat}": "count" if stat == "calls" else "s"
        for span, stats in SPAN_METRICS.items()
        for stat in stats
    },
    "matmul_codes.worker_compute.gflop": "GFLOP",
    "matmul_codes.worker_compute.gflop_per_s": "GFLOP/s",
    "sim_harness.finite_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no library source to import)."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--setup-probe", action="store_true", help="time set-up only and exit")
    return parser.parse_args(argv)


def setup(name: str, seed: int, smoke: bool):
    """Import the library, build the inputs and warm up; returns the
    workload and the CPU seconds this process has used so far."""
    if not (SRC / "chebcoded" / "__init__.py").is_file():
        raise SetupError(f"no chebcoded source under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import chebcoded
    import workloads

    if not Path(chebcoded.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"chebcoded was imported from {chebcoded.__file__}, not from {SRC}")
    workload = workloads.make(name, seed, smoke)
    for call in workloads.make(name, seed, smoke=True).calls:
        call.fn()
    return workload, time.process_time()


def probe_setup(args) -> float:
    """Set-up time of the same workload in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(workload, tracer=None, first_call_id: int = 0, keep: bool = False) -> dict:
    """Every call once, traced if a tracer is given.  Keeps each call's
    output if ``keep``, else only its digest, taken outside the timing."""
    walls, cpus, outputs = [], [], []
    untimed_wall = untimed_cpu = 0.0
    cpu = time.process_time()
    start = time.perf_counter()
    for i, call in enumerate(workload.calls):
        call_start, call_cpu = time.perf_counter(), time.process_time()
        try:
            out = tracer.run(first_call_id + i, call.fn) if tracer else call.fn()
        except Exception as exc:  # noqa: BLE001 - a raising call is counted as failed, not fatal
            traceback.print_exc()
            out = exc
        call_end, call_end_cpu = time.perf_counter(), time.process_time()
        walls.append(call_end - call_start)
        cpus.append(call_end_cpu - call_cpu)
        if not keep and not isinstance(out, Exception):
            out = workload.digest(out)
            untimed_wall += time.perf_counter() - call_end
            untimed_cpu += time.process_time() - call_end_cpu
        outputs.append(out)
    wall = time.perf_counter() - start - untimed_wall
    cpu = time.process_time() - cpu - untimed_cpu
    return {
        "wall": wall,
        "cpu": cpu,
        "call_walls": walls,
        "call_cpus": cpus,
        "traced": tracer is not None,
        "outputs": outputs,
    }


def judge(workload, first: list, later: list[list]) -> list[list]:
    """Verdicts of every pass: the first pass's outputs are checked in
    full, a later pass's digests by identity with the first pass's."""
    import workloads

    def raised(out):
        return workloads.Verdict(False, note=f"raised {out!r}")

    verdicts = [raised(out) if isinstance(out, Exception) else workload.check(i, out)
                for i, out in enumerate(first)]
    digests = [None if isinstance(out, Exception) else workload.digest(out) for out in first]
    differs = workloads.Verdict(False, note="output differs from the first pass")
    return [verdicts] + [
        [raised(d) if isinstance(d, Exception) else verdicts[i] if d == digests[i] else differs
         for i, d in enumerate(digests_of_pass)]
        for digests_of_pass in later
    ]


def measure(workload, seconds: float, tracer=None) -> list[dict]:
    """As many passes as the first one says fit in ``seconds``, but at
    least MIN_PASSES, then the checks of every pass.  With a tracer, odd
    passes are traced."""
    passes = []
    target = MIN_PASSES
    while len(passes) < target:
        # Only the first pass keeps its outputs, so that peak RSS does not
        # grow with the pass count.
        if tracer is not None and len(passes) % 2 == 1:
            with tracer:
                passes.append(run_pass(workload, tracer, len(passes) * len(workload.calls)))
        else:
            passes.append(run_pass(workload, keep=not passes))
        if len(passes) == 1:
            target = max(MIN_PASSES, math.floor(seconds / max(passes[0]["wall"], 1e-9)))
    # Checks run after the last pass: checking between passes left the
    # first call of the next pass paying for the checks' memory traffic.
    first = passes[0].pop("outputs")
    passes[0]["records"] = [r for out in first if isinstance(out, tuple) for r in out[0]]
    later = [p.pop("outputs") for p in passes[1:]]
    for p, verdicts in zip(passes, judge(workload, first, later)):
        p["verdicts"] = verdicts
    return passes


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, or the
    largest sample when there are too few; returns (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    idx = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n


def per_call(passes, key: str, stat) -> list[float]:
    return [stat(p[key][i] for p in passes) for i in range(len(passes[0][key]))]


def end_to_end(workload, passes, setup_samples) -> tuple[dict, dict]:
    import workloads

    plain = [p for p in passes if not p["traced"]]
    # The calls of a pass are different rows, so a rank pooled over all
    # calls lands on the extreme repeat of whichever row is there, and
    # moves to another row when the pass count changes.  Both latency
    # statistics are taken over each call's median across passes instead.
    medians = per_call(plain, "call_cpus", statistics.median)
    tail_value, tail_pct = tail(medians)
    subsets = sum(c.subsets for c in workload.calls) * len(plain)
    verdicts = [v for p in passes for v in p["verdicts"]]
    scored = [v.digits for v in verdicts if v.digits is not None]
    understood = [v.digits for v in verdicts if v.digits is not None and not v.known_defect]
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(p["wall"] for p in plain),
        "subsets_per_cpu_s": subsets / sum(sum(p["call_cpus"]) for p in plain),
        "call_cpu_s_p50": statistics.median(medians),
        "call_cpu_s_tail": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - sum(not v.ok for v in verdicts) / len(verdicts),
        "digits_min": min(scored) if scored else workloads.DIGITS_FLOOR,
    }
    detail = {
        "passes": len(plain),
        "call_cpu_s_tail": f"p{tail_pct:.0f} of {len(medians)} per-call medians over {len(plain)} passes",
        "pass_wall_s": [p["wall"] for p in plain],
        "pass_cpu_s": [p["cpu"] for p in plain],
        "call_wall_s_medians": per_call(plain, "call_walls", statistics.median),
        "setup_cpu_s": setup_samples,
        # digits_min sits at the floor while the known defect fails; this
        # is the worst accuracy of the calls it does not touch.
        "digits_min_without_known_defect": min(understood) if understood else None,
    }
    return values, detail


def per_layer(workload, passes, tracer) -> tuple[dict, dict]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    n = len(traced)
    totals = tracer.totals()
    values = {}
    for span, stats in SPAN_METRICS.items():
        entry = totals.get(span, {"calls": 0, "self_s": 0.0})
        for stat in stats:
            values[f"{span}.{stat}"] = entry[stat] / n
    worker = totals.get("matmul_codes.worker_compute", {"total_s": 0.0})
    gflop = tracer.work.get("matmul_codes.worker_compute", 0.0)
    values["matmul_codes.worker_compute.gflop"] = gflop / n
    values["matmul_codes.worker_compute.gflop_per_s"] = gflop / worker["total_s"] if gflop else 0.0
    # Later passes are checked to repeat the first pass's records exactly.
    records = passes[0]["records"]
    finite = sum(math.isfinite(r.value) for r in records)
    values["sim_harness.finite_frac"] = finite / len(records) if records else 0.0
    traced_wall = statistics.median(p["wall"] for p in traced)
    values["trace.overhead_frac"] = traced_wall / statistics.median(p["wall"] for p in plain) - 1.0
    shares = {
        name: entry["self_s"] / n / traced_wall
        for name, entry in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])
    }
    detail = {"traced_passes": n, "absent_layers": tracer.absent, "self_share_of_pass": shares}
    return values, detail


def machine_block() -> dict:
    import numpy as np

    deps = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except (TypeError, ValueError):  # numpy without the dict mode
        pass
    libs = {
        kind: {key: info.get(key) for key in ("name", "version", "openblas configuration")}
        for kind, info in deps.items()
        if kind in ("blas", "lapack")
    }
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": libs,
        "thread_env": threads,
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        workload, own_setup = setup(args.workload, args.seed, args.smoke)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    from tracer import Tracer

    tracer = Tracer(SPAN_METRICS) if args.trace else None
    passes = measure(workload, args.seconds, tracer)
    if args.trace:
        values, detail = per_layer(workload, passes, tracer)
        units = PER_LAYER
    else:
        setup_samples = [own_setup] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        values, detail = end_to_end(workload, passes, setup_samples)
        units = END_TO_END

    verdicts = [(i, v) for p in passes for i, v in enumerate(p["verdicts"])]
    failures = [
        {"call": workload.calls[i].label, "known_defect": v.known_defect, "note": v.note}
        for i, v in verdicts
        if not v.ok
    ]
    unexpected = sum(not f["known_defect"] for f in failures)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine_block(),
        "detail": detail,
        "calls": [
            {
                "label": c.label,
                "subsets": c.subsets,
                "wall_s": [p["call_walls"][i] for p in passes],
                "cpu_s": [p["call_cpus"][i] for p in passes],
            }
            for i, c in enumerate(workload.calls)
        ],
        "checks": [{"call": c.label, "ok": v.ok, "digits": v.digits, "note": v.note}
                   for c, v in zip(workload.calls, passes[0]["verdicts"])],
        "failures": failures,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    if tracer is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in tracer.records():
                fh.write(json.dumps(span) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(report["machine"]))
    print("detail " + json.dumps(detail))
    for check in report["checks"]:
        status = "ok  " if check["ok"] else "FAIL"
        print(f"check {status} {check['call']}: {check['note']}")
    known = len(failures) - unexpected
    print(f"calls {len(verdicts)}  failed checks {len(failures)} ({known} by the known defect)")
    for name, unit in units.items():
        print(f"{name:44s} {values[name]:.6g} {unit}")
    result = {
        "correct": unexpected == 0,
        "attempted": len(verdicts),
        "failed": unexpected,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
