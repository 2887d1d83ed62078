"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "0.2", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    out = result(bench(workload, 1, trace))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in out["metrics"].values())
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1


def _inputs(workload):
    if isinstance(workload, workloads.SweepWorkload):
        return json.dumps(workload.rows, default=str)
    return np.concatenate([np.ravel(x) for a, b, s in workload.inputs for x in (a, b, s)])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_inputs_but_not_calls(name):
    one, two = workloads.make(name, 1, smoke=True), workloads.make(name, 2, smoke=True)
    assert not np.array_equal(_inputs(one), _inputs(two))
    assert [c.label for c in one.calls] == [c.label for c in two.calls]


def test_seed_does_not_change_metric_set():
    one, two = result(bench("coded_product", 1, 0)), result(bench("coded_product", 2, 0))
    assert set(one["metrics"]) == set(two["metrics"])


def test_tracer_wraps_every_import_site_and_restores_originals():
    import chebcoded
    from chebcoded import cheb_vandermonde, linalg, sim_harness

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "chebcoded"]
    before = [(m, k, v) for m in modules for k, v in vars(m).items() if callable(v)]
    original_cond = linalg.cond
    spans = tracer.Tracer(run.SPAN_METRICS)
    with spans:
        assert cheb_vandermonde.cond is linalg.cond is chebcoded.cond is not original_cond
        assert sim_harness.subset_cond_stats is cheb_vandermonde.subset_cond_stats
        spans.run(0, workloads.make("cond_sweep", 1, smoke=True).calls[0].fn)
    assert all(vars(m)[k] is v for m, k, v in before)
    names = [s[0] for s in spans.spans]
    assert names[0] == "bench.call" and "linalg.cond" in names
    by_id = dict(enumerate(spans.spans))
    cond_parent = by_id[next(s for s in spans.spans if s[0] == "linalg.cond")[3]][0]
    assert cond_parent == "parallel.parallel_map"


def test_absent_function_is_reported_not_fatal():
    spans = tracer.Tracer(["linalg.cond", "linalg.no_such_function", "no_such_module.f"])
    with spans:
        pass
    assert spans.absent == ["linalg.no_such_function", "no_such_module.f"]


def test_self_time_subtracts_the_union_of_child_spans():
    spans = tracer.Tracer([])
    spans.spans = [("a", 0.0, 10.0, None, 0), ("b", 1.0, 4.0, 0, 0), ("c", 3.0, 6.0, 0, 0)]
    totals = spans.totals()
    assert totals["a"]["self_s"] == pytest.approx(5.0)
    assert totals["b"]["self_s"] == totals["c"]["self_s"] == pytest.approx(3.0)


def test_digits_are_clipped_to_their_range():
    assert workloads.digits(1e-9) == pytest.approx(9.0)
    assert workloads.digits(math.inf) == workloads.digits(0.999) == workloads.DIGITS_FLOOR
    assert workloads.digits(0.0) == workloads.DIGITS_CAP


def test_fails_without_the_library_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("cond_sweep", 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


class _Echo:
    """A workload whose calls output their index; check passes all."""

    @staticmethod
    def check(index, output):
        return workloads.Verdict(True, digits=float(index), note="checked")

    @staticmethod
    def digest(output):
        return str(output)


def test_later_passes_are_judged_by_digest_identity_with_the_first():
    first = [0, 1, ValueError("boom")]
    same, differs = ["0", "1", "x"], ["0", "9", RuntimeError("late")]
    verdicts = run.judge(_Echo(), first, [same, differs])
    assert [v.ok for v in verdicts[0]] == [True, True, False]
    assert [v.ok for v in verdicts[1]] == [True, True, False]
    assert verdicts[1][1] == verdicts[0][1]
    assert [v.note for v in verdicts[2]][1:] == ["output differs from the first pass", "raised RuntimeError('late')"]
