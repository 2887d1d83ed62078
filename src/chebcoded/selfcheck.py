"""End-to-end checks, runnable from the CLI without a test harness (a few
seconds in all): generator conditioning, exact recovery of all five matmul
families, Lagrange coding and the harness.  Unit invariants live in tests/."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from . import lagrange_codes, matmul_codes, sim_harness
from .cheb_vandermonde import build_generator, subset_cond_stats, theorem_bound_value
from .linalg import Rng, gaussian_matrix, matmul
from .poly_basis import cheb_grid

__all__ = ["run_all", "CHECKS"]


def _check_generator_conditioning():
    n = 32
    g = build_generator("chebyshev_normalized", n, cheb_grid(n).points)
    assert np.max(np.abs(g @ g.T - (n / 2.0) * np.eye(n))) <= 1e-9
    for s in (1, 2):
        stats = subset_cond_stats("chebyshev", 12 - s, cheb_grid(12).points, "frobenius")
        assert stats.worst <= 5.0 * theorem_bound_value(12, s)


def _check_exact_recovery():
    rng = Rng(101)
    cases = [
        matmul_codes.scheme_config("matdot", 6, m=2),
        matmul_codes.scheme_config("orthomatdot", 6, m=2),
        matmul_codes.scheme_config("polynomial", 7, m=2, n=2),
        matmul_codes.scheme_config("orthopoly", 7, m=2, n=2),
        matmul_codes.scheme_config("gen_orthomatdot", 18, m1=2, m2=2, m3=2),
    ]
    for config in cases:
        a = gaussian_matrix(rng, 12, 12)
        b = gaussian_matrix(rng, 12, 12)
        truth = matmul(a, b)
        outputs = [matmul_codes.worker_compute(s) for s in matmul_codes.encode(config, a, b)]
        k = matmul_codes.recovery_threshold(config)
        subsets = list(combinations(range(1, config.workers + 1), k))
        if len(subsets) > 60:
            subsets = subsets[:: len(subsets) // 60]
        for surv in subsets:
            got = matmul_codes.decode(config, surv, [outputs[i - 1] for i in surv])
            err = np.linalg.norm(got - truth) / np.linalg.norm(truth)
            assert err <= 1e-8, f"{config.family} failed at subset {surv}: {err}"


def _check_lagrange():
    config = lagrange_codes.LagrangeConfig(m=8, workers=10, dim=10, deg_f=1)
    rng = Rng(7)
    data = gaussian_matrix(rng, 8, 10)
    f = lagrange_codes.linear_map(rng.normals(10))
    encoded = lagrange_codes.lagrange_encode(config, data)
    assert np.array_equal(encoded[:8], data)
    outs = lagrange_codes.worker_outputs(config, f, encoded)
    truth = np.stack([f(x) for x in data])
    for surv in combinations(range(1, 11), config.threshold):
        got = lagrange_codes.lagrange_decode(
            config, f, surv, outs[np.asarray(surv) - 1], "chebyshev"
        )
        err = np.linalg.norm(got - truth) / np.linalg.norm(truth)
        assert err <= 1e-7, f"lagrange failed at {surv}: {err}"


def _check_harness():
    config = matmul_codes.scheme_config("orthomatdot", 7, m=2)
    rng = Rng(3)
    a = gaussian_matrix(rng, 20, 20)
    b = gaussian_matrix(rng, 20, 20)
    fault = sim_harness.FaultModel(mode="exhaustive")
    trial = sim_harness.run_trial(config, a, b, fault)
    assert trial.worst <= 1e-9
    assert trial.worst >= trial.average
    # one row of each kind: matmul, Lagrange, cond
    plan = (
        sim_harness.table1_plan(0, dims=(12, 12, 12))[:1]
        + sim_harness.lagrange_stability_plan(workers=(10,), samples=5)[:1]
        + sim_harness.condition_growth_plan(kinds=("chebyshev",), workers=(10,))
    )
    records = sim_harness.sweep(plan)
    assert not any(r.error for r in records), f"plan row failed: {records}"
    csv_a = sim_harness.records_to_csv(records)
    csv_b = sim_harness.records_to_csv(sim_harness.sweep(plan))
    assert csv_a == csv_b, "sweep output is not deterministic"
    assert csv_a.splitlines()[0] == sim_harness.CSV_HEADER


CHECKS = [
    ("generator conditioning", _check_generator_conditioning),
    ("exact recovery, all families", _check_exact_recovery),
    ("lagrange coding", _check_lagrange),
    ("simulation harness", _check_harness),
]


def run_all(verbose: bool = True) -> list[str]:
    """Run every check; returns the list of failed check names."""
    failures = []
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures.append(name)
            print(f"FAIL {name}: {exc}")
        else:
            if verbose:
                print(f"ok   {name}")
    if failures:
        print(f"{len(failures)} of {len(CHECKS)} checks failed")
    elif verbose:
        print(f"all {len(CHECKS)} checks passed")
    return failures
