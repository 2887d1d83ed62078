"""Curated re-checks of every module's core invariants, runnable from the
CLI without a test harness.  Each check is small enough to finish in
seconds; together they cover grids and quadrature, the linear algebra
kernels, generator conditioning, exact recovery of all five matmul
families, the coefficient maps, Lagrange coding, and the harness.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from . import lagrange_codes, matmul_codes, sim_harness
from .cheb_vandermonde import build_generator, subset_cond_stats, theorem_bound_value
from .linalg import SOLVE_BLOCK, Rng, cond, gaussian_matrix, invert, matmul, solve
from .poly_basis import cheb_T, cheb_grid, quad_rule, trig_lemma_check

__all__ = ["run_all", "CHECKS"]


def _check_grid_and_quadrature():
    for n in (1, 2, 3, 7, 20, 64, 200):
        grid = cheb_grid(n)
        assert np.all(np.diff(grid.points) < 0), f"grid {n} not strictly decreasing"
        assert np.all(np.abs(grid.points) < 1.0), f"grid {n} leaves (-1, 1)"
        assert np.max(np.abs(grid.points + grid.points[::-1])) <= 1e-15, f"grid {n} asymmetric"
        assert max(abs(cheb_T(n, x)) for x in grid.points) <= 1e-11, f"T_{n} not zero on grid"
    for n in (1, 2, 5, 12):
        rule = quad_rule(n)
        assert abs(rule.weights.sum() - 2.0) <= 1e-12
        for i in range(2 * n):
            for j in range(2 * n):
                if i + j >= 2 * n:
                    continue
                got = rule.apply(
                    [cheb_T(i, x) * cheb_T(j, x) for x in rule.nodes.points]
                )
                want = 2.0 if i == j == 0 else (1.0 if i == j else 0.0)
                assert abs(got - want) <= 1e-10, f"orthogonality failed at n={n}, ({i},{j})"


def _check_cheb_evaluation():
    xs = np.linspace(-1.0, 1.0, 201)
    for k in (0, 1, 2, 7, 25, 50):
        for x in xs:
            by_rec = 1.0
            prev, cur = 1.0, float(x)
            for _ in range(k - 1):
                prev, cur = cur, 2.0 * x * cur - prev
            by_rec = 1.0 if k == 0 else cur
            assert abs(cheb_T(k, x) - by_rec) <= 1e-10
    for i in range(0, 21, 5):
        for j in range(0, 21, 5):
            for x in np.linspace(-1, 1, 17):
                lhs = cheb_T(i, x) * cheb_T(j, x)
                rhs = 0.5 * (cheb_T(i + j, x) + cheb_T(abs(i - j), x))
                assert abs(lhs - rhs) <= 1e-10


def _check_trig_lemma():
    for n in range(2, 13):
        for i in range(1, n + 1):
            lhs, rhs = trig_lemma_check(n, i)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def _check_linalg():
    rng = Rng(11)
    for n in (3, 8, 20):
        a = gaussian_matrix(rng, n, n) + 3.0 * n * np.eye(n)
        resid = np.linalg.norm(invert(a) @ a - np.eye(n))
        assert resid <= 1e-8 * n, f"round-trip residual {resid} at n={n}"
        assert cond(a, "spectral") <= cond(a, "frobenius") * (1 + 1e-9)
    stack = np.stack([np.diag([3.0, -2.0, 0.5]), np.eye(3), np.zeros((3, 3))])
    assert np.allclose(cond(stack, "spectral"), [6.0, 1.0, np.inf], rtol=1e-12)
    # k crosses two panel boundaries of the blocked LU; with the rows
    # reversed, every pivot row is swapped in from below its panel
    k = 2 * SOLVE_BLOCK + 3
    stack = np.stack([(gaussian_matrix(rng, k, k) + k * np.eye(k))[::-1] for _ in range(3)])
    stack[1, :, -1] = stack[1, :, 0]  # one singular lane
    rhs = np.stack([gaussian_matrix(rng, k, 2) for _ in range(3)])
    x = solve(stack, rhs)
    assert np.isnan(x[1]).all(), "singular stack lane does not read NaN"
    resid = np.linalg.norm(stack[[0, 2]] @ x[[0, 2]] - rhs[[0, 2]])
    assert resid <= 1e-12 * np.linalg.norm(rhs), f"stacked solve residual {resid}"
    sample = Rng(5).normals(100000)
    assert abs(sample.mean()) < 0.02 and abs(sample.var() - 1.0) < 0.05


def _check_generator_conditioning():
    n = 32
    g = build_generator("chebyshev_normalized", n, cheb_grid(n).points)
    assert np.max(np.abs(g @ g.T - (n / 2.0) * np.eye(n))) <= 1e-9
    for s in (1, 2):
        stats = subset_cond_stats(
            "chebyshev", 12 - s, cheb_grid(12).points, 12 - s, norm="frobenius"
        )
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


def _check_coefficient_maps():
    h = matmul_codes.build_h_map(3, 3).h
    assert set(np.unique(h)) <= {0.0, 0.5, 1.0}
    assert np.allclose(matmul_codes.build_h_map(1, 4).h, np.eye(4))
    assert np.allclose(matmul_codes.build_h_map(4, 1).h, np.eye(4))
    config = matmul_codes.scheme_config("gen_orthomatdot", 18, m1=2, m2=2, m3=2)
    a_exps, b_exps = matmul_codes.gen_encoding_exponents(config)
    assert set(a_exps) == {1, 0, 4, 3} and set(b_exps) == {0, 1, 9, 10}


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
    ("grid and quadrature", _check_grid_and_quadrature),
    ("chebyshev evaluation", _check_cheb_evaluation),
    ("node-product closed form", _check_trig_lemma),
    ("linear algebra kernels", _check_linalg),
    ("generator conditioning", _check_generator_conditioning),
    ("exact recovery, all families", _check_exact_recovery),
    ("coefficient maps", _check_coefficient_maps),
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
