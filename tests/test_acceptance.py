"""Acceptance suite: one test per criterion, each reported as a PASS/FAIL
line in the terminal summary.  Criteria 6-8 reproduce the error
experiments at desk scale and take a few minutes together.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from chebcoded.cheb_vandermonde import (
    build_generator,
    gaussian_bound_trial,
    subset_cond_stats,
    theorem_bound_value,
)
from chebcoded.linalg import Rng, cond, gaussian_matrix, matmul
from chebcoded.matmul_codes import (
    build_h_map,
    output_coefficient_index,
    decode,
    encode,
    gen_encoding_exponents,
    recovery_threshold,
    scheme_config,
    worker_compute,
)
from chebcoded.poly_basis import cheb_T, cheb_grid, quad_rule, trig_lemma_check
from chebcoded.linalg import solve
from chebcoded.sim_harness import error_growth_plan, lagrange_stability_plan, sweep, table1_plan

EQ19 = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0.5, 0, 0, 0],
        [0, 0, 1, 0, 0.5, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0.5, 0, 0, 0, 0.5],
        [0, 0, 0, 0, 0, 0.5, 0, 0.5, 0],
        [0, 0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0.5, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0.5],
    ]
)


def rel_err(truth, got):
    return np.linalg.norm(got - truth) / np.linalg.norm(truth)


def metric_table(records, metric):
    return {
        (r.scheme, r.P): r.value for r in records if r.metric == metric and not r.error
    }


@pytest.fixture(scope="module")
def fig8_records():
    plan = error_growth_plan(
        schemes=("matdot", "orthomatdot"), workers=(20, 40, 60, 80), delta=3,
        samples=2000, seed=0,
    )
    return sweep(plan)


@pytest.fixture(scope="module")
def fig10_records():
    plan = error_growth_plan(
        schemes=("polynomial", "orthopoly"), workers=(20, 40, 60), delta=3,
        samples=2000, seed=0,
    )
    return sweep(plan)


@pytest.mark.criterion("01 exact recovery, all families, all survivor subsets")
def test_criterion_1_exact_recovery():
    cases = []
    for m in (1, 2, 3):
        cases.append(("matdot", dict(m=m), 2 * m + 2))
        cases.append(("orthomatdot", dict(m=m), 2 * m + 2))
    for m, n in ((2, 2), (3, 3)):
        cases.append(("polynomial", dict(m=m, n=n), m * n + 3))
        cases.append(("orthopoly", dict(m=m, n=n), m * n + 3))
    cases.append(("gen_orthomatdot", dict(m1=2, m2=2, m3=2), 18))

    for family, splits, workers in cases:
        cfg = scheme_config(family, workers, **splits)
        rng = Rng(workers * 13 + 1)
        dims = (12, 12, 12) if family != "gen_orthomatdot" else (8, 8, 8)
        a = gaussian_matrix(rng, dims[0], dims[1])
        b = gaussian_matrix(rng, dims[1], dims[2])
        truth = matmul(a, b)
        outputs = [worker_compute(s) for s in encode(cfg, a, b)]
        k = recovery_threshold(cfg)
        for surv in combinations(range(1, workers + 1), k):
            got = decode(cfg, surv, [outputs[i - 1] for i in surv])
            assert rel_err(truth, got) <= 1e-8, (family, splits, surv)


@pytest.mark.criterion("02 quadrature identity recovers the block-product sum")
def test_criterion_2_quadrature_identity():
    for m in range(1, 7):
        rng = Rng(m)
        a = gaussian_matrix(rng, 8, 8 * m)
        b = gaussian_matrix(rng, 8 * m, 8)
        a_blocks = np.hsplit(a, m)
        b_blocks = np.vsplit(b, m)
        rule = quad_rule(m)
        total = np.zeros((8, 8))
        for x, w in zip(rule.nodes.points, rule.weights):
            pa = sum(a_blocks[i] * (cheb_T(i, x) if i else 1 / math.sqrt(2)) for i in range(m))
            pb = sum(b_blocks[i] * (cheb_T(i, x) if i else 1 / math.sqrt(2)) for i in range(m))
            total += w * (pa @ pb)
        block_sum = sum(a_blocks[i] @ b_blocks[i] for i in range(m))
        assert rel_err(block_sum, total) <= 1e-9, m


@pytest.mark.criterion("03 coefficient maps: 9x9 ground truth and generalized indices")
def test_criterion_3_coefficient_maps():
    h = build_h_map(3, 3)
    assert np.array_equal(h, EQ19)
    assert set(np.unique(h)) <= {0.0, 0.5, 1.0}

    for m1, m2, m3 in ((1, 2, 1), (2, 2, 2), (2, 3, 2)):
        cfg = scheme_config("gen_orthomatdot", 40, m1=m1, m2=m2, m3=m3)
        k = recovery_threshold(cfg)
        rng = Rng(m1 * 9 + m2 * 3 + m3)
        a = rng.normals(m1 * m2).reshape(m1, m2)
        b = rng.normals(m2 * m3).reshape(m2, m3)
        a_exps, b_exps = gen_encoding_exponents(cfg)
        pts = cheb_grid(k).points

        def t_prime(e, x):
            return 0.5 if e == 0 else cheb_T(e, x)

        pa = np.array(
            [sum(a[i, j] * t_prime(a_exps[i * m2 + j], x) for i in range(m1) for j in range(m2))
             for x in pts]
        )
        pb = np.array(
            [sum(b[kk, l] * t_prime(b_exps[kk * m3 + l], x) for kk in range(m2) for l in range(m3))
             for x in pts]
        )
        coeffs = solve(build_generator("chebyshev", k, pts).T, pa * pb)
        for i in range(m1):
            for l in range(m3):
                want = 0.5 * sum(a[i, j] * b[j, l] for j in range(m2))
                got = coeffs[output_coefficient_index(cfg, i, l)]
                assert abs(got - want) <= 1e-9, (m1, m2, m3, i, l)


@pytest.mark.criterion("04 discrete orthogonality of the normalized generator")
def test_criterion_4_discrete_orthogonality():
    for n in range(1, 65):
        g = build_generator("chebyshev_normalized", n, cheb_grid(n).points)
        assert np.max(np.abs(g @ g.T - (n / 2.0) * np.eye(n))) <= 1e-9, n
    for n in (2, 16, 64):
        g = build_generator("chebyshev_normalized", n, cheb_grid(n).points)
        assert abs(cond(g, "spectral") - 1.0) <= 1e-9, n


@pytest.mark.criterion("05 condition bound dominates measured worst case; node-product closed form")
def test_criterion_5_condition_bound():
    for n in (6, 8, 12, 16, 20, 24):
        pts = cheb_grid(n).points
        for s in (1, 2, 3):
            stats = subset_cond_stats("chebyshev", n - s, pts, norm="frobenius")
            assert stats.worst <= 5.0 * theorem_bound_value(n, s), (n, s, stats.worst)
    for n in range(2, 31):
        for i in range(1, n + 1):
            lhs, rhs = trig_lemma_check(n, i)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs), (n, i)


@pytest.mark.slow
@pytest.mark.criterion("06 worst/average error table at 30 workers, redundancy 3")
def test_criterion_6_table_row_30():
    plan = [row for row in table1_plan(seed=0, dims=(120, 120, 120)) if row["P"] == 30]
    records = sweep(plan)
    assert all(r.error == "" for r in records)
    worst = metric_table(records, "relerr_worst")
    ortho = worst[("orthomatdot", 30)]
    matdot = worst[("matdot", 30)]
    assert ortho <= 1e-8, f"stable scheme worst error {ortho:.3e}"
    assert matdot >= 100.0 * ortho, f"separation only {matdot / ortho:.1f}x"
    # exhaustive enumeration at this size really is the full C(30,27) sweep
    assert all(r.subset_mode == "exhaustive" for r in records)
    assert math.comb(30, 27) == 4060


@pytest.mark.slow
@pytest.mark.criterion("07 error growth with system size: inner-split pair")
def test_criterion_7_error_growth(fig8_records):
    worst = metric_table(fig8_records, "relerr_worst")
    assert worst[("matdot", 60)] > 1.0, worst[("matdot", 60)]
    for p in (20, 40, 60, 80):
        assert worst[("orthomatdot", p)] <= 1e-5, (p, worst[("orthomatdot", p)])


@pytest.mark.slow
@pytest.mark.criterion("07b average error growth is monotone within the noise band")
def test_criterion_7_monotonicity(fig8_records):
    avg = metric_table(fig8_records, "relerr_avg")
    series = [avg[("orthomatdot", p)] for p in (20, 40, 60, 80)]
    for lo, hi in zip(series, series[1:]):
        assert hi >= lo / 10.0, series


@pytest.mark.slow
@pytest.mark.criterion("08 error growth with system size: outer-split pair")
def test_criterion_8_outer_split_growth(fig10_records):
    worst = metric_table(fig10_records, "relerr_worst")
    for p in (20, 40, 60):
        assert worst[("orthopoly", p)] <= 1e-5, (p, worst[("orthopoly", p)])
    assert worst[("polynomial", 60)] >= 100.0 * worst[("orthopoly", 60)]


@pytest.mark.criterion("09 lagrange decoding: chebyshev basis never worse on average")
def test_criterion_9_lagrange_stability():
    plan = lagrange_stability_plan(workers=(20, 40, 60, 80, 100), seed=0)
    records = sweep(plan)
    assert all(r.error == "" for r in records)
    avg = metric_table(records, "relerr_avg")
    for p in (20, 40, 60, 80, 100):
        cheb = avg[("lagrange_chebyshev", p)]
        mono = avg[("lagrange_monomial", p)]
        assert cheb <= mono, (p, cheb, mono)


@pytest.mark.criterion("10 quadrature exactness and the Gaussian condition bound")
def test_criterion_10_exactness_and_gaussian_bound():
    for n in range(1, 21):
        rule = quad_rule(n)
        vals = np.stack(
            [[cheb_T(k, x) for x in rule.nodes.points] for k in range(2 * n)]
        )
        for i in range(2 * n):
            for j in range(2 * n - i):
                got = float(rule.weights @ (vals[i] * vals[j]))
                want = 2.0 if i == j == 0 else (1.0 if i == j else 0.0)
                assert abs(got - want) <= 1e-10, (n, i, j)

    violations, bound_prob = gaussian_bound_trial(4, 6, 500, Rng(2024))
    assert bound_prob == pytest.approx(5.6 / 36)
    assert violations / 500 <= bound_prob, violations
