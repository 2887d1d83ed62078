import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebcoded.linalg import Rng, gaussian_matrix, matmul, solve
from chebcoded.matmul_codes import (
    FAMILIES,
    WorkerOutput,
    assemble_blocks,
    block_grid,
    build_h_map,
    output_coefficient_index,
    decode,
    encode,
    gen_encoding_exponents,
    recovery_threshold,
    scheme_config,
    truth_block_table,
    worker_compute,
)
from chebcoded.cheb_vandermonde import build_generator
from chebcoded.poly_basis import cheb_T, cheb_grid

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


def run_pipeline(config, a, b, survivors):
    outputs = [worker_compute(s) for s in encode(config, a, b)]
    return decode(config, survivors, [outputs[i - 1] for i in survivors])


def relative_frobenius(truth, got):
    return np.linalg.norm(got - truth) / np.linalg.norm(truth)


class TestRecoveryThreshold:
    def test_orthomatdot_m2_is_3(self):
        assert recovery_threshold(scheme_config("orthomatdot", 6, m=2)) == 3

    def test_gen_222_is_15(self):
        cfg = scheme_config("gen_orthomatdot", 15, m1=2, m2=2, m3=2)
        assert recovery_threshold(cfg) == 15

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7])
    def test_gen_specializes_to_inner_split(self, m):
        cfg = scheme_config("gen_orthomatdot", 2 * m + 2, m1=1, m2=m, m3=1)
        assert recovery_threshold(cfg) == 2 * m - 1

    def test_polynomial_is_mn(self):
        assert recovery_threshold(scheme_config("orthopoly", 12, m=3, n=4)) == 12

    @pytest.mark.parametrize(
        "family, splits, closed_form",
        [
            ("matdot", dict(m=4), lambda m: 2 * m - 1),
            ("orthomatdot", dict(m=3), lambda m: 2 * m - 1),
            ("polynomial", dict(m=2, n=5), lambda m, n: m * n),
            ("orthopoly", dict(m=3, n=4), lambda m, n: m * n),
            (
                "gen_orthomatdot",
                dict(m1=2, m2=3, m3=2),
                lambda m1, m2, m3: 4 * m1 * m2 * m3 - 2 * (m1 * m2 + m2 * m3 + m3 * m1)
                + m1 + 2 * m2 + m3 - 1,
            ),
        ],
    )
    def test_read_off_the_grid_matches_closed_form(self, family, splits, closed_form):
        cfg = scheme_config(family, 60, **splits)
        assert recovery_threshold(cfg) == closed_form(**splits)

    def test_gen_without_inner_split_keeps_generalized_count(self):
        # the gen grid names its inner axis, so m2 = 1 is not read as rows x cols
        cfg = scheme_config("gen_orthomatdot", 8, m1=2, m2=1, m3=2)
        assert recovery_threshold(cfg) == 5

    def test_too_few_workers_rejected(self):
        with pytest.raises(ValueError):
            scheme_config("orthomatdot", 4, m=3)

    @pytest.mark.parametrize(
        "family, counts",
        [
            ("matdot", {"workers": 6, "m": 2}),
            ("polynomial", {"workers": 6, "m": 2, "n": 2}),
            ("gen_orthomatdot", {"workers": 8, "m1": 2, "m2": 1, "m3": 2}),
        ],
    )
    @pytest.mark.parametrize("bad", [2.5, True, "2"])
    def test_non_integer_counts_rejected_not_truncated(self, family, counts, bad):
        # m = 2.5 used to give matdot threshold 4.0, and True passed as 1
        for name in counts:
            what = "worker count" if name == "workers" else f"split {name}"
            with pytest.raises(ValueError, match=f"{what} must be an integer, got {bad!r}"):
                scheme_config(family, **{**counts, name: bad})

    def test_integral_floats_are_stored_as_ints(self):
        cfg = scheme_config("gen_orthomatdot", 8.0, m1=np.int64(2), m2=1.0, m3=np.float32(2.0))
        counts = (cfg.workers, cfg.m1, cfg.m2, cfg.m3)
        assert counts == (8, 2, 1, 2) and [type(v) for v in counts] == [int] * 4
        assert type(recovery_threshold(cfg)) is int and recovery_threshold(cfg) == 5


class TestEncode:
    def test_orthomatdot_single_block_shards(self):
        cfg = scheme_config("orthomatdot", 4, m=1)
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(12.0).reshape(3, 4)
        for shard in encode(cfg, a, b):
            assert shard.a_shard == pytest.approx(a / math.sqrt(2), rel=1e-15)
            assert shard.b_shard == pytest.approx(b / math.sqrt(2), rel=1e-15)

    def test_matdot_scalar_blocks(self):
        pts = np.array([0.25, -0.5, 0.75])
        cfg = scheme_config("matdot", 3, m=2, points=pts)
        shards = encode(cfg, np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        for shard, x in zip(shards, pts):
            assert shard.a_shard == pytest.approx(np.array([[1 + 2 * x]]), rel=1e-14)
            assert shard.b_shard == pytest.approx(np.array([[3 * x + 4]]), rel=1e-14)

    def test_gen_222_exponent_sets(self):
        cfg = scheme_config("gen_orthomatdot", 15, m1=2, m2=2, m3=2)
        a_exps, b_exps = gen_encoding_exponents(cfg)
        assert set(a_exps) == {1, 0, 4, 3}
        assert set(b_exps) == {0, 1, 9, 10}

    def test_non_dividing_split_names_dimension(self):
        cfg = scheme_config("matdot", 6, m=2)
        with pytest.raises(ValueError, match="N2"):
            encode(cfg, np.ones((4, 5)), np.ones((5, 4)))
        # one non-dividing axis at a time: N1 and N3 of an outer family
        # (grid (3, 1, 2)), N2 of the generalized family (grid (2, 3, 2))
        cfg = scheme_config("orthopoly", 7, m=3, n=2)
        with pytest.raises(ValueError, match="N1=4 is not divisible by split count 3"):
            encode(cfg, np.ones((4, 5)), np.ones((5, 4)))
        with pytest.raises(ValueError, match="N3=5 is not divisible by split count 2"):
            encode(cfg, np.ones((6, 4)), np.ones((4, 5)))
        cfg = scheme_config("gen_orthomatdot", 25, m1=2, m2=3, m3=2)
        with pytest.raises(ValueError, match="N2=4 is not divisible by split count 3"):
            encode(cfg, np.ones((4, 4)), np.ones((4, 4)))

    def test_inner_dimension_mismatch(self):
        cfg = scheme_config("matdot", 6, m=2)
        with pytest.raises(ValueError):
            encode(cfg, np.ones((4, 4)), np.ones((6, 4)))

    def test_shard_shapes(self):
        cfg = scheme_config("orthopoly", 12, m=3, n=3)
        shards = encode(cfg, np.ones((6, 4)), np.ones((4, 9)))
        assert shards[0].a_shard.shape == (2, 4)
        assert shards[0].b_shard.shape == (4, 3)
        cfg = scheme_config("gen_orthomatdot", 15, m1=2, m2=2, m3=2)
        shards = encode(cfg, np.ones((4, 6)), np.ones((6, 8)))
        assert shards[0].a_shard.shape == (2, 3)
        assert shards[0].b_shard.shape == (3, 4)


# One case per family with non-square blocks and, where the family splits
# both output axes, different row and column splits.
GRID_CASES = [
    ("matdot", dict(m=2), 4, (1, 2, 1)),
    ("orthomatdot", dict(m=3), 6, (1, 3, 1)),
    ("polynomial", dict(m=2, n=3), 6, (2, 1, 3)),
    ("orthopoly", dict(m=3, n=2), 7, (3, 1, 2)),
    ("gen_orthomatdot", dict(m1=2, m2=3, m3=2), 25, (2, 3, 2)),
]


class TestBlockGrid:
    @pytest.mark.parametrize("family,splits,workers,grid", GRID_CASES)
    def test_grid_of_each_family(self, family, splits, workers, grid):
        assert block_grid(scheme_config(family, workers, **splits)) == grid

    @pytest.mark.parametrize("family,splits,workers,grid", GRID_CASES)
    def test_truth_table_assembles_back_bitwise(self, family, splits, workers, grid):
        cfg = scheme_config(family, workers, **splits)
        rows, _, cols = grid
        br, bc = 3, 5
        product = gaussian_matrix(Rng(4), rows * br, cols * bc)
        table = truth_block_table(cfg, product)
        assert table.shape == (br * bc, rows * cols)
        # output block (i, j) is column j*rows + i, as in the recovery map
        for i in range(rows):
            for j in range(cols):
                block = product[i * br : (i + 1) * br, j * bc : (j + 1) * bc]
                assert np.array_equal(table[:, j * rows + i], block.ravel())
        assert np.array_equal(assemble_blocks(cfg, table, (br, bc)), product)


class TestWorkerCompute:
    def test_identity_shards(self):
        from chebcoded.matmul_codes import WorkerShard

        out = worker_compute(WorkerShard(3, np.eye(4), np.eye(4)))
        assert out.worker_index == 3
        assert np.array_equal(out.product, np.eye(4))

    def test_matdot_scalar_product(self):
        pts = np.array([1.0, 0.0, -1.0])
        cfg = scheme_config("matdot", 3, m=2, points=pts)
        shards = encode(cfg, np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        out = worker_compute(shards[0])
        assert out.product == pytest.approx(np.array([[21.0]]), rel=1e-14)

    def test_shape_mismatch_rejected(self):
        from chebcoded.matmul_codes import WorkerShard

        with pytest.raises(ValueError):
            worker_compute(WorkerShard(1, np.ones((2, 3)), np.ones((2, 3))))


class TestDecode:
    def test_orthomatdot_m1_any_single_survivor(self):
        cfg = scheme_config("orthomatdot", 5, m=1)
        a = np.arange(4.0).reshape(2, 2) + 1.0
        b = np.arange(4.0).reshape(2, 2) - 1.5
        truth = matmul(a, b)
        for r in range(1, 6):
            got = run_pipeline(cfg, a, b, (r,))
            assert got == pytest.approx(truth, rel=1e-12)

    def test_matdot_example_coefficient(self):
        pts = np.array([0.2, -0.4, 0.6, -0.8])
        cfg = scheme_config("matdot", 4, m=2, points=pts)
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0], [4.0]])
        # p(x) = (1 + 2x)(4 + 3x) = 4 + 11x + 6x^2; the middle coefficient is AB
        got = run_pipeline(cfg, a, b, (1, 2, 3))
        assert got == pytest.approx(np.array([[11.0]]), rel=1e-12)

    def test_orthopoly_exact_recovery_spot(self):
        cfg = scheme_config("orthopoly", 12, m=3, n=3)
        rng = Rng(5)
        a = gaussian_matrix(rng, 6, 6)
        b = gaussian_matrix(rng, 6, 6)
        truth = matmul(a, b)
        got = run_pipeline(cfg, a, b, (1, 3, 4, 6, 7, 8, 10, 11, 12))
        assert relative_frobenius(truth, got) <= 1e-9

    def test_wrong_survivor_count_rejected(self):
        cfg = scheme_config("orthomatdot", 6, m=2)
        outputs = [worker_compute(s) for s in encode(cfg, np.eye(4), np.eye(4))]
        with pytest.raises(ValueError):
            decode(cfg, (1, 2), outputs[:2])

    def test_duplicate_survivors_rejected(self):
        cfg = scheme_config("orthomatdot", 6, m=2)
        outputs = [worker_compute(s) for s in encode(cfg, np.eye(4), np.eye(4))]
        with pytest.raises(ValueError):
            decode(cfg, (1, 1, 2), [outputs[0], outputs[0], outputs[1]])

    def test_fractional_survivor_indices_rejected_not_truncated(self):
        # truncated, [1.5, 2.5, 3.5] would decode workers 1-3
        cfg = scheme_config("orthomatdot", 6, m=2)
        outputs = [worker_compute(s) for s in encode(cfg, np.eye(4), np.eye(4))]
        with pytest.raises(ValueError, match="survivor index must be an integer, got 1.5"):
            decode(cfg, [1.5, 2.5, 3.5], outputs[:3])

    @pytest.mark.parametrize("bad", [1.5, True, "1"])
    def test_non_integer_worker_indices_rejected_not_truncated(self, bad):
        # truncated, WorkerOutput(1.5, ...) decoded as worker 1
        cfg = scheme_config("orthomatdot", 6, m=2)
        outputs = [worker_compute(s) for s in encode(cfg, np.eye(4), np.eye(4))]
        outputs[0] = WorkerOutput(bad, outputs[0].product)
        with pytest.raises(ValueError, match=f"worker index must be an integer, got {bad!r}"):
            decode(cfg, (1, 2, 3), outputs[:3])

    def test_survivors_must_match_outputs(self):
        cfg = scheme_config("orthomatdot", 6, m=2)
        outputs = [worker_compute(s) for s in encode(cfg, np.eye(4), np.eye(4))]
        with pytest.raises(ValueError):
            decode(cfg, (1, 2, 3), [outputs[0], outputs[1], outputs[3]])

    def test_products_of_different_shapes_rejected(self):
        # equal sizes are not enough: a transposed (3, 2) product among (2, 3) ones
        cfg = scheme_config("polynomial", 4, m=2, n=2)
        rng = Rng(2)
        a, b = gaussian_matrix(rng, 4, 6), gaussian_matrix(rng, 6, 6)
        outputs = [worker_compute(s) for s in encode(cfg, a, b)]
        outputs[1] = WorkerOutput(2, outputs[1].product.T)
        with pytest.raises(ValueError, match=r"worker 2's product is \(3, 2\)"):
            decode(cfg, (1, 2, 3, 4), outputs)

    def test_singular_submatrix_raises(self):
        from chebcoded.linalg import SingularMatrixError

        # near-coincident points make the survivor submatrix numerically singular
        pts = np.linspace(0.0, 1e-14, 6)
        cfg = scheme_config("matdot", 6, m=2, points=pts)
        outputs = [worker_compute(s) for s in encode(cfg, np.eye(4), np.eye(4))]
        with pytest.raises(SingularMatrixError):
            decode(cfg, (1, 2, 3), outputs[:3])

    @pytest.mark.parametrize(
        "family, splits, dims",
        [("orthomatdot", {"m": 2}, (131, 4, 131)), ("orthopoly", {"m": 2, "n": 2}, (262, 3, 130))],
    )
    def test_products_spanning_several_decode_chunks(self, family, splits, dims):
        # 17,161 and 8,515 entries per product: decode's GEMMs over
        # _DECODE_CHUNK-entry ranges end in a partial range
        cfg = scheme_config(family, 7, **splits)
        rng = Rng(5)
        a = gaussian_matrix(rng, dims[0], dims[1])
        b = gaussian_matrix(rng, dims[1], dims[2])
        survivors = (1, 3, 4, 6)[: recovery_threshold(cfg)]
        assert relative_frobenius(a @ b, run_pipeline(cfg, a, b, survivors)) <= 1e-13

    @settings(max_examples=20, deadline=None)
    @given(st.permutations(list(range(3))))
    def test_permutation_invariance_bitwise(self, order):
        cfg = scheme_config("orthomatdot", 7, m=2, points=cheb_grid(7).points)
        rng = Rng(11)
        a = gaussian_matrix(rng, 4, 4)
        b = gaussian_matrix(rng, 4, 4)
        outputs = [worker_compute(s) for s in encode(cfg, a, b)]
        survivors = (2, 5, 6)
        baseline = decode(cfg, survivors, [outputs[i - 1] for i in survivors])
        shuffled_surv = [survivors[i] for i in order]
        shuffled_outs = [outputs[s - 1] for s in shuffled_surv]
        again = decode(cfg, shuffled_surv, shuffled_outs)
        assert np.array_equal(baseline, again)


class TestExactRecoveryAllSubsets:
    """Every family recovers the product from every threshold-size subset."""

    CASES = [
        ("matdot", dict(m=2), 6, (12, 12, 12)),
        ("orthomatdot", dict(m=3), 8, (12, 12, 12)),
        ("polynomial", dict(m=2, n=2), 7, (12, 12, 12)),
        ("orthopoly", dict(m=3, n=3), 12, (12, 12, 12)),
        ("gen_orthomatdot", dict(m1=2, m2=2, m3=2), 18, (8, 8, 8)),
    ]

    @pytest.mark.parametrize("family,splits,workers,dims", CASES)
    def test_exact_recovery(self, family, splits, workers, dims):
        cfg = scheme_config(family, workers, **splits)
        rng = Rng(hash(family) % 2**32)
        a = gaussian_matrix(rng, dims[0], dims[1])
        b = gaussian_matrix(rng, dims[1], dims[2])
        truth = matmul(a, b)
        outputs = [worker_compute(s) for s in encode(cfg, a, b)]
        k = recovery_threshold(cfg)
        subsets = list(combinations(range(1, workers + 1), k))
        if len(subsets) > 120:
            subsets = subsets[:: len(subsets) // 120]
        for surv in subsets:
            got = decode(cfg, surv, [outputs[i - 1] for i in surv])
            assert relative_frobenius(truth, got) <= 1e-8, (family, surv)


class TestGeneralizedDegenerateMiddleSplit:
    """m2 = 1 puts block (0, 0) on the T_0 coefficient, where both encoding
    factors carry the halved T_0; the recovery scale there is 4, not 2."""

    @pytest.mark.parametrize("m1,m2,m3,workers", [(1, 1, 1, 4), (2, 1, 2, 8), (3, 1, 2, 14)])
    def test_exact_recovery(self, m1, m2, m3, workers):
        cfg = scheme_config("gen_orthomatdot", workers, m1=m1, m2=m2, m3=m3)
        rng = Rng(m1 * 100 + m3)
        a = gaussian_matrix(rng, 6, 6)
        b = gaussian_matrix(rng, 6, 6)
        truth = matmul(a, b)
        outputs = [worker_compute(s) for s in encode(cfg, a, b)]
        k = recovery_threshold(cfg)
        subsets = list(combinations(range(1, workers + 1), k))
        for surv in subsets[:: max(1, len(subsets) // 40)]:
            got = decode(cfg, surv, [outputs[i - 1] for i in surv])
            assert relative_frobenius(truth, got) <= 1e-9, surv


class TestQuadratureDecodeEquivalence:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_weighted_grid_sum_equals_block_sum(self, m):
        rng = Rng(m)
        a = gaussian_matrix(rng, 6, 6 * m)
        b = gaussian_matrix(rng, 6 * m, 6)
        a_blocks = np.hsplit(a, m)
        b_blocks = np.vsplit(b, m)
        grid = cheb_grid(m).points
        total = np.zeros((6, 6))
        for x in grid:
            pa = sum(
                a_blocks[i] * (cheb_T(i, x) if i else 1 / math.sqrt(2)) for i in range(m)
            )
            pb = sum(
                b_blocks[i] * (cheb_T(i, x) if i else 1 / math.sqrt(2)) for i in range(m)
            )
            total += pa @ pb
        quadrature = (2.0 / m) * total
        block_sum = sum(a_blocks[i] @ b_blocks[i] for i in range(m))
        assert relative_frobenius(block_sum, quadrature) <= 1e-9
        assert relative_frobenius(matmul(a, b), quadrature) <= 1e-9


class TestHMap:
    def test_eq19_matrix_exactly(self):
        assert np.array_equal(build_h_map(3, 3), EQ19)

    def test_m1_is_identity(self):
        assert np.array_equal(build_h_map(1, 5), np.eye(5))

    def test_n1_is_identity(self):
        assert np.array_equal(build_h_map(5, 1), np.eye(5))

    def test_column_structure(self):
        h = build_h_map(4, 3)
        for j in range(3):
            for i in range(4):
                col = h[:, j * 4 + i]
                if i == 0:
                    assert col[j * 4] == 1.0 and np.count_nonzero(col) == 1
                elif j == 0:
                    assert col[i] == 1.0 and np.count_nonzero(col) == 1
                else:
                    assert sorted(col[col != 0]) == [0.5, 0.5]

    def test_invertible(self):
        h = build_h_map(4, 4)
        assert np.linalg.matrix_rank(h) == 16

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 4), (2, 4), (4, 2)])
    def test_reproduces_product_coefficients(self, m, n):
        """H applied to scalar block products matches interpolation of the
        actual product polynomial at fresh grid points."""
        rng = Rng(m * 10 + n)
        a = rng.normals(m)
        b = rng.normals(n)
        size = m * n
        pts = cheb_grid(size).points
        pa = np.array([sum(a[i] * cheb_T(i, x) for i in range(m)) for x in pts])
        pb = np.array([sum(b[j] * cheb_T(j * m, x) for j in range(n)) for x in pts])
        gen = build_generator("chebyshev", size, pts)
        coeffs = solve(gen.T, pa * pb)
        blockvec = np.array([a[i] * b[j] for j in range(n) for i in range(m)])
        assert build_h_map(m, n) @ blockvec == pytest.approx(coeffs, abs=1e-9)


class TestOutputCoefficientIndices:
    @pytest.mark.parametrize("m1,m2,m3", [(1, 2, 1), (2, 2, 2), (2, 3, 2)])
    def test_coefficient_carries_half_block(self, m1, m2, m3):
        cfg = scheme_config("gen_orthomatdot", 40, m1=m1, m2=m2, m3=m3)
        k = recovery_threshold(cfg)
        rng = Rng(m1 * 100 + m2 * 10 + m3)
        a = rng.normals(m1 * m2).reshape(m1, m2)
        b = rng.normals(m2 * m3).reshape(m2, m3)
        a_exps, b_exps = gen_encoding_exponents(cfg)

        def t_prime(e, x):
            return 0.5 if e == 0 else cheb_T(e, x)

        pts = cheb_grid(k).points
        pa = np.array(
            [
                sum(a[i, j] * t_prime(a_exps[i * m2 + j], x) for i in range(m1) for j in range(m2))
                for x in pts
            ]
        )
        pb = np.array(
            [
                sum(b[kk, l] * t_prime(b_exps[kk * m3 + l], x) for kk in range(m2) for l in range(m3))
                for x in pts
            ]
        )
        coeffs = solve(build_generator("chebyshev", k, pts).T, pa * pb)
        for i in range(m1):
            for l in range(m3):
                want = 0.5 * sum(a[i, j] * b[j, l] for j in range(m2))
                got = coeffs[output_coefficient_index(cfg, i, l)]
                assert got == pytest.approx(want, abs=1e-9)


class TestEvaluationPointRange:
    # the endpoints +-1 stay valid: test_matdot_scalar_product decodes on them
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.5, 3.0])
    def test_points_outside_the_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"in \[-1, 1\], got {bad}"):
            scheme_config("matdot", 3, m=2, points=[0.0, bad, 1.0])


class TestThresholdIsPrecondition:
    @pytest.mark.parametrize("family,splits,workers", [
        ("matdot", dict(m=2), 6),
        ("orthopoly", dict(m=2, n=2), 7),
        ("gen_orthomatdot", dict(m1=1, m2=2, m3=1), 5),
    ])
    def test_fewer_survivors_is_an_error(self, family, splits, workers):
        cfg = scheme_config(family, workers, **splits)
        a = np.eye(4)
        outputs = [worker_compute(s) for s in encode(cfg, a, a)]
        k = recovery_threshold(cfg)
        with pytest.raises(ValueError):
            decode(cfg, tuple(range(1, k)), outputs[: k - 1])


def test_all_families_covered_by_tests():
    tested = {case[0] for case in TestExactRecoveryAllSubsets.CASES}
    assert tested == set(FAMILIES)
    assert {case[0] for case in GRID_CASES} == set(FAMILIES)
