from itertools import combinations

import numpy as np
import pytest

from chebcoded.lagrange_codes import (
    LagrangeConfig,
    PolyMap,
    anchor_estimates,
    decode_generator,
    lagrange_decode,
    lagrange_encode,
    linear_map,
    worker_outputs,
)
from chebcoded.cheb_vandermonde import sample_column_subsets
from chebcoded.linalg import Rng, gaussian_matrix, solve
from chebcoded.poly_basis import cheb_grid


def relative_l2(truth, got):
    return np.linalg.norm(got - truth) / np.linalg.norm(truth)


class TestConfig:
    def test_threshold_formula(self):
        assert LagrangeConfig(m=5, workers=20, dim=3, deg_f=2).threshold == 9

    def test_threshold_must_fit(self):
        with pytest.raises(ValueError):
            LagrangeConfig(m=5, workers=6, dim=2, deg_f=2)  # K = 9 > 6

    def test_more_data_than_workers_rejected(self):
        with pytest.raises(ValueError):
            LagrangeConfig(m=7, workers=6, dim=1, deg_f=1)

    @pytest.mark.parametrize(
        "fields, text",
        [
            ({"m": 0}, "at least one data point"),
            ({"dim": 0}, "input dimension must be positive"),
            ({"deg_f": 0}, "map degree must be at least 1"),
        ],
    )
    def test_non_positive_fields_rejected(self, fields, text):
        with pytest.raises(ValueError, match=text):
            LagrangeConfig(**{"m": 2, "workers": 5, "dim": 3, "deg_f": 1, **fields})

    @pytest.mark.parametrize("name", ["m", "workers", "dim", "deg_f"])
    @pytest.mark.parametrize("bad", [1.5, True, "3", None])
    def test_non_integer_counts_rejected_not_truncated(self, name, bad):
        # deg_f = 1.5 used to give threshold 4.0, and True passed as 1
        fields = {"m": 3, "workers": 6, "dim": 2, "deg_f": 1, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
            LagrangeConfig(**fields)

    def test_integral_floats_are_stored_as_ints(self):
        cfg = LagrangeConfig(m=3.0, workers=np.int64(6), dim=2.0, deg_f=np.float32(2.0))
        assert [type(v) for v in (cfg.m, cfg.workers, cfg.dim, cfg.deg_f)] == [int] * 4
        assert (cfg.m, cfg.workers, cfg.dim, cfg.deg_f, cfg.threshold) == (3, 6, 2, 2, 5)
        assert type(cfg.threshold) is int

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5])
    def test_points_outside_the_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=r"must lie in \[-1, 1\]"):
            LagrangeConfig(m=2, workers=3, dim=1, deg_f=1, points=[0.0, bad, -0.5])

    def test_interval_endpoints_accepted(self):
        cfg = LagrangeConfig(m=2, workers=3, dim=1, deg_f=1, points=[1.0, 0.0, -1.0])
        assert cfg.anchors.tolist() == [1.0, 0.0]

    def test_anchors_are_leading_grid_points(self):
        cfg = LagrangeConfig(m=3, workers=8, dim=1, deg_f=1)
        assert np.array_equal(cfg.anchors, cheb_grid(8).points[:3])


class TestEncode:
    def test_systematic_passthrough_bitwise(self):
        cfg = LagrangeConfig(m=4, workers=9, dim=5, deg_f=1)
        data = gaussian_matrix(Rng(2), 4, 5)
        encoded = lagrange_encode(cfg, data)
        assert np.array_equal(encoded[:4], data)

    def test_single_point_is_constant(self):
        cfg = LagrangeConfig(m=1, workers=5, dim=3, deg_f=1)
        data = np.array([[1.0, -2.0, 0.5]])
        encoded = lagrange_encode(cfg, data)
        for row in encoded:
            assert np.array_equal(row, data[0])

    def test_two_point_interpolant(self):
        cfg = LagrangeConfig(m=2, workers=4, dim=1, deg_f=1)
        data = np.array([[1.0], [3.0]])
        x1, x2 = cfg.anchors
        encoded = lagrange_encode(cfg, data)
        for r, x in enumerate(cfg.points):
            want = 1.0 * (x - x2) / (x1 - x2) + 3.0 * (x - x1) / (x2 - x1)
            assert encoded[r, 0] == pytest.approx(want, rel=1e-12)

    def test_shape_validation(self):
        cfg = LagrangeConfig(m=3, workers=6, dim=2, deg_f=1)
        with pytest.raises(ValueError):
            lagrange_encode(cfg, np.ones((3, 3)))


class TestDecode:
    def test_anchor_survivors_are_passthrough(self):
        cfg = LagrangeConfig(m=4, workers=8, dim=6, deg_f=1)
        rng = Rng(3)
        data = gaussian_matrix(rng, 4, 6)
        f = linear_map(rng.normals(6))
        outs = worker_outputs(cfg, f, lagrange_encode(cfg, data))
        truth = np.stack([f(x) for x in data])
        got = lagrange_decode(cfg, f, (1, 2, 3, 4), outs[:4])
        assert relative_l2(truth, got) <= 1e-9

    def test_surviving_anchors_are_their_outputs_bitwise(self):
        # degree 2: K = 7 > m, so survivors mix anchors and coded workers
        cfg = LagrangeConfig(m=4, workers=9, dim=3, deg_f=2)
        square = PolyMap(dim=3, out_dim=2, fn=lambda x: np.array([x @ x, x[0] * x[1]]))
        rng = Rng(21)
        data = gaussian_matrix(rng, 4, 3)
        outs = worker_outputs(cfg, square, lagrange_encode(cfg, data))
        truth = np.stack([square(x) for x in data])
        surv = (9, 2, 5, 1, 7, 3, 8)  # anchor 4 erased
        got = lagrange_decode(cfg, square, surv, outs[np.asarray(surv) - 1])
        assert np.array_equal(got[:3], outs[:3])
        assert relative_l2(truth[3], got[3]) <= 1e-9

    def test_anchor_estimates_of_a_stack_equal_each_lane(self):
        cfg = LagrangeConfig(m=5, workers=8, dim=2, deg_f=1)
        gen = decode_generator(cfg, "chebyshev")
        outs = gaussian_matrix(Rng(22), 8, 3)
        sel = np.array([list(s) for s in combinations(range(8), 5)])  # 0-based survivors
        folded = solve(gen.T[sel], outs[sel])  # G_R^T v = outputs_R
        stacked = anchor_estimates(gen[:, :5], folded, sel, outs[sel])
        for lane, survivors in enumerate(sel):
            alone = anchor_estimates(gen[:, :5], folded[lane], survivors, outs[survivors])
            assert np.array_equal(stacked[lane], alone)

    def test_any_two_of_four(self):
        cfg = LagrangeConfig(m=2, workers=4, dim=1, deg_f=1)
        data = np.array([[1.0], [3.0]])
        f = linear_map([2.0])
        outs = worker_outputs(cfg, f, lagrange_encode(cfg, data))
        for surv in combinations(range(1, 5), 2):
            got = lagrange_decode(cfg, f, surv, outs[np.asarray(surv) - 1])
            assert got.ravel() == pytest.approx([2.0, 6.0], abs=1e-9)

    def test_monomial_basis_also_decodes_small(self):
        cfg = LagrangeConfig(m=3, workers=6, dim=4, deg_f=1)
        rng = Rng(8)
        data = gaussian_matrix(rng, 3, 4)
        f = linear_map(rng.normals(4))
        outs = worker_outputs(cfg, f, lagrange_encode(cfg, data))
        truth = np.stack([f(x) for x in data])
        got = lagrange_decode(cfg, f, (2, 4, 6), outs[[1, 3, 5]], basis="monomial")
        assert relative_l2(truth, got) <= 1e-9

    def test_survivor_order_is_canonicalized(self):
        cfg = LagrangeConfig(m=3, workers=6, dim=2, deg_f=1)
        rng = Rng(13)
        data = gaussian_matrix(rng, 3, 2)
        f = linear_map(rng.normals(2))
        outs = worker_outputs(cfg, f, lagrange_encode(cfg, data))
        a = lagrange_decode(cfg, f, (2, 5, 6), outs[[1, 4, 5]])
        b = lagrange_decode(cfg, f, (6, 2, 5), outs[[5, 1, 4]])
        assert np.array_equal(a, b)

    def test_an_iterator_list_or_tuple_of_survivors_decodes_alike(self):
        # the survivors are read once: an iterator is not exhausted by the check
        cfg = LagrangeConfig(m=3, workers=6, dim=2, deg_f=1)
        rng = Rng(14)
        data = gaussian_matrix(rng, 3, 2)
        f = linear_map(rng.normals(2))
        outs = worker_outputs(cfg, f, lagrange_encode(cfg, data))[[4, 1, 2]]
        want = lagrange_decode(cfg, f, (5, 2, 3), outs)
        assert np.array_equal(lagrange_decode(cfg, f, [5, 2, 3], outs), want)
        assert np.array_equal(lagrange_decode(cfg, f, iter((5, 2, 3)), outs), want)
        assert np.array_equal(lagrange_decode(cfg, f, (s for s in (5, 2, 3)), outs), want)

    def test_wrong_survivor_count_rejected(self):
        cfg = LagrangeConfig(m=3, workers=6, dim=2, deg_f=1)
        with pytest.raises(ValueError):
            lagrange_decode(cfg, linear_map([1.0, 1.0]), (1, 2), np.ones((2, 1)))

    def test_fractional_survivor_indices_rejected_not_truncated(self):
        cfg = LagrangeConfig(m=3, workers=6, dim=2, deg_f=1)
        with pytest.raises(ValueError, match="survivor index must be an integer, got 2.5"):
            lagrange_decode(cfg, linear_map([1.0, 1.0]), (1, 2.5, 3), np.ones((3, 1)))

    def test_wrong_output_shape_rejected(self):
        cfg = LagrangeConfig(m=3, workers=6, dim=2, deg_f=1)
        with pytest.raises(ValueError, match=r"expected outputs of shape \(3, 1\)"):
            lagrange_decode(cfg, linear_map([1.0, 1.0]), (1, 2, 3), np.ones((3, 2)))

    def test_unknown_basis_rejected(self):
        cfg = LagrangeConfig(m=2, workers=4, dim=1, deg_f=1)
        with pytest.raises(ValueError):
            lagrange_decode(cfg, linear_map([1.0]), (1, 2), np.ones((2, 1)), basis="legendre")


class TestCorrectnessOracle:
    @pytest.mark.parametrize("workers", [6, 10, 20])
    def test_linear_map_every_subset(self, workers):
        m = workers - 2
        cfg = LagrangeConfig(m=m, workers=workers, dim=10, deg_f=1)
        rng = Rng(workers)
        data = gaussian_matrix(rng, m, 10)
        f = linear_map(rng.normals(10))
        outs = worker_outputs(cfg, f, lagrange_encode(cfg, data))
        truth = np.stack([f(x) for x in data])
        for surv in combinations(range(1, workers + 1), cfg.threshold):
            got = lagrange_decode(cfg, f, surv, outs[np.asarray(surv) - 1])
            assert relative_l2(truth, got) <= 1e-7, surv

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_degree_two_map(self, m):
        workers = 2 * m + 2
        cfg = LagrangeConfig(m=m, workers=workers, dim=4, deg_f=2)
        assert cfg.threshold == 2 * m - 1
        square_sum = PolyMap(dim=4, out_dim=1, fn=lambda x: np.atleast_1d(x.sum() ** 2))
        rng = Rng(m * 7)
        data = gaussian_matrix(rng, m, 4)
        outs = worker_outputs(cfg, square_sum, lagrange_encode(cfg, data))
        truth = np.stack([square_sum(x) for x in data])
        subsets = sample_column_subsets(workers, cfg.threshold, 40, Rng(0))
        for surv in subsets:
            got = lagrange_decode(cfg, square_sum, surv, outs[np.asarray(surv) - 1])
            assert relative_l2(truth, got) <= 1e-6, surv


class TestBasisDominanceSmall:
    def test_chebyshev_not_worse_on_average(self):
        # compact version of the stability comparison; the sweep-scale one
        # lives in the acceptance suite
        workers, m = 30, 28
        cfg = LagrangeConfig(m=m, workers=workers, dim=10, deg_f=1)
        rng = Rng(0)
        data = gaussian_matrix(rng, m, 10)
        f = linear_map(rng.normals(10))
        outs = worker_outputs(cfg, f, lagrange_encode(cfg, data))
        truth = np.stack([f(x) for x in data])
        subsets = sample_column_subsets(workers, cfg.threshold, 30, Rng(1))
        errs = {}
        for basis in ("chebyshev", "monomial"):
            errs[basis] = np.mean(
                [
                    relative_l2(
                        truth, lagrange_decode(cfg, f, s, outs[np.asarray(s) - 1], basis)
                    )
                    for s in subsets
                ]
            )
        assert errs["chebyshev"] <= errs["monomial"]
