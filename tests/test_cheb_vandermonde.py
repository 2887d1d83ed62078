import math

import numpy as np
import pytest

from chebcoded import cheb_vandermonde
from chebcoded.cheb_vandermonde import (
    BudgetExceededError,
    build_generator,
    check_survivors,
    evaluation_points,
    gaussian_bound_trial,
    iter_column_subsets,
    sample_column_subsets,
    subset_cond_stats,
    subset_index,
    subset_stats,
    theorem_bound_value,
)
from chebcoded.linalg import Rng, cond
from chebcoded.poly_basis import cheb_grid
from chebcoded.sim_harness import condition_growth_plan

EPS = np.finfo(np.float64).eps


class TestBuildGenerator:
    def test_chebyshev_rows_on_grid(self):
        got = build_generator("chebyshev", 3, cheb_grid(3).points)
        r3 = math.sqrt(3) / 2
        want = np.array([[1, 1, 1], [r3, 0, -r3], [0.5, -1.0, 0.5]])
        assert got == pytest.approx(want, abs=1e-12)

    def test_monomial_rows(self):
        assert build_generator("monomial", 2, [0.0, 1.0]) == pytest.approx(
            np.array([[1.0, 1.0], [0.0, 1.0]]), abs=0
        )

    def test_normalized_first_row(self):
        got = build_generator("chebyshev_normalized", 1, [0.3])
        assert got == pytest.approx(np.array([[1 / math.sqrt(2)]]), abs=1e-12)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            build_generator("chebyshev", 2, [0.5, 0.5])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_generator("legendre", 2, [0.0, 1.0])

    @pytest.mark.parametrize("n", [2, 8, 16, 33, 64])
    def test_discrete_orthogonality(self, n):
        g = build_generator("chebyshev_normalized", n, cheb_grid(n).points)
        assert np.max(np.abs(g @ g.T - (n / 2.0) * np.eye(n))) <= 1e-9


class TestEvaluationPoints:
    def test_default_is_the_read_only_grid(self):
        pts = evaluation_points(6)
        assert np.array_equal(pts, cheb_grid(6).points) and not pts.flags.writeable

    def test_wrong_point_count_rejected(self):
        with pytest.raises(ValueError, match="need 4 evaluation points, got 3"):
            evaluation_points(4, [0.1, 0.2, 0.3])

    def test_repeated_points_rejected(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            evaluation_points(3, [0.1, 0.2, 0.1])


class TestSubsetStats:
    @staticmethod
    def loop_mean(values):
        total = 0.0
        for value in values.tolist():
            total += value
        return total / len(values)

    @pytest.mark.parametrize("with_inf", [False, True])
    def test_mean_is_the_in_order_float_loop_bitwise(self, with_inf):
        """1e16 + 1.0 + ... loses each 1.0 in order, which a pairwise or
        compensated sum would not, so the check sees the summation order."""
        rng = np.random.default_rng(5)
        values = np.concatenate([[1e16], np.ones(1000), rng.lognormal(0.0, 8.0, 20000)])
        if with_inf:
            values[777] = np.inf
        idx = np.arange(len(values))[:, None]  # one single-column subset per value
        stats = subset_stats(values, idx, len(values), 1)
        assert stats.average == self.loop_mean(values)
        assert stats.average != float(np.sum(values)) / len(values) or with_inf
        assert stats.worst == values.max()
        assert stats.worst_subset == (int(np.argmax(values)) + 1,)


class TestCheckSurvivors:
    def test_subset_validation(self):
        assert check_survivors((3, 1), 2, 3) == (1, 3)
        with pytest.raises(ValueError, match="out of range"):
            check_survivors((0, 1), 2, 3)
        with pytest.raises(ValueError, match="out of range"):
            check_survivors((1, 4), 2, 3)
        with pytest.raises(ValueError, match="distinct"):
            check_survivors((2, 2), 2, 3)
        # integral numbers are integers; anything else is rejected, not truncated
        assert check_survivors([3.0, np.int64(1), np.float32(2.0)], 3, 5) == (1, 2, 3)
        for bad in (1.5, 2.9, np.float32(2.5), True, np.True_, "2", None, math.nan):
            with pytest.raises(ValueError, match="survivor index must be an integer"):
                check_survivors([bad, 3, 4], 3, 5)


class TestSubsetCondStats:
    def test_chebyshev_square_grid_is_sqrt2(self):
        for n in (2, 5, 11):
            stats = subset_cond_stats("chebyshev", n, cheb_grid(n).points, "spectral")
            assert stats.worst == pytest.approx(math.sqrt(2), rel=1e-9)
            assert stats.average == pytest.approx(math.sqrt(2), rel=1e-9)

    def test_normalized_square_grid_is_one(self):
        for n in (2, 6, 13):
            stats = subset_cond_stats("chebyshev_normalized", n, cheb_grid(n).points, "spectral")
            assert stats.worst == pytest.approx(1.0, rel=1e-9)

    def test_monomial_three_point_example(self):
        pts = [0.0, 1.0, 2.0]
        for norm in ("spectral", "frobenius"):
            stats = subset_cond_stats("monomial", 2, pts, norm)
            conds = {
                s: cond(build_generator("monomial", 2, pts)[:, np.array(s) - 1], norm)
                for s in iter_column_subsets(3, 2)
            }
            assert stats.worst == pytest.approx(max(conds.values()), rel=1e-12)
            assert stats.average == pytest.approx(sum(conds.values()) / 3, rel=1e-12)
            assert stats.worst_subset == (2, 3)

    def test_ties_report_the_first_subset(self):
        # every 1x1 monomial submatrix is [1], so all subsets tie
        stats = subset_cond_stats("monomial", 1, [0.1, 0.2, 0.3])
        assert stats.worst == stats.average == 1.0
        assert stats.worst_subset == (1,)

    def test_oversized_subset_rejected(self):
        with pytest.raises(ValueError):
            subset_cond_stats("chebyshev", 6, cheb_grid(5).points)

    def test_exhaustive_budget(self):
        with pytest.raises(BudgetExceededError):
            subset_cond_stats("chebyshev", 25, cheb_grid(60).points)

    def test_sampled_requires_rng(self):
        with pytest.raises(ValueError):
            subset_cond_stats("chebyshev", 3, cheb_grid(8).points, samples=5)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_sampling_needs_a_positive_count(self, samples):
        with pytest.raises(ValueError, match="samples >= 1"):
            subset_cond_stats("chebyshev", 3, cheb_grid(8).points, samples=samples, rng=Rng(0))
        with pytest.raises(ValueError, match="samples >= 1"):
            subset_index(8, 3, samples, Rng(0))

    def test_sampled_matches_exhaustive_when_budget_covers(self):
        pts = cheb_grid(6).points
        full = subset_cond_stats("chebyshev", 4, pts, "frobenius")
        sampled = subset_cond_stats("chebyshev", 4, pts, "frobenius", samples=100, rng=Rng(0))
        assert sampled.worst == full.worst
        assert sampled.average == pytest.approx(full.average, rel=1e-12)

    @pytest.mark.parametrize("kind,norm", [("chebyshev", "frobenius"), ("monomial", "spectral")])
    def test_chunking_does_not_change_results(self, monkeypatch, kind, norm):
        pts = cheb_grid(12).points
        one = subset_cond_stats(kind, 9, pts, norm)
        monkeypatch.setattr(cheb_vandermonde, "COND_CHUNK_BYTES", 5 * 8 * 9 * 9)
        many = subset_cond_stats(kind, 9, pts, norm)
        assert one.worst == many.worst
        assert one.average == many.average
        assert one.worst_subset == many.worst_subset

    def test_monomial_p30_matches_lapack_oracle(self):
        # every k=27 submatrix of the 30-point grid; a Gram-matrix
        # eigensolver saturated these near 2.5e7-2.8e7
        pts = cheb_grid(30).points
        stats = subset_cond_stats("monomial", 27, pts, "spectral")
        gen = build_generator("monomial", 27, pts)
        subsets = np.asarray(list(iter_column_subsets(30, 27))) - 1
        oracle = np.linalg.cond(gen.T[subsets].transpose(0, 2, 1), 2)
        assert stats.worst == pytest.approx(5.9025e10, rel=1e-4)
        assert stats.worst == pytest.approx(oracle.max(), rel=1e-6)
        assert stats.average == pytest.approx(oracle.mean(), rel=1e-6)
        # the grid is symmetric, so the two end blocks tie up to rounding
        assert stats.worst_subset in (tuple(range(1, 28)), tuple(range(4, 31)))


class TestSampling:
    def test_deterministic_per_seed(self):
        a = sample_column_subsets(30, 27, 50, Rng(7))
        b = sample_column_subsets(30, 27, 50, Rng(7))
        assert a == b

    def test_distinct_and_valid(self):
        subs = sample_column_subsets(20, 17, 200, Rng(3))
        assert len(set(subs)) == 200
        for s in subs:
            assert len(s) == 17 and s == tuple(sorted(s)) and 1 <= s[0] and s[-1] <= 20

    @pytest.mark.parametrize("n,size", [(6, 0), (6, 2), (6, 3), (6, 4), (6, 6), (10, 7)])
    def test_index_arrays_hold_the_smaller_side_in_survivor_order(self, n, size):
        lex = subset_index(n, size)
        assert lex.shape == (math.comb(n, size), min(size, n - size))
        survivors = cheb_vandermonde._index_side(lex, n, size) + 1
        assert [tuple(r) for r in survivors.tolist()] == list(iter_column_subsets(n, size))

    def test_covers_all_when_count_exceeds_total(self):
        subs = sample_column_subsets(5, 3, 100, Rng(0))
        assert subs == list(iter_column_subsets(5, 3))


def _one_attempt_sampler(n, size, count, rng):
    """The sampler as it was written before it was batched: one partial
    Fisher-Yates shuffle and one ``rng.uniforms`` call per attempt.  Kept
    frozen as the reference for the subsets and the stream position."""
    total = math.comb(n, size)
    if count >= total:
        return list(iter_column_subsets(n, size))
    draw = size if size <= n - size else n - size
    seen = set()
    out = []
    pool = np.arange(1, n + 1, dtype=np.int64)
    full = frozenset(range(1, n + 1))
    while len(out) < count:
        arr = pool.copy()
        us = rng.uniforms(draw)
        for j in range(draw):
            swap = j + min(int(us[j] * (n - j)), n - j - 1)
            arr[j], arr[swap] = arr[swap], arr[j]
        picked = frozenset(int(v) for v in arr[:draw])
        subset = tuple(sorted(picked if draw == size else full - picked))
        if subset not in seen:
            seen.add(subset)
            out.append(subset)
    return out


class TestSamplingStream:
    @pytest.mark.parametrize(
        "n,size,count",
        [
            (30, 27, 500),
            (80, 77, 1000),
            (14, 4, 200),
            (10, 5, 200),
            (12, 6, 900),  # 900 of 924: many rounds with repeats
            (12, 6, 924),  # count == total
            (5, 3, 100),  # count > total
        ],
    )
    @pytest.mark.parametrize("seed", [0, 17])
    def test_same_subsets_and_stream_position(self, n, size, count, seed):
        batched, reference = Rng(seed), Rng(seed)
        assert sample_column_subsets(n, size, count, batched) == _one_attempt_sampler(
            n, size, count, reference
        )
        assert np.array_equal(batched.uniforms(3), reference.uniforms(3))


def _counting_cond(monkeypatch):
    calls = []
    real = cheb_vandermonde.cond

    def counted(a, norm="spectral"):
        calls.append(np.shape(a))
        return real(a, norm)

    monkeypatch.setattr(cheb_vandermonde, "cond", counted)
    return calls


def _direct_conds(kind, n, k, idx, norm):
    """linalg.cond of the k x k survivor submatrices of the generator built
    at the grid points, one per row of a smaller-side index array."""
    gen = build_generator(kind, k, cheb_grid(n).points)
    surv = cheb_vandermonde._index_side(idx, n, k)
    return cond(gen.T[surv].transpose(0, 2, 1), norm)


def _complement(kind, n, idx, norm):
    d0 = math.sqrt(2.0) if kind == "chebyshev" else 1.0
    return cheb_vandermonde._complement_conds(cheb_vandermonde._grid_orthogonal(n).T[idx], d0, norm)


def _plan_grid():
    """(P, delta) of every Chebyshev row of condition_growth_plan() at its
    default delta and at delta 1 and 2, and the (n, s) grid of the bound
    check (acceptance criterion 5, `chebcoded bound`) where s < n - s, the
    complement path's domain."""
    rows = {
        (row["P"], row["delta"])
        for delta in (1, 2, 3)
        for row in condition_growth_plan(kinds=("chebyshev",), delta=delta)
    }
    rows |= {(n, s) for n in (6, 8, 12, 16, 20, 24) for s in (1, 2, 3) if s < n - s}
    return sorted(rows)


class TestComplementPath:
    # The complement path and a direct SVD of the float64 generator agree
    # to this many eps * cond (relative, cond the lane's value): the
    # largest deviation measured over _plan_grid() is 41 (P=80, delta=1,
    # normalized, spectral), from the direct SVD's own rounding.
    CROSS_CHECK_RTOL = 200

    @pytest.mark.parametrize(
        "kind,n,k,points,direct",
        [
            ("chebyshev", 12, 9, None, False),
            ("chebyshev_normalized", 12, 9, None, False),
            ("chebyshev", 7, 7, None, False),  # s = 0
            ("chebyshev", 1, 1, None, False),  # s = 0, k = 1: D is a scalar
            ("chebyshev", 8, 4, None, True),  # s = k
            ("chebyshev_normalized", 9, 3, None, True),  # s > k
            ("chebyshev", 12, 9, 0.999, True),  # not the grid
            ("monomial", 12, 9, None, True),
        ],
    )
    def test_selection(self, monkeypatch, kind, n, k, points, direct):
        calls = _counting_cond(monkeypatch)
        pts = cheb_grid(n).points * (points or 1.0)
        stats = subset_cond_stats(kind, k, pts, "frobenius")
        assert bool(calls) == direct
        monkeypatch.undo()
        gen = build_generator(kind, k, pts)
        subsets = np.asarray(list(iter_column_subsets(n, k))) - 1
        oracle = cond(gen.T[subsets].transpose(0, 2, 1), "frobenius")
        assert stats.worst == pytest.approx(oracle.max(), rel=1e-11)
        assert stats.average == pytest.approx(oracle.mean(), rel=1e-11)

    @pytest.mark.parametrize("n,s", _plan_grid())
    @pytest.mark.parametrize("norm", ["spectral", "frobenius"])
    def test_matches_direct_on_plan_rows(self, n, s, norm):
        k = n - s
        lex = subset_index(n, k)
        if len(lex) > 2000:  # the end blocks, the worst subsets, and a sample
            sample = subset_index(n, k, 64, Rng(n))
            lex = np.concatenate([lex[:4], lex[-4:], sample])
        for kind in ("chebyshev", "chebyshev_normalized"):
            direct = _direct_conds(kind, n, k, lex, norm)
            got = _complement(kind, n, lex, norm)
            assert np.isfinite(direct).all()
            deviation = np.abs(got - direct) / (EPS * direct * direct)
            assert deviation.max() <= self.CROSS_CHECK_RTOL, (kind, deviation.max())

    @pytest.mark.parametrize("d0", [1.0, math.sqrt(2.0)])
    @pytest.mark.parametrize("n,s", [(5, 1), (7, 3), (10, 2), (12, 5)])
    def test_any_orthogonal_matrix(self, d0, n, s):
        q, _ = np.linalg.qr(np.random.default_rng(n + s).standard_normal((n, n)))
        erased = subset_index(n, n - s, 30, Rng(s))
        scale = np.ones(n - s)
        scale[0] = d0
        survivors = cheb_vandermonde._index_side(erased, n, n - s)
        stack = (scale[:, None] * q[: n - s])[:, survivors].transpose(1, 0, 2)
        for norm in ("spectral", "frobenius"):
            want = cond(stack, norm)
            got = cheb_vandermonde._complement_conds(q.T[erased], d0, norm)
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("norm", ["spectral", "frobenius"])
    def test_singular_boundary(self, norm):
        """inf exactly when s_min <= k * eps * s_max, as in linalg.cond:
        Q rotates columns 2 and 3 by an angle with cosine c, so that the
        k = 2 survivor block [[1, 0], [0, c]] has s_max = 1, s_min = c."""

        def conds(c):
            sn = math.sqrt(1.0 - c * c)
            q = np.array([[1.0, 0.0, 0.0], [0.0, c, -sn], [0.0, sn, c]])
            return cheb_vandermonde._complement_conds(q.T[np.array([[2]])], 1.0, norm)[0]

        edge = 2 * EPS  # k = 2
        above = conds(edge * 1.01)
        assert math.isfinite(above)
        assert above == pytest.approx(1.0 / (edge * 1.01), rel=1e-12)
        assert conds(edge) == math.inf
        assert conds(edge * 0.99) == math.inf
        assert conds(0.0) == math.inf  # the solve with Q22 = 0 fails
        assert conds(1e-160) == math.inf  # and here it overflows

    def test_in_order_mean_and_first_worst_subset(self):
        n, k = 10, 7
        stats = subset_cond_stats("chebyshev", k, cheb_grid(n).points, "spectral")
        lex = subset_index(n, k)
        survivors = cheb_vandermonde._index_side(lex, n, k) + 1
        conds = _complement("chebyshev", n, lex, "spectral")
        assert stats.worst_subset == tuple(survivors[int(np.argmax(conds))])
        assert stats.average == sum(conds.tolist()) / len(conds)


class TestTheoremBound:
    def test_s1_example(self):
        assert theorem_bound_value(10, 1) == pytest.approx(9 * math.sqrt(90), rel=1e-12)

    def test_s2_example(self):
        assert theorem_bound_value(10, 2) == pytest.approx(8 * math.sqrt(160) * 200, rel=1e-12)

    def test_smallest_case(self):
        assert theorem_bound_value(2, 1) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            theorem_bound_value(10, 0)
        with pytest.raises(ValueError):
            theorem_bound_value(10, 10)

    @pytest.mark.parametrize("n,s", [(8, 1), (12, 2), (16, 1)])
    def test_dominates_measured_worst_case(self, n, s):
        stats = subset_cond_stats("chebyshev", n - s, cheb_grid(n).points, "frobenius")
        assert stats.worst <= 5.0 * theorem_bound_value(n, s)


class TestGeneratorComparisons:
    # all (n, s) pairs from the bound-dominance set with n - s >= 10
    AT_SCALE = [
        (n, s) for n in (6, 8, 12, 16, 20, 24) for s in (1, 2, 3) if n - s >= 10
    ]

    @pytest.mark.parametrize("n,s", AT_SCALE)
    def test_chebyshev_beats_monomial_at_scale(self, n, s):
        pts = cheb_grid(n).points
        cheb = subset_cond_stats("chebyshev", n - s, pts, "frobenius")
        mono = subset_cond_stats("monomial", n - s, pts, "frobenius")
        assert cheb.worst < mono.worst

    @pytest.mark.parametrize(
        "n,s", [(n, s) for n in (8, 12, 16) for s in (1, 2, 3)]
    )
    def test_normalized_within_sqrt2_of_plain(self, n, s):
        pts = cheb_grid(n).points
        plain = build_generator("chebyshev", n - s, pts)
        normalized = build_generator("chebyshev_normalized", n - s, pts)
        for subset in iter_column_subsets(n, n - s):
            idx = np.asarray(subset) - 1
            k_plain = cond(plain[:, idx], "frobenius")
            k_norm = cond(normalized[:, idx], "frobenius")
            assert k_norm < math.sqrt(2) * k_plain, subset


class TestGaussianBound:
    def test_vacuous_small_case(self):
        violations, bound_prob = gaussian_bound_trial(3, 4, 200, Rng(0))
        assert bound_prob == pytest.approx(5.6 / 4)
        assert violations / 200 <= bound_prob  # bound exceeds 1, always satisfied

    def test_degenerate_no_redundancy(self):
        violations, bound_prob = gaussian_bound_trial(3, 3, 10, Rng(1))
        assert bound_prob == pytest.approx(5.6)
        assert 0 <= violations <= 10

    def test_m_below_three_rejected(self):
        with pytest.raises(ValueError):
            gaussian_bound_trial(2, 5, 10, Rng(0))

    def test_workers_below_m_rejected(self):
        with pytest.raises(ValueError):
            gaussian_bound_trial(4, 3, 10, Rng(0))

    def test_enumeration_budget(self):
        with pytest.raises(BudgetExceededError):
            gaussian_bound_trial(15, 60, 1, Rng(0))
