import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chebcoded.cheb_vandermonde import build_generator, sample_column_subsets, subset_cond_stats
from chebcoded.linalg import (
    SOLVE_BLOCK,
    Rng,
    SingularMatrixError,
    cond,
    gaussian_matrix,
    invert,
    matmul,
    solve,
)
from chebcoded.poly_basis import cheb_grid

finite_entries = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, np.eye(2)), a)

    def test_row_times_column(self):
        assert matmul([[1.0, 2.0]], [[3.0], [4.0]]) == pytest.approx(np.array([[11.0]]))

    def test_zero_annihilates(self):
        z = np.zeros((3, 3))
        assert np.array_equal(matmul(z, np.arange(9.0).reshape(3, 3)), z)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            matmul(np.array([[np.nan]]), np.array([[1.0]]))

    @settings(max_examples=40, deadline=None)
    @given(
        arrays(np.float64, (3, 3), elements=finite_entries),
        arrays(np.float64, (3, 3), elements=finite_entries),
        arrays(np.float64, (3, 3), elements=finite_entries),
    )
    def test_associativity(self, a, b, c):
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        scale = np.linalg.norm(left) + np.linalg.norm(right)
        assert np.linalg.norm(left - right) <= 1e-10 * max(1.0, scale)


class TestSolve:
    def test_identity_system(self):
        b = np.arange(12.0).reshape(3, 4)
        assert solve(np.eye(3), b) == pytest.approx(b, abs=0)

    def test_diagonal_system(self):
        x = solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([[2.0], [8.0]]))
        assert x == pytest.approx(np.array([[1.0], [2.0]]))

    def test_rank_deficient_raises(self):
        with pytest.raises(SingularMatrixError) as info:
            solve(np.ones((2, 2)), np.ones((2, 1)))
        assert info.value.pivot_index == 1

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrixError) as info:
            solve(np.zeros((3, 3)), np.ones(3))
        assert info.value.pivot_index == 0

    def test_reports_the_first_failing_step(self):
        # steps 1 and 3 meet zero pivots, step 2 does not
        a = np.array([[1.0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
        with pytest.raises(SingularMatrixError) as info:
            solve(a, np.ones(4))
        assert info.value.pivot_index == 1 and info.value.pivot == 0.0

    def test_vector_rhs(self):
        a = np.array([[3.0, 1.0], [1.0, 2.0]])
        x = solve(a, np.array([5.0, 5.0]))
        assert a @ x == pytest.approx([5.0, 5.0], abs=1e-12)

    def test_residual_contract(self):
        rng = Rng(17)
        for n in (5, 20, 50):
            a = gaussian_matrix(rng, n, n) + 2.0 * n * np.eye(n)
            rhs = gaussian_matrix(rng, n, 3)
            x = solve(a, rhs)
            resid = np.linalg.norm(a @ x - rhs)
            assert resid <= 1e-8 * (1.0 + np.linalg.norm(rhs))


class TestSolveStack:
    """The stacked path: (count, k, k) matrices against (count, k, q) sides."""

    @pytest.mark.parametrize(
        "k, q",
        [
            (1, 1),
            (5, 1),
            (17, 3),
            (40, 2),
            # the panel boundaries of the blocked LU, and the Lagrange shape q ~ k
            (SOLVE_BLOCK - 1, 2),
            (SOLVE_BLOCK, 1),
            (SOLVE_BLOCK + 1, 3),
            (2 * SOLVE_BLOCK + 3, 2),
            (2 * SOLVE_BLOCK + 3, 2 * SOLVE_BLOCK + 4),
        ],
    )
    def test_single_matrix_equals_its_stack_lane_bitwise(self, k, q):
        rng = Rng(31 + k)
        stack = np.stack([gaussian_matrix(rng, k, k) for _ in range(6)])
        rhs = np.stack([gaussian_matrix(rng, k, q) for _ in range(6)])
        got = solve(stack, rhs)
        assert got.shape == (6, k, q)
        for lane in range(6):
            assert np.array_equal(solve(stack[lane], rhs[lane]), got[lane])
        column = solve(stack, rhs[:, :, :1])  # same width as a vector right-hand side
        assert np.array_equal(solve(stack[2], rhs[2, :, 0]), column[2, :, 0])

    def test_singular_lane_is_nan_and_leaves_neighbours_unchanged(self):
        rng = Rng(8)
        good = np.stack([gaussian_matrix(rng, 7, 7) for _ in range(2)])
        rhs = np.stack([gaussian_matrix(rng, 7, 2) for _ in range(4)])
        stack = np.stack([good[0], np.ones((7, 7)), good[1], np.zeros((7, 7))])
        got = solve(stack, rhs)
        assert np.isnan(got[1]).all() and np.isnan(got[3]).all()
        alone = solve(good, rhs[[0, 2]])
        assert np.array_equal(got[0], alone[0]) and np.array_equal(got[2], alone[1])

    def test_inputs_are_not_modified(self):
        rng = Rng(3)
        stack = np.stack([gaussian_matrix(rng, 4, 4) for _ in range(3)])
        rhs = np.stack([gaussian_matrix(rng, 4, 2) for _ in range(3)])
        before = (stack.copy(), rhs.copy())
        solve(stack, rhs)
        solve(stack[0], rhs[0])
        assert np.array_equal(stack, before[0]) and np.array_equal(rhs, before[1])

    def test_stack_residual(self):
        rng = Rng(5)
        stack = np.stack([gaussian_matrix(rng, 9, 9) + 18.0 * np.eye(9) for _ in range(3)])
        rhs = np.stack([gaussian_matrix(rng, 9, 4) for _ in range(3)])
        assert np.linalg.norm(stack @ solve(stack, rhs) - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_rejects_mismatched_shapes_and_non_finite(self):
        with pytest.raises(ValueError):
            solve(np.ones((2, 3, 3)), np.ones((3, 1)))
        with pytest.raises(ValueError):
            solve(np.ones((2, 3, 3)), np.ones((1, 3, 1)))
        with pytest.raises(ValueError):
            solve(np.ones((3, 2)), np.ones(3))
        with pytest.raises(ValueError):
            solve(np.ones((0, 0)), np.ones(0))
        with pytest.raises(ValueError):
            solve(np.array([[[1.0, np.nan], [0.0, 1.0]]]), np.ones((1, 2, 1)))
        with pytest.raises(ValueError):
            solve(np.array([[1.0, np.inf], [0.0, 1.0]]), np.ones(2))


class TestSolveBlocked:
    """Panels of SOLVE_BLOCK columns: pivots found inside a later panel,
    rows swapped in from below the panel, and agreement with LAPACK."""

    def test_first_failing_pivot_in_the_third_panel(self):
        # a row-shuffled upper triangular matrix eliminates exactly; its one
        # zero diagonal entry makes the pivot at that step exactly zero
        k, step = 3 * SOLVE_BLOCK + 2, 2 * SOLVE_BLOCK + 3
        rng = Rng(41)
        upper = np.triu(gaussian_matrix(rng, k, k)) + 2.0 * np.eye(k)
        upper[step, step] = 0.0
        shuffled = upper[np.argsort(rng.uniforms(k))]
        with pytest.raises(SingularMatrixError) as info:
            solve(shuffled, np.ones(k))
        assert info.value.pivot_index == step and info.value.pivot == 0.0
        lanes = solve(np.stack([shuffled, upper]), np.ones((2, k, 1)))
        assert np.isnan(lanes).all()

    def test_rows_swapped_in_from_below_the_panel(self):
        # column diagonal dominance puts every pivot on the diagonal of m;
        # reversing the rows moves each pivot row far below its panel
        k = 2 * SOLVE_BLOCK + 3
        rng = Rng(43)
        m = gaussian_matrix(rng, k, k) + 4.0 * k * np.eye(k)
        a = m[::-1]
        rhs = gaussian_matrix(rng, k, 3)
        got = solve(a, rhs)
        ref = np.linalg.solve(a, rhs)
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("points, q", [(80, 1), (101, 99)])
    def test_matches_lapack_on_chebyshev_grid_submatrices(self, points, q):
        stack = _grid_submatrices("chebyshev", points)  # k = points - 3
        count, k = stack.shape[:2]
        rhs = np.stack([gaussian_matrix(Rng(q + lane), k, q) for lane in range(count)])
        got = solve(stack, rhs)
        ref = np.linalg.solve(stack, rhs)
        eps = np.finfo(np.float64).eps
        for lane in range(count):
            err = np.linalg.norm(got[lane] - ref[lane]) / np.linalg.norm(ref[lane])
            assert err <= 10.0 * eps * cond(stack[lane])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", [1e-200, 1e-170, 1e200, 1e308])
    def test_singularity_rule_is_scale_invariant(self, s):
        # ||a||_F overflows at 1e200 and underflows at 1e-170 and below;
        # at 1e308 even max|a| * ||a / max|a|||_F overflows for k >= 4
        def close(got, want):
            return got == pytest.approx(want, rel=1e-15, abs=0.0)

        assert close(solve(np.eye(2) * s, np.ones(2)), np.ones(2) / s)
        assert close(solve(np.eye(4) * s, np.ones(4)), np.ones(4) / s)
        stack = np.stack([np.eye(2) * s, np.ones((2, 2)) * s, np.diag([1.0, 1e-13]) * s])
        got = solve(stack, np.ones((3, 2, 1)))
        assert close(got[0, :, 0], np.ones(2) / s)
        assert np.isnan(got[1]).all()
        assert close(got[2, :, 0], np.array([1.0, 1e13]) / s)
        with pytest.raises(SingularMatrixError) as info:
            solve(np.diag([1.0, 1e-15]) * s, np.ones(2))
        assert info.value.pivot_index == 1


class TestInvert:
    def test_identity(self):
        assert invert(np.eye(4)) == pytest.approx(np.eye(4), abs=0)

    def test_diagonal_reciprocal(self):
        got = invert(np.diag([2.0, 0.5]))
        assert got == pytest.approx(np.diag([0.5, 2.0]), abs=1e-15)

    def test_rank_deficient_raises(self):
        with pytest.raises(SingularMatrixError):
            invert(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_round_trip_residual(self):
        rng = Rng(99)
        for trial in range(100):
            n = 2 + trial % 49
            a = gaussian_matrix(rng, n, n) + 2.0 * n * np.eye(n)
            assert np.linalg.norm(invert(a) @ a - np.eye(n)) <= 1e-8 * n


class TestCond:
    def test_identity_spectral(self):
        assert cond(np.eye(7), "spectral") == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_ratio(self):
        assert cond(np.diag([10.0, 0.1]), "spectral") == pytest.approx(100.0, rel=1e-12)

    def test_identity_frobenius_is_n(self):
        assert cond(np.eye(6), "frobenius") == pytest.approx(6.0, rel=1e-12)

    def test_singular_gives_infinity(self):
        assert cond(np.ones((3, 3)), "frobenius") == math.inf
        assert cond(np.zeros((2, 2)), "spectral") == math.inf

    def test_unknown_norm_rejected(self):
        with pytest.raises(ValueError):
            cond(np.eye(2), "l1")

    def test_spectral_below_frobenius(self):
        rng = Rng(4)
        for n in (2, 5, 12, 30):
            a = gaussian_matrix(rng, n, n) + n * np.eye(n)
            assert cond(a, "spectral") <= cond(a, "frobenius") * (1 + 1e-9)


class TestCondStack:
    """The stacked path: one (..., k, k) array in, one value per matrix out."""

    def test_diagonal_singular_values(self):
        d = np.diag([3.0, -2.0, 0.5, 1e-3])
        sv = np.array([3.0, 2.0, 0.5, 1e-3])
        got = cond(np.stack([d, d[::-1, ::-1]]), "spectral")
        assert got == pytest.approx([3000.0, 3000.0], rel=1e-12)
        fro = math.sqrt(np.sum(sv**2) * np.sum(sv**-2.0))
        assert cond(np.stack([d]), "frobenius") == pytest.approx([fro], rel=1e-12)

    def test_matches_direct_svd(self):
        rng = Rng(12)
        for n in (2, 3, 10, 33):
            stack = np.stack([gaussian_matrix(rng, n, n) for _ in range(4)])
            ref = np.linalg.svd(stack, compute_uv=False)
            spectral = ref[:, 0] / ref[:, -1]
            frobenius = np.sqrt(np.sum(ref**2, axis=1) * np.sum(ref**-2.0, axis=1))
            assert cond(stack, "spectral") == pytest.approx(spectral, rel=1e-12)
            assert cond(stack, "frobenius") == pytest.approx(frobenius, rel=1e-9)

    def test_orthogonal_input(self):
        rotations = []
        for theta in (0.0, 0.7, 2.5):
            c, s = math.cos(theta), math.sin(theta)
            rotations.append([[c, -s], [s, c]])
        assert cond(np.array(rotations), "spectral") == pytest.approx([1.0] * 3, abs=1e-12)
        assert cond(np.array(rotations), "frobenius") == pytest.approx([2.0] * 3, abs=1e-12)

    @pytest.mark.parametrize("norm", ["spectral", "frobenius"])
    def test_single_matrix_and_stack_agree(self, norm):
        rng = Rng(21)
        stack = np.stack([gaussian_matrix(rng, 6, 6) for _ in range(5)] + [np.ones((6, 6))])
        got = cond(stack, norm)
        assert isinstance(got, np.ndarray) and got.shape == (6,)
        singles = [cond(a, norm) for a in stack]
        assert all(type(v) is float for v in singles)
        assert got.tolist() == singles
        assert got[-1] == math.inf
        assert cond(stack.reshape(2, 3, 6, 6), norm).tolist() == got.reshape(2, 3).tolist()

    def test_rejects_non_square_and_non_finite(self):
        with pytest.raises(ValueError):
            cond(np.ones((3, 2, 3)))
        with pytest.raises(ValueError):
            cond(np.ones(3))
        with pytest.raises(ValueError):
            cond(np.array([[[1.0, np.inf], [0.0, 1.0]]]))


@pytest.mark.filterwarnings("error")
class TestCondSingularRule:
    """inf exactly when s_min <= k * eps * s_max, without float warnings."""

    EPS = np.finfo(np.float64).eps

    @pytest.mark.parametrize("norm", ["spectral", "frobenius"])
    def test_boundary_of_diag_one_t(self, norm):
        edge = 2 * self.EPS  # k = 2
        above = cond(np.diag([1.0, edge * 1.01]), norm)
        assert math.isfinite(above)
        assert above == pytest.approx(1.0 / (edge * 1.01), rel=1e-12)
        assert cond(np.diag([1.0, edge]), norm) == math.inf
        assert cond(np.diag([1.0, edge * 0.99]), norm) == math.inf
        assert cond(np.diag([1.0, 0.0]), norm) == math.inf
        assert cond(np.diag([1.0, 1e-160]), norm) == math.inf

    @pytest.mark.parametrize("norm", ["spectral", "frobenius"])
    def test_rule_is_scale_invariant(self, norm):
        for scale in (1e-200, 1e-100, 1e100, 1e200):
            assert cond(scale * np.diag([1.0, 1e-15]), norm) == pytest.approx(1e15, rel=1e-12)
            assert cond(scale * np.diag([1.0, 1e-16]), norm) == math.inf

    def test_all_zero_input_is_singular(self):
        assert cond(np.zeros((3, 3)), "spectral") == math.inf
        assert cond(np.zeros((2, 3, 3)), "frobenius").tolist() == [math.inf, math.inf]


def _grid_submatrices(kind: str, points: int):
    """Survivor submatrices of the ``points``-point Chebyshev grid at
    redundancy 3: the first, the last and two sampled subsets."""
    k = points - 3
    gen = build_generator(kind, k, cheb_grid(points).points)
    subsets = [tuple(range(1, k + 1)), tuple(range(4, points + 1))]
    subsets += sample_column_subsets(points, k, 2, Rng(points))
    return np.stack([gen[:, np.asarray(s) - 1] for s in subsets])


def _mpmath_conds(a, mpmath):
    """(spectral, frobenius) of the float64 matrix ``a`` at 60 digits."""
    s = mpmath.svd_r(mpmath.matrix(a.tolist()), compute_uv=False)
    sv = [s[i] for i in range(a.shape[0])]
    sum_sq = mpmath.fsum(x**2 for x in sv)
    sum_inv_sq = mpmath.fsum(1 / x**2 for x in sv)
    return float(max(sv) / min(sv)), float(mpmath.sqrt(sum_sq * sum_inv_sq))


def _mpmath_exact_conds(kind, n, survivors, mpmath):
    """(spectral, frobenius) of the survivor submatrix of the exact
    Chebyshev generator on the n-point grid: T_j(x_i) = cos(j theta_i),
    theta_i = (2i-1) pi / (2n), at the working precision."""
    k = len(survivors)
    a = mpmath.matrix(k, k)
    for col, i in enumerate(survivors):
        theta = (2 * i - 1) * mpmath.pi / (2 * n)
        for j in range(k):
            a[j, col] = mpmath.cos(j * theta)
        if kind == "chebyshev_normalized":
            a[0, col] /= mpmath.sqrt(2)
    s = mpmath.svd_r(a, compute_uv=False)
    sv = [s[i] for i in range(k)]
    sum_sq = mpmath.fsum(x**2 for x in sv)
    sum_inv_sq = mpmath.fsum(1 / x**2 for x in sv)
    return float(max(sv) / min(sv)), float(mpmath.sqrt(sum_sq * sum_inv_sq))


class TestCondOracle:
    """LAPACK singular values against a 60-digit mpmath SVD of the same
    float64 matrices, all with cond < 1e13.  The relative accuracy of s_min
    is about eps * cond, so 1e-6 agreement is asked where cond < 1e11
    (k <= 27 here) and 1e-5 at k = 30 (cond 8.2e11)."""

    @pytest.mark.parametrize("kind", ["monomial", "chebyshev"])
    @pytest.mark.parametrize("points", [8, 16, 24, 30, 33])
    def test_matches_mpmath(self, kind, points):
        mpmath = pytest.importorskip("mpmath")
        stack = _grid_submatrices(kind, points)
        spectral, frobenius = cond(stack, "spectral"), cond(stack, "frobenius")
        with mpmath.workdps(60):
            oracle = [_mpmath_conds(a, mpmath) for a in stack]
        for got_s, got_f, (want_s, want_f) in zip(spectral, frobenius, oracle):
            assert want_s < 1e13
            rtol = 1e-6 if want_s < 1e11 else 1e-5
            assert got_s == pytest.approx(want_s, rel=rtol)
            assert got_f == pytest.approx(want_f, rel=rtol)

    @pytest.mark.parametrize("kind", ["chebyshev", "chebyshev_normalized"])
    @pytest.mark.parametrize(
        "n", [16, 30, pytest.param(60, marks=pytest.mark.slow)]
    )
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_complement_path_matches_mpmath(self, kind, n, s):
        """The complement path of subset_cond_stats (Chebyshev kinds on
        their own grid) against a 60-digit SVD of the exact generator, for
        the worst subset and one sampled subset: within 2 eps * cond (0.4
        measured; the direct SVD of the float64 generator is off by up to
        5.3 eps * cond on the same subsets)."""
        mpmath = pytest.importorskip("mpmath")
        k, grid = n - s, cheb_grid(n).points
        oracle = {}
        for col, norm in enumerate(("spectral", "frobenius")):
            for stats in (
                subset_cond_stats(kind, k, grid, norm),
                subset_cond_stats(kind, k, grid, norm, 1, Rng(n + s)),
            ):
                subset = stats.worst_subset
                if subset not in oracle:
                    with mpmath.workdps(60):
                        oracle[subset] = _mpmath_exact_conds(kind, n, subset, mpmath)
                spectral, want = oracle[subset][0], oracle[subset][col]
                assert abs(stats.worst - want) <= 2 * np.finfo(np.float64).eps * spectral * want

    def test_monomial_p30_is_not_saturated(self):
        # the first k=27 submatrix of the 30-point monomial generator: a
        # Gram-matrix eigensolver reported 2.53e7; the 60-digit value is 5.9025e10
        stack = _grid_submatrices("monomial", 30)
        assert cond(stack[0], "spectral") == pytest.approx(5.9025e10, rel=1e-4)


class TestRng:
    def test_same_seed_bitwise_identical(self):
        a = gaussian_matrix(Rng(123), 8, 5)
        b = gaussian_matrix(Rng(123), 8, 5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = gaussian_matrix(Rng(1), 4, 4)
        b = gaussian_matrix(Rng(2), 4, 4)
        assert np.any(a != b)

    def test_moments(self):
        sample = Rng(5).normals(100000)
        assert abs(sample.mean()) < 0.02
        assert abs(sample.var() - 1.0) < 0.05

    def test_stream_is_stateful_and_replayable(self):
        rng = Rng(9)
        first, second = rng.normals(10), rng.normals(10)
        assert np.any(first != second)
        replay = Rng(9)
        assert np.array_equal(replay.normals(10), first)
        assert np.array_equal(replay.normals(10), second)

    def test_uniform_range(self):
        u = Rng(3).uniforms(10000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            gaussian_matrix(Rng(0), 0, 3)
