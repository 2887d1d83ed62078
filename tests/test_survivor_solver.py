"""The survivor solver: the erased-column kernel of the Chebyshev kinds on
their own grid against the blocked LU it replaces, and the cases that keep
the LU."""

import math
import re
from itertools import combinations

import numpy as np
import pytest

from chebcoded import cheb_vandermonde, lagrange_codes, linalg, matmul_codes, sim_harness
from chebcoded.cheb_vandermonde import SurvivorSolver, build_generator, sample_column_subsets
from chebcoded.linalg import Rng, SingularMatrixError, gaussian_matrix
from chebcoded.poly_basis import cheb_grid

EPS = np.finfo(np.float64).eps


def _matmul_case(family, workers, **splits):
    config = matmul_codes.scheme_config(family, workers, **splits)
    op = matmul_codes.decode_operator(config)
    return op.generator, op.kind, config.points, op.recovery


def _lagrange_case(m, workers, basis="chebyshev"):
    config = lagrange_codes.LagrangeConfig(m=m, workers=workers, dim=3, deg_f=1)
    rng = Rng(workers)
    data = gaussian_matrix(rng, m, 3)
    f = lagrange_codes.linear_map(rng.normals(3))
    outs = lagrange_codes.worker_outputs(config, f, lagrange_codes.lagrange_encode(config, data))
    return lagrange_codes.decode_generator(config, basis), basis, config.points, outs


# name -> (generator, kind, points, rhs), all with k <= 40 and s = 2 or 3:
# the matmul cases solve G_R W = recovery, the Lagrange one G_R^T v = outputs_R
CASES = {
    "orthomatdot": lambda: _matmul_case("orthomatdot", 40, m=19),  # k = 37
    "orthopoly": lambda: _matmul_case("orthopoly", 39, m=6, n=6),  # k = 36, q = 36
    "gen_orthomatdot": lambda: _matmul_case("gen_orthomatdot", 18, m1=2, m2=2, m3=2),  # k = 15
    "lagrange_chebyshev": lambda: _lagrange_case(38, 40),  # K = 38
}


def _subsets(n, k, samples):
    """Both end blocks of erasures, then ``samples`` sampled survivor sets,
    0-based."""
    subsets = [tuple(range(1, k + 1)), tuple(range(n - k + 1, n + 1))]
    return np.array(subsets + sample_column_subsets(n, k, samples, Rng(n))) - 1


def _systems(name, sel):
    """The case's solver, its LU twin, and per lane the system matrix A
    (G_R, or G_R^T for the fold), the right-hand side and the method name."""
    generator, kind, points, rhs = CASES[name]()
    solver, lu = SurvivorSolver(generator, kind, points), SurvivorSolver(generator)
    assert solver.q is not None and lu.q is None
    g_r = generator.T[sel].transpose(0, 2, 1)
    if name.startswith("lagrange"):
        return solver, lu, g_r.transpose(0, 2, 1), rhs[sel], "fold"
    return solver, lu, g_r, np.broadcast_to(rhs, (len(sel),) + rhs.shape), "weights"


def _solve(solver, method, sel, rhs):
    return getattr(solver, method)(sel, rhs if method == "fold" else rhs[0])


def _backward_errors(a, x, rhs):
    """Normwise backward error ||rhs - A x|| / ((||A|| ||x|| + ||rhs||) k eps)
    per lane, the residual taken in extended precision."""
    wide = np.longdouble
    resid = rhs.astype(wide) - np.matmul(a.astype(wide), x.astype(wide))
    resid = np.sqrt(np.sum(np.square(resid), axis=(1, 2))).astype(np.float64)
    norms = np.linalg.norm(a, 2, axis=(1, 2))
    scale = norms * np.linalg.norm(x, axis=(1, 2)) + np.linalg.norm(rhs, axis=(1, 2))
    return resid / (scale * a.shape[1] * EPS)


@pytest.mark.parametrize("name", list(CASES))
def test_backward_error_is_within_the_worst_of_the_lu(name):
    generator = CASES[name]()[0]
    sel = _subsets(generator.shape[1], generator.shape[0], 200)
    solver, lu, a, rhs, method = _systems(name, sel)
    kernel = _backward_errors(a, _solve(solver, method, sel, rhs), rhs)
    blocked = _backward_errors(a, _solve(lu, method, sel, rhs), rhs)
    assert np.isfinite(kernel).all()
    assert kernel.max() <= blocked.max()


@pytest.mark.parametrize("workers, samples", [(20, None), (40, 200)])
def test_monomial_fold_is_backward_stable(workers, samples):
    """The monomial Lagrange fold factors G_R^T itself, over all 190
    survivor sets at P = 20 and sampled ones at P = 40.  The largest
    measured backward error is 0.023 k eps at P = 20 and 0.026 at P = 40."""
    k = workers - 2
    if samples is None:
        sel = np.array(list(combinations(range(workers), k)))
    else:
        sel = _subsets(workers, k, samples)
    generator, kind, points, outs = _lagrange_case(k, workers, "monomial")
    solver = SurvivorSolver(generator, kind, points)
    assert solver.q is None
    folded = solver.fold(sel, outs[sel])
    finite = np.isfinite(folded).all(axis=(1, 2))
    assert finite.any()
    errors = _backward_errors(generator.T[sel][finite], folded[finite], outs[sel][finite])
    assert errors.max() <= 0.25


@pytest.mark.parametrize("name", list(CASES))
def test_forward_error_against_mpmath_is_within_four_times_the_lu(name):
    """Both end blocks and two sampled subsets against a 32-digit solve of
    the same float64 system; the measured worst ratio is 3.2 (orthopoly,
    survivors 1..36)."""
    mpmath = pytest.importorskip("mpmath")
    generator = CASES[name]()[0]
    sel = _subsets(generator.shape[1], generator.shape[0], 2)
    solver, lu, a, rhs, method = _systems(name, sel)
    kernel, blocked = _solve(solver, method, sel, rhs), _solve(lu, method, sel, rhs)
    for lane in range(len(sel)):
        with mpmath.workdps(32):
            exact = mpmath.inverse(mpmath.matrix(a[lane].tolist())) * mpmath.matrix(
                rhs[lane].tolist()
            )
            exact = np.array(exact.tolist(), dtype=np.float64)

        def error(x):
            return np.linalg.norm(x[lane] - exact) / np.linalg.norm(exact)

        assert error(kernel) <= 4 * error(blocked), sel[lane]


@pytest.mark.parametrize("name", list(CASES))
def test_a_lane_solved_alone_equals_its_stack_lane_in_both_directions(name):
    generator, kind, points, _ = CASES[name]()
    k, n = generator.shape
    sel = _subsets(n, k, 6)
    solver = SurvivorSolver(generator, kind, points)
    rng = Rng(k)
    shared = gaussian_matrix(rng, k, 2)
    per_lane = gaussian_matrix(rng, len(sel) * k, 2).reshape(len(sel), k, 2)
    weights, folded = solver.weights(sel, shared), solver.fold(sel, per_lane)
    conds = {norm: solver.conds(sel, norm) for norm in ("spectral", "frobenius")}
    assert weights.shape == folded.shape == (len(sel), k, 2)
    assert all(np.isfinite(c).all() and c.shape == (len(sel),) for c in conds.values())
    for lane in range(len(sel)):
        assert np.array_equal(solver.weights(sel[lane], shared), weights[lane])
        assert np.array_equal(solver.fold(sel[lane], per_lane[lane]), folded[lane])
        one = slice(lane, lane + 1)
        assert np.array_equal(solver.weights(sel[one], shared), weights[one])
        assert np.array_equal(solver.fold(sel[one], per_lane[one]), folded[one])
        for norm, stacked in conds.items():
            assert np.array_equal(solver.conds(sel[one], norm), stacked[one])
    assert np.array_equal(solver.weights(sel[2:5], shared), weights[2:5])
    assert np.array_equal(solver.fold(sel[2:5], per_lane[2:5]), folded[2:5])
    for norm, stacked in conds.items():
        assert np.array_equal(solver.conds(sel[2:5], norm), stacked[2:5])


class TestSingularErasedColumns:
    """Survivors 1..21 of 40 grid points leave a numerically singular Q22
    (cond 2.7e16): 19 erased columns at one end of the grid."""

    def test_a_singular_lane_reads_nan_in_a_stack(self):
        generator, kind, points, _ = _lagrange_case(21, 40)
        solver = SurvivorSolver(generator, kind, points)
        sel = _subsets(40, 21, 4)[[0, 2, 3, 4, 5]]  # the singular end block first
        for x in (solver.weights(sel, np.ones((21, 1))), solver.fold(sel, np.ones((5, 21, 1)))):
            assert np.isnan(x[0]).all()
            assert np.isfinite(x[1:]).all()

    def test_decoders_raise_and_the_replay_reads_inf(self):
        survivors = tuple(range(1, 22))
        named = re.escape(f"singular decode for survivors {list(survivors)}")
        config = lagrange_codes.LagrangeConfig(m=21, workers=40, dim=3, deg_f=1)
        rng = Rng(21)
        data, f = gaussian_matrix(rng, 21, 3), lagrange_codes.linear_map(rng.normals(3))
        encoded = lagrange_codes.lagrange_encode(config, data)
        outs = lagrange_codes.worker_outputs(config, f, encoded)
        assert lagrange_codes.decode_solver(config, "chebyshev").q is not None
        with pytest.raises(SingularMatrixError, match=named):
            lagrange_codes.lagrange_decode(config, f, survivors, outs[:21])
        fixed = sim_harness.FaultModel(mode="fixed", subset=survivors)
        assert sim_harness.run_lagrange_trial(config, f, data, fixed).worst == math.inf

        config = matmul_codes.scheme_config("orthomatdot", 40, m=11)  # k = 21
        a, b = gaussian_matrix(rng, 6, 22), gaussian_matrix(rng, 22, 6)
        outputs = [matmul_codes.worker_compute(s) for s in matmul_codes.encode(config, a, b)]
        with pytest.raises(SingularMatrixError, match=named):
            matmul_codes.decode(config, survivors, outputs[:21])
        assert sim_harness.run_trial(config, a, b, fixed).worst == math.inf


def test_a_singular_lu_decode_raises_naming_the_survivors_and_its_replay_reads_inf():
    """The blocked LU path: matdot at P = 80 with workers 1-3 erased
    (k = 77), and the monomial Lagrange fold at P = 60 with the two coded
    workers erased, fail the pivot test of their own k x k solve."""
    config = matmul_codes.scheme_config("matdot", 80, m=39)
    assert matmul_codes.decode_operator(config).solver.q is None
    rng = Rng(80)
    a, b = gaussian_matrix(rng, 2, 39), gaussian_matrix(rng, 39, 2)
    outputs = [matmul_codes.worker_compute(s) for s in matmul_codes.encode(config, a, b)]
    survivors = tuple(range(4, 81))
    named = re.escape(f"singular decode for survivors {list(survivors)}")
    with pytest.raises(SingularMatrixError, match=named):
        matmul_codes.decode(config, survivors, outputs[3:])
    fixed = sim_harness.FaultModel(mode="fixed", subset=survivors)
    assert sim_harness.run_trial(config, a, b, fixed).worst == math.inf

    config = lagrange_codes.LagrangeConfig(m=58, workers=60, dim=3, deg_f=1)
    data, f = gaussian_matrix(rng, 58, 3), lagrange_codes.linear_map(rng.normals(3))
    outs = lagrange_codes.worker_outputs(config, f, lagrange_codes.lagrange_encode(config, data))
    survivors = tuple(range(1, 59))
    named = re.escape(f"singular decode for survivors {list(survivors)}")
    assert lagrange_codes.decode_solver(config, "monomial").q is None
    with pytest.raises(SingularMatrixError, match=named):
        lagrange_codes.lagrange_decode(config, f, survivors, outs[:58], "monomial")
    fixed = sim_harness.FaultModel(mode="fixed", subset=survivors)
    assert sim_harness.run_lagrange_trial(config, f, data, fixed, "monomial").worst == math.inf


def test_no_erased_column_needs_no_solve(monkeypatch):
    n = 9
    generator = build_generator("chebyshev_normalized", n, cheb_grid(n).points)
    solver = SurvivorSolver(generator, "chebyshev_normalized", cheb_grid(n).points)
    monkeypatch.setattr(cheb_vandermonde, "solve", None)  # s = 0: Q11 = Q, no solve
    sel = np.arange(n)
    rhs = gaussian_matrix(Rng(9), n, 2)
    assert np.allclose(generator @ solver.weights(sel, rhs), rhs, rtol=0, atol=1e-14)
    assert np.allclose(generator.T @ solver.fold(sel, rhs), rhs, rtol=0, atol=1e-14)
    assert np.array_equal(solver.weights(sel[None], rhs)[0], solver.weights(sel, rhs))

    config = matmul_codes.scheme_config("orthomatdot", n, m=5)  # threshold 9 = P
    rng = Rng(10)
    a, b = gaussian_matrix(rng, 8, 10), gaussian_matrix(rng, 10, 8)
    outputs = [matmul_codes.worker_compute(s) for s in matmul_codes.encode(config, a, b)]
    decoded = matmul_codes.decode(config, range(1, n + 1), outputs)
    assert sim_harness.relative_error(a @ b, decoded) < 1e-14


# (kind, n, k, points) of the generators that keep the gathered G_R
OTHER_GENERATORS = [
    ("monomial", 12, 9, None),  # on the grid, but no orthogonal form
    ("chebyshev", 12, 9, np.linspace(-0.9, 0.9, 12)),  # custom points
    ("chebyshev_normalized", 12, 6, None),  # s = 6 >= k = 6
    ("chebyshev", 12, 5, None),  # s = 7 > k = 5
]


@pytest.mark.parametrize("kind, n, k, points", OTHER_GENERATORS)
def test_other_generators_call_the_k_by_k_solve(monkeypatch, kind, n, k, points):
    points = cheb_grid(n).points if points is None else points
    generator = build_generator(kind, k, points)
    solver = SurvivorSolver(generator, kind, points)
    assert solver.q is None
    sizes = []

    def recording_solve(a, rhs):
        sizes.append(np.shape(a)[-2:])
        return linalg.solve(a, rhs)

    monkeypatch.setattr(cheb_vandermonde, "solve", recording_solve)
    sel = _subsets(n, k, 5)
    rhs = gaussian_matrix(Rng(n), k, 2)
    stack = generator.T[sel].transpose(0, 2, 1)
    lanes = np.broadcast_to(rhs, (len(sel), k, 2))
    assert np.array_equal(solver.weights(sel, rhs), linalg.solve(stack, lanes))
    assert np.array_equal(solver.fold(sel, lanes), linalg.solve(generator.T[sel], lanes))
    assert np.array_equal(solver.weights(sel[0], rhs), linalg.solve(stack[0], rhs))
    for norm in ("spectral", "frobenius"):  # one batched SVD, no solve
        assert np.array_equal(solver.conds(sel, norm), linalg.cond(stack, norm))
    assert sizes == [(k, k)] * 3


def test_the_chebyshev_grid_calls_only_the_erased_column_solve(monkeypatch):
    n, k = 12, 9
    points = cheb_grid(n).points
    solver = SurvivorSolver(build_generator("chebyshev", k, points), "chebyshev", points)
    sizes, gathers = [], []

    def recording_solve(a, rhs):
        sizes.append(np.shape(a)[-2:])
        return linalg.solve(a, rhs)

    real_erased = SurvivorSolver._erased

    def recording_erased(self, rows):
        gathers.append(len(rows))
        return real_erased(self, rows)

    monkeypatch.setattr(cheb_vandermonde, "solve", recording_solve)
    monkeypatch.setattr(SurvivorSolver, "_erased", recording_erased)
    monkeypatch.setattr(cheb_vandermonde, "cond", None)  # no SVD either
    sel = _subsets(n, k, 5)
    solver.weights(sel, np.ones((k, 1)))
    solver.fold(sel, np.ones((len(sel), k, 1)))
    assert sizes == [(3, 3)] * 4  # one solve and one refinement solve per direction
    solver.conds(sel, "spectral")
    solver.conds(sel, "frobenius")
    assert sizes == [(3, 3)] * 6  # and one solve per condition sweep
    assert gathers == [len(sel)] * 4  # each call gathers its erased columns once


@pytest.mark.parametrize(
    "kind, n, k, points, kernel",
    [
        ("chebyshev", 12, 9, None, True),
        ("chebyshev_normalized", 12, 9, None, True),
        ("chebyshev", 7, 7, None, True),  # s = 0
        ("chebyshev", 1, 1, None, True),  # s = 0, k = 1: D is a scalar
        ("chebyshev", 8, 4, None, False),  # s = k
        ("chebyshev_normalized", 9, 3, None, False),  # s > k
        ("chebyshev", 12, 9, cheb_grid(12).points * 0.999, False),  # not the grid
        *[case + (False,) for case in OTHER_GENERATORS],
    ],
)
def test_the_sweep_takes_the_kernel_exactly_when_the_solver_does(
    monkeypatch, kind, n, k, points, kernel
):
    """The one decision: subset_cond_stats conditions from the erased
    columns exactly when the survivor solver of its generator solves from
    them, and by the SVD of the gathered G_R otherwise."""
    points = cheb_grid(n).points if points is None else points
    assert (SurvivorSolver(build_generator(kind, k, points), kind, points).q is not None) == kernel
    paths = []
    real_kernel, real_cond = cheb_vandermonde._complement_conds, cheb_vandermonde.cond
    monkeypatch.setattr(
        cheb_vandermonde, "_complement_conds", lambda *a: paths.append("kernel") or real_kernel(*a)
    )
    monkeypatch.setattr(cheb_vandermonde, "cond", lambda *a: paths.append("svd") or real_cond(*a))
    cheb_vandermonde.subset_cond_stats(kind, k, points, "frobenius")
    assert paths and set(paths) == {"kernel" if kernel else "svd"}
