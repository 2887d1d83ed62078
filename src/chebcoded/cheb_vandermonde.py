"""Generator matrices for polynomial codes and their conditioning.

The evaluation-point rule both code families share; builders for the
monomial Vandermonde, the Chebyshev-Vandermonde matrix (rows
T_0..T_{k-1} at a point vector) and its normalized variant (first row
divided by sqrt(2)); the one survivor-subset pipeline of the
condition sweep and the error replay (subsets as index arrays,
exhaustive or sampled, gathered a chunk at a time and reduced to a
worst/average pair); one object, :class:`SurvivorSolver`, for both the
decoders' solves against square survivor submatrices and their condition
numbers, which picks once between the erased columns alone (the
Chebyshev kinds on their own grid) and the gathered submatrix (blocked
LU, batched SVD); and the two conditioning bounds checked empirically in
the experiments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import Rng, cond, gaussian_matrix, solve
from .poly_basis import cheb_grid, chebyshev_values

__all__ = [
    "GENERATOR_KINDS",
    "EXHAUSTIVE_SUBSET_LIMIT",
    "BudgetExceededError",
    "check_integer",
    "check_survivors",
    "evaluation_points",
    "build_generator",
    "iter_column_subsets",
    "subset_index",
    "sample_column_subsets",
    "survivor_chunks",
    "SubsetStats",
    "subset_stats",
    "subset_cond_stats",
    "SurvivorSolver",
    "theorem_bound_value",
    "gaussian_bound_trial",
]

GENERATOR_KINDS = ("chebyshev", "monomial", "chebyshev_normalized")

# Exhaustive sweeps above this many subsets must switch to sampling.
EXHAUSTIVE_SUBSET_LIMIT = 10**6

# Enumerating all m-column Gaussian submatrices gets pointless beyond this.
_GAUSSIAN_SUBSET_LIMIT = 10**5

# Survivor submatrices, or their erased columns, are gathered and
# conditioned in stacks of at most this many bytes.
COND_CHUNK_BYTES = 1 << 24


class BudgetExceededError(ValueError):
    """Exhaustive enumeration would exceed the subset budget; sample instead."""


def check_integer(value, what: str) -> int:
    """``value`` as an int.  Bools, strings and non-integral numbers (10.9,
    but not 10.0) are a ValueError naming ``what``, not converted."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return number


def check_survivors(survivors, size: int, workers: int) -> tuple[int, ...]:
    """Sorted survivor set: exactly ``size`` distinct integer indices in [1, workers]."""
    surv = tuple(sorted(check_integer(s, "survivor index") for s in survivors))
    if len(surv) != size:
        raise ValueError(f"decoder needs exactly {size} survivors, got {len(surv)}")
    if len(set(surv)) != size:
        raise ValueError(f"survivor indices must be distinct, got {surv}")
    if surv and (surv[0] < 1 or surv[-1] > workers):
        raise ValueError(f"survivor indices {surv} out of range [1, {workers}]")
    return surv


def evaluation_points(workers: int, points=None) -> np.ndarray:
    """A code's read-only evaluation points: ``points`` as a flat float64
    copy, one distinct point in [-1, 1] per worker, or cheb_grid(workers)
    if None."""
    if points is None:
        pts = cheb_grid(workers).points.copy()
    else:
        pts = np.array(points, dtype=np.float64).ravel()
    if pts.size != workers:
        raise ValueError(f"need {workers} evaluation points, got {pts.size}")
    outside = pts[~(np.abs(pts) <= 1.0)]  # NaN fails the comparison too
    if outside.size:
        raise ValueError(f"evaluation points must lie in [-1, 1], got {float(outside[0])!r}")
    if np.unique(pts).size != pts.size:
        raise ValueError("evaluation points must be pairwise distinct")
    pts.setflags(write=False)
    return pts


def build_generator(kind: str, k: int, points) -> np.ndarray:
    """k x len(points) generator with rows indexed by basis degree 0..k-1.

    monomial -> x^i; chebyshev -> T_i(x); chebyshev_normalized -> T_i(x)
    with row 0 divided by sqrt(2).
    """
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}, expected one of {GENERATOR_KINDS}")
    if k < 1:
        raise ValueError(f"row count must be positive, got {k}")
    pts = np.asarray(points, dtype=np.float64).ravel()
    if np.unique(pts).size != pts.size:
        raise ValueError("evaluation points must be pairwise distinct")
    if kind == "monomial":
        g = np.vander(pts, N=k, increasing=True).T.copy()
    else:
        g = chebyshev_values(np.arange(k), pts)
        if kind == "chebyshev_normalized":
            g[0] /= math.sqrt(2.0)
    return g


def iter_column_subsets(n: int, size: int):
    """All 1-based size-``size`` subsets of [1, n] in lexicographic order;
    more than ``EXHAUSTIVE_SUBSET_LIMIT`` of them is a
    :class:`BudgetExceededError`."""
    total = math.comb(n, size)
    if total > EXHAUSTIVE_SUBSET_LIMIT:
        raise BudgetExceededError(
            f"{total} survivor subsets exceed the exhaustive budget {EXHAUSTIVE_SUBSET_LIMIT}"
        )
    return itertools.combinations(range(1, n + 1), size)


# Subsets are handled as 0-based index arrays, one subset per row, holding
# either the survivors or the erased columns: the row width says which,
# the survivors when the two sides are the same size.  :func:`subset_index`
# keeps the smaller side; row order is always that of the survivor subsets.


def _index_side(idx: np.ndarray, n: int, size: int) -> np.ndarray:
    """Each row of an index array over range(n) as its sorted side of
    ``size`` columns: the row itself if it has ``size`` columns, else its
    complement.  ``size`` k gives the survivors, n - k the erased columns."""
    if idx.shape[1] == size:
        return idx
    keep = np.ones((len(idx), n), dtype=bool)
    keep[np.arange(len(idx))[:, None], idx] = False
    return np.nonzero(keep)[1].reshape(len(idx), size)


def _partial_shuffle(n: int, us: np.ndarray) -> np.ndarray:
    """One partial Fisher-Yates shuffle of range(n) per row of uniforms
    ``us``: step j swaps entry j with entry j + floor(u_j * (n - j)).
    Returns the first ``us.shape[1]`` entries of each row, sorted."""
    count, draw = us.shape
    arr = np.tile(np.arange(n, dtype=np.int64), (count, 1))
    rows = np.arange(count)
    for j in range(draw):
        swap = j + np.minimum((us[:, j] * (n - j)).astype(np.int64), n - j - 1)
        arr[rows, j], arr[rows, swap] = arr[rows, swap], arr[rows, j]
    return np.sort(arr[:, :draw], axis=1)


def subset_index(n: int, size: int, samples: int | None = None, rng: Rng | None = None):
    """The size-``size`` subsets of range(n) as a smaller-side index array:
    every one (``samples`` None), survivors in lexicographic order within
    the budget of :func:`iter_column_subsets`, or ``samples`` distinct ones
    in draw order from ``rng`` (every one, lexicographic, if ``samples``
    covers them all).

    The erasure sets of lexicographic survivor sets run in reverse
    lexicographic order, so the erasure side is enumerated forwards and
    flipped.  A sampled attempt is a partial Fisher-Yates shuffle that
    picks the smaller side from ``min(size, n - size)`` uniforms; a
    repeated subset is skipped.  Attempts are drawn a round at a time, each
    round exactly the number still missing: one attempt adds at most one
    new subset, so no round draws a value that one attempt at a time would
    not, and ``rng`` ends where it would."""
    if not 0 <= size <= n:
        raise ValueError(f"subset size {size} out of range [0, {n}]")
    if samples is not None and samples < 1:
        raise ValueError(f"sampling needs samples >= 1, got {samples}")
    if samples is not None and rng is None:
        raise ValueError("sampling needs an rng")
    side = min(size, n - size)
    if samples is None or samples >= math.comb(n, size):
        total = math.comb(n, side)
        flat = itertools.chain.from_iterable(iter_column_subsets(n, side))
        idx = np.fromiter(flat, dtype=np.int64, count=total * side).reshape(total, side) - 1
        return idx if side == size else idx[::-1]
    picked: dict[tuple[int, ...], None] = {}  # insertion-ordered set
    while len(picked) < samples:
        need = samples - len(picked)
        attempts = _partial_shuffle(n, rng.uniforms(need * side).reshape(need, side))
        picked.update(dict.fromkeys(map(tuple, attempts.tolist())))
    return np.array(list(picked), dtype=np.int64).reshape(samples, side)


def sample_column_subsets(n: int, size: int, count: int, rng: Rng) -> list[tuple[int, ...]]:
    """``count`` distinct 1-based survivor subsets, drawn as by
    :func:`subset_index`: a given seed always yields the same subsets in
    the same order."""
    idx = _index_side(subset_index(n, size, count, rng), n, size) + 1
    return list(map(tuple, idx.tolist()))


def survivor_chunks(idx: np.ndarray, cost: int, budget: int):
    """The rows of the index array ``idx``, unconverted and in row order,
    in chunks of at most ``budget // cost`` rows (at least one), ``cost``
    being what one subset's gathered working set takes of ``budget``.  The
    one chunker of the condition sweep (:meth:`SurvivorSolver.conds`) and
    of the error replays, which convert each chunk to its survivors."""
    step = max(1, budget // max(1, cost))
    for start in range(0, len(idx), step):
        yield idx[start : start + step]


@dataclass(frozen=True)
class SubsetStats:
    """Worst and mean of a per-subset value, and the first subset reaching
    the worst as 1-based survivors."""

    worst: float
    average: float
    worst_subset: tuple[int, ...]


def subset_stats(values: np.ndarray, idx: np.ndarray, n: int, size: int) -> SubsetStats:
    """The one worst/average reduction of per-subset ``values``, one per row
    of ``idx``.  The infinity sentinel of a singular subset dominates the
    worst case.  The mean is accumulated in row order, one uncompensated
    float addition at a time (``np.add.accumulate``, not the pairwise
    ``np.sum``), so it does not depend on how the rows were chunked."""
    worst_at = int(np.argmax(values))
    total = float(np.add.accumulate(values)[-1])
    worst = _index_side(idx[worst_at : worst_at + 1], n, size)[0] + 1
    return SubsetStats(float(values[worst_at]), total / len(values), tuple(worst.tolist()))


def _grid_orthogonal(n: int) -> np.ndarray:
    """The orthogonal Q = build_generator("chebyshev_normalized", n,
    cheb_grid(n).points) / sqrt(n/2), from the exact angles: T_j at grid
    point i is cos(j (2i-1) pi / (2n)), with j (2i-1) reduced mod 4n in
    integers.  Each entry is then rounded once, and Q Q^T = I holds 4-16
    times more closely (n up to 182) than when T_j is evaluated at the
    rounded points; the complement identities rest on it."""
    j = np.arange(n)[:, None]
    q = np.cos(np.pi * (j * (2 * np.arange(1, n + 1) - 1) % (4 * n)) / (2 * n))
    q *= math.sqrt(2.0 / n)
    q[0] /= math.sqrt(2.0)
    return q


def _complement_conds(cols: np.ndarray, d0: float, norm: str) -> np.ndarray:
    """Condition numbers of A = D Q[:k, R], D = diag(d0, 1, ..., 1), for an
    orthogonal n x n Q and survivors R, from the erased columns alone
    instead of a k x k SVD: one lane per (s, n) layer of ``cols``, the s
    erased columns of Q gathered as rows, [lane, j, i] = Q[i, R^c[j]].

    With Q12 = Q[:k, R^c], Q22 = Q[k:, R^c] and Z = Q12 Q22^-1, the CS
    decomposition (Paige & Wei 1994) gives

        A A^T      = D^2 - (D Q12)(D Q12)^T
        (A A^T)^-1 = D^-2 + (D^-1 Z)(D^-1 Z)^T

    and both are the identity off span{e0, Q12}, of dimension at most
    s + 1.  Q12 is written in an orthonormal basis of that span with e0
    first (e0, then a QR of Q[1:k, R^c]), where D is diag(d0, 1, ..., 1)
    again.  The largest eigenvalues of the two (s+1) x (s+1) compressions,
    and 1 when k > s + 1, are s_max^2 and s_min^-2; their traces give the
    Frobenius norms.  As in :func:`chebcoded.linalg.cond`, a lane is
    singular (inf) when s_max / s_min >= 1 / (k eps), or when the solve
    with Q22 fails or overflows.  Every lane is computed on its own, so
    results do not depend on the stack size.
    """
    count, s, n = cols.shape
    k = n - s
    d = np.ones(s + 1)
    d[0] = d0
    r1 = np.zeros((count, s + 1, s))  # Q12 in the basis (e0, ...)
    v = r1
    if s:
        r1[:, 0] = cols[:, :, 0]
        r1[:, 1:] = np.linalg.qr(cols[:, :, 1:k].transpose(0, 2, 1), mode="r")
        # V = D^-1 R1 Q22^-1 from Q22^T V^T = (D^-1 R1)^T; cols[:, :, k:] is Q22^T
        v = solve(cols[:, :, k:], (r1 / d[:, None]).transpose(0, 2, 1)).transpose(0, 2, 1)
    m = r1 * d[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # failed lanes, set aside below
        inv_gram = np.diag(1.0 / (d * d)) + v @ v.transpose(0, 2, 1)
        failed = ~np.isfinite(inv_gram).all(axis=(1, 2))
        inv_gram[failed] = 0.0
        big = np.linalg.eigvalsh(np.diag(d * d) - m @ m.transpose(0, 2, 1))[:, -1]
        inv_small = np.linalg.eigvalsh(inv_gram)[:, -1]
        if k > s + 1:
            big, inv_small = np.maximum(big, 1.0), np.maximum(inv_small, 1.0)
        spectral = np.sqrt(big * inv_small)
        if norm == "spectral":
            value = spectral
        else:
            fro_sq = k - 1 + d0 * d0 - np.sum(m * m, axis=(1, 2))
            inv_fro_sq = k - 1 + 1.0 / (d0 * d0) + np.sum(v * v, axis=(1, 2))
            value = np.sqrt(fro_sq * inv_fro_sq)
    singular = failed | ~(spectral < 1.0 / (k * np.finfo(np.float64).eps))
    return np.where(singular, np.inf, value)


def _solve_lanes(a, rhs, single: bool) -> np.ndarray:
    """:func:`chebcoded.linalg.solve` of a stack, or of its one lane alone
    (raising SingularMatrixError) when ``single``."""
    if single:
        return solve(a[0], rhs[0])[None]
    return solve(a, rhs)


class SurvivorSolver:
    """Solves with, and conditions, the square survivor submatrices
    G_R = G[:, R] of a k x n generator G: :meth:`weights` gives W with
    G_R W = rhs (the fusion weights of a matmul decode), :meth:`fold` gives
    v with G_R^T v = rhs (the folded Lagrange fusion), and :meth:`conds`
    the condition numbers of G_R (the condition sweep).

    ``sel`` holds the sorted 0-based survivors R: (k,) for one solve, which
    raises SingularMatrixError when singular, or (count, k) for a stack,
    whose singular lanes read NaN.  Every lane is solved on its own, with
    products of one shape whatever the stack holds, so a lane solved alone
    gives the same bits as inside a stack.

    The constructor alone picks the path, once.  A generator of a
    Chebyshev kind on its own grid with s = n - k < k (``kind`` and
    ``points`` as given to :func:`build_generator`) is G = c D Q[:k],
    c = sqrt(n/2), D = diag(d0, 1, ..., 1), with the orthogonal Q of
    :func:`_grid_orthogonal`, held in ``q``.  From Q Q^T = Q^T Q = I, with
    Q11 = Q[:k, R], Q12 = Q[:k, R^c], Q21 = Q[k:, R] and Q22 = Q[k:, R^c],

        Q11^-1 = Q11^T - Q21^T Q22^-T Q12^T,

    so a lane takes one s x s solve with its erased columns Q22 and a few
    products of size n x k instead of a k x k LU, and is singular when
    that solve is.  One refinement step follows: the residual against the
    true G_R (not its Q form) is corrected through the same map.  The
    condition numbers come from the same erased columns
    (:func:`_complement_conds`).  Each call gathers its lanes' erased
    columns of Q once, and its solves, refinement and condition numbers
    all read that one gather.  Every other generator (monomial, custom
    points, s >= k, or no ``kind``), with ``q`` None, takes the blocked LU
    of :func:`chebcoded.linalg.solve` on the gathered G_R, or on the
    gathered G_R^T for the fold, and one batched SVD of the gathered G_R
    for the condition numbers.
    """

    def __init__(self, generator: np.ndarray, kind: str | None = None, points=None):
        self.generator = generator
        k, n = generator.shape
        self.q = None  # the orthogonal Q of the erased-column kernel; None for the gathered G_R
        self._d0 = 1.0
        if kind in ("chebyshev", "chebyshev_normalized") and n - k < k:
            if np.array_equal(np.asarray(points, dtype=np.float64).ravel(), cheb_grid(n).points):
                self.q = _grid_orthogonal(n)
                self._d0 = math.sqrt(2.0) if kind == "chebyshev" else 1.0
        self._scale = np.full((k, 1), math.sqrt(n / 2.0))  # c D, as a column
        self._scale[0] *= self._d0

    def weights(self, sel, rhs) -> np.ndarray:
        """W with G_R W = ``rhs``, one (k, q) right-hand side for every lane."""
        sel = np.asarray(sel)
        if self.q is None:
            rhs_lanes = np.broadcast_to(rhs, sel.shape[:-1] + rhs.shape)
            # [..., i, j] = generator[i, sel[..., j]], passed as a temporary
            # so that solve can free it once copied
            return solve(self.generator.T[sel].swapaxes(-1, -2), rhs_lanes)
        single, sel = sel.ndim == 1, np.atleast_2d(sel)
        lanes, erased, cols = self._erased(sel)
        qk = self.q[: sel.shape[1]].T
        z = qk @ (rhs / self._scale)  # Q[:k]^T D^-1 rhs / c, once for every lane
        with np.errstate(all="ignore"):  # singular or overflowing lanes carry NaN or inf
            w = self._inverse(np.broadcast_to(z, (len(sel),) + z.shape), sel, erased, cols, single)
            scattered = np.zeros((len(sel),) + z.shape)
            scattered[lanes, sel] = w
            resid = rhs - np.matmul(self.generator, scattered)  # G_R W, zeros off R
            w += self._inverse(np.matmul(qk, resid / self._scale), sel, erased, cols, single)
        return w[0] if single else w

    def fold(self, sel, rhs) -> np.ndarray:
        """v with G_R^T v = ``rhs``: (k, v) for one solve, (count, k, v) for a stack."""
        sel = np.asarray(sel)
        if self.q is None:
            return solve(self.generator.T[sel], rhs)  # G_R^T[..., j, i] = generator[i, sel[..., j]]
        single, sel = sel.ndim == 1, np.atleast_2d(sel)
        rhs = np.asarray(rhs, dtype=np.float64).reshape(sel.shape + (-1,))
        lanes, _, cols = self._erased(sel)
        with np.errstate(all="ignore"):  # singular or overflowing lanes carry NaN or inf
            v = self._inverse_transposed(rhs, sel, cols, single)
            resid = rhs - np.matmul(self.generator.T, v)[lanes, sel]  # G_R^T v
            v += self._inverse_transposed(resid, sel, cols, single)
        return v[0] if single else v

    def conds(self, rows, norm: str = "spectral") -> np.ndarray:
        """Condition numbers of G_R in ``norm``, the infinity sentinel when
        singular, one per row of an index array as :func:`subset_index`
        gives it (either side; the kernel's rows are its erased side).
        Rows go through :func:`survivor_chunks` at ``COND_CHUNK_BYTES``, a
        lane costing its gather: 8 n s bytes for the kernel, 8 k^2 for the
        SVD."""
        if norm not in ("spectral", "frobenius"):
            raise ValueError(f"unknown norm {norm!r}, expected 'spectral' or 'frobenius'")
        k, n = self.generator.shape
        if self.q is None:
            chunks = survivor_chunks(rows, 8 * k * k, COND_CHUNK_BYTES)
            stacks = (self.generator.T[_index_side(c, n, k)].transpose(0, 2, 1) for c in chunks)
            return np.concatenate([cond(stack, norm) for stack in stacks])
        chunks = survivor_chunks(rows, 8 * n * (n - k), COND_CHUNK_BYTES)
        gathers = (self._erased(c)[2] for c in chunks)
        return np.concatenate([_complement_conds(cols, self._d0, norm) for cols in gathers])

    def _erased(self, rows):
        """Lane numbers as a column, the sorted erased columns of each lane
        of the index array ``rows`` (either side), and their one gather from
        Q as rows: [lane, j, i] = Q[i, erased[lane, j]]."""
        n = self.q.shape[0]
        erased = _index_side(rows, n, n - self.generator.shape[0])
        return np.arange(len(rows))[:, None], erased, self.q.T[erased]

    def _inverse(self, z, sel, erased, cols, single):
        """Q11^-1 y per lane from z = Q[:k]^T y: z[R] - Q21^T u, Q22^T u = z[R^c]."""
        lanes = np.arange(len(sel))[:, None]
        w = z[lanes, sel]
        if erased.shape[1]:
            k = sel.shape[1]
            u = _solve_lanes(cols[:, :, k:], z[lanes, erased], single)  # cols[:, :, k:] is Q22^T
            w -= np.matmul(self.q[k:].T, u)[lanes, sel]
        return w

    def _inverse_transposed(self, b, sel, cols, single):
        """(c D)^-1 Q11^-T b per lane: Q11 b - Q12 t with Q22 t = Q21 b, where
        Q11 b over Q21 b is Q times b scattered to the survivor rows."""
        k = sel.shape[1]
        scattered = np.zeros((len(sel), self.q.shape[0], b.shape[2]))
        scattered[np.arange(len(sel))[:, None], sel] = b
        h = np.matmul(self.q, scattered)
        x = h[:, :k]
        if cols.shape[1]:
            t = _solve_lanes(cols[:, :, k:].transpose(0, 2, 1), h[:, k:], single)  # Q22
            x = x - np.matmul(cols[:, :, :k].transpose(0, 2, 1), t)
        return x / self._scale


def subset_cond_stats(
    kind: str,
    k: int,
    points,
    norm: str = "spectral",
    samples: int | None = None,
    rng: Rng | None = None,
) -> SubsetStats:
    """Worst/average condition number over the k x k column submatrices of
    the k-row generator at ``points``.

    Visits the size-k column subsets of :func:`subset_index`: all of them,
    or ``samples`` drawn without replacement from ``rng``.  The values are
    :meth:`SurvivorSolver.conds` of the generator, whose constructor picks
    the path: from the erased columns alone for the two Chebyshev kinds on
    their own grid with fewer erased than surviving columns, from one
    batched SVD of the gathered submatrices otherwise.  Singular
    submatrices contribute the infinity sentinel; :func:`subset_stats`
    reduces the values.
    """
    pts = np.asarray(points, dtype=np.float64).ravel()
    solver = SurvivorSolver(build_generator(kind, k, pts), kind, pts)
    idx = subset_index(pts.size, k, samples, rng)
    return subset_stats(solver.conds(idx, norm), idx, pts.size, k)


def theorem_bound_value(n: int, s: int) -> float:
    """Raw growth-rate expression (n-s) * sqrt(n*s*(n-s)) * (2n^2)^(s-1), inf
    beyond float range.

    The implied constant is 1; callers compare a measured worst-case
    Frobenius condition number against c * bound and report the ratio.
    """
    if not 1 <= s <= n - 1:
        raise ValueError(f"redundancy s={s} out of range [1, {n - 1}]")
    try:
        return (n - s) * math.sqrt(n * s * (n - s)) * (2.0 * n * n) ** (s - 1)
    except OverflowError:
        return math.inf


def gaussian_bound_trial(m: int, workers: int, trials: int, rng: Rng) -> tuple[int, float]:
    """Monte Carlo check of the Gaussian worst-submatrix condition bound.

    Draws ``trials`` i.i.d. N(0,1) matrices of shape m x workers, computes
    the worst spectral condition number over all m-column submatrices, and
    counts how often it exceeds m * workers^(2*(workers-m)), an exact
    integer that may lie beyond float range.  Returns (violations,
    bound_prob) with bound_prob = 5.6 / workers^(workers-m).
    """
    if m < 3:
        raise ValueError(f"the bound requires m >= 3, got m={m}")
    if workers < m:
        raise ValueError(f"need workers >= m, got workers={workers}, m={m}")
    if trials < 1:
        raise ValueError("trials must be positive")
    if math.comb(workers, m) > _GAUSSIAN_SUBSET_LIMIT:
        raise BudgetExceededError(
            f"{math.comb(workers, m)} submatrices exceed the enumeration budget "
            f"{_GAUSSIAN_SUBSET_LIMIT}"
        )
    threshold = m * workers ** (2 * (workers - m))
    bound_prob = 5.6 / float(workers) ** (workers - m)
    idx = subset_index(workers, m)
    violations = 0
    for _ in range(trials):
        h = gaussian_matrix(rng, m, workers)
        if float(SurvivorSolver(h).conds(idx).max()) > threshold:
            violations += 1
    return violations, bound_prob
