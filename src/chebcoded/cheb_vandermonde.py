"""Generator matrices for polynomial codes and their conditioning.

The evaluation-point rule both code families share; builders for the
monomial Vandermonde, the Chebyshev-Vandermonde matrix (rows
T_0..T_{k-1} at a point vector) and its normalized variant (first row
divided by sqrt(2)); the one survivor-subset pipeline of the
condition sweep and the error replay (subsets as index arrays,
exhaustive or sampled, gathered a chunk at a time and reduced to a
worst/average pair); worst/average condition numbers over square column
submatrices, from the erased columns alone for the Chebyshev kinds on
their own grid and from one batched SVD otherwise; and the two
conditioning bounds checked empirically in the experiments.
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
    "theorem_bound_value",
    "gaussian_bound_trial",
]

GENERATOR_KINDS = ("chebyshev", "monomial", "chebyshev_normalized")

# Exhaustive sweeps above this many subsets must switch to sampling.
EXHAUSTIVE_SUBSET_LIMIT = 10**6

# Enumerating all m-column Gaussian submatrices gets pointless beyond this.
_GAUSSIAN_SUBSET_LIMIT = 10**5

# Survivor submatrices are gathered and conditioned in stacks of at most
# this many bytes, one batched ``cond`` call per stack.
COND_CHUNK_BYTES = 1 << 24


class BudgetExceededError(ValueError):
    """Exhaustive enumeration would exceed the subset budget; sample instead."""


def check_survivors(survivors, size: int, workers: int) -> tuple[int, ...]:
    """Sorted survivor set: exactly ``size`` distinct indices in [1, workers]."""
    surv = tuple(sorted(int(s) for s in survivors))
    if len(surv) != size:
        raise ValueError(f"decoder needs exactly {size} survivors, got {len(surv)}")
    if len(set(surv)) != size:
        raise ValueError(f"survivor indices must be distinct, got {surv}")
    if surv and (surv[0] < 1 or surv[-1] > workers):
        raise ValueError(f"survivor indices {surv} out of range [1, {workers}]")
    return surv


def evaluation_points(workers: int, points=None) -> np.ndarray:
    """A code's read-only evaluation points: ``points`` as a flat float64
    copy, one distinct point per worker, or cheb_grid(workers) if None."""
    if points is None:
        pts = cheb_grid(workers).points.copy()
    else:
        pts = np.array(points, dtype=np.float64).ravel()
    if pts.size != workers:
        raise ValueError(f"need {workers} evaluation points, got {pts.size}")
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


def _survivor_index(idx: np.ndarray, n: int, size: int) -> np.ndarray:
    """The sorted survivors of each row of an index array."""
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
    idx = _survivor_index(subset_index(n, size, count, rng), n, size) + 1
    return list(map(tuple, idx.tolist()))


def survivor_chunks(idx: np.ndarray, n: int, size: int, cost: int, budget: int):
    """The 0-based survivors of the rows of the index array ``idx``, in row
    order, as (rows, size) arrays of at most ``budget // cost`` rows (at
    least one), ``cost`` being what one subset's gathered working set
    takes of ``budget``.  The condition sweep and the error replay gather
    their survivor submatrices from these chunks."""
    step = max(1, budget // max(1, cost))
    for start in range(0, len(idx), step):
        yield _survivor_index(idx[start : start + step], n, size)


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
    worst = _survivor_index(idx[worst_at : worst_at + 1], n, size)[0] + 1
    return SubsetStats(float(values[worst_at]), total / len(values), tuple(worst.tolist()))


def _subset_conds(mat: np.ndarray, idx: np.ndarray, norm: str) -> np.ndarray:
    """Condition numbers of the square survivor submatrices of ``mat``,
    one per row of the index array ``idx``, gathered in byte-bounded
    stacks."""
    rows, n = mat.shape
    chunks = survivor_chunks(idx, n, rows, 8 * rows * rows, COND_CHUNK_BYTES)
    return np.concatenate([cond(mat.T[sel].transpose(0, 2, 1), norm) for sel in chunks])


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


def _complement_conds(q: np.ndarray, d0: float, erased: np.ndarray, norm: str) -> np.ndarray:
    """Condition numbers of A = D Q[:k, R], D = diag(d0, 1, ..., 1), for an
    orthogonal n x n ``q`` and survivors R, one per row of the erasure
    index array ``erased`` (s = n - k columns each), from the erased
    columns alone instead of a k x k SVD.

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
    n = q.shape[0]
    s = erased.shape[1]
    k = n - s
    d = np.ones(s + 1)
    d[0] = d0
    chunk = max(1, COND_CHUNK_BYTES // (8 * n * max(s, 1)))
    out = []
    for start in range(0, len(erased), chunk):
        cols = q.T[erased[start : start + chunk]]  # (count, s, n): erased columns as rows
        r1 = np.zeros((len(cols), s + 1, s))  # Q12 in the basis (e0, ...)
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
        out.append(np.where(singular, np.inf, value))
    return np.concatenate(out)


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
    or ``samples`` drawn without replacement from ``rng``.  The two
    Chebyshev kinds on their own grid (``points`` equal to
    ``cheb_grid(n).points``) with fewer erased than surviving columns take
    their condition numbers from the erased columns alone
    (:func:`_complement_conds`); every other case gathers the k x k
    submatrices of the generator for one batched SVD.  Singular
    submatrices contribute the infinity sentinel; :func:`subset_stats`
    reduces the values.
    """
    pts = np.asarray(points, dtype=np.float64).ravel()
    n = pts.size
    if norm not in ("spectral", "frobenius"):
        raise ValueError(f"unknown norm {norm!r}, expected 'spectral' or 'frobenius'")
    idx = subset_index(n, k, samples, rng)
    on_grid = np.array_equal(pts, cheb_grid(n).points)
    if kind in ("chebyshev", "chebyshev_normalized") and n - k < k and on_grid:
        d0 = math.sqrt(2.0) if kind == "chebyshev" else 1.0  # generator sqrt(n/2) D Q[:k]
        conds = _complement_conds(_grid_orthogonal(n), d0, idx, norm)
    else:
        conds = _subset_conds(build_generator(kind, k, pts), idx, norm)
    return subset_stats(conds, idx, n, k)


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
        if float(_subset_conds(h, idx, "spectral").max()) > threshold:
            violations += 1
    return violations, bound_prob
