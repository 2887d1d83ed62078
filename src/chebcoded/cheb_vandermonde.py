"""Generator matrices for polynomial codes and their conditioning.

Builders for the monomial Vandermonde, the Chebyshev-Vandermonde matrix
(rows T_0..T_{k-1} at a point vector) and its normalized variant (first
row divided by sqrt(2)); column-subset selection, exhaustive or sampled,
as index arrays; worst/average condition numbers over square column
submatrices, from the erased columns alone for the Chebyshev kinds on
their own grid and from one batched SVD otherwise; and the two
conditioning bounds checked empirically in the experiments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import Rng, as_matrix, cond, gaussian_matrix, solve
from .poly_basis import cheb_grid, chebyshev_values

__all__ = [
    "GENERATOR_KINDS",
    "EXHAUSTIVE_SUBSET_LIMIT",
    "BudgetExceededError",
    "SubsetSpec",
    "check_survivors",
    "CondStats",
    "build_generator",
    "take_columns",
    "iter_column_subsets",
    "sample_column_subsets",
    "subset_cond_stats",
    "theorem_bound_value",
    "gaussian_bound_trial",
]

GENERATOR_KINDS = ("monomial", "chebyshev", "chebyshev_normalized")

# Exhaustive sweeps above this many subsets must switch to sampling.
EXHAUSTIVE_SUBSET_LIMIT = 10**6

# Enumerating all m-column Gaussian submatrices gets pointless beyond this.
_GAUSSIAN_SUBSET_LIMIT = 10**5

# Survivor submatrices are gathered and conditioned in stacks of at most
# this many bytes, one batched ``cond`` call per stack.
COND_CHUNK_BYTES = 1 << 24


class BudgetExceededError(ValueError):
    """Exhaustive enumeration would exceed the subset budget; sample instead."""


@dataclass(frozen=True)
class SubsetSpec:
    """Strictly increasing 1-based column indices into an n-column matrix."""

    n: int
    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"subset indices must be distinct and increasing, got {idx}")
        if idx and (idx[0] < 1 or idx[-1] > self.n):
            raise ValueError(f"subset indices {idx} out of range [1, {self.n}]")


def check_survivors(survivors, size: int, workers: int) -> tuple[int, ...]:
    """Sorted survivor set: exactly ``size`` distinct indices in [1, workers]."""
    surv = tuple(sorted(int(s) for s in survivors))
    if len(surv) != size:
        raise ValueError(f"decoder needs exactly {size} survivors, got {len(surv)}")
    return SubsetSpec(workers, surv).indices


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


def take_columns(m, subset: SubsetSpec) -> np.ndarray:
    """Columns of ``m`` selected by ``subset``, in ascending index order."""
    mat = as_matrix(m)
    if subset.n != mat.shape[1]:
        raise ValueError(f"subset is over {subset.n} columns, matrix has {mat.shape[1]}")
    idx = np.asarray(subset.indices, dtype=np.int64) - 1
    return mat[:, idx]


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
# the smaller side of the split: the survivors when size <= n - size, else
# the erased columns.  Row order is always that of the survivor subsets.


def _lex_index(n: int, size: int) -> np.ndarray:
    """Every size-``size`` subset of range(n), survivors in lexicographic
    order, within the budget of :func:`iter_column_subsets`.  The erasure
    sets of lexicographic survivor sets run in reverse lexicographic order,
    so the erasure side is built forwards and flipped."""
    side = min(size, n - size)
    total = math.comb(n, side)
    flat = itertools.chain.from_iterable(iter_column_subsets(n, side))
    idx = np.fromiter(flat, dtype=np.int64, count=total * side).reshape(total, side) - 1
    return idx if side == size else idx[::-1]


def _survivor_index(idx: np.ndarray, n: int, size: int) -> np.ndarray:
    """The sorted survivors of each row of a smaller-side index array."""
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


def _sample_index(n: int, size: int, count: int, rng: Rng) -> np.ndarray:
    """``count`` distinct subsets in draw order (all of them, in
    lexicographic order, if ``count`` covers every subset).

    Each attempt is a partial Fisher-Yates shuffle that picks the smaller
    side from ``min(size, n - size)`` uniforms; a repeated subset is
    skipped.  Attempts are drawn a round at a time, each round exactly the
    number still missing: one attempt adds at most one new subset, so no
    round draws a value that one attempt at a time would not, and ``rng``
    ends where it would."""
    if count >= math.comb(n, size):
        return _lex_index(n, size)
    draw = min(size, n - size)
    picked: dict[tuple[int, ...], None] = {}  # insertion-ordered set
    while len(picked) < count:
        need = count - len(picked)
        attempts = _partial_shuffle(n, rng.uniforms(need * draw).reshape(need, draw))
        picked.update(dict.fromkeys(map(tuple, attempts.tolist())))
    return np.array(list(picked), dtype=np.int64).reshape(count, draw)


def sample_column_subsets(n: int, size: int, count: int, rng: Rng) -> list[tuple[int, ...]]:
    """``count`` distinct subsets, drawn uniformly without replacement.

    The list is generated in order from ``rng`` so a given seed
    always yields the same subsets in the same order; if ``count`` covers
    all subsets the enumeration is exhaustive (lexicographic).
    """
    idx = _survivor_index(_sample_index(n, size, count, rng), n, size) + 1
    return list(map(tuple, idx.tolist()))


@dataclass(frozen=True)
class CondStats:
    worst: float
    average: float
    worst_subset: SubsetSpec


def _subset_conds(mat: np.ndarray, idx: np.ndarray, norm: str) -> np.ndarray:
    """Condition numbers of the square survivor submatrices of ``mat``,
    one per row of the smaller-side index array ``idx``, gathered in
    byte-bounded stacks."""
    rows, n = mat.shape
    chunk = max(1, COND_CHUNK_BYTES // (8 * rows * rows))
    stacks = (
        mat.T[_survivor_index(idx[start : start + chunk], n, rows)].transpose(0, 2, 1)
        for start in range(0, len(idx), chunk)
    )
    return np.concatenate([cond(stack, norm) for stack in stacks])


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
    subset_size: int,
    norm: str = "spectral",
    mode: str = "exhaustive",
    samples: int = 20000,
    rng: Rng | None = None,
) -> CondStats:
    """Worst/average condition number over square column submatrices.

    Visits size-``subset_size`` column subsets (all of them, or
    ``samples`` drawn without replacement from ``rng``).  The two
    Chebyshev kinds on their own grid (``points`` equal to
    ``cheb_grid(n).points``) with fewer erased than surviving columns take
    their condition numbers from the erased columns alone
    (:func:`_complement_conds`); every other case gathers the k x k
    submatrices of the generator for one batched SVD.  Singular
    submatrices contribute the infinity sentinel, which dominates the
    worst case; the worst subset is the first one reaching it.  The mean is
    accumulated in subset order, so results do not depend on how the
    subsets are split into stacks.
    """
    pts = np.asarray(points, dtype=np.float64).ravel()
    n = pts.size
    if subset_size > n:
        raise ValueError(f"subset size {subset_size} exceeds column count {n}")
    if subset_size != k:
        raise ValueError(
            f"square submatrices require subset_size == k, got subset_size={subset_size}, k={k}"
        )
    if norm not in ("spectral", "frobenius"):
        raise ValueError(f"unknown norm {norm!r}, expected 'spectral' or 'frobenius'")
    complement = (
        kind in ("chebyshev", "chebyshev_normalized")
        and n - k < k
        and np.array_equal(pts, cheb_grid(n).points)
    )
    if mode == "exhaustive":
        idx = _lex_index(n, subset_size)
    elif mode == "sampled":
        if rng is None:
            raise ValueError("sampled mode requires an rng")
        idx = _sample_index(n, subset_size, samples, rng)
    else:
        raise ValueError(f"unknown mode {mode!r}, expected 'exhaustive' or 'sampled'")

    if complement:  # the generator is sqrt(n/2) D Q[:k]
        d0 = math.sqrt(2.0) if kind == "chebyshev" else 1.0
        conds = _complement_conds(_grid_orthogonal(n), d0, idx, norm)
    else:
        conds = _subset_conds(build_generator(kind, k, pts), idx, norm)
    worst_at = int(np.argmax(conds))
    average = sum(conds.tolist()) / len(conds)
    worst = _survivor_index(idx[worst_at : worst_at + 1], n, subset_size)[0] + 1
    return CondStats(
        worst=float(conds[worst_at]), average=average, worst_subset=SubsetSpec(n, tuple(worst))
    )


def theorem_bound_value(n: int, s: int) -> float:
    """Raw growth-rate expression (n-s) * sqrt(n*s*(n-s)) * (2n^2)^(s-1).

    The implied constant is 1; callers compare a measured worst-case
    Frobenius condition number against c * bound and report the ratio.
    """
    if not 1 <= s <= n - 1:
        raise ValueError(f"redundancy s={s} out of range [1, {n - 1}]")
    return (n - s) * math.sqrt(n * s * (n - s)) * (2.0 * n * n) ** (s - 1)


def gaussian_bound_trial(m: int, workers: int, trials: int, rng: Rng) -> tuple[int, float]:
    """Monte Carlo check of the Gaussian worst-submatrix condition bound.

    Draws ``trials`` i.i.d. N(0,1) matrices of shape m x workers, computes
    the worst spectral condition number over all m-column submatrices, and
    counts how often it exceeds m * workers^(2*(workers-m)).  Returns
    (violations, bound_prob) with bound_prob = 5.6 / workers^(workers-m).
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
    threshold = m * float(workers) ** (2 * (workers - m))
    bound_prob = 5.6 / float(workers) ** (workers - m)
    idx = _survivor_index(_lex_index(workers, m), workers, m)
    violations = 0
    for _ in range(trials):
        h = gaussian_matrix(rng, m, workers)
        if _subset_conds(h, idx, "spectral").max() > threshold:
            violations += 1
    return violations, bound_prob
