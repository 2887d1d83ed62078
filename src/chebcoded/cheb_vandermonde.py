"""Generator matrices for polynomial codes and their conditioning.

Builders for the monomial Vandermonde, the Chebyshev-Vandermonde matrix
(rows T_0..T_{k-1} at a point vector) and its normalized variant (first
row divided by sqrt(2)); column-subset selection; exhaustive or sampled
worst/average condition numbers over square column submatrices; and the
two conditioning bounds checked empirically in the experiments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import Rng, as_matrix, cond, gaussian_matrix
from .poly_basis import chebyshev_values

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
    """All 1-based size-``size`` subsets of [1, n] in lexicographic order."""
    return itertools.combinations(range(1, n + 1), size)


def sample_column_subsets(n: int, size: int, count: int, rng: Rng) -> list[tuple[int, ...]]:
    """``count`` distinct subsets, drawn uniformly without replacement.

    The list is generated in order from ``rng`` so a given seed
    always yields the same subsets in the same order; if ``count`` covers
    all subsets the enumeration is exhaustive (lexicographic).
    """
    total = math.comb(n, size)
    if count >= total:
        return list(iter_column_subsets(n, size))
    # drawing the smaller side of the split costs fewer stream values
    draw = size if size <= n - size else n - size
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    pool = np.arange(1, n + 1, dtype=np.int64)
    full = frozenset(range(1, n + 1))
    while len(out) < count:
        # partial Fisher-Yates: first `draw` entries are a uniform subset
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


@dataclass(frozen=True)
class CondStats:
    worst: float
    average: float
    worst_subset: SubsetSpec


def _subset_conds(mat: np.ndarray, idx: np.ndarray, norm: str) -> np.ndarray:
    """Condition numbers of ``mat[:, idx[s]]`` for every row s of the
    0-based index array ``idx``, gathered in byte-bounded stacks."""
    rows, size = mat.shape[0], idx.shape[1]
    chunk = max(1, COND_CHUNK_BYTES // (8 * rows * size))
    return np.concatenate(
        [
            cond(mat.T[idx[start : start + chunk]].transpose(0, 2, 1), norm)
            for start in range(0, len(idx), chunk)
        ]
    )


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

    Builds the k x n generator once, then visits size-``subset_size``
    column subsets (all of them, or ``samples`` drawn without replacement
    from ``rng``).  Singular submatrices contribute the infinity sentinel,
    which dominates the worst case; the worst subset is the first one
    reaching it.  The mean is accumulated in subset order, so results do
    not depend on how the subsets are split into stacks.
    """
    pts = np.asarray(points, dtype=np.float64).ravel()
    n = pts.size
    if subset_size > n:
        raise ValueError(f"subset size {subset_size} exceeds column count {n}")
    if subset_size != k:
        raise ValueError(
            f"square submatrices require subset_size == k, got subset_size={subset_size}, k={k}"
        )
    gen = build_generator(kind, k, pts)
    if mode == "exhaustive":
        total = math.comb(n, subset_size)
        if total > EXHAUSTIVE_SUBSET_LIMIT:
            raise BudgetExceededError(
                f"{total} subsets exceed the exhaustive budget {EXHAUSTIVE_SUBSET_LIMIT}; "
                f"use mode='sampled'"
            )
        subsets = list(iter_column_subsets(n, subset_size))
    elif mode == "sampled":
        if rng is None:
            raise ValueError("sampled mode requires an rng")
        subsets = sample_column_subsets(n, subset_size, samples, rng)
    else:
        raise ValueError(f"unknown mode {mode!r}, expected 'exhaustive' or 'sampled'")

    conds = _subset_conds(gen, np.asarray(subsets, dtype=np.int64) - 1, norm)
    worst_at = int(np.argmax(conds))
    average = sum(conds.tolist()) / len(subsets)
    return CondStats(
        worst=float(conds[worst_at]), average=average, worst_subset=SubsetSpec(n, subsets[worst_at])
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
    idx = np.asarray(list(iter_column_subsets(workers, m)), dtype=np.int64) - 1
    violations = 0
    for _ in range(trials):
        h = gaussian_matrix(rng, m, workers)
        if _subset_conds(h, idx, "spectral").max() > threshold:
            violations += 1
    return violations, bound_prob
