"""Dense float64 linear algebra: products, partial-pivot solves (a
blocked LU whose trailing updates are stacked BLAS-3 products),
spectral/Frobenius condition numbers (both from one batched LAPACK SVD)
and a seeded counter-based Gaussian source.

Matrices are plain 2-D float64 ndarrays (``solve`` and ``cond`` also take
stacks of them), validated finite at the public entry points and treated
as immutable once built.  ``Rng`` is the only stateful object here; it is
single-owner.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SingularMatrixError",
    "SINGULAR_PIVOT_RTOL",
    "SOLVE_BLOCK",
    "as_matrix",
    "matmul",
    "solve",
    "invert",
    "cond",
    "Rng",
    "gaussian_matrix",
]

# A pivot below this fraction of ||a||_F means the elimination cannot
# continue reliably in float64.
SINGULAR_PIVOT_RTOL = 1e-14

# Columns per panel of the blocked LU in ``solve``; 8, 12 and 16 time
# alike on the replay stacks (k up to 98), 4 is slower.
SOLVE_BLOCK = 8


class SingularMatrixError(ValueError):
    """A solve met a matrix too close to singular to trust; the message
    says which (the elimination step and pivot of a single ``solve``, the
    survivors of a decode)."""


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 array and reject non-finite entries."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def matmul(a, b) -> np.ndarray:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} times {b.shape}")
    return a @ b


def solve(a, rhs) -> np.ndarray:
    """Solve a @ x = rhs by Gaussian elimination with partial pivoting.

    ``a`` is one k x k matrix with a (k,) or (k, q) right-hand side, or a
    ``(count, k, k)`` stack with a ``(count, k, q)`` right-hand side.  The
    LU factorization is blocked and right-looking, like LAPACK's getrf:
    each panel of SOLVE_BLOCK columns is eliminated one column at a time
    (first-maximum pivot, full-row swap), and the rows to its right and
    below take one stacked matrix product per panel; the right-hand side
    is permuted once and substituted panel by panel.  Every lane is
    eliminated on its own, so a matrix solved alone gives the same bits as
    inside a stack.

    A lane is singular when a pivot falls below SINGULAR_PIVOT_RTOL *
    ||a||_F (an all-zero matrix always is).  The test is taken at unit
    scale, |pivot| / max|a| >= SINGULAR_PIVOT_RTOL * ||a / max|a|||_F, so
    nothing in it overflows for any finite a, nothing that decides it
    underflows, and the rule is scale-invariant.  A single matrix raises
    SingularMatrixError at the first such elimination step; a singular
    stack lane reads NaN.
    """
    a = np.asarray(a, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    shapes = f"{a.shape} and {rhs.shape}"
    single, vector = a.ndim == 2, rhs.ndim == 1
    if single:
        a, rhs = a[None], rhs[None, :, None] if vector else rhs[None]
    if (
        a.ndim != 3
        or a.shape[1] != a.shape[2]
        or a.shape[1] == 0
        or rhs.ndim != 3
        or rhs.shape[:2] != a.shape[:2]
    ):
        raise ValueError(
            f"need a k x k matrix or a (count, k, k) stack with a matching right-hand "
            f"side, got shapes {shapes}"
        )
    count, k = a.shape[:2]
    amax = np.maximum(a.max(axis=(1, 2)), -a.min(axis=(1, 2)))  # NaN or inf if any entry is
    if not np.isfinite(amax).all():
        raise ValueError("matrix entries must be finite")
    lu = np.array(a, order="C")  # copies: factored in place
    del a  # a temporary stack passed in is freed before the elimination
    with np.errstate(all="ignore"):
        lane_max = np.where(amax > 0.0, amax, 1.0)
        unit = lu / lane_max[:, None, None]
        unit *= unit
        unit_threshold = SINGULAR_PIVOT_RTOL * np.sqrt(unit.reshape(count, -1).sum(axis=1))
        del unit
        pivots, perm = _factor(lu)
        passed = np.abs(pivots) / lane_max >= unit_threshold  # (k, count), per step
        x = rhs[np.arange(count)[:, None], perm]  # the row swaps applied to a copy of rhs
        del rhs
        _substitute(lu, x)
    ok = (amax > 0.0) & passed.all(axis=0)
    if single:
        if not ok[0]:
            step = int(np.argmin(passed[:, 0]))  # the first failed step; 0 for a zero matrix
            raise SingularMatrixError(
                f"singular matrix: pivot {pivots[step, 0]:.3e} at elimination step {step} "
                f"(threshold {SINGULAR_PIVOT_RTOL:.0e} * ||a||_F = "
                f"{amax[0] * unit_threshold[0]:.3e})"
            )
        return x[0, :, 0] if vector else x[0]
    x[~ok] = np.nan
    return x


def _factor(lu):
    """Blocked right-looking LU with partial pivoting, in place: P a = L U.

    Returns each step's pivot, (k, count), and the row permutation P as
    (count, k) indices."""
    count, k = lu.shape[:2]
    pivots = np.empty((k, count))
    perm = np.tile(np.arange(k), (count, 1))
    rows = np.arange(count)
    for start in range(0, k, SOLVE_BLOCK):
        stop = min(start + SOLVE_BLOCK, k)
        for col in range(start, stop):
            piv_idx = col + np.argmax(np.abs(lu[:, col:, col]), axis=1)
            pivots[col] = lu[rows, piv_idx, col]
            swap = lu[rows, col, :].copy()
            lu[rows, col, :] = lu[rows, piv_idx, :]
            lu[rows, piv_idx, :] = swap
            perm[rows, piv_idx], perm[rows, col] = perm[rows, col], perm[rows, piv_idx]
            pivot = lu[:, col, col]
            pivot = np.where(np.abs(pivot) > 0.0, pivot, 1.0)  # poisoned lanes discarded later
            lu[:, col + 1 :, col] /= pivot[:, None]  # the column of L
            lu[:, col + 1 :, col + 1 : stop] -= (
                lu[:, col + 1 :, col, None] * lu[:, col, None, col + 1 : stop]
            )
        if stop < k:
            _apply_panel(lu, lu[:, :, stop:], start, stop)  # U12, then the trailing update
    return pivots, perm


def _apply_panel(lu, y, start, stop):
    """Eliminate with the L columns of panel start:stop in y's rows: forward
    substitution with the unit lower L11 inside the panel, then one stacked
    product for every row below it."""
    for row in range(start + 1, stop):
        y[:, row] -= np.matmul(lu[:, row, None, start:row], y[:, start:row])[:, 0]
    y[:, stop:] -= np.matmul(lu[:, stop:, start:stop], y[:, start:stop])


def _substitute(lu, x):
    """Overwrite the permuted right-hand side x with U^{-1} L^{-1} x,
    blocked like the factorization."""
    k = lu.shape[1]
    for start in range(0, k, SOLVE_BLOCK):
        _apply_panel(lu, x, start, min(start + SOLVE_BLOCK, k))
    for stop in range(k, 0, -SOLVE_BLOCK):
        start = max(stop - SOLVE_BLOCK, 0)
        x[:, start:stop] -= np.matmul(lu[:, start:stop, stop:], x[:, stop:])
        for row in range(stop - 1, start - 1, -1):
            x[:, row] -= np.matmul(lu[:, row, None, row + 1 : stop], x[:, row + 1 : stop])[:, 0]
            x[:, row] /= np.where(np.abs(lu[:, row, row]) > 0.0, lu[:, row, row], 1.0)[:, None]


def invert(a) -> np.ndarray:
    a = as_matrix(a)
    return solve(a, np.eye(a.shape[0]))


def cond(a, norm: str = "spectral"):
    """Condition number ||a|| * ||a^-1|| of a square matrix or a stack.

    ``a`` is one k x k matrix (returns a float) or a ``(..., k, k)``
    stack (returns an array of the leading shape).  Both norms come from
    the same LAPACK singular values s_1 >= ... >= s_k: spectral is
    s_1 / s_k, Frobenius is sqrt(sum s_i^2) * sqrt(sum 1 / s_i^2).

    A matrix counts as singular, and reports math.inf, when
    s_k <= k * eps * s_1; an all-zero matrix is singular.  Returning inf
    instead of raising lets one bad case dominate a worst-case statistic.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] == 0:
        raise ValueError(f"condition number needs square matrices, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    if norm not in ("spectral", "frobenius"):
        raise ValueError(f"unknown norm {norm!r}, expected 'spectral' or 'frobenius'")
    k = arr.shape[-1]
    sv = np.linalg.svd(arr, compute_uv=False)  # descending along the last axis
    s_max, s_min = sv[..., 0], sv[..., -1]
    singular = s_min <= k * np.finfo(np.float64).eps * s_max
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # singular lanes
        if norm == "spectral":
            value = s_max / s_min
        else:
            rel = sv / s_max[..., None]  # scaled so that 1 / rel^2 cannot overflow
            value = np.sqrt(np.sum(rel * rel, axis=-1) * np.sum(1.0 / (rel * rel), axis=-1))
    value = np.where(singular, np.inf, value)
    return float(value) if arr.ndim == 2 else value


_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    # SplitMix64 finalizer; uint64 arithmetic wraps mod 2^64.
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class Rng:
    """Counter-based SplitMix64 stream with Box-Muller normals.

    Output i of a stream with seed s is mix64(s + (i+1)*GOLDEN), so
    identical seeds replay identical sequences on any platform.  A single
    Rng must not be shared across threads.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._count = 0

    def raw(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit words."""
        if count < 0:
            raise ValueError("count must be non-negative")
        idx = np.arange(self._count + 1, self._count + count + 1, dtype=np.uint64)
        self._count += count
        with np.errstate(over="ignore"):
            return _mix64((np.uint64(self.seed) + _GOLDEN * idx) & _MASK64)

    def uniforms(self, count: int) -> np.ndarray:
        """i.i.d. uniforms on [0, 1) with 53-bit resolution."""
        return (self.raw(count) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, count: int) -> np.ndarray:
        """i.i.d. standard normals via Box-Muller on consecutive pairs."""
        pairs = (count + 1) // 2
        raw = self.raw(2 * pairs)
        # u1 in (0, 1] so the log is finite; u2 in [0, 1).
        u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:count]


def gaussian_matrix(rng: Rng, rows: int, cols: int) -> np.ndarray:
    """Matrix of i.i.d. N(0, 1) entries drawn from ``rng`` in row-major order."""
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    return rng.normals(rows * cols).reshape(rows, cols)
