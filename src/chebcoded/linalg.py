"""Dense float64 linear algebra: products, partial-pivot solves,
spectral/Frobenius condition numbers (both from one batched LAPACK SVD)
and a seeded counter-based Gaussian source.

Matrices are plain 2-D float64 ndarrays (``solve`` and ``cond`` also take
stacks of them), validated finite at the public entry points and treated
as immutable once built.  ``Rng`` is the only stateful object here; it is
single-owner, and independent child streams come from :meth:`Rng.spawn`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SingularMatrixError",
    "SINGULAR_PIVOT_RTOL",
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


class SingularMatrixError(ValueError):
    """Raised when Gaussian elimination meets a pivot too small to trust."""

    def __init__(self, pivot_index: int, pivot: float, scale: float):
        self.pivot_index = pivot_index
        self.pivot = pivot
        super().__init__(
            f"singular matrix: pivot {pivot:.3e} at elimination step {pivot_index} "
            f"(threshold {SINGULAR_PIVOT_RTOL:.0e} * ||a||_F = {SINGULAR_PIVOT_RTOL * scale:.3e})"
        )


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
    ``(count, k, k)`` stack with a ``(count, k, q)`` right-hand side.  Every
    lane is eliminated on its own, so a matrix solved alone gives the same
    bits as inside a stack.  A lane is singular when a pivot falls below
    SINGULAR_PIVOT_RTOL * ||a||_F (an all-zero matrix always is): a single
    matrix raises SingularMatrixError at the first such elimination step,
    a singular stack lane reads NaN.
    """
    stacks = np.array(a, dtype=np.float64, order="C")  # copies: eliminated in place
    del a  # a temporary stack passed in is freed before the elimination
    x = np.array(rhs, dtype=np.float64, order="C")
    shapes = f"{stacks.shape} and {x.shape}"
    single, vector = stacks.ndim == 2, x.ndim == 1
    if single:
        stacks, x = stacks[None], x[None, :, None] if vector else x[None]
    if (
        stacks.ndim != 3
        or stacks.shape[1] != stacks.shape[2]
        or stacks.shape[1] == 0
        or x.ndim != 3
        or x.shape[:2] != stacks.shape[:2]
    ):
        raise ValueError(
            f"need a k x k matrix or a (count, k, k) stack with a matching right-hand "
            f"side, got shapes {shapes}"
        )
    count, k = stacks.shape[:2]
    scale = np.linalg.norm(stacks.reshape(count, -1), axis=1)
    # a finite norm implies finite entries; only a non-finite one needs the full scan
    if not np.isfinite(scale).all() and not np.isfinite(stacks).all():
        raise ValueError("matrix entries must be finite")
    pivots = np.empty((k, count))  # the pivot each lane chose at each step
    passed = np.empty((k, count), dtype=bool)  # whether it met the threshold
    rows = np.arange(count)
    with np.errstate(all="ignore"):
        for col in range(k):
            piv_idx = col + np.argmax(np.abs(stacks[:, col:, col]), axis=1)
            pivots[col] = stacks[rows, piv_idx, col]
            passed[col] = np.abs(pivots[col]) >= SINGULAR_PIVOT_RTOL * scale
            swap = stacks[rows, col, :].copy()
            stacks[rows, col, :] = stacks[rows, piv_idx, :]
            stacks[rows, piv_idx, :] = swap
            swap = x[rows, col, :].copy()
            x[rows, col, :] = x[rows, piv_idx, :]
            x[rows, piv_idx, :] = swap
            pivot = stacks[:, col, col]
            pivot = np.where(np.abs(pivot) > 0.0, pivot, 1.0)  # poisoned lanes discarded later
            if col + 1 < k:
                factors = stacks[:, col + 1 :, col] / pivot[:, None]
                stacks[:, col + 1 :, col + 1 :] -= (
                    factors[:, :, None] * stacks[:, col, None, col + 1 :]
                )
                x[:, col + 1 :, :] -= factors[:, :, None] * x[:, col, None, :]
        for col in range(k - 1, -1, -1):
            if col + 1 < k:
                x[:, col, :] -= np.matmul(stacks[:, None, col, col + 1 :], x[:, col + 1 :, :])[
                    :, 0, :
                ]
            x[:, col, :] /= np.where(
                np.abs(stacks[:, col, col]) > 0.0, stacks[:, col, col], 1.0
            )[:, None]
    ok = (scale > 0.0) & passed.all(axis=0)
    if single:
        if not ok[0]:
            step = int(np.argmin(passed[:, 0]))  # the first failed step; 0 for a zero matrix
            raise SingularMatrixError(step, float(pivots[step, 0]), float(scale[0]))
        return x[0, :, 0] if vector else x[0]
    x[~ok] = np.nan
    return x


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
    Rng must not be shared across threads; parallel users take child
    streams via :meth:`spawn` (child seed = mix64(seed XOR mix64(key + GOLDEN))).
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

    def integers(self, count: int, bound: int) -> np.ndarray:
        """i.i.d. integers on [0, bound); floor of uniform * bound."""
        if bound < 1:
            raise ValueError("bound must be positive")
        vals = np.floor(self.uniforms(count) * bound).astype(np.int64)
        return np.minimum(vals, bound - 1)

    def spawn(self, key: int) -> "Rng":
        """Independent child stream for the given key."""
        with np.errstate(over="ignore"):
            k = _mix64(np.uint64(int(key) & 0xFFFFFFFFFFFFFFFF) + _GOLDEN)
            child = _mix64(np.uint64(self.seed) ^ k)
        return Rng(int(child))


def gaussian_matrix(rng: Rng, rows: int, cols: int) -> np.ndarray:
    """Matrix of i.i.d. N(0, 1) entries drawn from ``rng`` in row-major order."""
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    return rng.normals(rows * cols).reshape(rows, cols)
