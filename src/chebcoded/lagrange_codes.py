"""Systematic Lagrange coded computing on the Chebyshev grid.

The master holds m data vectors, anchors them at the first m grid points
of cheb_grid(P) (so workers 1..m receive raw data), and sends every other
worker the Lagrange interpolant of the data evaluated at its own grid
point.  Workers apply a known polynomial map f; the fusion node recovers
f at the anchors from any K = (m-1)*deg(f)+1 outputs by interpolating in
either the Chebyshev basis (stable) or the monomial basis (baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cheb_vandermonde import (
    SurvivorSolver, build_generator, check_integer, check_survivors, evaluation_points,
)
from .linalg import as_matrix

__all__ = [
    "LagrangeConfig",
    "PolyMap",
    "linear_map",
    "lagrange_encode",
    "worker_outputs",
    "lagrange_decode",
    "anchor_estimates",
    "decode_generator",
    "decode_solver",
]

DECODE_BASES = ("chebyshev", "monomial")


@dataclass(frozen=True)
class LagrangeConfig:
    """m data points, P workers, input dimension, and the (caller-known)
    total degree of the worker map, which fixes the recovery threshold
    K = (m-1)*deg_f + 1.  ``points`` must be distinct reals in [-1, 1],
    one per worker; omitted means cheb_grid(workers).  Counts are stored
    as ints (``check_integer``)."""

    m: int
    workers: int
    dim: int
    deg_f: int
    points: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("m", "workers", "dim", "deg_f"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name))
        if self.m < 1:
            raise ValueError(f"need at least one data point, got m={self.m}")
        if self.dim < 1:
            raise ValueError(f"input dimension must be positive, got {self.dim}")
        if self.deg_f < 1:
            raise ValueError(f"map degree must be at least 1, got {self.deg_f}")
        if self.m > self.workers:
            raise ValueError(f"m={self.m} data points exceed {self.workers} workers")
        object.__setattr__(self, "points", evaluation_points(self.workers, self.points))
        if self.threshold > self.workers:
            raise ValueError(
                f"threshold K={self.threshold} exceeds worker count {self.workers}"
            )

    @property
    def threshold(self) -> int:
        return (self.m - 1) * self.deg_f + 1

    @property
    def anchors(self) -> np.ndarray:
        """The first m grid points, in stored (decreasing) order."""
        return self.points[: self.m]


@dataclass(frozen=True)
class PolyMap:
    """Total polynomial map R^dim -> R^out_dim of the declared degree."""

    dim: int
    out_dim: int
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> np.ndarray:
        out = np.asarray(self.fn(np.asarray(x, dtype=np.float64)), dtype=np.float64).ravel()
        if out.size != self.out_dim:
            raise ValueError(f"map produced {out.size} outputs, declared {self.out_dim}")
        return out


def linear_map(y) -> PolyMap:
    """f(X) = y^T X (degree 1, scalar output)."""
    y = np.asarray(y, dtype=np.float64).ravel()
    return PolyMap(dim=y.size, out_dim=1, fn=lambda x: np.atleast_1d(y @ x))


def lagrange_encode(config: LagrangeConfig, data) -> np.ndarray:
    """Encode m data vectors into P worker inputs.

    Workers 1..m receive their data vector unchanged; worker r > m gets
    g(rho_r) where g is the Lagrange interpolant through the anchors.
    """
    data = as_matrix(data)
    if data.shape != (config.m, config.dim):
        raise ValueError(
            f"data must be {config.m} vectors of dimension {config.dim}, got {data.shape}"
        )
    out = np.empty((config.workers, config.dim))
    out[: config.m] = data
    anchors = config.anchors
    spread = anchors[:, None] - anchors[None, :]
    np.fill_diagonal(spread, 1.0)
    for r in range(config.m, config.workers):
        # ratios[i, j] = (x - x_j) / (x_i - x_j), diagonal patched to 1
        ratios = (config.points[r] - anchors)[None, :] / spread
        np.fill_diagonal(ratios, 1.0)
        out[r] = np.prod(ratios, axis=1) @ data
    return out


def worker_outputs(config: LagrangeConfig, f: PolyMap, encoded) -> np.ndarray:
    """Apply the worker map to every encoded vector; row r is worker r+1."""
    encoded = as_matrix(encoded)
    if f.dim != config.dim:
        raise ValueError(f"map expects dimension {f.dim}, config has {config.dim}")
    return np.stack([f(row) for row in encoded])


def decode_generator(config: LagrangeConfig, basis: str) -> np.ndarray:
    """K x P interpolation generator on the grid in the chosen basis."""
    if basis not in DECODE_BASES:
        raise ValueError(f"unknown basis {basis!r}, expected one of {DECODE_BASES}")
    return build_generator(basis, config.threshold, config.points)


def decode_solver(config: LagrangeConfig, basis: str) -> SurvivorSolver:
    """The survivor solver of :func:`decode_generator`: the erased-column
    kernel for the Chebyshev basis on the grid with fewer erased than
    surviving workers, the blocked LU otherwise."""
    return SurvivorSolver(decode_generator(config, basis), basis, config.points)


def lagrange_decode(
    config: LagrangeConfig,
    f: PolyMap,
    survivors,
    outputs,
    basis: str = "chebyshev",
) -> np.ndarray:
    """Estimate f at the m anchors from K survivor outputs.

    Each output component is a degree-(K-1) polynomial of the grid
    coordinate, interpolated through the K survivor columns G_R of the
    chosen generator and evaluated at the anchor columns.  The fusion is
    folded onto the output side: one solve G_R^T v = outputs (K x out_dim)
    by :func:`decode_solver`, the same v the harness replay computes; the
    estimates come from :func:`anchor_estimates`.  Returns an (m, out_dim)
    array of estimates; a singular or overflowing solve raises
    SingularMatrixError.
    """
    given = tuple(survivors)  # read once: ``survivors`` may be an iterator
    surv = check_survivors(given, config.threshold, config.workers)
    outs = as_matrix(outputs)
    if outs.shape != (config.threshold, f.out_dim):
        raise ValueError(
            f"expected outputs of shape {(config.threshold, f.out_dim)}, got {outs.shape}"
        )
    order = np.argsort([int(s) for s in given], kind="stable")
    outs = outs[order]

    solver = decode_solver(config, basis)
    sel = np.asarray(surv, dtype=np.int64) - 1
    folded = solver.fold(sel, outs)
    return anchor_estimates(solver.generator[:, : config.m], folded, sel, outs)


def anchor_estimates(anchors, folded, sel, outputs) -> np.ndarray:
    """Estimates of f at the m anchors from v = ``folded``, which solves
    G_R^T v = ``outputs`` for the 0-based survivors ``sel``.

    An erased anchor is interpolated, anchors^T @ v; a surviving anchor
    (a survivor below m, a worker that received its raw data) is its own
    output row, the systematic decode, which carries no residual of v.
    ``folded``, ``sel`` and ``outputs`` may carry one leading lane axis:
    (K, v), (K,), (K, v) for one decode, or (count, K, v), (count, K),
    (count, K, v) for a replayed chunk, with the same bits per lane.
    """
    est = np.matmul(anchors.T, folded)  # (..., m, v)
    kept = sel < anchors.shape[1]
    est[np.nonzero(kept)[:-1] + (sel[kept],)] = outputs[kept]
    return est
