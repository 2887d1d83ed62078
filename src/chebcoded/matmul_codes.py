"""Coded matrix multiplication schemes.

Five families, each exposing encode / worker_compute / decode and a
recovery threshold:

* ``matdot``          - inner split, monomial basis, threshold 2m-1
* ``orthomatdot``     - inner split, normalized Chebyshev basis, threshold
                        2m-1, quadrature recombination at the fusion step
* ``polynomial``      - outer split, monomial basis, threshold m*n
* ``orthopoly``       - outer split, Chebyshev basis, threshold m*n,
                        product-identity unmixing via the H matrix
* ``gen_orthomatdot`` - block grid (m1, m2, m3) trading communication for
                        threshold, Chebyshev basis with halved T_0

Evaluation points default to the Chebyshev grid of the worker count,
which is what keeps every square decode submatrix well conditioned for
the Chebyshev families.  The monomial baselines run on the same grid so
error comparisons isolate the basis, not the point set.

Worker indices are 1-based throughout, matching the grid point order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cheb_vandermonde import build_generator, check_survivors
from .linalg import as_matrix, invert, matmul, solve
from .poly_basis import cheb_grid, chebyshev_values

__all__ = [
    "FAMILIES",
    "SchemeConfig",
    "scheme_config",
    "WorkerShard",
    "WorkerOutput",
    "HMap",
    "DecodeOperator",
    "recovery_threshold",
    "encode",
    "worker_compute",
    "decode",
    "build_h_map",
    "decode_operator",
    "truth_block_table",
    "assemble_blocks",
    "gen_encoding_exponents",
    "output_coefficient_index",
]

FAMILIES = ("matdot", "orthomatdot", "polynomial", "orthopoly", "gen_orthomatdot")

_INNER = ("matdot", "orthomatdot")
_OUTER = ("polynomial", "orthopoly")

# Output entries per decode GEMM: the survivor products are stacked one
# row range at a time, so no K x entries copy of all of them is made.
_DECODE_CHUNK = 8192


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme descriptor: family tag, split counts, worker count, points.

    ``m`` is the inner split for the matdot families; ``(m, n)`` the
    row/column splits for the polynomial families; ``(m1, m2, m3)`` the
    block grid for the generalized family.  ``points`` must be distinct
    reals in [-1, 1], one per worker; omitted means cheb_grid(workers).
    """

    family: str
    workers: int
    m: int | None = None
    n: int | None = None
    m1: int | None = None
    m2: int | None = None
    m3: int | None = None
    points: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.workers < 1:
            raise ValueError(f"worker count must be positive, got {self.workers}")
        needed = {
            "matdot": ("m",),
            "orthomatdot": ("m",),
            "polynomial": ("m", "n"),
            "orthopoly": ("m", "n"),
            "gen_orthomatdot": ("m1", "m2", "m3"),
        }[self.family]
        for name in needed:
            value = getattr(self, name)
            if value is None or value < 1:
                raise ValueError(f"{self.family} needs positive split count {name}, got {value}")
        if self.points is None:
            pts = cheb_grid(self.workers).points.copy()
        else:
            pts = np.array(self.points, dtype=np.float64).ravel()
        if pts.size != self.workers:
            raise ValueError(f"need {self.workers} evaluation points, got {pts.size}")
        if np.unique(pts).size != pts.size:
            raise ValueError("evaluation points must be pairwise distinct")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        k = recovery_threshold(self)
        if self.workers < k:
            raise ValueError(
                f"{self.family} with these splits needs at least {k} workers, got {self.workers}"
            )


def scheme_config(family: str, workers: int, **kwargs) -> SchemeConfig:
    """Convenience constructor mirroring the CLI flag vocabulary."""
    return SchemeConfig(family=family, workers=workers, **kwargs)


@dataclass(frozen=True)
class WorkerShard:
    """Encoded pair sent to one worker: p_A and p_B at its point."""

    worker_index: int
    a_shard: np.ndarray
    b_shard: np.ndarray


@dataclass(frozen=True)
class WorkerOutput:
    """One worker's product p_C at its point."""

    worker_index: int
    product: np.ndarray


@dataclass(frozen=True)
class HMap:
    """mn x mn map from the block-product vector (A-index fastest) to the
    Chebyshev coefficients of p_A * p_B for the orthopoly family."""

    m: int
    n: int
    h: np.ndarray


def recovery_threshold(config: SchemeConfig) -> int:
    """Smallest worker-output count that always suffices to decode."""
    if config.family in _INNER:
        return 2 * config.m - 1
    if config.family in _OUTER:
        return config.m * config.n
    m1, m2, m3 = config.m1, config.m2, config.m3
    return (
        4 * m1 * m2 * m3
        - 2 * (m1 * m2 + m2 * m3 + m3 * m1)
        + m1
        + 2 * m2
        + m3
        - 1
    )


def _split_cols(mat: np.ndarray, parts: int, dim_name: str) -> np.ndarray:
    if mat.shape[1] % parts:
        raise ValueError(f"{dim_name}={mat.shape[1]} is not divisible by split count {parts}")
    return np.stack(np.hsplit(mat, parts))


def _split_rows(mat: np.ndarray, parts: int, dim_name: str) -> np.ndarray:
    if mat.shape[0] % parts:
        raise ValueError(f"{dim_name}={mat.shape[0]} is not divisible by split count {parts}")
    return np.stack(np.vsplit(mat, parts))


def _split_grid(
    mat: np.ndarray, row_parts: int, col_parts: int, row_dim: str, col_dim: str
) -> np.ndarray:
    """(row_parts*col_parts, br, bc) stack, block (i, j) at index i*col_parts + j."""
    rows = _split_rows(mat, row_parts, row_dim)
    out = [blk for row_block in rows for blk in _split_cols(row_block, col_parts, col_dim)]
    return np.stack(out)


def gen_encoding_exponents(config: SchemeConfig) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Basis indices used by the generalized family's encoding polynomials.

    Block (i, j) of A rides on T'_{m2-1-j+i(2m2-1)} and block (k, l) of B
    on T'_{k+l(2m1-1)(2m2-1)}, where T'_0 = T_0/2 and T'_e = T_e otherwise.
    Orders match the block stacking used by ``encode``.
    """
    if config.family != "gen_orthomatdot":
        raise ValueError("encoding exponents are specific to gen_orthomatdot")
    m1, m2, m3 = config.m1, config.m2, config.m3
    alpha = 2 * m2 - 1
    gamma = (2 * m1 - 1) * (2 * m2 - 1)
    a_exps = tuple(m2 - 1 - j + i * alpha for i in range(m1) for j in range(m2))
    b_exps = tuple(k + l * gamma for k in range(m2) for l in range(m3))
    return a_exps, b_exps


def output_coefficient_index(config: SchemeConfig, i: int, l: int) -> int:
    """Coefficient position that carries half of output block (i, l)."""
    m1, m2 = config.m1, config.m2
    return m2 - 1 + i * (2 * m2 - 1) + l * (2 * m1 - 1) * (2 * m2 - 1)


def _halved_t0_values(exponents, points) -> np.ndarray:
    vals = chebyshev_values(np.asarray(exponents, dtype=np.int64), points)
    vals[np.asarray(exponents) == 0] *= 0.5
    return vals


def _encoding_tables(config: SchemeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-family (n_blocks x P) coefficient tables for p_A and p_B."""
    pts = config.points
    if config.family == "matdot":
        m = config.m
        table_a = build_generator("monomial", m, pts)
        return table_a, table_a[::-1].copy()
    if config.family == "orthomatdot":
        table = build_generator("chebyshev_normalized", config.m, pts)
        return table, table
    if config.family == "polynomial":
        m, n = config.m, config.n
        table_a = build_generator("monomial", m, pts)
        table_b = np.power.outer(pts, m * np.arange(n)).T.copy()
        return table_a, table_b
    if config.family == "orthopoly":
        m, n = config.m, config.n
        table_a = build_generator("chebyshev", m, pts)
        table_b = chebyshev_values(m * np.arange(n), pts)
        return table_a, table_b
    a_exps, b_exps = gen_encoding_exponents(config)
    return _halved_t0_values(a_exps, pts), _halved_t0_values(b_exps, pts)


def _input_blocks(config: SchemeConfig, a: np.ndarray, b: np.ndarray):
    """Block stacks ordered to match the encoding tables."""
    if config.family in _INNER:
        return _split_cols(a, config.m, "N2"), _split_rows(b, config.m, "N2")
    if config.family in _OUTER:
        return _split_rows(a, config.m, "N1"), _split_cols(b, config.n, "N3")
    # gen: A blocks (i, j) with j fastest, B blocks (k, l) with l fastest,
    # matching gen_encoding_exponents
    a_blocks = _split_grid(a, config.m1, config.m2, "N1", "N2")
    b_blocks = _split_grid(b, config.m2, config.m3, "N2", "N3")
    return a_blocks, b_blocks


def encode(config: SchemeConfig, a, b) -> list[WorkerShard]:
    """Evaluate the encoding polynomials at every worker's point."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} times {b.shape}")
    a_blocks, b_blocks = _input_blocks(config, a, b)
    table_a, table_b = _encoding_tables(config)
    a_evals = np.tensordot(table_a, a_blocks, axes=(0, 0))
    b_evals = np.tensordot(table_b, b_blocks, axes=(0, 0))
    return [
        WorkerShard(worker_index=r + 1, a_shard=a_evals[r], b_shard=b_evals[r])
        for r in range(config.workers)
    ]


def worker_compute(shard: WorkerShard) -> WorkerOutput:
    """One worker's job: multiply its two encoded matrices."""
    return WorkerOutput(shard.worker_index, matmul(shard.a_shard, shard.b_shard))


def build_h_map(m: int, n: int) -> HMap:
    """Coefficient map for the orthopoly family.

    Column (i, j), stored at j*m + i, expands T_i * T_{jm}: a single 1 at
    row jm for i = 0, else 1/2 at rows jm+i and |jm-i| (which collapse to
    a single 1 at row i when j = 0).
    """
    if m < 1 or n < 1:
        raise ValueError(f"split counts must be positive, got m={m}, n={n}")
    size = m * n
    h = np.zeros((size, size))
    for j in range(n):
        for i in range(m):
            col = j * m + i
            if i == 0:
                h[j * m, col] += 1.0
            else:
                h[j * m + i, col] += 0.5
                h[abs(j * m - i), col] += 0.5
    return HMap(m=m, n=n, h=h)


@dataclass(frozen=True)
class DecodeOperator:
    """Linear pieces of a family's fusion step.

    ``generator`` (K x P) holds the interpolation basis at all worker
    points; ``recovery`` (K x q) maps an interpolated coefficient vector
    to the q output block values of one matrix entry.
    """

    threshold: int
    generator: np.ndarray
    recovery: np.ndarray


def decode_operator(config: SchemeConfig) -> DecodeOperator:
    k = recovery_threshold(config)
    pts = config.points
    if config.family == "matdot":
        gen = build_generator("monomial", k, pts)
        rec = np.zeros((k, 1))
        rec[config.m - 1, 0] = 1.0
    elif config.family == "orthomatdot":
        gen = build_generator("chebyshev_normalized", k, pts)
        inner_grid = cheb_grid(config.m).points
        eval_at_roots = build_generator("chebyshev_normalized", k, inner_grid)
        rec = eval_at_roots @ np.full((config.m, 1), 2.0 / config.m)
    elif config.family == "polynomial":
        # coefficient of x^{i+jm} is exactly block (i, j): identity map
        gen = build_generator("monomial", k, pts)
        rec = np.eye(k)
    elif config.family == "orthopoly":
        gen = build_generator("chebyshev", k, pts)
        rec = invert(build_h_map(config.m, config.n).h).T
    else:
        gen = build_generator("chebyshev", k, pts)
        rec = np.zeros((k, config.m1 * config.m3))
        for l in range(config.m3):
            for i in range(config.m1):
                idx = output_coefficient_index(config, i, l)
                # index 0 only occurs for m2 = 1 at block (0, 0), where both
                # encoding factors carry the halved T_0, so that block's
                # coefficient is C/4 instead of C/2
                rec[idx, l * config.m1 + i] = 4.0 if idx == 0 else 2.0
    return DecodeOperator(threshold=k, generator=gen, recovery=rec)


def _block_grid(config: SchemeConfig) -> tuple[int, int]:
    """Output block grid (rows, cols); block (i, j) sits at column j*rows + i
    of the recovery map."""
    if config.family in _INNER:
        return 1, 1
    if config.family in _OUTER:
        return config.m, config.n
    return config.m1, config.m3


def assemble_blocks(config: SchemeConfig, blocks: np.ndarray, block_shape) -> np.ndarray:
    """Assemble per-entry block values (entries x q) into the full product."""
    br, bc = block_shape
    grid_r, grid_c = _block_grid(config)
    tile = blocks.reshape(br, bc, grid_r * grid_c)
    out = np.empty((br * grid_r, bc * grid_c))
    for gj in range(grid_c):
        for gi in range(grid_r):
            out[gi * br : (gi + 1) * br, gj * bc : (gj + 1) * bc] = tile[:, :, gj * grid_r + gi]
    return out


def truth_block_table(config: SchemeConfig, product: np.ndarray) -> np.ndarray:
    """Inverse of :func:`assemble_blocks`: slice a true product into the
    (entries x q) layout the decoder produces."""
    grid_r, grid_c = _block_grid(config)
    br = product.shape[0] // grid_r
    bc = product.shape[1] // grid_c
    cols = [
        product[gi * br : (gi + 1) * br, gj * bc : (gj + 1) * bc].ravel()
        for gj in range(grid_c)
        for gi in range(grid_r)
    ]
    return np.stack(cols, axis=1)


def decode(config: SchemeConfig, survivors, outputs) -> np.ndarray:
    """Recover the full product from threshold-many worker outputs.

    Survivor/output pairs are sorted canonically first, so any input
    ordering produces a bitwise identical result.  The family's recovery
    map is folded into one solve against the survivor submatrix G_R,
    W = G_R^{-1} @ recovery (K x q); every output entry's block values
    are then its survivor evaluations times W, one GEMM per range of
    _DECODE_CHUNK entries (no K x entries copy of the whole product), and
    assembled into the N1 x N3 product.
    """
    surv = check_survivors(survivors, recovery_threshold(config), config.workers)
    by_index = {int(o.worker_index): o for o in outputs}
    if len(by_index) != len(outputs) or set(by_index) != set(surv):
        raise ValueError("outputs must carry exactly one result per survivor index")
    ordered = [by_index[s] for s in surv]
    block_shape = ordered[0].product.shape
    flat = [as_matrix(o.product).ravel() for o in ordered]

    op = decode_operator(config)
    weights = solve(op.generator[:, np.asarray(surv, dtype=np.int64) - 1], op.recovery)
    blocks = np.empty((weights.shape[1], flat[0].size))  # (q, entries)
    for lo in range(0, flat[0].size, _DECODE_CHUNK):
        hi = lo + _DECODE_CHUNK
        blocks[:, lo:hi] = weights.T @ np.stack([p[lo:hi] for p in flat])
    return assemble_blocks(config, blocks.T, block_shape)
