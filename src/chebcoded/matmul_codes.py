"""Coded matrix multiplication schemes.

Five families, each one (rows, inner, cols) block grid: A is cut into
rows x inner blocks, B into inner x cols and the product into rows x
cols (``_GRID`` names each axis's split, :func:`block_grid` reads it).
Each exposes encode / worker_compute / decode and a recovery threshold:

* ``matdot``          - grid (1, m, 1), monomial basis, threshold 2m-1
* ``orthomatdot``     - grid (1, m, 1), normalized Chebyshev basis,
                        threshold 2m-1, quadrature recombination at fusion
* ``polynomial``      - grid (m, 1, n), monomial basis, threshold m*n
* ``orthopoly``       - grid (m, 1, n), Chebyshev basis, threshold m*n,
                        product-identity unmixing via the H matrix
* ``gen_orthomatdot`` - grid (m1, m2, m3) trading communication for
                        threshold, Chebyshev basis with halved T_0

Evaluation points default to the Chebyshev grid of the worker count,
which is what keeps every square decode submatrix well conditioned for
the Chebyshev families.  The monomial baselines run on the same grid so
error comparisons isolate the basis, not the point set.

Worker indices are 1-based throughout, matching the grid point order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cheb_vandermonde import (
    SurvivorSolver, build_generator, check_integer, check_survivors, evaluation_points,
)
from .linalg import as_matrix, matmul, solve
from .poly_basis import cheb_grid, chebyshev_values

__all__ = [
    "FAMILIES",
    "SPLITS",
    "SchemeConfig",
    "scheme_config",
    "WorkerShard",
    "WorkerOutput",
    "DecodeOperator",
    "block_grid",
    "recovery_threshold",
    "derive_splits",
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

SPLITS = ("m", "n", "m1", "m2", "m3")

# The split named on each axis of a family's (rows, inner, cols) block
# grid: A is cut rows x inner, B inner x cols, the product rows x cols.
_GRID = {
    "matdot": (None, "m", None),
    "orthomatdot": (None, "m", None),
    "polynomial": ("m", None, "n"),
    "orthopoly": ("m", None, "n"),
    "gen_orthomatdot": ("m1", "m2", "m3"),
}
FAMILIES = tuple(_GRID)

# Output entries per decode GEMM: the survivor products are stacked one
# row range at a time, so no K x entries copy of all of them is made.
_DECODE_CHUNK = 8192


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme descriptor: family tag, split counts, worker count, points.

    A family takes exactly the splits its ``_GRID`` entry names.
    ``points`` must be distinct reals in [-1, 1], one per worker; omitted
    means cheb_grid(workers).  Counts are stored as ints (``check_integer``).
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
        object.__setattr__(self, "workers", check_integer(self.workers, "worker count"))
        if self.workers < 1:
            raise ValueError(f"worker count must be positive, got {self.workers}")
        needed = [name for name in _GRID[self.family] if name]
        for name in SPLITS:
            value = getattr(self, name)
            if name not in needed and value is not None:
                raise ValueError(f"{self.family} takes no split {name}, only {', '.join(needed)}")
            if name in needed and (value is None or check_integer(value, f"split {name}") < 1):
                raise ValueError(f"{self.family} needs positive split count {name}, got {value}")
            if value is not None:
                object.__setattr__(self, name, int(value))
        object.__setattr__(self, "points", evaluation_points(self.workers, self.points))
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


def block_grid(config: SchemeConfig) -> tuple[int, int, int]:
    """Block counts (rows, inner, cols) the family cuts A (rows x inner)
    and B (inner x cols) into; an axis the family does not split counts 1."""
    return tuple(1 if name is None else getattr(config, name) for name in _GRID[config.family])


def recovery_threshold(config: SchemeConfig) -> int:
    """Smallest worker-output count that always suffices to decode: rows x
    cols without an inner split, else the generalized count (2m-1 at (1, m, 1))."""
    m1, m2, m3 = block_grid(config)
    if _GRID[config.family][1] is None:
        return m1 * m3
    return (
        4 * m1 * m2 * m3
        - 2 * (m1 * m2 + m2 * m3 + m3 * m1)
        + m1
        + 2 * m2
        + m3
        - 1
    )


def derive_splits(family: str, threshold: int, splits: dict) -> dict:
    """``splits`` completed so that ``family`` decodes at ``threshold``, the
    inverse of :func:`recovery_threshold`; a full grid derives nothing."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    rows, inner, cols = _GRID[family]
    if rows is None and cols is None and inner not in splits:  # (1, m, 1): 2m-1
        if threshold % 2 == 0:
            raise ValueError(f"threshold P-delta={threshold} must be odd (2m-1) for {family}")
        return {**splits, inner: (threshold + 1) // 2}
    if inner is None:  # (m, 1, n): m the largest divisor at most sqrt(threshold)
        missing = [key for key in (rows, cols) if key not in splits]
        if len(missing) == 1:
            raise KeyError(missing[0])
        if missing:
            m = max(d for d in range(1, math.isqrt(threshold) + 1) if threshold % d == 0)
            return {**splits, rows: m, cols: threshold // m}
    return splits


def _split_grid(
    mat: np.ndarray, row_parts: int, col_parts: int, row_dim: str, col_dim: str
) -> np.ndarray:
    """(row_parts*col_parts, br, bc) stack, block (i, j) at index i*col_parts + j."""
    for size, parts, dim in zip(mat.shape, (row_parts, col_parts), (row_dim, col_dim)):
        if size % parts:
            raise ValueError(f"{dim}={size} is not divisible by split count {parts}")
    br, bc = mat.shape[0] // row_parts, mat.shape[1] // col_parts
    blocks = mat.reshape(row_parts, br, col_parts, bc).transpose(0, 2, 1, 3)
    return blocks.reshape(row_parts * col_parts, br, bc)


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


def encode(config: SchemeConfig, a, b) -> list[WorkerShard]:
    """Evaluate the encoding polynomials at every worker's point."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} times {b.shape}")
    rows, inner, cols = block_grid(config)
    a_blocks = _split_grid(a, rows, inner, "N1", "N2")
    b_blocks = _split_grid(b, inner, cols, "N2", "N3")
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


def build_h_map(m: int, n: int) -> np.ndarray:
    """mn x mn map from the block-product vector (A-index fastest) to the
    Chebyshev coefficients of p_A * p_B for the orthopoly family.

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
    return h


@dataclass(frozen=True)
class DecodeOperator:
    """Linear pieces of a family's fusion step.

    ``recovery`` (K x q) maps an interpolated coefficient vector to the q
    output block values of one matrix entry; ``solver`` holds the
    generator (K x P, the interpolation basis at all worker points, built
    by :func:`chebcoded.cheb_vandermonde.build_generator`) and serves
    :func:`decode` and the replay alike.
    """

    threshold: int
    recovery: np.ndarray
    solver: SurvivorSolver


def decode_operator(config: SchemeConfig) -> DecodeOperator:
    k = recovery_threshold(config)
    if config.family == "matdot":
        kind = "monomial"
        rec = np.zeros((k, 1))
        rec[config.m - 1, 0] = 1.0
    elif config.family == "orthomatdot":
        kind = "chebyshev_normalized"
        inner_grid = cheb_grid(config.m).points
        eval_at_roots = build_generator(kind, k, inner_grid)
        rec = eval_at_roots @ np.full((config.m, 1), 2.0 / config.m)
    elif config.family == "polynomial":
        # coefficient of x^{i+jm} is exactly block (i, j): identity map
        kind = "monomial"
        rec = np.eye(k)
    elif config.family == "orthopoly":
        kind = "chebyshev"
        rec = solve(build_h_map(config.m, config.n)[None], np.eye(k)[None])[0].T  # H^-T
    else:
        kind = "chebyshev"
        rec = np.zeros((k, config.m1 * config.m3))
        for l in range(config.m3):
            for i in range(config.m1):
                idx = output_coefficient_index(config, i, l)
                # index 0 only occurs for m2 = 1 at block (0, 0), where both
                # encoding factors carry the halved T_0, so that block's
                # coefficient is C/4 instead of C/2
                rec[idx, l * config.m1 + i] = 4.0 if idx == 0 else 2.0
    gen = build_generator(kind, k, config.points)
    return DecodeOperator(k, rec, SurvivorSolver(gen, kind, config.points))


def assemble_blocks(config: SchemeConfig, blocks: np.ndarray, block_shape) -> np.ndarray:
    """Assemble per-entry block values (entries x q) into the full product,
    in C order (norms over it sum in memory order); output block (i, j) is
    column j*rows + i."""
    br, bc = block_shape
    rows, _, cols = block_grid(config)
    tiles = blocks.reshape(br, bc, cols, rows).transpose(3, 0, 2, 1)
    return np.ascontiguousarray(tiles.reshape(rows * br, cols * bc))


def truth_block_table(config: SchemeConfig, product: np.ndarray) -> np.ndarray:
    """Inverse of :func:`assemble_blocks`: slice a true product into the
    (entries x q) layout the decoder produces, in C order."""
    rows, _, cols = block_grid(config)
    n1, n3 = product.shape
    tiles = product.reshape(rows, n1 // rows, cols, n3 // cols).transpose(1, 3, 2, 0)
    return np.ascontiguousarray(tiles.reshape((n1 // rows) * (n3 // cols), cols * rows))


def decode(config: SchemeConfig, survivors, outputs) -> np.ndarray:
    """Recover the full product from threshold-many worker outputs.

    Survivor/output pairs are sorted canonically first, so any input
    ordering produces a bitwise identical result; worker and survivor
    indices must be integers.  The family's recovery map is folded into
    one solve G_R W = recovery (K x q) by the operator's solver (from the
    erased columns for a Chebyshev generator on its own grid, by the
    blocked LU otherwise); a singular G_R, or weights that overflow,
    raise SingularMatrixError, naming the survivors.  Every output entry's
    block values are then its survivor evaluations times W, one GEMM per
    range of _DECODE_CHUNK entries (no K x entries copy of the whole
    product), and assembled into the N1 x N3 product.
    """
    surv = check_survivors(survivors, recovery_threshold(config), config.workers)
    outputs = tuple(outputs)  # read once: ``outputs`` may be an iterator
    by_index = {check_integer(o.worker_index, "worker index"): o for o in outputs}
    if len(by_index) != len(outputs) or set(by_index) != set(surv):
        raise ValueError("outputs must carry exactly one result per survivor index")
    products = [as_matrix(by_index[s].product) for s in surv]
    block_shape = products[0].shape
    for s, p in zip(surv, products):
        if p.shape != block_shape:
            raise ValueError(f"worker {s}'s product is {p.shape}, worker {surv[0]}'s {block_shape}")
    flat = [p.ravel() for p in products]

    op = decode_operator(config)
    weights = op.solver.weights(np.asarray(surv, dtype=np.int64) - 1, op.recovery)
    blocks = np.empty((weights.shape[1], flat[0].size))  # (q, entries)
    for lo in range(0, flat[0].size, _DECODE_CHUNK):
        hi = lo + _DECODE_CHUNK
        blocks[:, lo:hi] = weights.T @ np.stack([p[lo:hi] for p in flat])
    return assemble_blocks(config, blocks.T, block_shape)
