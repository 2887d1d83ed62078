"""Coded computing on Chebyshev grids.

Orthogonal-polynomial encodings for straggler-tolerant distributed
matrix multiplication and Lagrange coded computing, their monomial-basis
baselines, and the experiment harness that measures decode conditioning
and relative error.
"""

from .linalg import Rng, SingularMatrixError, cond, gaussian_matrix, matmul, solve
from .poly_basis import ChebyshevGrid, QuadratureRule, cheb_T, cheb_grid, quad_rule
from .cheb_vandermonde import (
    BudgetExceededError,
    build_generator,
    subset_cond_stats,
    theorem_bound_value,
)
from .matmul_codes import (
    SchemeConfig,
    WorkerOutput,
    WorkerShard,
    build_h_map,
    decode,
    encode,
    recovery_threshold,
    scheme_config,
    worker_compute,
)
from .lagrange_codes import LagrangeConfig, PolyMap, lagrange_decode, lagrange_encode, linear_map
from .sim_harness import (
    ExperimentRecord,
    FaultModel,
    relative_error,
    run_lagrange_trial,
    run_trial,
    sweep,
    table1_plan,
)

__version__ = "0.1.0"
