"""In-process master/worker/fusion simulation and experiment drivers.

A trial encodes once, computes all P worker outputs once, and then
replays erasure patterns: each survivor subset costs one solve against
the survivor submatrix of the decode generator.  The fusion weights
W_R = G_R^{-1} @ recovery come from the same :func:`chebcoded.linalg.solve`
call the library decoders make, so they are bitwise those of
:func:`chebcoded.matmul_codes.decode` and
:func:`chebcoded.lagrange_codes.lagrange_decode`; only the estimate GEMM
differs in shape (one product per chunk of subsets instead of one per
decode).

``sweep`` turns plan rows into :class:`ExperimentRecord` values along
one path.  A per-kind part (matmul, Lagrange or cond) reads the row's
config, dims and seeds and returns a per-seed trial; the shared tail checks
that the metrics fit the kind and that threshold + delta = P, averages the
trials over the seeds and builds the records.  A row failing with a
``KeyError`` or ``ValueError`` becomes error records instead.  The CSV/JSON
emitters render records byte-deterministically.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import lagrange_codes, matmul_codes
from .cheb_vandermonde import (
    EXHAUSTIVE_SUBSET_LIMIT,
    BudgetExceededError,
    CondStats,
    check_survivors,
    iter_column_subsets,
    sample_column_subsets,
    subset_cond_stats,
)
from .linalg import Rng, as_matrix, gaussian_matrix, matmul, solve
from .poly_basis import cheb_grid

__all__ = [
    "CSV_HEADER",
    "FaultModel",
    "TrialResult",
    "ExperimentRecord",
    "relative_error",
    "survivor_subsets",
    "run_trial",
    "run_lagrange_trial",
    "sweep",
    "table1_plan",
    "error_growth_plan",
    "condition_growth_plan",
    "lagrange_stability_plan",
    "matmul_config_for",
    "fit_dims",
    "records_to_csv",
    "records_to_json",
    "write_records",
]

CSV_HEADER = "scheme,P,threshold,delta,metric,value,seed,n1,n2,n3,subset_mode,error"

METRICS = ("cond_worst", "cond_avg", "relerr_worst", "relerr_avg")

COND_SCHEMES = ("chebyshev", "monomial", "chebyshev_normalized")
LAGRANGE_SCHEMES = ("lagrange_chebyshev", "lagrange_monomial")

# Subsets are replayed in chunks whose working set stays under this many floats.
REPLAY_CHUNK_FLOATS = 6_000_000

# table1_plan enumerates exhaustively up to here, then samples.
_TABLE1_EXHAUSTIVE_CAP = 20000
_TABLE1_SAMPLES = 2000
_SEEDS_PER_POINT = 5


@dataclass(frozen=True)
class FaultModel:
    """Which survivor subsets the fusion node is made to decode from.

    exhaustive  - every threshold-size subset (also what worst_only runs;
                  worst_only just signals that only the max is of interest)
    random      - ``samples`` distinct subsets drawn from seed ``seed``
    fixed       - exactly the given subset
    """

    mode: str
    samples: int | None = None
    seed: int | None = None
    subset: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.mode not in ("exhaustive", "worst_only", "random", "fixed"):
            raise ValueError(f"unknown fault mode {self.mode!r}")
        if self.mode == "random" and (self.samples is None or self.samples < 1):
            raise ValueError("random fault mode needs samples >= 1")
        if self.mode == "fixed" and not self.subset:
            raise ValueError("fixed fault mode needs a survivor subset")

    def label(self) -> str:
        if self.mode == "random":
            return f"random({self.samples})"
        if self.mode == "fixed":
            return "fixed(" + ";".join(str(s) for s in self.subset) + ")"
        return self.mode


@dataclass(frozen=True)
class TrialResult:
    worst: float
    average: float
    worst_subset: tuple[int, ...]


def relative_error(truth, estimate) -> float:
    """Frobenius-norm ratio ||truth - estimate||_F / ||truth||_F."""
    t = np.asarray(truth, dtype=np.float64)
    e = np.asarray(estimate, dtype=np.float64)
    if t.shape != e.shape:
        raise ValueError(f"shape mismatch: {t.shape} vs {e.shape}")
    denom = float(np.linalg.norm(t))
    if denom == 0.0:
        raise ValueError("relative error is undefined for a zero truth")
    return float(np.linalg.norm(t - e)) / denom


def survivor_subsets(fault: FaultModel, workers: int, threshold: int) -> list[tuple[int, ...]]:
    """Materialize the subset list for a fault model, in replay order."""
    if fault.mode == "fixed":
        return [check_survivors(fault.subset, threshold, workers)]
    if fault.mode == "random":
        return sample_column_subsets(workers, threshold, fault.samples, Rng(fault.seed or 0))
    total = math.comb(workers, threshold)
    if total > EXHAUSTIVE_SUBSET_LIMIT:
        raise BudgetExceededError(
            f"{total} survivor subsets exceed the exhaustive budget {EXHAUSTIVE_SUBSET_LIMIT}; "
            f"use a random fault model"
        )
    return list(iter_column_subsets(workers, threshold))


def _replay_errors(generator, recovery, all_evals, truth_blocks, subsets):
    """Per-subset relative errors of the folded fusion map.

    For survivors R the estimate of every output entry is its eval row
    times the weights W_R = G_R^{-1} @ recovery; the weights are scattered
    back so the precomputed eval table can be reused unchanged.  Subsets
    are replayed in chunks: one stacked :func:`chebcoded.linalg.solve`
    gives the weights of the whole chunk and one GEMM its estimates.
    Singular lanes (NaN weights) and overflowing ones report the infinity
    sentinel.  Every lane is computed on its own, so results do not depend
    on the chunk size.
    """
    workers = generator.shape[1]
    k, q = recovery.shape
    entries = all_evals.shape[0]
    truth_norm = float(np.linalg.norm(truth_blocks))
    idx = np.asarray(subsets, dtype=np.int64) - 1  # (total, k)

    floats_per_subset = k * k + 2 * k * q + workers * q + 2 * entries * q
    chunk = max(1, min(len(subsets), REPLAY_CHUNK_FLOATS // max(1, floats_per_subset)))
    errors = np.empty(len(subsets))
    for start in range(0, len(subsets), chunk):
        sel = idx[start : start + chunk]
        errors[start : start + chunk] = _replay_chunk(
            generator, recovery, all_evals, truth_blocks, truth_norm, sel
        )
    return errors.tolist()


def _replay_chunk(generator, recovery, all_evals, truth_blocks, truth_norm, sel):
    count = len(sel)
    # [s, i, j] = generator[i, sel[s, j]], i.e. the survivor submatrix G_R;
    # passed as a temporary so that solve can free it once copied
    weights = solve(
        generator.T[sel].transpose(0, 2, 1), np.broadcast_to(recovery, (count,) + recovery.shape)
    )
    scattered = np.zeros((count, generator.shape[1], recovery.shape[1]))
    scattered[np.arange(count)[:, None], sel, :] = weights
    with np.errstate(all="ignore"):  # NaN or overflowing lanes become inf below
        estimates = np.matmul(all_evals[None, :, :], scattered)
        diffs = (estimates - truth_blocks[None, :, :]).reshape(count, -1)
        errs = np.linalg.norm(diffs, axis=1) / truth_norm
    return np.where(np.isfinite(errs), errs, np.inf)


def _reduce_errors(errors, subsets) -> TrialResult:
    worst = -math.inf
    worst_at = 0
    total = 0.0
    for pos, err in enumerate(errors):
        if err > worst:
            worst = err
            worst_at = pos
        total += err
    return TrialResult(worst=worst, average=total / len(errors), worst_subset=subsets[worst_at])


def run_trial(config, a, b, fault: FaultModel) -> TrialResult:
    """Full matmul-code trial: list the survivor subsets (so that an
    over-budget fault fails before any work), encode, run all workers,
    replay erasures."""
    a = as_matrix(a)
    b = as_matrix(b)
    op = matmul_codes.decode_operator(config)
    subsets = survivor_subsets(fault, config.workers, op.threshold)
    shards = matmul_codes.encode(config, a, b)
    outputs = [matmul_codes.worker_compute(s) for s in shards]
    all_evals = np.stack([o.product.ravel() for o in outputs], axis=1)
    truth_blocks = matmul_codes.truth_block_table(config, matmul(a, b))
    errors = _replay_errors(op.generator, op.recovery, all_evals, truth_blocks, subsets)
    return _reduce_errors(errors, subsets)


def run_lagrange_trial(config, f, data, fault: FaultModel, basis: str = "chebyshev") -> TrialResult:
    """Lagrange-coding trial; truth is f applied to the raw data points.
    The survivor subsets are listed first, as in :func:`run_trial`."""
    subsets = survivor_subsets(fault, config.workers, config.threshold)
    encoded = lagrange_codes.lagrange_encode(config, data)
    outs = lagrange_codes.worker_outputs(config, f, encoded)  # (P, v)
    truth = np.stack([f(row) for row in as_matrix(data)])  # (m, v)
    gen = lagrange_codes.decode_generator(config, basis)
    anchor_block = gen[:, : config.m]
    # estimate (m, v) = anchors^T @ G_R^{-1}^T ... folded as in _replay_errors,
    # with output components playing the role of entries
    errors = _replay_errors(gen, anchor_block, outs.T, truth.T, subsets)
    return _reduce_errors(errors, subsets)


@dataclass(frozen=True)
class ExperimentRecord:
    """One emitted row; field order matches the CSV schema."""

    scheme: str
    workers: int
    threshold: int
    delta: int
    metric: str
    value: float
    seed: int
    n1: int
    n2: int
    n3: int
    subset_mode: str
    error: str = ""


_FIELDS = [f.name for f in fields(ExperimentRecord)]


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        cells = (repr(float(r.value)) if k == "value" else str(getattr(r, k)) for k in _FIELDS)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def records_to_json(records) -> str:
    rows = [{("P" if k == "workers" else k): getattr(r, k) for k in _FIELDS} for r in records]
    return json.dumps(rows, indent=2) + "\n"


def write_records(records, out=None, fmt: str = "csv") -> str:
    """Render records and write them to a path, file object, or stdout."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    text = records_to_csv(records) if fmt == "csv" else records_to_json(records)
    if out is None:
        sys.stdout.write(text)
    elif isinstance(out, (str, bytes)):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    elif hasattr(out, "write"):
        out.write(text)
    else:
        raise ValueError(f"cannot write records to {out!r}")
    return text


def fit_dims(dims, row_split: int = 1, inner_split: int = 1, col_split: int = 1):
    """Round requested dimensions to the nearest positive multiples of the
    split counts so every scheme in a comparison sees (near-)equal sizes."""
    n1, n2, n3 = dims

    def fit(d, k):
        return k * max(1, round(d / k))

    return fit(n1, row_split), fit(n2, inner_split), fit(n3, col_split)


def _as_int(value) -> int:
    """An integer plan value: bools and non-integral numbers (10.9, but not
    10.0) are rejected rather than truncated."""
    if isinstance(value, (bool, np.bool_)) or (isinstance(value, float) and not value.is_integer()):
        raise TypeError(f"not an integer: {value!r}")
    return int(value)


def _plan_int(row: dict, key: str, default=None) -> int:
    """``row[key]`` as an int; a value of the wrong JSON type reads as a
    ValueError naming the key.  A missing key without a default raises
    KeyError, which ``sweep`` reports as ``missing plan key``."""
    value = row[key] if default is None else row.get(key, default)
    try:
        return _as_int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"plan key {key!r} must be an integer, got {value!r}") from None


def _plan_ints(row: dict, key: str, default=None, size: int | None = None) -> list[int]:
    """``row[key]`` as a non-empty list of ints (of length ``size`` if given)."""
    values = row[key] if default is None else row.get(key, default)
    if isinstance(values, (list, tuple)) and values and len(values) == (size or len(values)):
        try:
            return [_as_int(v) for v in values]
        except (TypeError, ValueError, OverflowError):
            pass
    want = f"{size} integers" if size else "integers"
    raise ValueError(f"plan key {key!r} must be a non-empty list of {want}, got {values!r}")


def matmul_config_for(scheme: str, workers: int, delta: int, row: dict | None = None):
    """Build a SchemeConfig from (scheme, P, delta) plus optional explicit
    splits in ``row``; derived splits put the threshold at P - delta, and
    ``sweep`` rejects explicit ones that do not."""
    row = row or {}
    k = workers - delta
    if k < 1:
        raise ValueError(f"delta={delta} leaves no decodable threshold at P={workers}")
    if scheme in ("matdot", "orthomatdot"):
        if "m" not in row and k % 2 == 0:
            raise ValueError(f"threshold P-delta={k} must be odd (2m-1) for {scheme}")
        m = _plan_int(row, "m") if "m" in row else (k + 1) // 2
        return matmul_codes.scheme_config(scheme, workers, m=m)
    if scheme in ("polynomial", "orthopoly"):
        if "m" in row or "n" in row:
            m, n = _plan_int(row, "m"), _plan_int(row, "n")
        else:  # m is the largest divisor of k at most sqrt(k)
            m = max(d for d in range(1, math.isqrt(k) + 1) if k % d == 0)
            n = k // m
        return matmul_codes.scheme_config(scheme, workers, m=m, n=n)
    if scheme == "gen_orthomatdot":
        try:
            m1, m2, m3 = _plan_int(row, "m1"), _plan_int(row, "m2"), _plan_int(row, "m3")
        except KeyError as exc:
            raise ValueError("gen_orthomatdot rows need explicit m1, m2, m3") from exc
        return matmul_codes.scheme_config(scheme, workers, m1=m1, m2=m2, m3=m3)
    raise ValueError(f"unknown scheme {scheme!r}")


def _row_fault(row: dict) -> FaultModel:
    """The row's fault model; random trials take their seed from the trial."""
    desc = row.get("fault", {"mode": "exhaustive"})
    if not isinstance(desc, dict):
        raise ValueError(f"plan key 'fault' must be an object, got {desc!r}")
    mode = desc.get("mode", "exhaustive")
    if mode == "random":
        return FaultModel(mode="random", samples=_plan_int(desc, "samples", _TABLE1_SAMPLES))
    if mode == "fixed":
        return FaultModel(mode="fixed", subset=tuple(_plan_ints(desc, "subset")))
    return FaultModel(mode=mode)


def _row_metrics(row: dict) -> list[str]:
    metrics = row.get("metrics") or [row["metric"]]
    if not isinstance(metrics, (list, tuple)):
        raise ValueError(f"plan key 'metrics' must be a list of metric names, got {metrics!r}")
    for metric in metrics:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    return list(metrics)


def _matmul_part(row: dict, scheme: str, workers: int, delta: int, fault: FaultModel):
    config = matmul_config_for(scheme, workers, delta, row)
    dims = _plan_ints(row, "dims", (120, 120, 120), size=3)
    if config.family in ("matdot", "orthomatdot"):
        n1, n2, n3 = fit_dims(dims, inner_split=config.m)
    elif config.family in ("polynomial", "orthopoly"):
        n1, n2, n3 = fit_dims(dims, row_split=config.m, col_split=config.n)
    else:
        n1, n2, n3 = fit_dims(dims, config.m1, config.m2, config.m3)

    def trial(seed: int) -> TrialResult:
        rng = Rng(seed)
        a = gaussian_matrix(rng, n1, n2)
        b = gaussian_matrix(rng, n2, n3)
        return run_trial(config, a, b, replace(fault, seed=seed))

    return matmul_codes.recovery_threshold(config), (n1, n2, n3), _plan_ints(row, "seeds"), trial


def _lagrange_part(row: dict, scheme: str, workers: int, delta: int, fault: FaultModel):
    deg_f = _plan_int(row, "deg_f", 1)
    dim = _plan_int(row, "dim", 10)
    if "m" not in row and (deg_f < 1 or (workers - delta - 1) % deg_f):
        raise ValueError(f"P-delta={workers - delta} is not a valid threshold for deg_f={deg_f}")
    m = _plan_int(row, "m") if "m" in row else (workers - delta - 1) // deg_f + 1
    config = lagrange_codes.LagrangeConfig(m=m, workers=workers, dim=dim, deg_f=deg_f)
    basis = "chebyshev" if scheme == "lagrange_chebyshev" else "monomial"

    def trial(seed: int) -> TrialResult:
        rng = Rng(seed)
        data = gaussian_matrix(rng, m, dim)
        f = lagrange_codes.linear_map(rng.normals(dim))
        return run_lagrange_trial(config, f, data, replace(fault, seed=seed), basis)

    return config.threshold, (dim, 1, m), _plan_ints(row, "seeds"), trial


def _cond_part(row: dict, scheme: str, workers: int, delta: int, fault: FaultModel):
    if fault.mode == "fixed":
        raise ValueError("cond rows take an exhaustive or random fault, not a fixed one")
    k = _plan_int(row, "rows", workers - delta)
    norm = row.get("norm", "l2")
    if norm not in ("l2", "spectral", "frobenius"):
        raise ValueError(f"unknown norm {norm!r}, expected one of ('l2', 'spectral', 'frobenius')")
    norm = "frobenius" if norm == "frobenius" else "spectral"
    points = cheb_grid(workers).points
    mode = "sampled" if fault.mode == "random" else "exhaustive"

    def trial(seed: int) -> CondStats:
        return subset_cond_stats(scheme, k, points, k, norm, mode, fault.samples, Rng(seed))

    # a cond row runs one trial, on its first seed (0 when it lists none)
    seeds = _plan_ints(row, "seeds")[:1] if row.get("seeds") else [0]
    return k, (k, workers, 0), seeds, trial


def _records(scheme, workers, threshold, delta, metrics, worst, average, seed, dims, subset_mode,
             error=""):
    """The one record builder: ``*_worst`` metrics take ``worst``, ``*_avg`` ``average``."""
    return [
        ExperimentRecord(
            scheme, workers, threshold, delta, metric,
            worst if metric.endswith("_worst") else average, seed, *dims, subset_mode, error,
        )
        for metric in metrics
    ]


def _run_row(row) -> list[ExperimentRecord]:
    """Run one plan row: the per-kind part reads the config, dims, seeds and
    a ``seed -> TrialResult | CondStats`` trial; the rest is shared."""
    if not isinstance(row, dict):
        raise ValueError(f"plan row must be an object, got {row!r}")
    scheme = row["scheme"]
    if scheme in matmul_codes.FAMILIES:
        part, kind = _matmul_part, "relerr"
    elif scheme in LAGRANGE_SCHEMES:
        part, kind = _lagrange_part, "relerr"
    elif scheme in COND_SCHEMES:
        part, kind = _cond_part, "cond"
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    workers = _plan_int(row, "P")
    delta = _plan_int(row, "delta")
    fault = _row_fault(row)
    threshold, dims, seeds, trial = part(row, scheme, workers, delta, fault)
    metrics = _row_metrics(row)
    wrong = [metric for metric in metrics if not metric.startswith(kind)]
    if wrong:
        raise ValueError(f"metric {wrong[0]!r} does not apply to scheme {scheme!r}: use {kind}_*")
    if threshold + delta != workers:
        raise ValueError(f"threshold {threshold} + delta {delta} does not equal P={workers}")
    trials = [trial(seed) for seed in seeds]
    worst = sum(t.worst for t in trials) / len(trials)
    average = sum(t.average for t in trials) / len(trials)
    return _records(
        scheme, workers, threshold, delta, metrics, worst, average, seeds[0], dims, fault.label()
    )


def sweep(plan) -> list[ExperimentRecord]:
    """Run every plan row in order; a row that fails with a domain error
    (``KeyError`` for a missing plan key, or ``ValueError``, the base of
    ``SingularMatrixError`` and ``BudgetExceededError``) becomes error
    records and the sweep goes on.  Other exceptions are bugs and propagate."""
    records: list[ExperimentRecord] = []
    for row in plan:
        try:
            records.extend(_run_row(row))
        except (KeyError, ValueError) as exc:
            records.extend(_error_records(row, exc))
    return records


def _error_records(row, exc: Exception) -> list[ExperimentRecord]:
    """Records of a failed row, one per metric it asked for; never raises,
    whatever the row holds."""
    row = row if isinstance(row, dict) else {}

    def read(parse, *args, fallback=0):
        try:
            return parse(row, *args)
        except (KeyError, ValueError):
            return fallback

    text = f"missing plan key {exc}" if isinstance(exc, KeyError) else str(exc)
    return _records(
        _csv_safe(str(row.get("scheme", "?"))), read(_plan_int, "P"), 0, read(_plan_int, "delta"),
        read(_row_metrics, fallback=["relerr_worst"]), math.inf, math.inf,
        read(_plan_ints, "seeds", fallback=[0])[0], (0, 0, 0), "error", _csv_safe(text),
    )


def _csv_safe(text: str) -> str:
    return text.replace(",", ";").replace("\n", " ")


def table1_plan(seed: int, dims=(120, 120, 120)) -> list[dict]:
    """Worst/average relative error for the inner-split pair at fixed
    redundancy 3 and P in {30, 50, 80, 150}; exhaustive subsets while
    affordable, 2000 sampled subsets beyond."""
    plan = []
    for workers in (30, 50, 80, 150):
        threshold = workers - 3
        if math.comb(workers, threshold) <= _TABLE1_EXHAUSTIVE_CAP:
            fault = {"mode": "exhaustive"}
        else:
            fault = {"mode": "random", "samples": _TABLE1_SAMPLES}
        for scheme in ("matdot", "orthomatdot"):
            plan.append(
                {
                    "scheme": scheme,
                    "P": workers,
                    "delta": 3,
                    "dims": tuple(dims),
                    "metrics": ["relerr_worst", "relerr_avg"],
                    "fault": fault,
                    "seeds": list(range(seed, seed + _SEEDS_PER_POINT)),
                }
            )
    return plan


def error_growth_plan(
    schemes=("matdot", "orthomatdot"),
    workers=(20, 40, 60, 80),
    delta: int = 3,
    dims=(120, 120, 120),
    samples: int = 2000,
    seed: int = 0,
) -> list[dict]:
    """Relative-error growth with system size at fixed redundancy."""
    return [
        {
            "scheme": scheme,
            "P": p,
            "delta": delta,
            "dims": tuple(dims),
            "metrics": ["relerr_worst", "relerr_avg"],
            "fault": {"mode": "random", "samples": samples},
            "seeds": list(range(seed, seed + _SEEDS_PER_POINT)),
        }
        for scheme in schemes
        for p in workers
    ]


def condition_growth_plan(
    kinds=("monomial", "chebyshev"),
    workers=(16, 30, 60, 80, 100),
    delta: int = 3,
    norm: str = "l2",
    samples: int | None = None,
    seed: int = 0,
) -> list[dict]:
    """Worst/average condition number of the decode submatrices."""
    plan = []
    for kind in kinds:
        for p in workers:
            fault = (
                {"mode": "random", "samples": samples}
                if samples
                else {"mode": "exhaustive"}
            )
            plan.append(
                {
                    "scheme": kind,
                    "P": p,
                    "delta": delta,
                    "norm": norm,
                    "metrics": ["cond_worst", "cond_avg"],
                    "fault": fault,
                    "seeds": [seed],
                }
            )
    return plan


def lagrange_stability_plan(
    workers=(20, 40, 60, 80, 100),
    delta: int = 2,
    dim: int = 10,
    deg_f: int = 1,
    samples: int = 50,
    seed: int = 0,
) -> list[dict]:
    """Chebyshev vs monomial decoding error for Lagrange coding."""
    return [
        {
            "scheme": scheme,
            "P": p,
            "delta": delta,
            "dim": dim,
            "deg_f": deg_f,
            "metrics": ["relerr_avg", "relerr_worst"],
            "fault": {"mode": "random", "samples": samples},
            "seeds": list(range(seed, seed + _SEEDS_PER_POINT)),
        }
        for scheme in LAGRANGE_SCHEMES
        for p in workers
    ]
