"""In-process master/worker/fusion simulation and experiment drivers.

A trial encodes once, computes all P worker outputs once, and then
replays erasure patterns: each survivor subset costs one solve against
the survivor submatrix of the decode generator.  Per-subset errors are
evaluated through the same linear fusion map the full decoder applies
(coefficients -> recovery map), folded into a single solve per subset;
the full per-entry decode and this folded form differ only in float
rounding order.

``sweep`` turns plan rows into :class:`ExperimentRecord` values and the
CSV/JSON emitters render them byte-deterministically.
"""

from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import lagrange_codes, matmul_codes
from .cheb_vandermonde import iter_column_subsets, sample_column_subsets, subset_cond_stats
from .linalg import SINGULAR_PIVOT_RTOL, Rng, as_matrix, gaussian_matrix, matmul
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

# Exhaustive subset replay above this count is refused (sample instead).
SUBSET_BUDGET = 10**6

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
        subset = tuple(sorted(int(s) for s in fault.subset))
        if len(subset) != threshold or len(set(subset)) != len(subset):
            raise ValueError(f"fixed fault needs {threshold} distinct survivors, got {subset}")
        if subset[0] < 1 or subset[-1] > workers:
            raise ValueError(f"fixed fault survivors {subset} out of range [1, {workers}]")
        return [subset]
    if fault.mode == "random":
        return sample_column_subsets(workers, threshold, fault.samples, Rng(fault.seed or 0))
    total = math.comb(workers, threshold)
    if total > SUBSET_BUDGET:
        raise ValueError(
            f"{total} survivor subsets exceed the exhaustive budget {SUBSET_BUDGET}; "
            f"use a random fault model"
        )
    return list(iter_column_subsets(workers, threshold))


def _replay_errors(generator, recovery, all_evals, truth_blocks, subsets):
    """Per-subset relative errors of the folded fusion map.

    For survivors R the estimate of every output entry is its eval row
    times G_R^{-1} @ recovery; the survivor weights are scattered back so
    the precomputed eval table can be reused unchanged.  Subsets are
    solved in vectorized chunks: one Gaussian elimination with partial
    pivoting runs across the whole chunk, with the same pivot threshold
    as :func:`chebcoded.linalg.lu_factor`; lanes that fail it (or overflow
    outright) report the infinity sentinel.  Every lane is computed on
    its own, so results do not depend on the chunk size.
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
    count, k = sel.shape
    workers = generator.shape[1]
    q = recovery.shape[1]
    # [s, i, j] = generator[i, sel[s, j]], i.e. the survivor submatrix G_R
    stacks = generator.T[sel].transpose(0, 2, 1).copy()
    x = np.repeat(recovery[None, :, :], count, axis=0)
    scale = np.linalg.norm(stacks.reshape(count, -1), axis=1)
    ok = scale > 0.0
    rows = np.arange(count)
    with np.errstate(all="ignore"):
        for col in range(k):
            piv_idx = col + np.argmax(np.abs(stacks[:, col:, col]), axis=1)
            piv_val = stacks[rows, piv_idx, col]
            ok &= np.abs(piv_val) >= SINGULAR_PIVOT_RTOL * scale
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
        scattered = np.zeros((count, workers, q))
        scattered[rows[:, None], sel, :] = x
        estimates = np.matmul(all_evals[None, :, :], scattered)
        diffs = (estimates - truth_blocks[None, :, :]).reshape(count, -1)
        errs = np.linalg.norm(diffs, axis=1) / truth_norm
    return np.where(ok & np.isfinite(errs), errs, np.inf)


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
    """Full matmul-code trial: encode, run all workers, replay erasures."""
    a = as_matrix(a)
    b = as_matrix(b)
    shards = matmul_codes.encode(config, a, b)
    outputs = [matmul_codes.worker_compute(s) for s in shards]
    all_evals = np.stack([o.product.ravel() for o in outputs], axis=1)
    truth_blocks = matmul_codes.truth_block_table(config, matmul(a, b))
    op = matmul_codes.decode_operator(config)
    subsets = survivor_subsets(fault, config.workers, op.threshold)
    errors = _replay_errors(op.generator, op.recovery, all_evals, truth_blocks, subsets)
    return _reduce_errors(errors, subsets)


def run_lagrange_trial(config, f, data, fault: FaultModel, basis: str = "chebyshev") -> TrialResult:
    """Lagrange-coding trial; truth is f applied to the raw data points."""
    encoded = lagrange_codes.lagrange_encode(config, data)
    outs = lagrange_codes.worker_outputs(config, f, encoded)  # (P, v)
    truth = np.stack([f(row) for row in as_matrix(data)])  # (m, v)
    gen = lagrange_codes.decode_generator(config, basis)
    anchor_block = gen[:, : config.m]
    subsets = survivor_subsets(fault, config.workers, config.threshold)
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


def _fmt_value(v: float) -> str:
    return repr(float(v))


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                [
                    r.scheme,
                    str(r.workers),
                    str(r.threshold),
                    str(r.delta),
                    r.metric,
                    _fmt_value(r.value),
                    str(r.seed),
                    str(r.n1),
                    str(r.n2),
                    str(r.n3),
                    r.subset_mode,
                    r.error,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def records_to_json(records) -> str:
    keys = [f.name for f in fields(ExperimentRecord)]
    out = []
    for r in records:
        row = {}
        for key in keys:
            name = "P" if key == "workers" else key
            row[name] = getattr(r, key)
        out.append(row)
    return json.dumps(out, indent=2) + "\n"


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
    elif isinstance(out, io.TextIOBase) or hasattr(out, "write"):
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


def _largest_divisor_leq_sqrt(k: int) -> int:
    best = 1
    d = 1
    while d * d <= k:
        if k % d == 0:
            best = d
        d += 1
    return best


def matmul_config_for(scheme: str, workers: int, delta: int, row: dict | None = None):
    """Build a SchemeConfig from (scheme, P, delta) plus optional explicit
    splits in ``row``; the threshold always lands at P - delta."""
    row = row or {}
    k = workers - delta
    if k < 1:
        raise ValueError(f"delta={delta} leaves no decodable threshold at P={workers}")
    if scheme in ("matdot", "orthomatdot"):
        if "m" in row:
            m = int(row["m"])
        else:
            if k % 2 == 0:
                raise ValueError(f"threshold P-delta={k} must be odd (2m-1) for {scheme}")
            m = (k + 1) // 2
        return matmul_codes.scheme_config(scheme, workers, m=m)
    if scheme in ("polynomial", "orthopoly"):
        if "m" in row or "n" in row:
            m, n = int(row["m"]), int(row["n"])
        else:
            m = _largest_divisor_leq_sqrt(k)
            n = k // m
        return matmul_codes.scheme_config(scheme, workers, m=m, n=n)
    if scheme == "gen_orthomatdot":
        try:
            m1, m2, m3 = int(row["m1"]), int(row["m2"]), int(row["m3"])
        except KeyError as exc:
            raise ValueError("gen_orthomatdot rows need explicit m1, m2, m3") from exc
        cfg = matmul_codes.scheme_config(scheme, workers, m1=m1, m2=m2, m3=m3)
        actual = workers - matmul_codes.recovery_threshold(cfg)
        if actual != delta:
            raise ValueError(f"delta={delta} inconsistent with threshold: actual delta {actual}")
        return cfg
    raise ValueError(f"unknown scheme {scheme!r}")


def _scheme_dims(config, dims):
    if config.family in ("matdot", "orthomatdot"):
        return fit_dims(dims, inner_split=config.m)
    if config.family in ("polynomial", "orthopoly"):
        return fit_dims(dims, row_split=config.m, col_split=config.n)
    return fit_dims(dims, row_split=config.m1, inner_split=config.m2, col_split=config.m3)


def _row_fault(row: dict, seed: int) -> FaultModel:
    desc = row.get("fault", {"mode": "exhaustive"})
    mode = desc.get("mode", "exhaustive")
    if mode == "random":
        return FaultModel(mode="random", samples=int(desc.get("samples", _TABLE1_SAMPLES)), seed=seed)
    if mode == "fixed":
        return FaultModel(mode="fixed", subset=tuple(desc["subset"]))
    return FaultModel(mode=mode)


def _row_metrics(row: dict) -> list[str]:
    metrics = row.get("metrics") or [row["metric"]]
    for metric in metrics:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    return list(metrics)


def _run_matmul_row(row: dict) -> list[ExperimentRecord]:
    scheme = row["scheme"]
    workers = int(row["P"])
    delta = int(row["delta"])
    seeds = [int(s) for s in row["seeds"]]
    config = matmul_config_for(scheme, workers, delta, row)
    n1, n2, n3 = _scheme_dims(config, row.get("dims", (120, 120, 120)))
    threshold = matmul_codes.recovery_threshold(config)

    worsts, averages = [], []
    for seed in seeds:
        rng = Rng(seed)
        a = gaussian_matrix(rng, n1, n2)
        b = gaussian_matrix(rng, n2, n3)
        trial = run_trial(config, a, b, _row_fault(row, seed))
        worsts.append(trial.worst)
        averages.append(trial.average)

    out = []
    for metric in _row_metrics(row):
        values = worsts if metric == "relerr_worst" else averages
        out.append(
            ExperimentRecord(
                scheme=scheme,
                workers=workers,
                threshold=threshold,
                delta=delta,
                metric=metric,
                value=sum(values) / len(values),
                seed=seeds[0],
                n1=n1,
                n2=n2,
                n3=n3,
                subset_mode=_row_fault(row, seeds[0]).label(),
            )
        )
    return out


def _run_lagrange_row(row: dict) -> list[ExperimentRecord]:
    scheme = row["scheme"]
    basis = "chebyshev" if scheme == "lagrange_chebyshev" else "monomial"
    workers = int(row["P"])
    delta = int(row["delta"])
    deg_f = int(row.get("deg_f", 1))
    dim = int(row.get("dim", 10))
    seeds = [int(s) for s in row["seeds"]]
    if "m" in row:
        m = int(row["m"])
    else:
        if (workers - delta - 1) % deg_f:
            raise ValueError(f"P-delta={workers - delta} is not a valid threshold for deg_f={deg_f}")
        m = (workers - delta - 1) // deg_f + 1
    config = lagrange_codes.LagrangeConfig(m=m, workers=workers, dim=dim, deg_f=deg_f)

    worsts, averages = [], []
    for seed in seeds:
        rng = Rng(seed)
        data = gaussian_matrix(rng, m, dim)
        f = lagrange_codes.linear_map(rng.normals(dim))
        trial = run_lagrange_trial(config, f, data, _row_fault(row, seed), basis)
        worsts.append(trial.worst)
        averages.append(trial.average)

    out = []
    for metric in _row_metrics(row):
        values = worsts if metric == "relerr_worst" else averages
        out.append(
            ExperimentRecord(
                scheme=scheme,
                workers=workers,
                threshold=config.threshold,
                delta=delta,
                metric=metric,
                value=sum(values) / len(values),
                seed=seeds[0],
                n1=dim,
                n2=1,
                n3=m,
                subset_mode=_row_fault(row, seeds[0]).label(),
            )
        )
    return out


def _run_cond_row(row: dict) -> list[ExperimentRecord]:
    scheme = row["scheme"]
    workers = int(row["P"])
    delta = int(row["delta"])
    rows_k = int(row.get("rows", workers - delta))
    norm = {"l2": "spectral", "spectral": "spectral", "frobenius": "frobenius"}[
        row.get("norm", "l2")
    ]
    seed = int(row["seeds"][0]) if row.get("seeds") else 0
    fault = _row_fault(row, seed)
    points = cheb_grid(workers).points
    if fault.mode == "random":
        stats = subset_cond_stats(
            scheme, rows_k, points, rows_k, norm, "sampled", fault.samples, Rng(seed)
        )
    else:
        stats = subset_cond_stats(scheme, rows_k, points, rows_k, norm, "exhaustive")

    out = []
    for metric in _row_metrics(row):
        value = stats.worst if metric == "cond_worst" else stats.average
        out.append(
            ExperimentRecord(
                scheme=scheme,
                workers=workers,
                threshold=rows_k,
                delta=workers - rows_k,
                metric=metric,
                value=value,
                seed=seed,
                n1=rows_k,
                n2=workers,
                n3=0,
                subset_mode=fault.label(),
            )
        )
    return out


def _run_row(row: dict) -> list[ExperimentRecord]:
    scheme = row["scheme"]
    if scheme in matmul_codes.FAMILIES:
        return _run_matmul_row(row)
    if scheme in LAGRANGE_SCHEMES:
        return _run_lagrange_row(row)
    if scheme in COND_SCHEMES:
        return _run_cond_row(row)
    raise ValueError(f"unknown scheme {scheme!r}")


def sweep(plan) -> list[ExperimentRecord]:
    """Run every plan row; failures land in the row's error column and
    never abort the sweep.  Output order follows plan order."""
    records: list[ExperimentRecord] = []
    for row in plan:
        try:
            records.extend(_run_row(dict(row)))
        except Exception as exc:  # noqa: BLE001 - per-row isolation is the contract
            for metric in _row_metrics_safe(row):
                records.append(
                    ExperimentRecord(
                        scheme=str(row.get("scheme", "?")),
                        workers=int(row.get("P", 0)),
                        threshold=0,
                        delta=int(row.get("delta", 0)),
                        metric=metric,
                        value=math.inf,
                        seed=int(row["seeds"][0]) if row.get("seeds") else 0,
                        n1=0,
                        n2=0,
                        n3=0,
                        subset_mode="error",
                        error=str(exc).replace(",", ";").replace("\n", " "),
                    )
                )
    return records


def _row_metrics_safe(row) -> list[str]:
    try:
        return _row_metrics(dict(row))
    except Exception:  # noqa: BLE001
        return ["relerr_worst"]


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
