"""In-process master/worker/fusion simulation and experiment drivers.

A trial encodes once, computes all P worker outputs once, and then
replays erasure patterns: each survivor subset costs one solve against
the survivor submatrix G_R of the decode generator, by
:class:`chebcoded.cheb_vandermonde.SurvivorSolver` (from the erased
columns for a Chebyshev generator on its own grid, by the blocked LU
otherwise).  The subsets come from the pipeline the condition sweep uses
(:mod:`chebcoded.cheb_vandermonde`): one index array, gathered a chunk at
a time and reduced to one worst/average result.  The matmul fusion
weights, G_R W_R = recovery, come from the same solver call that
:func:`chebcoded.matmul_codes.decode` makes, so they are bitwise the
decoder's; only the estimate products differ in shape (one per subset
and entry block of the eval table instead of one per decode).  The
Lagrange replay folds the fusion onto the outputs instead: v_R solves
G_R^T v_R = outputs_R in the solver call that
:func:`chebcoded.lagrange_codes.lagrange_decode` makes, bitwise the
decoder's; an erased anchor is estimated as its column of anchors^T @ v_R
and a surviving one by its own output, in the decoder's
:func:`chebcoded.lagrange_codes.anchor_estimates`.  In both, a subset
whose solve is not all finite (a singular or overflowing G_R) reads
``inf`` without any estimate, in the one replay loop both trials share.

``sweep`` turns plan rows into :class:`ExperimentRecord` values along
one path.  :func:`parse_row` parses each row once against the schema
that :class:`PlanRow` declares; a per-kind part (matmul, Lagrange or cond)
reads the typed row and returns its threshold, dims and a per-seed trial;
the shared tail checks that the metrics fit the kind and that threshold +
delta = P, averages the trials over the seeds and builds the records.  A
row that breaks the schema or fails with a ``KeyError`` or ``ValueError``
becomes error records instead.  The CSV/JSON emitters render records
byte-deterministically.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import lagrange_codes, matmul_codes
from .cheb_vandermonde import (
    GENERATOR_KINDS,
    SubsetStats,
    _index_side,
    check_integer,
    check_survivors,
    subset_cond_stats,
    subset_index,
    subset_stats,
    survivor_chunks,
)
from .linalg import Rng, as_matrix, gaussian_matrix, matmul
from .poly_basis import cheb_grid

__all__ = [
    "CSV_HEADER",
    "FaultModel",
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
    "plan_rows",
    "PlanRow",
    "parse_row",
    "matmul_config_for",
    "fit_dims",
    "records_to_csv",
    "records_to_json",
    "write_text",
    "write_records",
]

METRICS = ("cond_worst", "cond_avg", "relerr_worst", "relerr_avg")

LAGRANGE_SCHEMES = tuple("lagrange_" + basis for basis in lagrange_codes.DECODE_BASES)
FAULT_MODES = ("exhaustive", "random", "fixed")

# Subsets are replayed in chunks whose working set stays under this many floats.
REPLAY_CHUNK_FLOATS = 6_000_000
# The eval table is read in entry blocks of about this many floats (256 KiB, L2-sized).
REPLAY_BLOCK_FLOATS = 32_768

# table1_plan enumerates exhaustively up to here, then samples.
_TABLE1_EXHAUSTIVE_CAP = 20000
_TABLE1_SAMPLES = 2000
_SEEDS_PER_POINT = 5


def _int(value, key: str) -> int:
    """An integer, by the rule of :func:`chebcoded.cheb_vandermonde.check_integer`."""
    return check_integer(value, f"plan key {key!r}")


def _list(item, size: int | None = None):
    """Parser of a non-empty list (of ``size`` entries if given) of ``item``s."""

    def parse(value, key: str) -> tuple:
        if not isinstance(value, (list, tuple)) or not value or len(value) != (size or len(value)):
            want = f" of {size} entries" if size else ""
            raise ValueError(f"plan key {key!r} must be a non-empty list{want}, got {value!r}")
        return tuple(item(v, key) for v in value)

    return parse


def _dims(value, key: str) -> tuple:
    dims = _list(_int, 3)(value, key)
    if min(dims) < 1:
        raise ValueError(f"plan key {key!r} must hold positive integers, got {value!r}")
    return dims


def _one_of(name: str, options: tuple):
    def parse(value, key: str):
        if value not in options:
            raise ValueError(f"unknown {name} {value!r}, expected one of {options}")
        return value

    return parse


def _key(parse, defaults: dict, fallback=None):
    """A dataclass field, defaulting to ``fallback``, that declares a plan
    key: its parser, and its default in each kind of row (or fault mode)
    that takes it ("*": every kind; MISSING: the key must be given; None:
    absent unless given)."""
    return field(default=fallback, metadata={"plan": (parse, defaults)})


@dataclass(frozen=True)
class FaultModel:
    """Which survivor subsets the fusion node is made to decode from.

    exhaustive  - every threshold-size subset
    random      - ``samples`` distinct subsets drawn from seed ``seed``
    fixed       - exactly the given subset

    The other fields declare the keys of a plan row's ``fault`` object.
    """

    mode: str = _key(_one_of("fault mode", FAULT_MODES), {"*": "exhaustive"}, MISSING)
    samples: int | None = _key(_int, {"random": _TABLE1_SAMPLES})
    seed: int | None = None
    subset: tuple[int, ...] | None = _key(_list(_int), {"fixed": MISSING})

    def __post_init__(self):
        if self.mode not in FAULT_MODES:
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


def survivor_subsets(fault: FaultModel, workers: int, threshold: int) -> np.ndarray:
    """The fault model's survivor subsets as an index array in replay
    order (:func:`chebcoded.cheb_vandermonde.subset_index`); a fixed fault
    is one row of survivors."""
    if fault.mode == "fixed":
        return np.array([check_survivors(fault.subset, threshold, workers)]) - 1
    samples = fault.samples if fault.mode == "random" else None
    return subset_index(workers, threshold, samples, Rng(fault.seed or 0))


def _replay(idx, workers: int, k: int, floats_per_subset: int, solve, errors) -> SubsetStats:
    """The one replay loop of both trials, and the one place a lane reads
    ``inf``: each chunk of ``idx`` that
    :func:`chebcoded.cheb_vandermonde.survivor_chunks` yields becomes its
    (count, k) survivors ``sel`` and takes one ``solve(sel)``, a
    (count, k, q) stack.  Only its live lanes, all of whose entries are
    finite, go to ``errors(sel, x)``; a lane that is not live (singular
    or overflowing), or whose error is not finite, reads the infinity
    sentinel, and a chunk with no live lane makes no ``errors`` call.
    :func:`chebcoded.cheb_vandermonde.subset_stats` reduces the values."""
    values = []
    for rows in survivor_chunks(idx, floats_per_subset, REPLAY_CHUNK_FLOATS):
        sel = _index_side(rows, workers, k)
        chunk = np.full(len(sel), np.inf)
        with np.errstate(all="ignore"):  # singular or overflowing lanes read inf
            x = solve(sel)
            live = np.isfinite(x).all(axis=(1, 2))
            if live.any():
                errs = errors(sel[live], x[live])
                chunk[live] = np.where(np.isfinite(errs), errs, np.inf)
        values.append(chunk)
    return subset_stats(np.concatenate(values), idx, workers, k)


def _matmul_errors(all_evals, truth_blocks, truth_norm, sel, weights) -> np.ndarray:
    """Relative errors of the folded fusion map, one per survivor row of
    ``sel``: an output entry's estimate is its eval row times the lane's
    weights W_R = G_R^{-1} @ recovery, scattered back over all workers.
    The eval table is read one cache-sized entry block
    (``REPLAY_BLOCK_FLOATS``) at a time, each subset taking its own
    product against it, so a lane's products have the same shapes
    whatever its chunk holds and its value depends on no other subset."""
    count, workers = len(sel), all_evals.shape[1]
    scattered = np.zeros((count, workers, weights.shape[2]))
    scattered[np.arange(count)[:, None], sel, :] = weights
    rows = max(1, REPLAY_BLOCK_FLOATS // workers)
    squares = np.zeros(count)
    for lo in range(0, all_evals.shape[0], rows):
        diffs = np.matmul(all_evals[None, lo : lo + rows], scattered)
        diffs -= truth_blocks[None, lo : lo + rows]
        squares += np.square(diffs, out=diffs).reshape(count, -1).sum(axis=1)
    return np.sqrt(squares) / truth_norm


def run_trial(config, a, b, fault: FaultModel) -> SubsetStats:
    """Full matmul-code trial: list the survivor subsets (so that an
    over-budget fault fails before any work), encode, run all workers,
    replay erasures with the decoder's solver
    (:class:`chebcoded.matmul_codes.DecodeOperator`)."""
    a = as_matrix(a)
    b = as_matrix(b)
    op = matmul_codes.decode_operator(config)
    idx = survivor_subsets(fault, config.workers, op.threshold)
    shards = matmul_codes.encode(config, a, b)
    outputs = [matmul_codes.worker_compute(s) for s in shards]
    all_evals = np.stack([o.product.ravel() for o in outputs], axis=1)
    truth_blocks = matmul_codes.truth_block_table(config, matmul(a, b))
    truth_norm = float(np.linalg.norm(truth_blocks))
    (k, q), entries = op.recovery.shape, all_evals.shape[0]
    cost = k * k + 2 * k * q + config.workers * q + 2 * entries * q  # floats per subset
    solve = functools.partial(op.solver.weights, rhs=op.recovery)
    errors = functools.partial(_matmul_errors, all_evals, truth_blocks, truth_norm)
    return _replay(idx, config.workers, k, cost, solve, errors)


def run_lagrange_trial(config, f, data, fault: FaultModel, basis: str = "chebyshev") -> SubsetStats:
    """Lagrange-coding trial; truth is f applied to the raw data points.
    The survivor subsets are listed first, as in :func:`run_trial`.  Each
    replayed chunk takes one stacked solve G_R^T v_R = outputs_R of
    :func:`chebcoded.lagrange_codes.decode_solver` (a right-hand side per
    output component, not per anchor); its live lanes take the estimates
    of :func:`chebcoded.lagrange_codes.anchor_estimates`.  A lane whose
    v_R is singular (NaN) or overflows reports the infinity sentinel,
    even when no anchor was erased, as does a lane whose error overflows."""
    idx = survivor_subsets(fault, config.workers, config.threshold)
    encoded = lagrange_codes.lagrange_encode(config, data)
    outs = lagrange_codes.worker_outputs(config, f, encoded)  # (P, v)
    truth = lagrange_codes.worker_outputs(config, f, data)  # (m, v): f at the raw data
    solver = lagrange_codes.decode_solver(config, basis)
    anchors = solver.generator[:, : config.m]
    k, v = config.threshold, outs.shape[1]
    truth_norm = float(np.linalg.norm(truth))

    def solve(sel):
        return solver.fold(sel, outs[sel])

    def errors(sel, folded):
        diffs = lagrange_codes.anchor_estimates(anchors, folded, sel, outs[sel]) - truth
        return np.sqrt(np.square(diffs).reshape(len(sel), -1).sum(axis=1)) / truth_norm

    return _replay(idx, config.workers, k, 2 * k * k + 3 * k * v + config.m * v, solve, errors)


@dataclass(frozen=True)
class ExperimentRecord:
    """One emitted row; its field names, in order, are the CSV header."""

    scheme: str
    P: int
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
CSV_HEADER = ",".join(_FIELDS)


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        cells = (repr(float(r.value)) if k == "value" else str(getattr(r, k)) for k in _FIELDS)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def records_to_json(records) -> str:
    """Records as a strict JSON list (RFC 8259): a non-finite value is null."""
    rows = [{k: getattr(r, k) for k in _FIELDS} for r in records]
    for row in rows:
        row["value"] = row["value"] if math.isfinite(row["value"]) else None
    return json.dumps(rows, indent=2, allow_nan=False) + "\n"


def write_text(text: str, out: str | None = None) -> None:
    """Write ``text`` to the file at path ``out``, or to stdout when ``out`` is None."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def write_records(records, out: str | None = None, fmt: str = "csv") -> None:
    """Render records as ``fmt`` (csv or json) and write them with :func:`write_text`."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    write_text(records_to_csv(records) if fmt == "csv" else records_to_json(records), out)


def fit_dims(dims, row_split: int = 1, inner_split: int = 1, col_split: int = 1):
    """Round requested dimensions to the nearest positive multiples of the
    split counts so every scheme in a comparison sees (near-)equal sizes."""
    n1, n2, n3 = dims

    def fit(d, k):
        return k * max(1, round(d / k))

    return fit(n1, row_split), fit(n2, inner_split), fit(n3, col_split)


def _fault(value, key: str) -> FaultModel:
    if not isinstance(value, dict):
        raise ValueError(f"plan key {key!r} must be an object, got {value!r}")
    mode = value.get("mode", "exhaustive")
    values, errors = _parse_keys(value, FAULT_KEYS, mode if mode in FAULT_MODES else None, "fault")
    if errors:
        raise errors[0]
    return FaultModel(**values)


def _parse_keys(obj: dict, table: dict, kind: str | None, what: str) -> tuple[dict, list]:
    """``obj`` parsed against ``table`` for ``kind`` (None: only the keys
    every kind takes): its values, and its errors, first those of keys the
    kind does not take, then per key in table order."""
    takes = {key: spec for key, spec in table.items() if {kind, "*"} & spec[1].keys()}
    errors = [ValueError(f"plan key {key!r} is not a key of {kind} {what}s")
              for key in obj if kind and key not in takes]
    values = {}
    for key, (parse, defaults) in takes.items():
        default = defaults.get(kind, defaults.get("*"))
        try:
            if key not in obj and default is MISSING:
                raise KeyError(key)
            if key in obj or default is not None:
                values[key] = parse(obj.get(key, default), key)
        except (KeyError, ValueError) as exc:
            errors.append(exc)
    return values, errors


_KINDS = {"matmul": matmul_codes.FAMILIES, "lagrange": LAGRANGE_SCHEMES, "cond": GENERATOR_KINDS}


@dataclass(frozen=True)
class PlanRow:
    """A plan row parsed by :func:`parse_row`.  The fields up to ``norm``
    declare the plan-row schema; a field the row's kind does not take, or
    an absent optional split, reads None.  A row that breaks the schema
    keeps its first ``error`` and, for its error records, every key that
    did parse."""

    scheme: str = _key(_one_of("scheme", sum(_KINDS.values(), ())), {"*": MISSING}, "?")
    P: int = _key(_int, {"*": MISSING}, 0)
    delta: int = _key(_int, {"*": MISSING}, 0)
    metrics: tuple[str, ...] = _key(
        _list(_one_of("metric", METRICS)), {"*": MISSING}, ("relerr_worst",)
    )
    seeds: tuple[int, ...] = _key(_list(_int), {"*": MISSING, "cond": [0]}, (0,))
    fault: FaultModel | None = _key(_fault, {"*": {"mode": "exhaustive"}})
    dims: tuple[int, ...] | None = _key(_dims, {"matmul": [120, 120, 120]})
    m: int | None = _key(_int, {"matmul": None})
    n: int | None = _key(_int, {"matmul": None})
    m1: int | None = _key(_int, {"matmul": None})
    m2: int | None = _key(_int, {"matmul": None})
    m3: int | None = _key(_int, {"matmul": None})
    dim: int | None = _key(_int, {"lagrange": 10})
    deg_f: int | None = _key(_int, {"lagrange": 1})
    norm: str | None = _key(_one_of("norm", ("l2", "frobenius")), {"cond": "l2"})
    kind: str | None = None
    error: Exception | None = None


PLAN_KEYS = {f.name: f.metadata["plan"] for f in fields(PlanRow) if f.metadata}
FAULT_KEYS = {f.name: f.metadata["plan"] for f in fields(FaultModel) if f.metadata}


def parse_row(row) -> PlanRow:
    """Parse a raw plan row once, against PLAN_KEYS.  The kind follows from
    the scheme; a row without a known scheme is parsed only for the keys
    every kind takes, and its error is the scheme's."""
    if not isinstance(row, dict):
        return PlanRow(error=ValueError(f"plan row must be an object, got {row!r}"))
    scheme = row.get("scheme", "?")
    kind = next((kind for kind, schemes in _KINDS.items() if scheme in schemes), None)
    values, errors = _parse_keys(row, PLAN_KEYS, kind, "row")
    return PlanRow(**{"scheme": str(scheme), **values}, kind=kind, error=next(iter(errors), None))


def matmul_config_for(scheme: str, workers: int, delta: int, row: dict | None = None):
    """Build a SchemeConfig from (scheme, P, delta) plus the explicit splits
    in ``row`` (its other keys are not read); the splits
    :func:`chebcoded.matmul_codes.derive_splits` derives put the threshold
    at P - delta, and ``sweep`` rejects explicit ones that do not."""
    splits = {key: _int(row[key], key) for key in matmul_codes.SPLITS if key in (row or {})}
    k = workers - delta
    if k < 1:
        raise ValueError(f"delta={delta} leaves no decodable threshold at P={workers}")
    splits = matmul_codes.derive_splits(scheme, k, splits)
    return matmul_codes.scheme_config(scheme, workers, **splits)


def _matmul_part(row: PlanRow):
    given = {key: value for key, value in vars(row).items() if value is not None}
    config = matmul_config_for(row.scheme, row.P, row.delta, given)
    n1, n2, n3 = fit_dims(row.dims, *matmul_codes.block_grid(config))

    def trial(seed: int) -> SubsetStats:
        rng = Rng(seed)
        a = gaussian_matrix(rng, n1, n2)
        b = gaussian_matrix(rng, n2, n3)
        return run_trial(config, a, b, replace(row.fault, seed=seed))

    return matmul_codes.recovery_threshold(config), (n1, n2, n3), trial


def _lagrange_part(row: PlanRow):
    workers, delta, deg_f, dim = row.P, row.delta, row.deg_f, row.dim
    if deg_f < 1 or (workers - delta - 1) % deg_f:
        raise ValueError(f"P-delta={workers - delta} is not a valid threshold for deg_f={deg_f}")
    m = (workers - delta - 1) // deg_f + 1
    config = lagrange_codes.LagrangeConfig(m=m, workers=workers, dim=dim, deg_f=deg_f)
    basis = row.scheme.removeprefix("lagrange_")

    def trial(seed: int) -> SubsetStats:
        rng = Rng(seed)
        data = gaussian_matrix(rng, m, dim)
        y = rng.normals(dim)
        f = lagrange_codes.PolyMap(dim, 1, lambda x: np.atleast_1d(y @ x) ** deg_f)
        return run_lagrange_trial(config, f, data, replace(row.fault, seed=seed), basis)

    return config.threshold, (dim, 1, m), trial


def _cond_part(row: PlanRow):
    if row.fault.mode == "fixed":
        raise ValueError("cond rows take an exhaustive or random fault, not a fixed one")
    k = row.P - row.delta
    norm = "frobenius" if row.norm == "frobenius" else "spectral"  # l2 is spectral
    points = cheb_grid(row.P).points

    def trial(seed: int) -> SubsetStats:
        return subset_cond_stats(row.scheme, k, points, norm, row.fault.samples, Rng(seed))

    return k, (k, row.P, 0), trial


def _records(row: PlanRow, threshold, worst, average, dims, subset_mode, error=""):
    """The one record builder, one record per metric of ``row``: ``*_worst``
    metrics take ``worst``, ``*_avg`` ``average``."""
    return [
        ExperimentRecord(
            _csv_safe(row.scheme), row.P, threshold, row.delta, metric,
            worst if metric.endswith("_worst") else average, row.seeds[0], *dims,
            subset_mode, error,
        )
        for metric in row.metrics
    ]


def _run_row(row: PlanRow) -> list[ExperimentRecord]:
    """Run one parsed plan row: the per-kind part gives the threshold, dims
    and a ``seed -> SubsetStats`` trial; the rest is shared."""
    if row.error is not None:
        raise row.error
    part = {"matmul": _matmul_part, "lagrange": _lagrange_part, "cond": _cond_part}[row.kind]
    threshold, dims, trial = part(row)
    prefix = "cond" if row.kind == "cond" else "relerr"
    wrong = [metric for metric in row.metrics if not metric.startswith(prefix)]
    if wrong:
        raise ValueError(
            f"metric {wrong[0]!r} does not apply to scheme {row.scheme!r}: use {prefix}_*"
        )
    if threshold + row.delta != row.P:
        raise ValueError(f"threshold {threshold} + delta {row.delta} does not equal P={row.P}")
    trials = [trial(seed) for seed in row.seeds]
    worst = sum(t.worst for t in trials) / len(trials)
    average = sum(t.average for t in trials) / len(trials)
    mode = row.fault.label()
    if row.fault.mode == "random" and row.fault.samples >= math.comb(row.P, threshold):
        mode = "exhaustive"  # a draw of every subset replays them all, in lexicographic order
    return _records(row, threshold, worst, average, dims, mode)


def sweep(plan) -> list[ExperimentRecord]:
    """Parse and run every plan row in order; a row that breaks the schema
    or fails with a domain error (``KeyError`` for a missing plan key, or
    ``ValueError``, the base of ``SingularMatrixError`` and
    ``BudgetExceededError``) becomes error records, one per metric it asked
    for, and the sweep goes on.  Other exceptions are bugs and propagate."""
    records: list[ExperimentRecord] = []
    for raw in plan:
        row = parse_row(raw)
        try:
            records.extend(_run_row(row))
        except (KeyError, ValueError) as exc:
            text = _csv_safe(f"missing plan key {exc}" if isinstance(exc, KeyError) else str(exc))
            records.extend(_records(row, 0, math.inf, math.inf, (0, 0, 0), "error", text))
    return records


def _csv_safe(text: str) -> str:
    return text.replace(",", ";").replace("\n", " ")


def _fault_object(subsets) -> dict:
    if subsets is None:
        return {"mode": "exhaustive"}
    if isinstance(subsets, tuple):
        return {"mode": "fixed", "subset": subsets}
    return {"mode": "random", "samples": subsets}


def plan_rows(pairs, delta: int, subsets, seed: int, seed_count: int = _SEEDS_PER_POINT,
              metrics=("relerr_worst", "relerr_avg"), **kind_keys) -> list[dict]:
    """One plan row per (scheme, P) of ``pairs``, in order: the seeds from
    ``seed`` on (five, the experiment protocol, by default), the kind's own
    keys, and a fault that replays every survivor subset (``subsets``
    None), that many random ones (an integer) or the survivor set (a tuple)."""
    return [
        {"scheme": scheme, "P": p, "delta": delta, **kind_keys, "metrics": list(metrics),
         "fault": _fault_object(subsets), "seeds": list(range(seed, seed + seed_count))}
        for scheme, p in pairs
    ]


def table1_plan(
    seed: int,
    dims=(120, 120, 120),
    schemes=("matdot", "orthomatdot"),
    workers=(30, 50, 80, 150),
    delta: int = 3,
    samples: int | None = None,
) -> list[dict]:
    """Worst/average relative error of ``schemes`` at fixed redundancy, one
    P of ``workers`` after another: ``samples`` sampled subsets per P if
    given, else every subset while there are at most 20000 and 2000
    sampled beyond.  The defaults are the paper's table."""
    plan = []
    for p in workers:
        count = samples
        if samples is None and math.comb(p, delta) > _TABLE1_EXHAUSTIVE_CAP:
            count = _TABLE1_SAMPLES
        plan += error_growth_plan(schemes, (p,), delta, dims, count, seed)
    return plan


def error_growth_plan(
    schemes=("matdot", "orthomatdot"),
    workers=(20, 40, 60, 80),
    delta: int = 3,
    dims=(120, 120, 120),
    samples: int | None = 2000,
    seed: int = 0,
) -> list[dict]:
    """Relative-error growth with system size at fixed redundancy;
    exhaustive when ``samples`` is None."""
    pairs = itertools.product(schemes, workers)
    return plan_rows(pairs, delta, samples, seed, dims=tuple(dims))


def condition_growth_plan(
    kinds=("monomial", "chebyshev"),
    workers=(16, 30, 60, 80, 100),
    delta: int = 3,
    norm: str = "l2",
    samples: int | None = None,
    seed: int = 0,
) -> list[dict]:
    """Worst/average condition number of the decode submatrices, on one seed."""
    pairs = itertools.product(kinds, workers)
    return plan_rows(pairs, delta, samples, seed, 1, ("cond_worst", "cond_avg"), norm=norm)


def lagrange_stability_plan(
    workers=(20, 40, 60, 80, 100),
    delta: int = 2,
    dim: int = 10,
    deg_f: int = 1,
    samples: int | None = 50,
    seed: int = 0,
) -> list[dict]:
    """Chebyshev vs monomial decoding error for Lagrange coding."""
    pairs = itertools.product(LAGRANGE_SCHEMES, workers)
    metrics = ("relerr_avg", "relerr_worst")
    return plan_rows(pairs, delta, samples, seed, metrics=metrics, dim=dim, deg_f=deg_f)
