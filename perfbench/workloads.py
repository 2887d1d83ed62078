"""The four benchmark workloads: their inputs, calls and output checks.

A *call* is one public-API invocation the benchmark times; a *pass* is
every call of a workload once.  Each workload builds all of its inputs
from the seed, exposes its calls, checks a call's output in full and
reduces it to a small digest.  The first pass is checked in full and
later passes by digest identity with the first pass: for the sweeps that
is the byte identity of their CSV, the harness's determinism contract.

Library names are always looked up through their module at call time
(``sim_harness.sweep``, ``matmul_codes.decode``), so the traced run can
rebind them.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from chebcoded import cheb_vandermonde, linalg, matmul_codes, sim_harness

WORKLOADS = ("cond_sweep", "error_replay", "lagrange_replay", "coded_product")

# A reported condition number must match the LAPACK oracle to this
# relative deviation: three significant digits, well above the oracle's
# own error (eps * cond) on every row of cond_sweep.
COND_RTOL = 1e-3
# Rows whose oracle condition number reaches this are beyond what a
# float64 oracle resolves, so they are neither checked nor scored.
COND_ORACLE_LIMIT = 1e13
# Eigenvalues of the Gram matrix a^T a cannot resolve singular values
# below sqrt(eps) * s_max, so a spectral condition number computed from
# it saturates above 1/sqrt(eps).  A spectral row whose oracle value is
# above this limit fails by that known defect (see README.md).
GRAM_SATURATION = 1.0 / math.sqrt(np.finfo(np.float64).eps)
# A decode must reproduce a @ b to this relative Frobenius error.
CODED_RTOL = 1e-8
# The worst-subset decode must agree with the reported worst error
# within this factor (rounding-level errors move with arithmetic order).
REPLAY_AGREEMENT = 10.0
# Digits of agreement are clipped to this range: the floor stands for
# "no significant digit agrees", including non-finite results.
DIGITS_FLOOR = 0.01
DIGITS_CAP = 16.0

# lagrange_stability_plan runs every row on this many consecutive seeds.
LAGRANGE_SEED_STRIDE = 5

CHEBYSHEV_SCHEMES = ("orthomatdot", "orthopoly", "gen_orthomatdot", "lagrange_chebyshev")


def digits(deviation: float) -> float:
    """Correct significant digits implied by a relative deviation."""
    if not math.isfinite(deviation):
        return DIGITS_FLOOR
    if deviation <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, max(DIGITS_FLOOR, -math.log10(deviation)))


@dataclass(frozen=True)
class Call:
    label: str
    subsets: int  # survivor subsets conditioned or decoded by the call
    fn: Callable[[], object]


@dataclass(frozen=True)
class Verdict:
    ok: bool
    known_defect: bool = False  # the failure is the documented Gram-saturation defect
    digits: float | None = None  # accuracy of the call's output, if scored
    note: str = ""


class SweepWorkload:
    """Calls of ``sweep([row])`` followed by ``records_to_csv``."""

    name = ""

    def __init__(self, rows: list[dict], subsets: list[int]):
        self.rows = rows
        self.calls = [
            Call(_row_label(row), count, _sweep_call(row)) for row, count in zip(rows, subsets)
        ]

    def check(self, index: int, output) -> Verdict:
        records, _ = output
        errors = [r.error for r in records if r.error]
        if errors:
            return Verdict(False, note=f"error column: {errors[0]}")
        return self.check_row(self.rows[index], records)

    @staticmethod
    def digest(output) -> str:
        return output[1]

    def check_row(self, row: dict, records) -> Verdict:
        value = _record_value(records, "relerr_worst")
        scored = row["scheme"] in CHEBYSHEV_SCHEMES
        return Verdict(True, digits=digits(value) if scored else None)


def _sweep_call(row: dict) -> Callable[[], object]:
    def call():
        records = sim_harness.sweep([row])
        return records, sim_harness.records_to_csv(records)

    return call


def _row_label(row: dict) -> str:
    fault = row["fault"]
    mode = fault["mode"] if fault["mode"] != "random" else f"random({fault['samples']})"
    norm = f" {row['norm']}" if "norm" in row else ""
    return f"{row['scheme']} P={row['P']} {mode}{norm}"


def _record_value(records, metric: str) -> float:
    return next(r.value for r in records if r.metric == metric)


def _subset_count(workers: int, size: int, fault: dict) -> int:
    total = math.comb(workers, size)
    return min(total, fault["samples"]) if fault["mode"] == "random" else total


def _chebyshev_points(workers: int) -> np.ndarray:
    i = np.arange(1, workers + 1)
    return np.cos((2 * i - 1) * np.pi / (2 * workers))


class CondSweep(SweepWorkload):
    """Condition growth of monomial and Chebyshev survivor submatrices."""

    name = "cond_sweep"

    def __init__(self, seed: int, smoke: bool = False):
        small, big, spectral_samples, frobenius_samples = (8, 10, 6, 10) if smoke else (14, 30, 60, 500)
        shapes = (
            (small, {"mode": "exhaustive"}, "l2"),
            (big, {"mode": "random", "samples": spectral_samples}, "l2"),
            (big, {"mode": "random", "samples": frobenius_samples}, "frobenius"),
        )
        rows = [
            {
                "scheme": kind,
                "P": workers,
                "delta": 3,
                "norm": norm,
                "metrics": ["cond_worst", "cond_avg"],
                "fault": fault,
                "seeds": [seed],
            }
            for kind in ("monomial", "chebyshev")
            for workers, fault, norm in shapes
        ]
        super().__init__(rows, [_subset_count(r["P"], r["P"] - 3, r["fault"]) for r in rows])

    def check_row(self, row: dict, records) -> Verdict:
        oracle = self.oracle_conds(row)
        worst = float(oracle.max())
        if not worst < COND_ORACLE_LIMIT:
            return Verdict(True, note=f"oracle cond {worst:.3e} beyond the checked range")
        deviation = max(
            abs(_record_value(records, "cond_worst") - worst) / worst,
            abs(_record_value(records, "cond_avg") - oracle.mean()) / oracle.mean(),
        )
        ok = deviation <= COND_RTOL  # false for NaN or inf deviations too
        known = not ok and row["norm"] == "l2" and worst > GRAM_SATURATION
        note = f"deviation {deviation:.3e} from oracle cond_worst {worst:.4e}"
        return Verdict(ok, known_defect=known, digits=digits(deviation), note=note)

    @staticmethod
    def oracle_conds(row: dict) -> np.ndarray:
        """LAPACK condition numbers of every submatrix the row visits."""
        workers = row["P"]
        size = workers - row["delta"]
        if row["fault"]["mode"] == "random":
            rng = linalg.Rng(row["seeds"][0])
            subsets = cheb_vandermonde.sample_column_subsets(
                workers, size, row["fault"]["samples"], rng
            )
        else:
            subsets = list(itertools.combinations(range(1, workers + 1), size))
        points = _chebyshev_points(workers)
        if row["scheme"] == "monomial":
            gen = np.vander(points, size, increasing=True).T
        else:
            gen = np.polynomial.chebyshev.chebvander(points, size - 1).T
        stacks = gen.T[np.asarray(subsets) - 1].transpose(0, 2, 1)
        return np.linalg.cond(stacks, 2 if row["norm"] == "l2" else "fro")


class ErrorReplay(SweepWorkload):
    """Decode-error replay over many subsets for all five matmul families."""

    name = "error_replay"

    def __init__(self, seed: int, smoke: bool = False):
        inner_p, outer_p, split, gen_p, gen_splits, samples, dim = (
            (8, 7, 2, 5, (2, 1, 1), 20, 12) if smoke else (80, 39, 6, 18, (2, 2, 2), 1000, 120)
        )
        base = {"delta": 3, "dims": (dim, dim, dim), "metrics": ["relerr_worst", "relerr_avg"]}
        sampled = {"mode": "random", "samples": samples}
        m1, m2, m3 = gen_splits
        rows = [
            dict(base, scheme="matdot", P=inner_p, fault=sampled),
            dict(base, scheme="orthomatdot", P=inner_p, fault=sampled),
            dict(base, scheme="polynomial", P=outer_p, m=split, n=split, fault=sampled),
            dict(base, scheme="orthopoly", P=outer_p, m=split, n=split, fault=sampled),
            dict(base, scheme="gen_orthomatdot", P=gen_p, m1=m1, m2=m2, m3=m3, fault={"mode": "exhaustive"}),
        ]
        for row in rows:
            row["seeds"] = [seed]
        super().__init__(rows, [_subset_count(r["P"], r["P"] - 3, r["fault"]) for r in rows])

    def check_row(self, row: dict, records) -> Verdict:
        """Decode the replay's worst subset with the library decoder."""
        reported = _record_value(records, "relerr_worst")
        record = records[0]
        config = sim_harness.matmul_config_for(row["scheme"], row["P"], row["delta"], row)
        rng = linalg.Rng(row["seeds"][0])
        a = linalg.gaussian_matrix(rng, record.n1, record.n2)
        b = linalg.gaussian_matrix(rng, record.n2, record.n3)
        fault = row["fault"]
        if fault["mode"] == "random":
            model = sim_harness.FaultModel("random", samples=fault["samples"], seed=row["seeds"][0])
        else:
            model = sim_harness.FaultModel(fault["mode"])
        worst = sim_harness.run_trial(config, a, b, model).worst_subset
        outputs = [matmul_codes.worker_compute(s) for s in matmul_codes.encode(config, a, b)]
        try:
            decoded = matmul_codes.decode(config, worst, [outputs[i - 1] for i in worst])
            relerr = sim_harness.relative_error(a @ b, decoded)
        except linalg.SingularMatrixError:
            relerr = math.inf
        if math.isfinite(reported) and math.isfinite(relerr):
            agree = reported / REPLAY_AGREEMENT <= relerr <= reported * REPLAY_AGREEMENT
        else:
            agree = not math.isfinite(reported) and not math.isfinite(relerr)
        scored = row["scheme"] in CHEBYSHEV_SCHEMES
        note = f"worst subset reported {reported:.3e}, library decode {relerr:.3e}"
        return Verdict(agree, digits=digits(reported) if scored else None, note=note)


class LagrangeReplay(SweepWorkload):
    """The Lagrange stability plan: few entries, many elimination steps."""

    name = "lagrange_replay"

    def __init__(self, seed: int, smoke: bool = False):
        kwargs = {"workers": (8, 12), "samples": 5} if smoke else {}
        # A plan row averages its worst error over the plan seeds seed..seed+4.
        # Striding by five gives consecutive benchmark seeds disjoint inputs:
        # with shared seeds one badly conditioned seed moved five runs' worth
        # of digits_min together.
        rows = sim_harness.lagrange_stability_plan(seed=LAGRANGE_SEED_STRIDE * seed, **kwargs)
        counts = [
            len(r["seeds"]) * _subset_count(r["P"], r["P"] - r["delta"], r["fault"]) for r in rows
        ]
        super().__init__(rows, counts)


class CodedProduct:
    """Library encode, worker products and decode of one large product."""

    name = "coded_product"

    def __init__(self, seed: int, smoke: bool = False):
        workers, m, size, count = (10, 4, 40, 2) if smoke else (42, 20, 640, 8)
        self.config = matmul_codes.scheme_config("orthomatdot", workers, m=m)
        kill = workers - matmul_codes.recovery_threshold(self.config)
        rng = np.random.default_rng(seed)
        # Decode accuracy swings by orders of magnitude with the kill set,
        # so the kill sets are the same for every seed (drawn from stream
        # 0) and only the matrices come from the seed.
        kill_rng = np.random.default_rng(0)
        self.inputs = []
        for _ in range(count):
            a = rng.standard_normal((size, size))
            b = rng.standard_normal((size, size))
            dead = set(kill_rng.choice(workers, kill, replace=False) + 1)
            survivors = tuple(w for w in range(1, workers + 1) if w not in dead)
            self.inputs.append((a, b, survivors))
        self.calls = [
            Call(f"orthomatdot P={workers} N={size} survivors {i}", 1, self._call(i))
            for i in range(count)
        ]

    def _call(self, index: int) -> Callable[[], object]:
        a, b, survivors = self.inputs[index]

        def call():
            outputs = [matmul_codes.worker_compute(s) for s in matmul_codes.encode(self.config, a, b)]
            return matmul_codes.decode(self.config, survivors, [outputs[i - 1] for i in survivors])

        return call

    def check(self, index: int, output) -> Verdict:
        a, b, _ = self.inputs[index]
        truth = a @ b
        relerr = float(np.linalg.norm(output - truth) / np.linalg.norm(truth))
        return Verdict(relerr <= CODED_RTOL, digits=digits(relerr), note=f"relerr {relerr:.3e}")

    @staticmethod
    def digest(output) -> str:
        return hashlib.blake2b(output.tobytes(), digest_size=16).hexdigest()


def make(name: str, seed: int, smoke: bool = False):
    classes = {cls.name: cls for cls in (CondSweep, ErrorReplay, LagrangeReplay, CodedProduct)}
    if name not in classes:
        raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")
    return classes[name](seed, smoke)
