import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chebcoded import (
    cheb_vandermonde, cli, lagrange_codes, linalg, matmul_codes, poly_basis, sim_harness,
)
from chebcoded.cheb_vandermonde import BudgetExceededError, survivor_chunks
from chebcoded.linalg import Rng, gaussian_matrix, matmul
from chebcoded.matmul_codes import decode, encode, scheme_config, worker_compute
from chebcoded.sim_harness import (
    CSV_HEADER,
    FAULT_KEYS,
    PLAN_KEYS,
    ExperimentRecord,
    FaultModel,
    condition_growth_plan,
    error_growth_plan,
    fit_dims,
    lagrange_stability_plan,
    parse_row,
    plan_rows,
    records_to_csv,
    records_to_json,
    relative_error,
    run_lagrange_trial,
    run_trial,
    survivor_subsets,
    sweep,
    table1_plan,
)


def _survivors(fault, workers, threshold):
    """The 1-based survivor sets of a fault model, in replay order."""
    idx = survivor_subsets(fault, workers, threshold)
    (rows,) = survivor_chunks(idx, 1, len(idx))
    rows = cheb_vandermonde._index_side(rows, workers, threshold)
    return [tuple(row) for row in (rows + 1).tolist()]


class TestRelativeError:
    def test_identical_is_zero(self):
        c = np.arange(6.0).reshape(2, 3)
        assert relative_error(c, c) == 0.0

    def test_zero_estimate_is_one(self):
        c = np.arange(1.0, 7.0).reshape(2, 3)
        assert relative_error(c, np.zeros_like(c)) == pytest.approx(1.0, rel=1e-15)

    def test_three_four_five(self):
        assert relative_error([[3.0, 4.0]], [[3.0, 0.0]]) == pytest.approx(0.8, rel=1e-15)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            relative_error(np.zeros((2, 2)), np.ones((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            relative_error(np.ones((2, 2)), np.ones((2, 3)))


class TestFaultModel:
    def test_random_needs_samples(self):
        with pytest.raises(ValueError):
            FaultModel(mode="random")

    def test_fixed_needs_subset(self):
        with pytest.raises(ValueError):
            FaultModel(mode="fixed")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            FaultModel(mode="chaos")

    def test_labels(self):
        assert FaultModel(mode="exhaustive").label() == "exhaustive"
        assert FaultModel(mode="random", samples=9, seed=1).label() == "random(9)"
        assert FaultModel(mode="fixed", subset=(1, 3)).label() == "fixed(1;3)"

    def test_exhaustive_budget_guard(self):
        with pytest.raises(ValueError):
            survivor_subsets(FaultModel(mode="exhaustive"), 200, 196)

    def test_exhaustive_budget_is_the_shared_limit(self):
        with pytest.raises(BudgetExceededError, match="1313400 survivor subsets"):
            survivor_subsets(FaultModel(mode="exhaustive"), 200, 197)
        assert len(survivor_subsets(FaultModel(mode="exhaustive"), 7, 3)) == 35

    def test_over_budget_trial_fails_before_any_worker_product(self, monkeypatch):
        calls = []
        real_worker, real_outputs = matmul_codes.worker_compute, lagrange_codes.worker_outputs
        monkeypatch.setattr(matmul_codes, "worker_compute", lambda s: calls.append(1) or real_worker(s))
        monkeypatch.setattr(
            lagrange_codes, "worker_outputs", lambda *a: calls.append(1) or real_outputs(*a)
        )
        exhaustive = FaultModel(mode="exhaustive")
        config = scheme_config("matdot", 250, m=2)  # C(250, 3) = 2573000 subsets
        rng = Rng(0)
        a, b = gaussian_matrix(rng, 4, 4), gaussian_matrix(rng, 4, 4)
        with pytest.raises(BudgetExceededError):
            run_trial(config, a, b, exhaustive)
        lagrange = lagrange_codes.LagrangeConfig(m=3, workers=250, dim=2, deg_f=1)
        f = lagrange_codes.linear_map(rng.normals(2))
        with pytest.raises(BudgetExceededError):
            run_lagrange_trial(lagrange, f, gaussian_matrix(rng, 3, 2), exhaustive)
        assert calls == []

    def test_fixed_survivors_validated(self):
        fixed = survivor_subsets(FaultModel(mode="fixed", subset=(7, 2, 4)), 7, 3)
        assert fixed.tolist() == [[1, 3, 6]]
        with pytest.raises(ValueError, match="exactly 3 survivors"):
            survivor_subsets(FaultModel(mode="fixed", subset=(2, 4)), 7, 3)
        with pytest.raises(ValueError, match="out of range"):
            survivor_subsets(FaultModel(mode="fixed", subset=(2, 4, 8)), 7, 3)
        with pytest.raises(ValueError):
            survivor_subsets(FaultModel(mode="fixed", subset=(2, 2, 4)), 7, 3)


class TestRunTrial:
    def setup_method(self):
        self.config = scheme_config("orthomatdot", 7, m=2)
        rng = Rng(3)
        self.a = gaussian_matrix(rng, 20, 20)
        self.b = gaussian_matrix(rng, 20, 20)

    def test_zero_redundancy_single_subset(self):
        cfg = scheme_config("orthomatdot", 3, m=2)
        trial = run_trial(cfg, self.a, self.b, FaultModel(mode="exhaustive"))
        assert trial.worst == trial.average
        assert trial.worst_subset == (1, 2, 3)

    def test_exhaustive_small_recovery(self):
        trial = run_trial(self.config, self.a, self.b, FaultModel(mode="exhaustive"))
        assert trial.worst <= 1e-9
        assert trial.worst >= trial.average

    def test_fixed_mode_matches_full_decode(self):
        survivors = (2, 4, 7)
        trial = run_trial(
            self.config, self.a, self.b, FaultModel(mode="fixed", subset=survivors)
        )
        outputs = [worker_compute(s) for s in encode(self.config, self.a, self.b)]
        direct = decode(self.config, survivors, [outputs[i - 1] for i in survivors])
        full = relative_error(matmul(self.a, self.b), direct)
        # same fusion weights (see the bitwise test below); only the estimate
        # GEMM differs in shape, so the errors agree to rounding
        assert trial.worst == pytest.approx(full, abs=1e-12)
        assert trial.worst_subset == survivors

    def test_random_mode_deterministic(self):
        fault = FaultModel(mode="random", samples=10, seed=5)
        t1 = run_trial(self.config, self.a, self.b, fault)
        t2 = run_trial(self.config, self.a, self.b, fault)
        assert t1 == t2

    def test_chunking_does_not_change_results(self, monkeypatch):
        fault = FaultModel(mode="exhaustive")
        one = run_trial(self.config, self.a, self.b, fault)
        monkeypatch.setattr(sim_harness, "REPLAY_CHUNK_FLOATS", 1)  # one subset per chunk
        many = run_trial(self.config, self.a, self.b, fault)
        assert one.worst == many.worst
        assert one.average == many.average
        assert one.worst_subset == many.worst_subset

    @pytest.mark.parametrize(
        "family, workers, splits",
        [
            ("orthomatdot", 7, {"m": 2}),  # s = 4 >= k = 3: the blocked LU
            ("orthopoly", 7, {"m": 2, "n": 2}),  # s = 3 < k = 4: the erased-column kernel
            ("orthomatdot", 9, {"m": 4}),  # s = 2 < k = 7: the erased-column kernel
        ],
    )
    def test_decode_weights_equal_replay_weights_bitwise(self, monkeypatch, family, workers, splits):
        config = scheme_config(family, workers, **splits)
        weights = []
        survivor_weights = cheb_vandermonde.SurvivorSolver.weights

        def recording_weights(solver, sel, rhs):
            weights.append(survivor_weights(solver, sel, rhs))
            return weights[-1]

        monkeypatch.setattr(cheb_vandermonde.SurvivorSolver, "weights", recording_weights)
        fault = FaultModel(mode="exhaustive")
        run_trial(config, self.a, self.b, fault)
        (chunk,) = weights  # every subset in one stacked solve
        subsets = _survivors(fault, workers, matmul_codes.recovery_threshold(config))
        outputs = [worker_compute(s) for s in encode(config, self.a, self.b)]
        for pos in (0, len(subsets) // 2, len(subsets) - 1):
            weights.clear()
            decode(config, subsets[pos], [outputs[i - 1] for i in subsets[pos]])
            assert np.array_equal(weights[0], chunk[pos])

    def test_singular_decode_contributes_infinity(self):
        # duplicate-free but near-coincident points make the monomial
        # submatrix numerically singular
        pts = np.linspace(0.0, 1e-13, 7)
        cfg = scheme_config("matdot", 7, m=2, points=pts)
        trial = run_trial(cfg, self.a, self.b, FaultModel(mode="exhaustive"))
        assert trial.worst == math.inf


class TestLagrangeTrial:
    def test_exhaustive_linear(self):
        from chebcoded.lagrange_codes import LagrangeConfig, linear_map

        cfg = LagrangeConfig(m=6, workers=8, dim=5, deg_f=1)
        rng = Rng(4)
        data = gaussian_matrix(rng, 6, 5)
        f = linear_map(rng.normals(5))
        trial = run_lagrange_trial(cfg, f, data, FaultModel(mode="exhaustive"))
        assert trial.worst <= 1e-8
        assert trial.worst >= trial.average

    def test_decode_weights_equal_replay_weights_bitwise(self, monkeypatch):
        # both fold the fusion onto the output side: v solves G_R^T v = outputs_R
        cfg = lagrange_codes.LagrangeConfig(m=4, workers=7, dim=3, deg_f=1)
        rng = Rng(6)
        data = gaussian_matrix(rng, 4, 3)
        f = lagrange_codes.linear_map(rng.normals(3))
        folded = []
        survivor_fold = cheb_vandermonde.SurvivorSolver.fold

        def recording_fold(solver, sel, rhs):
            folded.append(survivor_fold(solver, sel, rhs))
            return folded[-1]

        monkeypatch.setattr(cheb_vandermonde.SurvivorSolver, "fold", recording_fold)
        run_lagrange_trial(cfg, f, data, FaultModel(mode="exhaustive"))
        (chunk,) = folded
        subsets = _survivors(FaultModel(mode="exhaustive"), 7, 4)
        assert chunk.shape == (len(subsets), 4, 1)
        outs = lagrange_codes.worker_outputs(cfg, f, lagrange_codes.lagrange_encode(cfg, data))
        for pos, subset in enumerate(subsets):
            folded.clear()
            lagrange_codes.lagrange_decode(cfg, f, subset, outs[np.asarray(subset) - 1])
            assert np.array_equal(folded[0], chunk[pos])

    def test_infinite_lanes_are_the_singular_lanes_of_the_plain_solve(self, monkeypatch):
        # the path's own solve decides: the k x k LU of G_R^T for the monomial
        # basis, the s x s solve with the erased columns Q22 for the Chebyshev one
        folds, errors = [], []
        survivor_fold = cheb_vandermonde.SurvivorSolver.fold

        def recording_fold(solver, sel, rhs):
            folds.append((solver, np.array(sel)))
            return survivor_fold(solver, sel, rhs)

        def recording_stats(values, *args):
            errors.append(values)
            return cheb_vandermonde.subset_stats(values, *args)

        monkeypatch.setattr(cheb_vandermonde.SurvivorSolver, "fold", recording_fold)
        monkeypatch.setattr(sim_harness, "subset_stats", recording_stats)
        sweep(lagrange_stability_plan(workers=(20, 40, 60), samples=20))
        assert len(folds) == len(errors) == 2 * 3 * 5  # bases x P x seeds, one chunk each
        for (solver, sel), values in zip(folds, errors):
            k, workers = solver.generator.shape
            ones = np.ones(sel.shape + (1,))
            if solver.q is not None:  # the Chebyshev basis
                erased = np.array([np.setdiff1d(np.arange(workers), row) for row in sel])
                q22 = solver.q.T[erased][:, :, k:].transpose(0, 2, 1)
                singular = np.isnan(linalg.solve(q22, ones[:, : workers - k]))
            else:
                singular = np.isnan(linalg.solve(solver.generator.T[sel], ones))  # G_R^T
            assert np.array_equal(np.isinf(values), singular.all(axis=(1, 2)))
        infinite = np.concatenate(errors) == math.inf
        assert infinite.any() and not infinite.all()


    def test_singular_lane_reads_inf_even_when_no_anchor_was_erased(self):
        # only the two coded workers are erased: every anchor is its own output
        fixed = FaultModel(mode="fixed", subset=tuple(range(1, 39)))
        cfg = lagrange_codes.LagrangeConfig(m=38, workers=40, dim=3, deg_f=1)
        rng = Rng(23)
        data, f = gaussian_matrix(rng, 38, 3), lagrange_codes.linear_map(rng.normals(3))
        assert run_lagrange_trial(cfg, f, data, fixed).worst == 0.0
        fixed = FaultModel(mode="fixed", subset=tuple(range(1, 59)))
        cfg = lagrange_codes.LagrangeConfig(m=58, workers=60, dim=3, deg_f=1)
        data = gaussian_matrix(rng, 58, 3)
        assert run_lagrange_trial(cfg, f, data, fixed, "monomial").worst == math.inf
        outs = lagrange_codes.worker_outputs(cfg, f, lagrange_codes.lagrange_encode(cfg, data))
        with pytest.raises(linalg.SingularMatrixError):
            lagrange_codes.lagrange_decode(cfg, f, fixed.subset, outs[:58], "monomial")


class TestLaneIndependence:
    """A replayed subset's value is a function of its own inputs: the eval
    table is read in entry blocks, and every subset takes the same
    fixed-shape products against each block whatever its chunk holds, so
    neither the chunk size nor the other subsets replayed with it change
    the value, bit for bit."""

    @staticmethod
    def _at_chunk_budgets(monkeypatch, trial, budgets):
        """``trial()`` at the default chunk budget, then at each of ``budgets``."""
        results = [trial()]
        for floats in budgets:
            monkeypatch.setattr(sim_harness, "REPLAY_CHUNK_FLOATS", floats)
            results.append(trial())
        return results

    def test_chunk_size_is_invisible_across_entry_blocks(self, monkeypatch):
        config = scheme_config("orthomatdot", 12, m=5)  # threshold 9, q = 1
        rng = Rng(11)
        a, b = gaussian_matrix(rng, 40, 40), gaussian_matrix(rng, 40, 40)  # 1600 entries
        monkeypatch.setattr(sim_harness, "REPLAY_BLOCK_FLOATS", 12 * 96)  # 17 blocks, last partial
        fault = FaultModel(mode="exhaustive")
        # one chunk of all 220 subsets, one subset per chunk, six per chunk
        first, *others = self._at_chunk_budgets(
            monkeypatch, lambda: run_trial(config, a, b, fault), (1, 20_000)
        )
        assert math.isfinite(first.worst)
        assert all(other == first for other in others)

    def test_chunk_size_is_invisible_when_q_exceeds_one(self, monkeypatch):
        config = scheme_config("orthopoly", 12, m=3, n=3)  # threshold 9, q = 9
        rng = Rng(12)
        a, b = gaussian_matrix(rng, 24, 24), gaussian_matrix(rng, 24, 24)  # 64 entries a block
        monkeypatch.setattr(sim_harness, "REPLAY_BLOCK_FLOATS", 12 * 10)  # 7 entry blocks
        fault = FaultModel(mode="random", samples=150, seed=2)
        first, *others = self._at_chunk_budgets(
            monkeypatch, lambda: run_trial(config, a, b, fault), (1, 5_000)
        )
        assert math.isfinite(first.worst)
        assert all(other == first for other in others)

    def test_chunk_size_is_invisible_in_lagrange_trials(self, monkeypatch):
        # the plan rows' shape: one output component, so one entry block, q = m
        config = lagrange_codes.LagrangeConfig(m=6, workers=10, dim=5, deg_f=1)
        rng = Rng(13)
        data = gaussian_matrix(rng, 6, 5)
        f = lagrange_codes.linear_map(rng.normals(5))
        fault = FaultModel(mode="exhaustive")
        first, *others = self._at_chunk_budgets(
            monkeypatch, lambda: run_lagrange_trial(config, f, data, fault), (1, 600)
        )
        assert math.isfinite(first.worst)
        assert all(other == first for other in others)

    def test_fixed_fault_equals_its_lane_in_the_exhaustive_replay(self):
        config = scheme_config("orthomatdot", 12, m=5)
        rng = Rng(14)
        # 3600 entries: two blocks of the default REPLAY_BLOCK_FLOATS at P = 12
        a, b = gaussian_matrix(rng, 60, 60), gaussian_matrix(rng, 60, 60)
        every = run_trial(config, a, b, FaultModel(mode="exhaustive"))
        alone = run_trial(config, a, b, FaultModel(mode="fixed", subset=every.worst_subset))
        assert math.isfinite(every.worst) and every.worst > every.average
        assert alone.worst == every.worst
        assert alone.worst_subset == every.worst_subset

    def test_singular_and_overflowing_lanes_read_inf_over_several_blocks(self, monkeypatch):
        workers, k, entries = 16, 13, 40
        rng = Rng(15)
        points = poly_basis.cheb_grid(workers).points
        generator = cheb_vandermonde.build_generator("chebyshev", k, points)
        generator[:, 15] = generator[:, 14]  # subsets holding workers 15 and 16 are singular
        recovery = gaussian_matrix(rng, k, 2)
        all_evals = gaussian_matrix(rng, entries, workers)
        all_evals[33, 1] = 1e300  # squares overflow for subsets holding worker 2
        truth = gaussian_matrix(rng, entries, 2)
        idx = sim_harness.survivor_subsets(FaultModel(mode="exhaustive"), workers, k)
        monkeypatch.setattr(sim_harness, "REPLAY_BLOCK_FLOATS", workers * 4)  # 10 entry blocks
        errors = sim_harness._replay_errors(generator, recovery, all_evals, truth, idx)

        (rows,) = survivor_chunks(idx, 1, len(idx))
        survivors = cheb_vandermonde._index_side(rows, workers, k)
        singular = np.isin(survivors, 14).any(1) & np.isin(survivors, 15).any(1)
        inf = singular | np.isin(survivors, 1).any(1)
        assert singular.any() and not singular.all() and not inf.all()
        assert np.all(errors[inf] == math.inf) and np.isfinite(errors[~inf]).all()
        lane = np.flatnonzero(~inf)[0]
        weights = linalg.solve(generator[:, survivors[lane]], recovery)
        direct = relative_error(truth, all_evals[:, survivors[lane]] @ weights)
        assert errors[lane] == pytest.approx(direct, rel=1e-12)
        for i, row in enumerate(idx):  # each lane replayed alone gives the same bits
            one = idx[i : i + 1]
            alone = sim_harness._replay_errors(generator, recovery, all_evals, truth, one)
            assert alone[0] == errors[i], row


class TestRecordsSerialization:
    RECORD = ExperimentRecord(
        scheme="orthomatdot",
        P=30,
        threshold=27,
        delta=3,
        metric="relerr_worst",
        value=1.5e-06,
        seed=7,
        n1=120,
        n2=126,
        n3=120,
        subset_mode="exhaustive",
    )

    def test_csv_header_exact(self):
        text = records_to_csv([self.RECORD])
        assert text.splitlines()[0] == CSV_HEADER
        assert CSV_HEADER == "scheme,P,threshold,delta,metric,value,seed,n1,n2,n3,subset_mode,error"

    def test_csv_row_fields(self):
        row = records_to_csv([self.RECORD]).splitlines()[1].split(",")
        assert row == [
            "orthomatdot", "30", "27", "3", "relerr_worst", "1.5e-06",
            "7", "120", "126", "120", "exhaustive", "",
        ]

    def test_value_round_trips(self):
        value = 1.5184911559606077e-06
        rec = ExperimentRecord("matdot", 30, 27, 3, "relerr_worst", value, 0, 1, 1, 1, "x")
        rendered = records_to_csv([rec]).splitlines()[1].split(",")[5]
        assert float(rendered) == value

    def test_json_mirror_keys(self):
        payload = json.loads(records_to_json([self.RECORD]))
        assert list(payload[0].keys()) == CSV_HEADER.split(",")
        assert payload[0]["P"] == 30
        assert payload[0]["value"] == 1.5e-06


    def test_json_is_strict_with_non_finite_values_as_null(self):
        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        singular = replace(self.RECORD, value=math.inf)
        (error_row,) = sweep(
            [{"scheme": "orthopoly", "P": 7, "delta": 3, "m": 2, "metrics": ["relerr_worst"]}]
        )
        assert error_row.error and math.isinf(error_row.value)
        text = records_to_json([self.RECORD, singular, error_row])
        payload = json.loads(text, parse_constant=reject)
        assert [row["value"] for row in payload] == [1.5e-06, None, None]
        assert records_to_csv([singular]).splitlines()[1].split(",")[5] == "inf"


class TestSweep:
    def test_determinism_bytes(self):
        plan = error_growth_plan(
            schemes=("orthomatdot",), workers=(10,), delta=3, dims=(12, 12, 12),
            samples=20, seed=1,
        )
        a = records_to_csv(sweep(plan))
        b = records_to_csv(sweep(plan))
        assert a == b

    def test_table1_plan_structure(self):
        plan = table1_plan(7)
        assert len(plan) == 8
        assert {row["P"] for row in plan} == {30, 50, 80, 150}
        assert all(row["metrics"] == ["relerr_worst", "relerr_avg"] for row in plan)
        assert all(len(row["seeds"]) == 5 and row["seeds"][0] == 7 for row in plan)
        # 8 rows x 2 metrics = the 16-record table
        assert sum(len(r["metrics"]) for r in plan) == 16
        by_p = {row["P"]: row["fault"]["mode"] for row in plan}
        assert by_p[30] == "exhaustive" and by_p[50] == "exhaustive"
        assert by_p[80] == "random" and by_p[150] == "random"

    def test_row_failure_is_recorded_not_raised(self):
        plan = [
            {
                "scheme": "orthomatdot",
                "P": 9,
                "delta": 1,  # threshold 8 is even: invalid for an inner split
                "metrics": ["relerr_worst"],
                "seeds": [0],
            },
            {
                "scheme": "orthomatdot",
                "P": 7,
                "delta": 4,
                "dims": (8, 8, 8),
                "metrics": ["relerr_worst"],
                "fault": {"mode": "exhaustive"},
                "seeds": [0],
            },
        ]
        records = sweep(plan)
        assert len(records) == 2
        assert records[0].error != "" and records[0].subset_mode == "error"
        assert records[1].error == "" and records[1].value <= 1e-9

    def test_error_column_names_missing_key_and_unknown_norm(self):
        base = {"P": 7, "delta": 3, "metrics": ["cond_worst"], "seeds": [0]}
        missing, bad_norm = sweep(
            [dict(base, scheme="orthopoly", m=2), dict(base, scheme="chebyshev", norm="l1")]
        )
        assert missing.error == "missing plan key 'n'"
        assert bad_norm.error.startswith("unknown norm 'l1'")

    def test_lagrange_plan_runs(self):
        plan = lagrange_stability_plan(workers=(10,), samples=5, seed=0)
        records = sweep(plan)
        assert {r.scheme for r in records} == {"lagrange_chebyshev", "lagrange_monomial"}
        assert all(r.error == "" for r in records)

    def test_cond_row(self):
        plan = [
            {
                "scheme": "chebyshev",
                "P": 10,
                "delta": 2,
                "norm": "l2",
                "metrics": ["cond_worst", "cond_avg"],
                "fault": {"mode": "exhaustive"},
                "seeds": [0],
            }
        ]
        records = sweep(plan)
        assert len(records) == 2
        assert records[0].metric == "cond_worst"
        assert records[0].value >= records[1].value > 1.0
        assert records[0].threshold == 8 and records[0].delta == 2

    @pytest.mark.parametrize(
        "pairs, delta, keys",
        [
            ((("chebyshev", 8),), 2, {"metrics": ("cond_worst", "cond_avg"), "norm": "l2"}),
            ((("orthomatdot", 7),), 2, {"dims": (8, 8, 8)}),
            ((("lagrange_monomial", 8),), 2, {"dim": 3, "deg_f": 1}),
        ],
        ids=["cond", "matmul", "lagrange"],
    )
    def test_sampling_every_subset_is_the_exhaustive_row(self, pairs, delta, keys):
        # C(P, P - delta) subsets: 28 at P=8, 21 at P=7; more samples than that
        # replay them all in lexicographic order, and the label says so
        total = math.comb(pairs[0][1], delta)
        exhaustive = records_to_csv(sweep(plan_rows(pairs, delta, None, 4, 2, **keys)))
        for samples in (total, 5000):
            rows = plan_rows(pairs, delta, samples, 4, 2, **keys)
            assert records_to_csv(sweep(rows)) == exhaustive
        fewer = sweep(plan_rows(pairs, delta, total - 1, 4, 2, **keys))
        assert fewer[0].subset_mode == f"random({total - 1})"

    def test_cond_row_averages_over_its_seeds(self):
        row = {"scheme": "monomial", "P": 10, "delta": 2, "metrics": ["cond_worst", "cond_avg"],
               "fault": {"mode": "random", "samples": 5}}
        one = [sweep([dict(row, seeds=[seed])]) for seed in (0, 1)]
        both = sweep([dict(row, seeds=[0, 1])])
        assert one[0][0].value != one[1][0].value
        for i, record in enumerate(both):
            assert record.value == (one[0][i].value + one[1][i].value) / 2
            assert record.seed == 0

    def test_lagrange_row_applies_a_map_of_degree_deg_f(self, monkeypatch):
        maps = []
        real = sim_harness.run_lagrange_trial

        def recording(config, f, *args):
            maps.append(f)
            return real(config, f, *args)

        monkeypatch.setattr(sim_harness, "run_lagrange_trial", recording)
        row = {"scheme": "lagrange_chebyshev", "P": 9, "delta": 2, "dim": 3, "deg_f": 2,
               "metrics": ["relerr_worst"], "fault": {"mode": "exhaustive"}, "seeds": [0]}
        (record,) = sweep([row])
        assert record.error == "" and record.value <= 1e-9
        x = np.array([0.5, -1.0, 2.0])
        np.testing.assert_allclose(maps[0](2 * x), 4 * maps[0](x), rtol=1e-14)

    VALID = {
        "scheme": "orthomatdot",
        "P": 7,
        "delta": 4,
        "dims": (8, 8, 8),
        "metrics": ["relerr_worst"],
        "fault": {"mode": "exhaustive"},
        "seeds": [0],
    }
    COND = {"scheme": "chebyshev", "P": 10, "delta": 2, "metrics": ["cond_worst"], "seeds": [0]}
    LAGRANGE = {"scheme": "lagrange_chebyshev", "P": 10, "delta": 2, "seeds": [0],
                "metrics": ["relerr_worst"], "fault": {"mode": "random", "samples": 3}}

    @pytest.mark.parametrize(
        "row, named",
        [
            (dict(VALID, metrics=["cond_worst"]), ["'cond_worst'", "'orthomatdot'"]),
            (dict(COND, metrics=["relerr_worst"]), ["'relerr_worst'", "'chebyshev'"]),
            (dict(VALID, delta=1, m=2), ["threshold 3", "delta 1"]),
            (dict(LAGRANGE, m=5), ["'m'", "lagrange"]),
            (dict(COND, rows=7), ["'rows'", "cond"]),
            (dict(COND, norm="spectral"), ["unknown norm 'spectral'"]),
            (dict(COND, fault={"mode": "fixed", "subset": list(range(1, 9))}),
             ["exhaustive or random"]),
            (1, ["plan row must be an object"]),
            (dict(VALID, fault="exhaustive"), ["'fault'"]),
            (dict(VALID, P=None), ["'P'"]),
            (dict(VALID, P="x"), ["'P'"]),
            (dict(COND, P="10", delta="2", seeds=["0"]), ["'P'", "'10'"]),
            (dict(COND, fault={"mode": "random", "samples": "5"}), ["'samples'", "'5'"]),
            (dict(VALID, seeds=5), ["'seeds'"]),
            (dict(VALID, dims=5), ["'dims'"]),
            (dict(COND, P=10.9, delta=2.5), ["'P'", "10.9"]),
            (dict(COND, delta=2.5), ["'delta'", "2.5"]),
            (dict(VALID, seeds=[0.5]), ["'seeds'"]),
            (dict(VALID, P=True), ["'P'"]),
            (dict(COND, nrom="frobenius"), ["'nrom'"]),
            (dict(COND, fault={"mode": "random", "sample": 5}), ["'sample'"]),
            (dict(VALID, deg_f=2), ["'deg_f'", "matmul"]),
            (dict(VALID, norm="frobenius"), ["'norm'", "matmul"]),
            (dict(LAGRANGE, dims=[8, 8, 8]), ["'dims'", "lagrange"]),
            (dict(COND, dims=[8, 8, 8]), ["'dims'", "cond"]),
            (dict(VALID, fault={"mode": "exhaustive", "samples": 5}), ["'samples'", "exhaustive"]),
            (dict(LAGRANGE, fault={"mode": "random", "samples": 3, "subset": [1, 2]}),
             ["'subset'", "random"]),
            (dict(VALID, metrics=[]), ["'metrics'"]),
            (dict(VALID, metric="relerr_avg"), ["'metric'"]),
            (dict(VALID, scheme="matdot", n=3), ["matdot", "split n"]),
            (dict(VALID, P=7, delta=2, dims=[-5, 12, 12]), ["'dims'", "positive", "-5"]),
            (dict(VALID, dims=[0, 0, 0]), ["'dims'", "positive"]),
            (dict(VALID, delta=7), ["delta=7", "no decodable threshold"]),
            (dict(LAGRANGE, deg_f=2), ["P-delta=8", "deg_f=2"]),
        ],
        ids=[
            "matmul-cond-metric", "cond-relerr-metric", "matmul-threshold", "lagrange-m",
            "cond-rows", "cond-spectral", "cond-fixed-fault", "row-not-object", "fault-not-object",
            "P-null", "P-string", "P-numeric-string", "samples-numeric-string", "seeds-int",
            "dims-int", "P-fraction", "delta-fraction",
            "seeds-fraction", "P-bool", "misspelled-key", "misspelled-fault-key",
            "matmul-deg_f", "matmul-norm", "lagrange-dims", "cond-dims", "exhaustive-samples",
            "random-subset", "metrics-empty", "metric-alias", "matdot-n", "dims-negative",
            "dims-zero", "matmul-delta-P", "lagrange-deg_f-threshold",
        ],
    )
    def test_rejected_row_is_one_error_row_and_the_sweep_goes_on(self, row, named):
        bad, good = sweep([row, self.VALID])
        assert bad.subset_mode == "error" and bad.value == math.inf
        for text in named:
            assert text in bad.error
        assert good.error == "" and good.value <= 1e-9

    def test_cond_and_replay_rows_visit_the_same_subsets(self, monkeypatch):
        """A sampled cond row and a sampled matmul row with the same P,
        threshold, samples and seed chunk the same subsets in the same order."""
        seen = {"cond": [], "replay": []}
        real = cheb_vandermonde.survivor_chunks

        def recording(path):
            def chunks(*args):
                for chunk in real(*args):
                    seen[path].append(chunk)
                    yield chunk

            return chunks

        monkeypatch.setattr(cheb_vandermonde, "survivor_chunks", recording("cond"))
        monkeypatch.setattr(sim_harness, "survivor_chunks", recording("replay"))
        shared = {"P": 12, "delta": 3, "fault": {"mode": "random", "samples": 40}, "seeds": [5]}
        rows = [
            dict(shared, scheme="monomial", metrics=["cond_worst"]),
            dict(shared, scheme="matdot", dims=[8, 8, 8], metrics=["relerr_worst"]),
        ]
        assert [r.error for r in sweep(rows)] == ["", ""]
        cond, replay = (
            cheb_vandermonde._index_side(np.concatenate(seen[path]), 12, 9)
            for path in ("cond", "replay")
        )
        assert cond.shape == (40, 9) and len(np.unique(cond, axis=0)) == 40
        assert np.array_equal(cond, replay)

    def test_every_built_in_row_parses(self, monkeypatch, capsys):
        rows = [
            *table1_plan(3),
            *error_growth_plan(schemes=("matdot", "orthomatdot", "polynomial", "orthopoly")),
            *condition_growth_plan(),
            *condition_growth_plan(samples=2000),
            *lagrange_stability_plan(),
        ]
        built = []  # the rows the CLI subcommands build
        real_sweep = sim_harness.sweep
        monkeypatch.setattr(sim_harness, "sweep", lambda p: built.extend(p) or real_sweep(p))
        for argv in (
            ["cond", "--basis", "chebyshev", "--workers", "8", "--redundancy", "2"],
            ["mm", "--scheme", "orthopoly", "--m", "2", "--n", "2", "--workers", "6",
             "--kill", "1,4", "--n1", "4", "--n2", "4", "--n3", "4"],
            ["mm", "--scheme", "gen_orthomatdot", "--m1", "2", "--m2", "1", "--m3", "1",
             "--workers", "5", "--exhaustive", "--n1", "4", "--n2", "4", "--n3", "4"],
            ["lagrange", "--workers", "8", "--redundancy", "1", "--degf", "2", "--samples", "3"],
        ):
            assert cli.main(argv) == 0
        assert len(built) == 4
        rows += built
        assert [parse_row(row).error for row in rows] == [None] * len(rows)

    def test_readme_plan_example_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Plan files", 1)[1].split("\n## ", 1)[0]
        example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
        assert example and [parse_row(row).error for row in example] == [None] * len(example)
        documented = set(re.findall(r"^\| `(\w+)` \|", section, flags=re.M))
        assert documented == set(PLAN_KEYS) | set(FAULT_KEYS)

    def test_integral_floats_are_integers(self):
        plan = [dict(self.VALID, P=7.0, delta=4.0, seeds=[0.0]), self.VALID]
        assert records_to_csv(sweep(plan[:1])) == records_to_csv(sweep(plan[1:]))

    def test_programming_errors_are_not_caught(self, monkeypatch):
        def broken(*args):
            raise TypeError("bug")

        monkeypatch.setattr(sim_harness, "run_trial", broken)
        with pytest.raises(TypeError):
            sweep([self.VALID])


@pytest.mark.parametrize(
    "scheme, workers, delta, splits",
    [
        ("matdot", 6, 3, {}),
        ("orthomatdot", 8, 3, {}),
        ("polynomial", 8, 2, {}),
        ("orthopoly", 9, 3, {"m": 3, "n": 2}),
        ("gen_orthomatdot", 26, 1, {"m1": 2, "m2": 3, "m3": 2}),
    ],
)
def test_record_dims_are_divisible_by_the_block_grid(scheme, workers, delta, splits):
    row = {
        "scheme": scheme, "P": workers, "delta": delta, "dims": [7, 11, 13],
        "metrics": ["relerr_worst"], "fault": {"mode": "random", "samples": 3},
        "seeds": [0], **splits,
    }
    (record,) = sweep([row])
    assert record.error == ""
    grid = matmul_codes.block_grid(sim_harness.matmul_config_for(scheme, workers, delta, splits))
    assert all(d % g == 0 for d, g in zip((record.n1, record.n2, record.n3), grid))


class TestPlanRows:
    """Every plan builder, and the CLI's cond, mm and lagrange rows, lay
    rows out through plan_rows."""

    def test_layout(self):
        plan = plan_rows([("orthomatdot", 9), ("matdot", 7)], 2, 90, 4, dims=(8, 8, 8), m=3)
        assert plan == [
            {"scheme": scheme, "P": p, "delta": 2, "dims": (8, 8, 8), "m": 3,
             "metrics": ["relerr_worst", "relerr_avg"],
             "fault": {"mode": "random", "samples": 90}, "seeds": [4, 5, 6, 7, 8]}
            for scheme, p in [("orthomatdot", 9), ("matdot", 7)]
        ]

    @pytest.mark.parametrize(
        "subsets, fault",
        [
            (None, {"mode": "exhaustive"}),
            (0, {"mode": "random", "samples": 0}),
            ((1, 3, 4), {"mode": "fixed", "subset": (1, 3, 4)}),
        ],
    )
    def test_fault_object(self, subsets, fault):
        (row,) = plan_rows([("chebyshev", 10)], 2, subsets, 3, 1, ("cond_avg",), norm="l2")
        assert row["fault"] == fault
        assert row["seeds"] == [3] and row["metrics"] == ["cond_avg"] and row["norm"] == "l2"

    def test_rows_do_not_share_mutable_values(self):
        first, second = plan_rows([("matdot", 7), ("matdot", 9)], 2, None, 0)
        first["seeds"].append(99)
        first["metrics"].append("relerr_avg")
        first["fault"]["mode"] = "random"
        assert second["seeds"] == [0, 1, 2, 3, 4]
        assert second["metrics"] == ["relerr_worst", "relerr_avg"]
        assert second["fault"] == {"mode": "exhaustive"}

    def test_builder_row_orders(self):
        assert [(r["scheme"], r["P"]) for r in table1_plan(0)[:3]] == [
            ("matdot", 30), ("orthomatdot", 30), ("matdot", 50)
        ]
        assert [(r["scheme"], r["P"]) for r in condition_growth_plan(workers=(8, 9))] == [
            ("monomial", 8), ("monomial", 9), ("chebyshev", 8), ("chebyshev", 9)
        ]
        lagrange = lagrange_stability_plan(workers=(8,))
        assert [r["scheme"] for r in lagrange] == ["lagrange_chebyshev", "lagrange_monomial"]
        assert lagrange[0]["metrics"] == ["relerr_avg", "relerr_worst"]

    def test_samples_none_is_exhaustive_in_every_builder(self):
        for plan in (
            error_growth_plan(workers=(8,), samples=None),
            condition_growth_plan(workers=(8,), samples=None),
            lagrange_stability_plan(workers=(8,), samples=None),
        ):
            assert all(row["fault"] == {"mode": "exhaustive"} for row in plan)

    def test_condition_growth_plan_samples_zero_is_an_error_row(self):
        """Only None means exhaustive: zero samples keeps the fault
        model's error instead of silently enumerating every subset."""
        plan = condition_growth_plan(kinds=("chebyshev",), workers=(8,), samples=0)
        assert plan[0]["fault"] == {"mode": "random", "samples": 0}
        assert {r.error for r in sweep(plan)} == {"random fault mode needs samples >= 1"}


class TestDerivedSplits:
    """matmul_config_for completes the splits from the threshold P - delta."""

    @pytest.mark.parametrize(
        "scheme, workers, delta, splits",
        [
            ("matdot", 9, 2, {"m": 4}),
            ("orthomatdot", 9, 2, {"m": 4}),
            ("orthopoly", 15, 3, {"m": 3, "n": 4}),
            ("polynomial", 15, 2, {"m": 1, "n": 13}),
        ],
    )
    def test_derived_splits(self, scheme, workers, delta, splits):
        config = sim_harness.matmul_config_for(scheme, workers, delta)
        assert {key: getattr(config, key) for key in splits} == splits
        assert matmul_codes.recovery_threshold(config) == workers - delta

    def test_explicit_splits_are_kept(self):
        config = sim_harness.matmul_config_for("orthopoly", 15, 3, {"m": 2, "n": 6})
        assert (config.m, config.n) == (2, 6)

    @pytest.mark.parametrize("scheme", ["matdot", "orthomatdot"])
    def test_even_threshold_on_an_inner_family(self, scheme):
        with pytest.raises(ValueError, match="must be odd"):
            sim_harness.matmul_config_for(scheme, 10, 2)

    def test_outer_family_with_one_split_given(self):
        with pytest.raises(KeyError, match="'n'"):
            sim_harness.matmul_config_for("polynomial", 9, 1, {"m": 2})
        (record,) = sweep([{
            "scheme": "polynomial", "P": 9, "delta": 1, "m": 2,
            "metrics": ["relerr_worst"], "seeds": [0],
        }])
        assert record.error == "missing plan key 'n'"

    def test_full_grid_derives_nothing(self):
        with pytest.raises(ValueError, match="needs positive split count m1"):
            sim_harness.matmul_config_for("gen_orthomatdot", 9, 2)


class TestFitDims:
    def test_identity_when_divisible(self):
        assert fit_dims((120, 120, 120), inner_split=4) == (120, 120, 120)

    def test_rounds_to_nearest_multiple(self):
        assert fit_dims((120, 120, 120), inner_split=14) == (120, 126, 120)
        assert fit_dims((120, 120, 120), row_split=19, col_split=17) == (114, 120, 119)

    def test_never_below_one_block(self):
        assert fit_dims((4, 4, 4), inner_split=29) == (4, 29, 4)
