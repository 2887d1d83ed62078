import json

import pytest

from chebcoded.cli import main
from chebcoded.sim_harness import CSV_HEADER


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCond:
    def test_small_exhaustive_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "cond", "--basis", "chebyshev", "--rows", "8", "--points", "10",
            "--redundancy", "2", "--norm", "l2", "--mode", "exhaustive",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        worst = dict(zip(CSV_HEADER.split(","), lines[1].split(",")))
        assert worst["metric"] == "cond_worst"
        assert float(worst["value"]) > 1.0
        assert worst["scheme"] == "chebyshev" and worst["P"] == "10"

    def test_rows_redundancy_conflict(self, capsys):
        code, _, err = run_cli(
            capsys,
            "cond", "--basis", "chebyshev", "--rows", "8", "--points", "10",
            "--redundancy", "3",
        )
        assert code == 2
        assert "usage error" in err

    def test_missing_rows_and_redundancy(self, capsys):
        code, _, err = run_cli(capsys, "cond", "--basis", "monomial", "--points", "10")
        assert code == 2 and "usage error" in err


class TestMm:
    def test_kill_prints_relative_error(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mm", "--scheme", "orthopoly", "--m", "3", "--n", "3",
            "--workers", "12", "--kill", "2,5,9", "--seed", "1",
        )
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("relative_error=")][0]
        assert float(line.split("=", 1)[1]) <= 1e-8

    def test_exhaustive_emits_records(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mm", "--scheme", "orthomatdot", "--m", "2", "--workers", "6",
            "--exhaustive", "--seed", "2", "--n1", "12", "--n2", "12", "--n3", "12",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 3
        worst = float(lines[1].split(",")[5])
        assert worst <= 1e-8

    def test_kill_count_must_match_redundancy(self, capsys):
        code, _, err = run_cli(
            capsys,
            "mm", "--scheme", "orthomatdot", "--m", "2", "--workers", "6",
            "--kill", "1,2", "--seed", "0",
        )
        assert code == 2 and "survivors" in err

    def test_kill_and_exhaustive_conflict(self, capsys):
        code, _, err = run_cli(
            capsys,
            "mm", "--scheme", "matdot", "--m", "2", "--workers", "6",
            "--kill", "1,2,3", "--exhaustive",
        )
        assert code == 2 and "usage error" in err

    def test_split_the_family_does_not_take_is_a_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "mm", "--scheme", "matdot", "--m", "2", "--n", "3", "--workers", "5", "--exhaustive",
        )
        assert code == 2 and "takes no split n" in err

    def test_gen_scheme_flags(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mm", "--scheme", "gen_orthomatdot", "--m1", "2", "--m2", "2", "--m3", "2",
            "--workers", "18", "--kill", "3,8,16", "--seed", "4",
            "--n1", "8", "--n2", "8", "--n3", "8",
        )
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("relative_error=")][0]
        assert float(line.split("=", 1)[1]) <= 1e-8

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["mm", "--scheme", "matdot", "--m", "2", "--workers", "6", "--frobnicate"])
        assert info.value.code == 2

    def test_exhaustive_budget_exceeded_is_runtime_error(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mm", "--scheme", "matdot", "--m", "2", "--workers", "250",
            "--exhaustive", "--n1", "4", "--n2", "4", "--n3", "4",
        )
        assert code == 1
        assert any(line.startswith("error=") for line in out.splitlines())

    def test_exhaustive_stdout_equals_sweep_of_the_plan_row(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "mm", "--scheme", "orthopoly", "--m", "2", "--n", "2", "--workers", "6",
            "--exhaustive", "--seed", "3", "--n1", "10", "--n2", "9", "--n3", "10",
        )
        row = {
            "scheme": "orthopoly", "P": 6, "delta": 2, "m": 2, "n": 2, "dims": [10, 9, 10],
            "metrics": ["relerr_worst", "relerr_avg"], "fault": {"mode": "exhaustive"},
            "seeds": [3],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps([row]))
        sweep_code, sweep_out, _ = run_cli(capsys, "sweep", "--plan", str(plan_path))
        assert code == sweep_code == 0
        assert out == sweep_out


class TestTable1:
    @pytest.mark.slow
    def test_sixteen_records(self, capsys, tmp_path):
        out_path = tmp_path / "table1.csv"
        code, _, _ = run_cli(
            capsys, "table1", "--seed", "7", "--dims", "24", "--out", str(out_path)
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 17  # header + 16 records
        schemes = {line.split(",")[0] for line in lines[1:]}
        assert schemes == {"matdot", "orthomatdot"}
        ps = {line.split(",")[1] for line in lines[1:]}
        assert ps == {"30", "50", "80", "150"}


class TestSweepCommand:
    def test_plan_file_roundtrip(self, capsys, tmp_path):
        plan = [
            {
                "scheme": "orthomatdot",
                "P": 7,
                "delta": 4,
                "dims": [8, 8, 8],
                "metrics": ["relerr_worst", "relerr_avg"],
                "fault": {"mode": "exhaustive"},
                "seeds": [0, 1],
            }
        ]
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        code, out, _ = run_cli(
            capsys, "sweep", "--plan", str(plan_path), "--format", "json"
        )
        assert code == 0
        records = json.loads(out)
        assert len(records) == 2
        assert records[0]["P"] == 7 and records[0]["subset_mode"] == "exhaustive"

    def test_errored_row_exits_1_and_names_the_missing_key(self, capsys, tmp_path):
        plan = [
            {
                "scheme": "orthopoly",
                "P": 7,
                "delta": 3,
                "m": 2,  # no "n"
                "dims": [8, 8, 8],
                "metrics": ["relerr_worst"],
                "fault": {"mode": "exhaustive"},
                "seeds": [0],
            }
        ]
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        code, out, _ = run_cli(capsys, "sweep", "--plan", str(plan_path))
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].endswith(",error,missing plan key 'n'")
        assert lines[-1] == "error=missing plan key 'n'"

    def test_missing_plan_file(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--plan", "/nonexistent/plan.json")
        assert code == 2 and "usage error" in err


class TestLagrangeCommand:
    def test_records_emitted(self, capsys):
        code, out, _ = run_cli(
            capsys, "lagrange", "--workers", "12", "--basis", "chebyshev",
            "--mode", "exhaustive", "--seed", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 3
        assert lines[1].split(",")[0] == "lagrange_chebyshev"
        assert float(lines[1].split(",")[5]) <= 1e-7


class TestBoundCommand:
    def test_growth_rate_check(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "8", "--s", "2")
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert float(values["kappa_f_max"]) <= 5.0 * float(values["bound"])

    def test_gauss_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--gauss", "--m", "3", "--workers", "4", "--trials", "50"
        )
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert float(values["bound_prob"]) == pytest.approx(1.4)
        assert int(values["violations"]) <= 50

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--n", "6", "--s", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 6 and payload["ratio"] > 0

    def test_growth_rate_bound_beyond_float_range_reads_inf(self, capsys):
        # (2n^2)^(s-1) = 12800^78 leaves float range
        code, out, _ = run_cli(capsys, "bound", "--n", "80", "--s", "79")
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert values["bound"] == "inf" and values["ratio"] == "0.0"
        assert float(values["kappa_f_max"]) > 0

    def test_json_writes_an_infinite_bound_as_null(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--n", "80", "--s", "79", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out, parse_constant=lambda token: pytest.fail(token))
        assert payload["bound"] is None and payload["ratio"] == 0.0

    def test_gauss_threshold_beyond_float_range(self, capsys):
        # the threshold 3 * 85^164 leaves float range; 98,770 subsets fit the budget
        code, out, _ = run_cli(
            capsys, "bound", "--gauss", "--m", "3", "--workers", "85", "--trials", "1"
        )
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert values["violations"] == "0"
        assert float(values["bound_prob"]) == pytest.approx(5.6 / 85.0**82)

    def test_missing_arguments(self, capsys):
        code, _, err = run_cli(capsys, "bound")
        assert code == 2 and "usage error" in err


class TestSelftest:
    def test_battery_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert out.splitlines() == [
            "ok   generator conditioning",
            "ok   exact recovery, all families",
            "ok   lagrange coding",
            "ok   simulation harness",
            "all 4 checks passed",
        ]


class TestSeedOverride:
    def test_ccc_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CCC_SEED", "99")
        code, out_a, _ = run_cli(
            capsys, "mm", "--scheme", "matdot", "--m", "2", "--workers", "6",
            "--exhaustive", "--seed", "1", "--n1", "8", "--n2", "8", "--n3", "8",
        )
        monkeypatch.delenv("CCC_SEED")
        code_b, out_b, _ = run_cli(
            capsys, "mm", "--scheme", "matdot", "--m", "2", "--workers", "6",
            "--exhaustive", "--seed", "99", "--n1", "8", "--n2", "8", "--n3", "8",
        )
        assert code == 0 and code_b == 0
        assert out_a == out_b

    def test_bad_ccc_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("CCC_SEED", "not-a-number")
        code, _, err = run_cli(capsys, "selftest")
        assert code == 2 and "CCC_SEED" in err
