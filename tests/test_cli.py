import argparse
import json
import re
from pathlib import Path

import pytest

from chebcoded import selfcheck, sim_harness
from chebcoded.cli import build_parser, main
from chebcoded.sim_harness import CSV_HEADER


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def declared_flags():
    """Each subcommand's declared option strings, by introspecting the parser."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {flag for a in sub._actions for flag in a.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }


class TestCond:
    def test_small_exhaustive_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "cond", "--basis", "chebyshev", "--workers", "10", "--redundancy", "2", "--norm", "l2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        worst = dict(zip(CSV_HEADER.split(","), lines[1].split(",")))
        assert worst["metric"] == "cond_worst"
        assert float(worst["value"]) > 1.0
        assert worst["scheme"] == "chebyshev" and worst["P"] == "10"

    def test_rows_redundancy_conflict(self, capsys):
        # there is no --rows flag: the rows are always workers - redundancy
        with pytest.raises(SystemExit) as info:
            main(["cond", "--basis", "chebyshev", "--rows", "8", "--workers", "10",
                  "--redundancy", "3"])
        assert info.value.code == 2
        assert "unrecognized arguments: --rows 8" in capsys.readouterr().err

    def test_missing_rows_and_redundancy(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["cond", "--basis", "monomial", "--workers", "10"])
        assert info.value.code == 2
        assert "required: --redundancy" in capsys.readouterr().err

    def test_samples_flag_samples(self, capsys):
        code, out, _ = run_cli(
            capsys, "cond", "--basis", "chebyshev", "--workers", "12", "--redundancy", "2",
            "--samples", "30",
        )
        assert code == 0
        assert [line.split(",")[10] for line in out.splitlines()[1:]] == ["random(30)"] * 2

    def test_sampled_with_zero_samples_is_an_error_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "cond", "--basis", "chebyshev", "--workers", "12", "--redundancy", "2",
            "--samples", "0",
        )
        lines = out.splitlines()
        assert code == 1 and lines[0] == CSV_HEADER and len(lines) == 4
        assert lines[1].endswith(",error,random fault mode needs samples >= 1")
        assert lines[-1] == "error=random fault mode needs samples >= 1"

    def test_basis_choices_are_the_generator_kinds(self, capsys):
        with pytest.raises(SystemExit):
            main(["cond", "--help"])
        assert "{chebyshev,monomial,chebyshev_normalized}" in capsys.readouterr().out


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

    @pytest.mark.parametrize("dims", [("0", "4", "4"), ("-5", "12", "12")])
    def test_non_positive_dims_are_an_error(self, capsys, dims):
        code, out, _ = run_cli(
            capsys, "mm", "--scheme", "orthomatdot", "--m", "2", "--workers", "5",
            "--kill", "1,2", "--n1", dims[0], "--n2", dims[1], "--n3", dims[2],
        )
        assert code == 1
        assert out.startswith("error=plan key 'dims' must hold positive integers")
        assert "relative_error" not in out

    def test_singular_survivor_set_is_a_runtime_error(self, capsys):
        code, out, _ = run_cli(
            capsys, "mm", "--scheme", "matdot", "--m", "40", "--workers", "80", "--kill", "1",
        )
        assert code == 1
        assert out == "error=singular decode for the requested survivor set\n"

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

    @pytest.mark.parametrize(
        "text, message",
        [("[{", "plan file is not valid JSON"), ('{"scheme": "chebyshev"}', "JSON array")],
    )
    def test_plan_file_not_a_json_array(self, capsys, tmp_path, text, message):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(text)
        code, out, err = run_cli(capsys, "sweep", "--plan", str(plan_path))
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and message in err


class TestLagrangeCommand:
    def test_records_emitted(self, capsys):
        code, out, _ = run_cli(
            capsys, "lagrange", "--workers", "12", "--basis", "chebyshev",
            "--exhaustive", "--seed", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 3
        assert lines[1].split(",")[0] == "lagrange_chebyshev"
        assert float(lines[1].split(",")[5]) <= 1e-7
        assert lines[1].split(",")[10] == "exhaustive"

    def test_default_m_leaves_two_redundant_workers_at_any_degree(self, capsys):
        code, out, _ = run_cli(capsys, "lagrange", "--workers", "10", "--degf", "2")
        assert code == 0
        record = dict(zip(CSV_HEADER.split(","), out.splitlines()[1].split(",")))
        # m = (10 - 3) // 2 + 1 = 4 data points, threshold (4 - 1) * 2 + 1 = 7
        assert (record["threshold"], record["delta"], record["n3"]) == ("7", "3", "4")


class TestBoundCommand:
    def test_growth_rate_check(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--workers", "8", "--redundancy", "2")
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert float(values["kappa_f_max"]) <= 5.0 * float(values["bound"])

    def test_gauss_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--gauss", "--workers", "4", "--redundancy", "1", "--trials", "50"
        )
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert float(values["bound_prob"]) == pytest.approx(1.4)
        assert int(values["violations"]) <= 50

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--workers", "6", "--redundancy", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 6 and payload["ratio"] > 0

    def test_growth_rate_bound_beyond_float_range_reads_inf(self, capsys):
        # (2n^2)^(s-1) = 12800^78 leaves float range
        code, out, _ = run_cli(capsys, "bound", "--workers", "80", "--redundancy", "79")
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert values["bound"] == "inf" and values["ratio"] == "0.0"
        assert float(values["kappa_f_max"]) > 0

    def test_json_writes_an_infinite_bound_as_null(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--workers", "80", "--redundancy", "79", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out, parse_constant=lambda token: pytest.fail(token))
        assert payload["bound"] is None and payload["ratio"] == 0.0

    def test_gauss_threshold_beyond_float_range(self, capsys):
        # the threshold 3 * 85^164 leaves float range; 98,770 subsets fit the budget
        code, out, _ = run_cli(
            capsys, "bound", "--gauss", "--workers", "85", "--redundancy", "82", "--trials", "1"
        )
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert values["violations"] == "0"
        assert float(values["bound_prob"]) == pytest.approx(5.6 / 85.0**82)

    def test_domain_error_is_a_runtime_error_line(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--gauss", "--workers", "5", "--redundancy", "3")
        assert code == 1 and err == ""
        assert out == "error=the bound requires m >= 3, got m=2\n"

    def test_missing_arguments(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bound"])
        assert info.value.code == 2
        assert "required: --workers, --redundancy" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--redundancy", "0"], "redundancy=0 out of range [1, 5]"),
            (["--redundancy", "6"], "redundancy=6 out of range [1, 5]"),
            (["--gauss", "--redundancy", "6"], "redundancy=6 out of range [1, 5]"),
            (["--redundancy", "1", "--trials", "0"], "--trials must be at least 1, got 0"),
        ],
        ids=["redundancy-0", "redundancy-P", "gauss-redundancy-P", "trials-0"],
    )
    def test_out_of_range_setting_is_a_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "bound", "--workers", "6", *argv)
        assert code == 2 and out == ""
        assert err == f"usage error: {message}\n"


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


class TestFlags:
    """Each subcommand declares only the flags its handler reads, and each
    setting has one spelling: a removed one exits 2."""

    def test_every_declared_flag_is_read(self, capsys, monkeypatch, tmp_path):
        out = str(tmp_path / "out")
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps([{"scheme": "chebyshev", "P": 6, "delta": 1,
                                     "metrics": ["cond_worst"]}]))
        # table1 and selftest are read, not run: their work does not read flags
        monkeypatch.setattr(sim_harness, "table1_plan", lambda seed, dims: [])
        monkeypatch.setattr(selfcheck, "run_all", lambda verbose: [])
        paths = [
            ["cond", "--basis", "chebyshev", "--workers", "8", "--redundancy", "2", "--samples", "5"],
            ["mm", "--scheme", "orthopoly", "--m", "2", "--n", "2", "--workers", "6",
             "--kill", "1,4", "--n1", "4", "--n2", "4", "--n3", "4", "--out", out],
            ["mm", "--scheme", "gen_orthomatdot", "--m1", "2", "--m2", "1", "--m3", "1",
             "--workers", "5", "--exhaustive", "--n1", "4", "--n2", "4", "--n3", "4"],
            ["table1"],
            ["sweep", "--plan", str(plan)],
            ["lagrange", "--workers", "8", "--redundancy", "4", "--samples", "3"],
            ["lagrange", "--workers", "6", "--exhaustive"],
            ["bound", "--workers", "6", "--redundancy", "1", "--out", out],
            ["bound", "--gauss", "--workers", "4", "--redundancy", "1", "--trials", "5"],
            ["selftest"],
        ]
        reads = {}

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                command = object.__getattribute__(self, "command")
                reads.setdefault(command, set()).add(name)
                return object.__getattribute__(self, name)

        parser = build_parser()
        for argv in paths:
            args = Recording(**vars(parser.parse_args(argv)))
            assert args.handler(args) == 0, argv
        capsys.readouterr()
        declared = declared_flags()
        assert set(reads) == set(declared)
        for name, flags in declared.items():
            assert {flag[2:] for flag in flags} - reads[name] == set(), name

    def test_each_setting_has_one_flag_and_each_flag_one_meaning(self):
        declared = declared_flags()
        assert [name for name, flags in declared.items() if "--m" in flags] == ["mm"]
        assert [name for name, flags in declared.items() if "--n" in flags] == ["mm"]
        assert [name for name, flags in declared.items() if "--quiet" in flags] == ["selftest"]
        assert not any({"--points", "--s", "--rows", "--mode"} & flags for flags in declared.values())
        assert sum(map(len, declared.values())) == 48

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cond", "--basis", "chebyshev", "--workers", "10", "--redundancy", "2",
              "--mode", "sampled", "--samples", "40"], "unrecognized arguments: --mode sampled"),
            (["lagrange", "--workers", "8", "--mode", "exhaustive"],
             "unrecognized arguments: --mode exhaustive"),
            (["lagrange", "--workers", "8", "--exhaustive", "--samples", "10"],
             "--samples: not allowed with argument --exhaustive"),
            (["cond", "--basis", "chebyshev", "--workers", "10", "--redundancy", "2", "--quiet"],
             "unrecognized arguments: --quiet"),
            (["sweep", "--plan", "plan.json", "--seed", "1"], "unrecognized arguments: --seed 1"),
            (["selftest", "--format", "json"], "unrecognized arguments: --format json"),
            (["cond", "--basis", "chebyshev", "--workers", "10", "--redundancy", "2",
              "--points", "10"], "unrecognized arguments: --points 10"),
            (["bound", "--workers", "6", "--redundancy", "1", "--n", "6"],
             "unrecognized arguments: --n 6"),
            # not read as an abbreviation of --seed
            (["bound", "--workers", "6", "--redundancy", "1", "--s", "1"],
             "unrecognized arguments: --s 1"),
            (["bound", "--gauss", "--workers", "4", "--redundancy", "1", "--m", "3"],
             "unrecognized arguments: --m 3"),
            (["lagrange", "--workers", "8", "--m", "4"], "unrecognized arguments: --m 4"),
            (["mm", "--scheme", "matdot", "--m", "2", "--workers", "6", "--kill", "1,2,3",
              "--quiet"], "unrecognized arguments: --quiet"),
            (["bound", "--workers", "6", "--redundancy", "1", "--out", "x", "--quiet"],
             "unrecognized arguments: --quiet"),
        ],
        ids=["cond-mode", "lagrange-mode", "lagrange-exhaustive-samples", "cond-quiet",
             "sweep-seed", "selftest-format", "cond-points", "bound-n", "bound-s", "bound-gauss-m",
             "lagrange-m", "mm-quiet", "bound-quiet"],
    )
    def test_removed_or_unread_flag_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    def test_documented_synopses_use_declared_flags(self):
        # a backticked synopsis that starts with a subcommand (after an
        # optional "chebcoded ") may only name flags that subcommand declares
        declared = declared_flags()
        synopsis = re.compile(r"`(?:chebcoded )?(" + "|".join(declared) + r")(?=[\s`])([^`]*)`")
        root = Path(__file__).parents[1]
        for doc in ("README.md", "docs/plots.md"):
            text = re.sub(r"^```.*?^```", "", (root / doc).read_text(), flags=re.M | re.S)
            found = synopsis.findall(text)
            assert found, doc
            for name, rest in found:
                flags = set(re.findall(r"--[a-z][a-z0-9-]*", rest))
                assert flags <= declared[name], (doc, name, " ".join(rest.split()))


class TestOut:
    """--out PATH replaces stdout: PATH holds the output, and stdout at most
    a final error= line."""

    RUNS = {
        "cond": ["cond", "--basis", "chebyshev", "--workers", "8", "--redundancy", "2"],
        "mm": ["mm", "--scheme", "orthomatdot", "--m", "2", "--workers", "6", "--exhaustive",
               "--n1", "8", "--n2", "8", "--n3", "8"],
        "table1": ["table1", "--dims", "6", "--seed", "2"],
        "sweep": ["sweep", "--plan", "plan.json", "--format", "json"],
        "lagrange": ["lagrange", "--workers", "8", "--samples", "3"],
        "bound": ["bound", "--workers", "6", "--redundancy", "1"],
        "bound --gauss": ["bound", "--gauss", "--workers", "4", "--redundancy", "1", "--trials", "5"],
    }

    @pytest.fixture
    def small(self, monkeypatch, tmp_path):
        """Run in tmp_path, with sweep's plan.json there and table1 on one small row."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            sim_harness, "table1_plan",
            lambda seed, dims: sim_harness.error_growth_plan(("matdot",), (6,), 3, dims, None, seed),
        )
        plan = sim_harness.condition_growth_plan(("monomial",), (7,), 2)
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        return tmp_path / "out"

    def test_every_subcommand_with_out_is_covered(self):
        taking = {name for name, flags in declared_flags().items() if "--out" in flags}
        assert taking == {argv[0] for argv in self.RUNS.values()}

    @pytest.mark.parametrize("name", list(RUNS))
    def test_out_replaces_stdout(self, capsys, small, name):
        argv = self.RUNS[name]
        code, printed, _ = run_cli(capsys, *argv)
        assert code == 0 and printed
        code, out, _ = run_cli(capsys, *argv, "--out", str(small))
        assert code == 0 and out == ""
        assert small.read_text() == printed

    def test_kill_writes_records_instead_of_its_line(self, capsys, small):
        argv = ["mm", "--scheme", "orthopoly", "--m", "2", "--n", "2", "--workers", "6",
                "--kill", "2,5", "--n1", "8", "--n2", "8", "--n3", "8"]
        code, printed, _ = run_cli(capsys, *argv)
        assert code == 0 and printed.startswith("relative_error=")
        code, out, _ = run_cli(capsys, *argv, "--out", str(small))
        assert code == 0 and out == ""
        lines = small.read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 3
        worst = dict(zip(CSV_HEADER.split(","), lines[1].split(",")))
        assert worst["metric"] == "relerr_worst" and worst["subset_mode"] == "fixed(1;3;4;6)"
        assert printed == f"relative_error={worst['value']}\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_kill_format_without_out_exits_2(self, capsys, small, fmt):
        argv = ["mm", "--scheme", "matdot", "--m", "2", "--workers", "5", "--kill", "1,2",
                "--n1", "4", "--n2", "4", "--n3", "4", "--format", fmt]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == (
            "usage error: mm --kill prints one relative_error= line; --format needs --out PATH\n"
        )
        code, out, _ = run_cli(capsys, *argv, "--out", str(small))
        assert code == 0 and out == ""
        text = small.read_text()
        assert text.startswith("[") if fmt == "json" else text.startswith(CSV_HEADER)

    def test_singular_kill_writes_records_then_the_error_line(self, capsys, small):
        code, out, _ = run_cli(
            capsys, "mm", "--scheme", "matdot", "--m", "40", "--workers", "80", "--kill", "1",
            "--n1", "8", "--n2", "40", "--n3", "8", "--out", str(small),
        )
        assert code == 1
        assert out == "error=singular decode for the requested survivor set\n"
        lines = small.read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 3
        assert [line.split(",")[5] for line in lines[1:]] == ["inf", "inf"]

    def test_error_row_keeps_only_the_error_line_on_stdout(self, capsys, small):
        code, out, _ = run_cli(
            capsys, "cond", "--basis", "chebyshev", "--workers", "12", "--redundancy", "2",
            "--samples", "0", "--out", str(small),
        )
        assert code == 1 and out == "error=random fault mode needs samples >= 1\n"
        assert small.read_text().splitlines()[0] == CSV_HEADER
