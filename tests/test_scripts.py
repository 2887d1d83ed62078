"""One small run of each experiment script in scripts/, and the rules
they share with the CLI: CCC_SEED overrides --seed, and records come
first, then a last ``error=`` line and exit code 1 when a plan row
failed."""

import runpy
from pathlib import Path

import pytest

from chebcoded.sim_harness import CSV_HEADER

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(capsys, name, *argv):
    main = runpy.run_path(str(SCRIPTS / f"{name}.py"))["main"]
    code = main(list(argv))
    return code, capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "name, argv, schemes",
    [
        ("condition_growth", ["--workers", "8", "10", "--redundancy", "2"],
         ["monomial"] * 4 + ["chebyshev"] * 4),
        ("error_growth", ["--workers", "7", "--redundancy", "2", "--dims", "6", "--samples", "3"],
         ["matdot"] * 2 + ["orthomatdot"] * 2),
        ("lagrange_stability", ["--workers", "8", "--samples", "3"],
         ["lagrange_chebyshev"] * 2 + ["lagrange_monomial"] * 2),
    ],
)
def test_small_run_writes_records_and_exits_0(capsys, name, argv, schemes):
    code, lines = run_script(capsys, name, *argv)
    assert code == 0
    assert lines[0] == CSV_HEADER
    assert [line.split(",")[0] for line in lines[1:]] == schemes
    assert all(line.endswith(",") for line in lines[1:])  # empty error column


@pytest.mark.parametrize(
    "name, argv, error",
    [
        ("condition_growth", ["--workers", "400", "--redundancy", "3"],
         "10586800 survivor subsets exceed the exhaustive budget 1000000"),
        ("error_growth", ["--workers", "7", "--redundancy", "2", "--samples", "0"],
         "random fault mode needs samples >= 1"),
        ("lagrange_stability", ["--workers", "8", "--degf", "2"],
         "P-delta=6 is not a valid threshold for deg_f=2"),
        ("condition_growth", ["--workers", "8", "--redundancy", "2", "--samples", "0"],
         "random fault mode needs samples >= 1"),
    ],
)
def test_error_rows_end_with_an_error_line_and_exit_1(capsys, name, argv, error):
    code, lines = run_script(capsys, name, *argv)
    assert code == 1
    assert lines[0] == CSV_HEADER
    assert all(line.endswith(",error," + error) for line in lines[1:-1])
    assert lines[-1] == "error=" + error


SMALL_RUNS = {
    "condition_growth": ["--workers", "8", "--redundancy", "2", "--samples", "5"],
    "error_growth": ["--workers", "7", "--redundancy", "2", "--dims", "6", "--samples", "3"],
    "lagrange_stability": ["--workers", "8", "--samples", "3"],
}


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_ccc_seed_overrides_seed(capsys, monkeypatch, name):
    code, seeded = run_script(capsys, name, *SMALL_RUNS[name], "--seed", "4")
    monkeypatch.setenv("CCC_SEED", "4")
    env_code, from_env = run_script(capsys, name, *SMALL_RUNS[name], "--seed", "0")
    assert code == env_code == 0
    assert from_env == seeded and {line.split(",")[6] for line in seeded[1:]} == {"4"}


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_non_integer_ccc_seed_exits_2(capsys, monkeypatch, name):
    monkeypatch.setenv("CCC_SEED", "four")
    main = runpy.run_path(str(SCRIPTS / f"{name}.py"))["main"]
    assert main(SMALL_RUNS[name]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "usage error: CCC_SEED must be an integer\n"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("condition_growth", ["--work", "8", "--redund", "2"]),
        ("error_growth", ["--workers", "7", "--redundancy", "2", "--dim", "6", "--sa", "3"]),
        ("lagrange_stability", ["--work", "6", "--sa", "3", "--redund", "2"]),
    ],
)
def test_flag_prefix_exits_2(capsys, name, argv):
    """A prefix of a flag is not a second spelling of it, as on the CLI."""
    main = runpy.run_path(str(SCRIPTS / f"{name}.py"))["main"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: " in captured.err
