import pytest

ACCEPTANCE_RESULTS = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call":
        marker = item.get_closest_marker("criterion")
        if marker:
            ACCEPTANCE_RESULTS.append((marker.args[0], report.passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for name, passed in sorted(ACCEPTANCE_RESULTS):
            terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}  {name}")
