import time

import pytest
from hypothesis import settings

# Every property test draws the same examples on each run; its @settings add max_examples.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")

_acceptance_lines = []
_session_start = time.monotonic()


def pytest_sessionstart(session):
    global _session_start
    _session_start = time.monotonic()


@pytest.fixture(scope="session")
def criterion_log():
    """Collect one pass/fail line per acceptance criterion for the summary."""

    def record(number: int, ok: bool, detail: str):
        _acceptance_lines.append((number, ok, detail))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for number, ok, detail in sorted(_acceptance_lines):
            status = "PASS" if ok else "FAIL"
            terminalreporter.write_line(f"criterion {number:2d} {status}: {detail}")
    elapsed = time.monotonic() - _session_start
    terminalreporter.write_line(f"total suite wall time: {elapsed:.2f} s")
