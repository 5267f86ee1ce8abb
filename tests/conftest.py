"""Shared fixtures and references, plus the acceptance-summary reporting hook."""

import mpmath
import pytest

from schwsurf import SchwarzschildModel


def _r_star_over_m():
    """R*/m: the root of (1/2) log(2x) = (2x + 1)/(2x - 1), to 50 digits."""
    with mpmath.workdps(50):
        return mpmath.findroot(
            lambda x: mpmath.log(2 * x) / 2 - (2 * x + 1) / (2 * x - 1), mpmath.mpf("2.75")
        )


# the stability radius at m = 2, rounded to double
R_STAR_M2 = float(2 * _r_star_over_m())

# filled by tests/test_acceptance.py; printed by the terminal-summary hook
ACCEPTANCE_RESULTS = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((number, ok, detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, ok, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[criterion {number:02d}] {status}  {detail}")


@pytest.fixture(scope="session")
def m1():
    return SchwarzschildModel(1.0)


@pytest.fixture(scope="session")
def m2():
    return SchwarzschildModel(2.0)


@pytest.fixture(scope="session")
def flat():
    return SchwarzschildModel(0.0)
