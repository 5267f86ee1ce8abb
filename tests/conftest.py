"""Shared fixtures and references, the in-process CLI runner, plus the
acceptance-summary reporting hook."""

import contextlib
import io
from typing import NamedTuple

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


def exact_radii(m, r):
    """Isotropic radius, areal radius and static potential at horizon
    distance ``r > 0``, to 50 digits, from the parametrization
    ``r = m (sinh w + w)``, ``rho = (m/2) e^w``, ``s = m (1 + cosh w)``,
    ``f = tanh(w/2)``, which shares no formula with the package."""
    with mpmath.workdps(50):
        m, r = mpmath.mpf(m), mpmath.mpf(r)
        w = mpmath.findroot(lambda w: mpmath.log((mpmath.sinh(w) + w) * m / r), mpmath.asinh(r / (2 * m)))
        return m / 2 * mpmath.exp(w), m * (1 + mpmath.cosh(w)), mpmath.tanh(w / 2)


def stebz_lowest(problem, how_many):
    """LAPACK's bisection (``stebz``) on the standard form of an FD
    problem, in its units (mass-squared, raw at m = 0), with the bound the
    FD solver is held to: 8 eps ||T||_inf, the infinity norm taken of the
    standard form ``T``."""
    import numpy as np
    from scipy.linalg import eigvalsh_tridiagonal

    from schwsurf.fd_oracle import _standard_form

    d, e = _standard_form(problem)
    vals = eigvalsh_tridiagonal(d, e, select="i", select_range=(0, how_many - 1), lapack_driver="stebz")
    rows = np.abs(d) + np.r_[np.abs(e), 0.0] + np.r_[0.0, np.abs(e)]
    return vals, 8.0 * np.finfo(float).eps * float(np.max(rows))


def float_path_outcome(f, *args):
    """``f(*args)``, or the type and message of the domain or singularity
    error it raises: the float and numpy-scalar calls of a scalar entry
    point are compared through it, by type and ``repr``."""
    from schwsurf.errors import DomainError, SingularityError

    try:
        return f(*args)
    except (DomainError, SingularityError) as exc:
        return type(exc), str(exc)


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def run_cli(*args):
    """``schwsurf.cli.main(args)`` in process: its exit code (from its
    return or from ``SystemExit``), stdout and stderr."""
    from schwsurf.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


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
