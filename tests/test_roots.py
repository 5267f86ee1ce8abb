"""Brent's bracketed root: the in-package port against scipy's brentq.

The port must reproduce ``scipy.optimize.brentq`` exactly: the same root,
bit for bit, after the same number of function calls, on the residuals
the package actually solves and on textbook functions.
"""

import math

import numpy as np
import pytest
import scipy.optimize
from click.testing import CliRunner

from schwsurf import mode_odes, roots, spectral
from schwsurf.cli import main
from schwsurf.errors import DomainError, SearchError

RTOL = 8.0 * np.finfo(float).eps


def assert_matches_scipy(f, a, b, **kw):
    """Same iterates, same root bit for bit, same function-call count."""
    ours_x, ref_x = [], []

    def recorded(xs):
        return lambda x: xs.append(x) or f(x)

    ours = roots.brentq(recorded(ours_x), a, b, **kw)
    ref, info = scipy.optimize.brentq(recorded(ref_x), a, b, full_output=True, **kw)
    assert info.converged
    assert ours.hex() == float(ref).hex()
    assert [x.hex() for x in ours_x] == [float(x).hex() for x in ref_x]
    assert len(ours_x) == info.function_calls
    return ours, len(ours_x)


@pytest.fixture
def compared(monkeypatch):
    """Check every root search a module runs against scipy as it runs."""
    searches = []

    def patch(module):
        def compare(f, a, b, **kw):
            searches.append(assert_matches_scipy(f, a, b, **kw))
            return searches[-1][0]

        monkeypatch.setattr(module, "brentq", compare)
        return searches

    return patch


def test_stability_radius_residual_matches_scipy(compared, m1, m2):
    searches = compared(spectral)
    for model in (m1, m2):
        spectral.stability_radius(model)
    assert len(searches) == 2


@pytest.mark.parametrize("c", [-3.0, 0.0, 5.0])
def test_singularity_radius_residual_matches_scipy(compared, m2, c):
    searches = compared(mode_odes)
    mode_odes.singularity_radius(m2, c)
    assert len(searches) == 1


@pytest.mark.parametrize("R, count", [(40.0, 3), (200.0, 2)])
def test_phase_residual_matches_scipy(compared, m2, R, count):
    # R = 200 is 100 m at m = 2: far enough out that the one-sided phase
    # would jump by pi across a narrow window in lambda; the miss-distance
    # the search solves is smooth there
    searches = compared(spectral)
    spectral.eigenvalues_shooting(m2, 0, R, count)
    assert len(searches) == count


def test_textbook_cubic_matches_scipy():
    # Wallis's cubic, the classic test of Newton's and Brent's methods
    root, calls = assert_matches_scipy(lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, xtol=1e-14, rtol=RTOL)
    assert root == pytest.approx(2.0945514815423265, rel=1e-14)
    assert calls > 4


def test_root_at_endpoint_matches_scipy():
    # sqrt(2)**2 - 2 is 4.4e-16, not 0: the search runs to the end
    root, _ = assert_matches_scipy(lambda x: x * x - 2.0, 0.0, math.sqrt(2.0))
    assert abs(root - math.sqrt(2.0)) <= 4.0 * np.finfo(float).eps
    # an exact zero at an end returns it after the two end evaluations
    assert assert_matches_scipy(lambda x: x * x - 4.0, 2.0, 5.0) == (2.0, 2)


def test_known_end_values_skip_the_end_calls():
    """End values passed in: scipy's iterates and root, two calls fewer."""
    f = lambda x: x**3 - 2.0 * x - 5.0  # noqa: E731
    seen = []
    root = roots.brentq(lambda x: seen.append(x) or f(x), 2.0, 3.0, xtol=1e-14, rtol=RTOL, f_a=-1.0, f_b=16.0)
    ref_x = []
    ref = scipy.optimize.brentq(lambda x: ref_x.append(x) or f(x), 2.0, 3.0, xtol=1e-14, rtol=RTOL)
    assert root.hex() == float(ref).hex()
    assert [x.hex() for x in seen] == [float(x).hex() for x in ref_x[2:]]
    # one known end: only the other is called
    seen.clear()
    assert roots.brentq(lambda x: seen.append(x) or f(x), 2.0, 3.0, xtol=1e-14, rtol=RTOL, f_b=16.0) == root
    assert seen[0] == 2.0 and len(seen) == len(ref_x) - 1
    with pytest.raises(SearchError):
        roots.brentq(f, 2.0, 3.0, f_a=math.nan)


def test_same_sign_bracket_raises_search_error():
    with pytest.raises(SearchError) as err:
        roots.brentq(lambda x: x * x + 1.0, -1.0, 2.0)
    assert err.value.diagnostics == {"bracket": (-1.0, 2.0), "f_a": 2.0, "f_b": 5.0}


def test_maxiter_exhaustion_raises_search_error():
    f = lambda x: x**3 - 2.0 * x - 5.0  # noqa: E731
    with pytest.raises(SearchError) as err:
        roots.brentq(f, 2.0, 3.0, maxiter=2)
    diag = err.value.diagnostics
    last, info = scipy.optimize.brentq(f, 2.0, 3.0, maxiter=2, full_output=True, disp=False)
    assert not info.converged
    assert diag["x"] == last and diag["f_x"] == f(last)
    assert diag["bracket"] == (2.0, 3.0) and (diag["f_a"], diag["f_b"]) == (-1.0, 16.0)
    assert diag["function_calls"] == info.function_calls


def test_nan_value_raises_search_error():
    with pytest.raises(SearchError):
        roots.brentq(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0)


@pytest.mark.parametrize("kw", [{"xtol": 0.0}, {"xtol": -1e-12}, {"rtol": 3.9 * np.finfo(float).eps}])
def test_bad_tolerances_raise_domain_error(kw):
    with pytest.raises(DomainError):
        roots.brentq(lambda x: x, -1.0, 1.0, **kw)


def test_root_search_failure_exits_3(monkeypatch):
    def starved(f, a, b, **kw):
        return roots.brentq(f, a, b, **dict(kw, maxiter=2))

    monkeypatch.setattr(spectral, "brentq", starved)
    result = CliRunner().invoke(main, ["stability-radius", "--mass", "2"])
    assert result.exit_code == 3
    assert "numerical failure: no convergence after 2 iterations" in result.output
