"""The two 1-D rules: Gauss-Legendre panels and the periodic trapezoid rule.

Exactness on trig polynomials, the alias guard on k-fold integrands that
fool the plain nested test, the floor for a component that is rounding
noise beside its bound, and the error raised at the node budget.
"""

import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from schwsurf import QuadSpec, QuadratureError, SchwarzschildModel, make_plane, mu_integral
from schwsurf import quadrature
from schwsurf.quadrature import GL_POINTS, MAX_PANELS, PERIODIC_START, integrate, integrate_periodic

TWO_PI = 2.0 * math.pi


def counted(f):
    """``f`` with a list of the node counts it was called with."""
    sizes = []

    def wrapped(x):
        sizes.append(len(x))
        return f(x)

    return wrapped, sizes


def trapezoid(f, period, n):
    h = period / n
    return h * float(np.sum(f(h * np.arange(n))))


# ------------------------------------------------------------ periodic rule


@pytest.mark.parametrize("period", [TWO_PI, 1.7])
def test_periodic_rule_exact_on_low_trig_polynomials(period):
    """Degree below the start: every level is exact, so the first
    comparison (and its guard) accepts at rounding."""
    assert PERIODIC_START == 4
    nu = TWO_PI / period

    def f(s):
        x = nu * s
        return 2.0 + np.cos(x) - 0.5 * np.sin(2.0 * x) + 0.25 * np.cos(3.0 * x + 0.4)

    f, sizes = counted(f)
    assert integrate_periodic(f, period) == pytest.approx(2.0 * period, rel=1e-15)
    # level 4, its midpoints (level 8), and the shifted level-8 guard
    assert sizes == [4, 4, 8]


@pytest.mark.parametrize("k", [2 * PERIODIC_START, 4 * PERIODIC_START])
def test_alias_guard_catches_k_fold_integrands(k):
    """1 + cos^2(k s) integrates to 3 pi.  Its frequency 2k is a multiple
    of the first nested levels, which therefore agree on 4 pi exactly; the
    shifted grid sees through that."""

    def f(s):
        return 1.0 + np.cos(k * s) ** 2

    fooled = [trapezoid(f, TWO_PI, n) for n in (PERIODIC_START, 2 * PERIODIC_START)]
    assert fooled[0] == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert fooled[1] == pytest.approx(fooled[0], rel=1e-14)
    assert integrate_periodic(f, TWO_PI) == pytest.approx(3.0 * math.pi, rel=1e-14)


def test_periodic_rule_reuses_every_node():
    """Each level adds only the midpoints of the last one."""
    f, sizes = counted(lambda s: np.exp(np.cos(s)))
    value = integrate_periodic(f, TWO_PI)
    # 2 pi I_0(1)
    assert value == pytest.approx(7.954926521012845, rel=1e-14)
    # level 4, then one batch of midpoints per doubling, then the shifted
    # guard on the accepted level
    assert sizes[:2] == [PERIODIC_START, PERIODIC_START]
    assert all(b == 2 * a for a, b in zip(sizes[1:], sizes[2:]))


def test_periodic_rule_raises_at_node_budget():
    """sqrt|sin s| has cusps: the trapezoid error falls only like n^-1.5,
    still above 1e-8 at the budget."""
    assert MAX_PANELS * GL_POINTS == 131072
    with pytest.raises(QuadratureError) as err:
        integrate_periodic(lambda s: np.sqrt(np.abs(np.sin(s))), TWO_PI)
    message = str(err.value)
    assert "periodic trapezoid" in message
    assert "after 131072 nodes" in message
    prev, cur = map(float, re.search(r"estimates (\S+) and (\S+)$", message).groups())
    # 4 int_0^(pi/2) sin^(1/2) = 2 sqrt(pi) Gamma(3/4) / Gamma(5/4)
    exact = 2.0 * math.sqrt(math.pi) * math.gamma(0.75) / math.gamma(1.25)
    assert prev != cur and cur == pytest.approx(exact, rel=1e-6)


# ----------------------------------------------------------- Gauss-Legendre


def test_gauss_legendre_raises_at_panel_cap():
    """|x - 1/3|^(1/2) has a cusp that no panel edge of [0, 1] meets: the
    composite error falls only like h^1.5, still above 1e-8 at the cap."""
    with pytest.raises(QuadratureError) as err:
        integrate(lambda x: np.abs(x - 1.0 / 3.0) ** 0.5, 0.0, 1.0)
    message = str(err.value)
    assert "Gauss-Legendre" in message
    assert f"after {MAX_PANELS * GL_POINTS} nodes" in message
    prev, cur = map(float, re.search(r"estimates (\S+) and (\S+)$", message).groups())
    exact = 2.0 / 3.0 * ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5)
    assert prev != cur and cur == pytest.approx(exact, rel=1e-6)


def test_gauss_legendre_stops_at_first_agreement():
    """One panel, then two: a smooth integrand is accepted at once."""
    f, sizes = counted(np.exp)
    spec = QuadSpec()
    got = integrate(f, 0.0, 1.0, spec)
    assert sizes == [GL_POINTS, 2 * GL_POINTS]
    assert got == pytest.approx(math.e - 1.0, rel=1e-15)


# ------------------------------------------------- estimates that overflow


@pytest.mark.parametrize("rule", ["gauss-legendre", "periodic"])
@pytest.mark.parametrize("sample", [math.inf, 1e308])
def test_non_finite_estimate_raises_at_once(rule, sample):
    """An infinite integrand, or finite samples whose sum overflows, raises
    QuadratureError after at most two levels, without a RuntimeWarning
    (Tier-1 turns those into errors); refining cannot bring it back."""
    f, sizes = counted(lambda x: np.full(np.shape(x), sample))
    with pytest.raises(QuadratureError, match="is not finite"):
        if rule == "periodic":
            integrate_periodic(f, TWO_PI)
        else:
            integrate(f, 0.0, 10.0)
    assert len(sizes) <= 2


# ------------------------------------------------------------ the noise floor


def test_noise_component_ends_beside_its_bound():
    """Rounding-level noise alone never settles under a relative test; next
    to the integral that bounds it, it ends at the bound's own level."""

    def noise(x):
        return 1e-30 * np.sin(1e6 * x) ** 2

    with pytest.raises(QuadratureError):
        integrate(noise, 0.0, 1.0)
    with pytest.raises(QuadratureError):
        integrate_periodic(lambda s: noise(s / TWO_PI), TWO_PI)

    pair, sizes = counted(lambda x: np.array([noise(x), 1.0 + x]))
    got = integrate(pair, 0.0, 1.0)
    assert sizes == [GL_POINTS, 2 * GL_POINTS]
    assert 0.0 <= got[0] <= 1e-30 and got[1] == pytest.approx(1.5, rel=1e-15)

    got = integrate_periodic(lambda s: np.array([noise(s / TWO_PI), 2.0 + np.cos(s)]), TWO_PI)
    assert 0.0 <= got[0] <= 1e-29 and got[1] == pytest.approx(4.0 * math.pi, rel=1e-15)


def test_component_above_floor_keeps_relative_test():
    """A small but genuine component is still resolved to rel_tol of itself."""
    got = integrate_periodic(
        lambda s: np.array([1e-6 * np.exp(np.cos(5.0 * s)), np.ones_like(s)]), TWO_PI
    )
    assert got[0] == pytest.approx(1e-6 * 7.954926521012845, rel=1e-12)


@pytest.mark.parametrize("rel_tol", [0.0, -1e-8, math.nan, math.inf])
def test_quad_spec_rejects_bad_tolerance(rel_tol):
    with pytest.raises(ValueError):
        QuadSpec(rel_tol=rel_tol)


# --------------------------------------------------------- Gauss-Legendre rule

_LAZY_RULE_PROBE = """
import json, sys
import numpy
by_numpy = "numpy.polynomial" in sys.modules
import schwsurf.cli
at_import = "numpy.polynomial" in sys.modules
from schwsurf import SchwarzschildModel, make_plane, mu_integral
m2 = SchwarzschildModel(2.0)
mu = mu_integral(m2, make_plane(m2, 100.0), 20.0)
print(json.dumps({"by_numpy": by_numpy, "at_import": at_import,
                  "after_integral": "numpy.polynomial" in sys.modules, "mu": mu.hex()}))
"""


def test_gauss_legendre_rule_formed_on_first_use(monkeypatch):
    # importing the package loads numpy.polynomial only if numpy itself does;
    # the first integral forms the rule, and it is the eager rule to the bit
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_RULE_PROBE], capture_output=True, text=True, check=True
    )
    probe = json.loads(proc.stdout)
    assert probe["at_import"] == probe["by_numpy"]
    assert probe["after_integral"]
    eager = np.polynomial.legendre.leggauss(GL_POINTS)
    monkeypatch.setattr(quadrature, "_gauss_legendre", lambda: eager)
    m2 = SchwarzschildModel(2.0)
    assert probe["mu"] == mu_integral(m2, make_plane(m2, 100.0), 20.0).hex()
