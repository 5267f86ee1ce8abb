"""The two 1-D rules: Gauss-Legendre panels and the periodic trapezoid rule.

Exactness on trig polynomials, the alias guard on k-fold integrands that
fool the plain nested test, the floor for a component that is rounding
noise beside its bound, and the error raised at the node budget.
"""

import math
import re

import numpy as np
import pytest

from schwsurf import QuadSpec, QuadratureError
from schwsurf.quadrature import PERIODIC_START, integrate, integrate_periodic

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
    """|sin s| has a kink: the trapezoid error falls only like n^-2."""
    spec = QuadSpec(points=8, max_panels=8)
    with pytest.raises(QuadratureError) as err:
        integrate_periodic(lambda s: np.abs(np.sin(s)), TWO_PI, spec)
    message = str(err.value)
    assert "periodic trapezoid" in message
    assert "after 64 nodes" in message
    prev, cur = map(float, re.search(r"estimates (\S+) and (\S+)$", message).groups())
    assert prev != cur and cur == pytest.approx(4.0, rel=1e-3)


# ----------------------------------------------------------- Gauss-Legendre


def test_gauss_legendre_raises_at_panel_cap():
    """sqrt(x) is not smooth at 0: the composite error falls only like
    h^1.5, far from 1e-8 after four panels."""
    spec = QuadSpec(points=4, max_panels=4)
    with pytest.raises(QuadratureError) as err:
        integrate(np.sqrt, 0.0, 1.0, spec)
    message = str(err.value)
    assert "Gauss-Legendre" in message
    assert "after 16 nodes" in message
    prev, cur = map(float, re.search(r"estimates (\S+) and (\S+)$", message).groups())
    assert prev != cur and cur == pytest.approx(2.0 / 3.0, rel=1e-3)


def test_gauss_legendre_stops_at_first_agreement():
    """One panel, then two: a smooth integrand is accepted at once."""
    f, sizes = counted(np.exp)
    spec = QuadSpec()
    got = integrate(f, 0.0, 1.0, spec)
    assert sizes == [spec.points, 2 * spec.points]
    assert got == pytest.approx(math.e - 1.0, rel=1e-15)


# ------------------------------------------------------------ the noise floor


def test_noise_component_ends_beside_its_bound():
    """Rounding-level noise alone never settles under a relative test; next
    to the integral that bounds it, it ends at the bound's own level."""

    def noise(x):
        return 1e-30 * np.sin(1e6 * x) ** 2

    spec = QuadSpec(max_panels=64)
    with pytest.raises(QuadratureError):
        integrate(noise, 0.0, 1.0, spec)
    with pytest.raises(QuadratureError):
        integrate_periodic(lambda s: noise(s / TWO_PI), TWO_PI, spec)

    pair, sizes = counted(lambda x: np.array([noise(x), 1.0 + x]))
    got = integrate(pair, 0.0, 1.0, spec)
    assert sizes == [spec.points, 2 * spec.points]
    assert 0.0 <= got[0] <= 1e-30 and got[1] == pytest.approx(1.5, rel=1e-15)

    got = integrate_periodic(lambda s: np.array([noise(s / TWO_PI), 2.0 + np.cos(s)]), TWO_PI, spec)
    assert 0.0 <= got[0] <= 1e-29 and got[1] == pytest.approx(4.0 * math.pi, rel=1e-15)


def test_component_above_floor_keeps_relative_test():
    """A small but genuine component is still resolved to rel_tol of itself."""
    got = integrate_periodic(
        lambda s: np.array([1e-6 * np.exp(np.cos(5.0 * s)), np.ones_like(s)]), TWO_PI
    )
    assert got[0] == pytest.approx(1e-6 * 7.954926521012845, rel=1e-12)
