"""The two 1-D rules: Gauss-Kronrod panels and the periodic trapezoid rule.

The Kronrod rule's table against its construction, the rule and its
embedded Gauss rule against their degrees and the Legendre zeros,
exactness on trig polynomials, the alias guard on
k-fold integrands that fool the plain nested test, the floor for a
component that is rounding noise beside its bound, and the error raised
at the node budget.
"""

import json
import math
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from schwsurf import QuadSpec, QuadratureError, SchwarzschildModel, make_plane, mu_integral
from schwsurf import quadrature
from schwsurf.geometry import _exp
from schwsurf.quadrature import (
    GL_POINTS,
    KRONROD_POINTS,
    MAX_PANELS,
    PERIODIC_START,
    integrate,
    integrate_periodic,
    panel_nodes,
)

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
    # level 4, its midpoints (level 8), and the guard: level 4 shifted
    assert sizes == [4, 4, 4]


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
    # level 4, then one batch of midpoints per doubling, then the guard:
    # the level before the accepted one, shifted, half the accepted level
    *levels, guard = sizes
    assert levels[:2] == [PERIODIC_START, PERIODIC_START]
    assert all(b == 2 * a for a, b in zip(levels[1:], levels[2:]))
    assert guard == sum(levels) // 2


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


# ----------------------------------------------------------- Gauss-Kronrod


def test_gauss_legendre_raises_at_panel_cap():
    """|x - 1/3|^(1/2) has a cusp that no panel edge of [0, 1] meets: the
    composite error falls only like h^1.5, still above 1e-8 at the cap.
    The message counts the nodes of the last level."""
    with pytest.raises(QuadratureError) as err:
        integrate(lambda x: np.abs(np.asarray(x) - 1.0 / 3.0) ** 0.5, 0.0, 1.0)
    message = str(err.value)
    assert "Gauss-Kronrod" in message
    assert MAX_PANELS * KRONROD_POINTS == 266240
    assert "after 266240 nodes" in message
    prev, cur = map(float, re.search(r"estimates (\S+) and (\S+)$", message).groups())
    exact = 2.0 / 3.0 * ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5)
    assert prev != cur and cur == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
def test_interval_that_is_not_finite_raises_before_any_node(a, b):
    f, sizes = counted(lambda x: [1.0] * len(x))
    with pytest.raises(QuadratureError, match=r"interval \[.*\] is not finite"):
        integrate(f, a, b)
    assert sizes == []


def test_gauss_legendre_stops_at_first_agreement():
    """One panel: its Kronrod and Gauss sums agree on a smooth integrand,
    which is accepted after one evaluation."""
    f, sizes = counted(np.exp)
    spec = QuadSpec()
    got = integrate(f, 0.0, 1.0, spec)
    assert sizes == [KRONROD_POINTS]
    assert got == pytest.approx(math.e - 1.0, rel=1e-15)


# ------------------------------------------------- estimates that overflow


@pytest.mark.parametrize("rule", ["gauss-legendre", "periodic"])
@pytest.mark.parametrize("sample", [math.inf, 1e308])
def test_non_finite_estimate_raises_at_once(rule, sample):
    """An infinite integrand, or finite samples whose sum overflows, raises
    QuadratureError after at most two levels, without a RuntimeWarning
    (Tier-1 turns those into errors); refining cannot bring it back."""
    f, sizes = counted(lambda x: [sample] * len(x))
    with pytest.raises(QuadratureError, match="is not finite"):
        if rule == "periodic":
            integrate_periodic(f, TWO_PI)
        else:
            integrate(f, 0.0, 10.0)
    assert len(sizes) <= 2


@pytest.mark.parametrize("rule", ["gauss-legendre", "periodic"])
def test_integrand_that_overflows_raises_at_once(rule):
    """Samples that overflow while the integrand is evaluated (finite nodes,
    an exponential past the double range) are reported as a QuadratureError
    on the first level, with no RuntimeWarning from the integrand: the
    plain-float integrand of the Gauss-Kronrod rule saturates to inf."""
    with pytest.raises(QuadratureError, match="is not finite"):
        if rule == "periodic":
            f, sizes = counted(lambda x: np.exp(1e3 + x))
            integrate_periodic(f, TWO_PI)
        else:
            f, sizes = counted(lambda x: [_exp(1e3 + u) for u in x])
            integrate(f, 0.0, 10.0)
    assert len(sizes) == 1


# ------------------------------------------------------------ the noise floor


def test_noise_component_ends_beside_its_bound():
    """Rounding-level noise alone never settles under a relative test; next
    to the integral that bounds it, it ends at the bound's own level."""

    def noise(x):
        return 1e-30 * np.sin(1e6 * np.asarray(x)) ** 2

    with pytest.raises(QuadratureError):
        integrate(noise, 0.0, 1.0)
    with pytest.raises(QuadratureError):
        integrate_periodic(lambda s: noise(s / TWO_PI), TWO_PI)

    pair, sizes = counted(lambda x: (noise(x), 1.0 + np.asarray(x)))
    got = integrate(pair, 0.0, 1.0)
    assert sizes == [KRONROD_POINTS]
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


# --------------------------------------------------------- Gauss-Kronrod rule


def kronrod_recurrence(n: int) -> list:
    """Recurrence coefficients ``b_0 .. b_2n`` of the Jacobi matrix whose
    Gauss rule is the ``(2n + 1)``-point Kronrod extension of the
    ``n``-point Gauss-Legendre rule, by Laurie's algorithm (D. P. Laurie,
    "Calculation of Gauss-Kronrod quadrature rules", Math. Comp. 66
    (1997) 1133-1145; W. Gautschi's ``r_kronrod``).  The Legendre weight
    is even, so every diagonal coefficient is zero and only the ``b``
    terms of the recurrences remain.  ``b_0 = 2`` is the weight's mass.
    """
    b = [0.0] * (2 * n + 1)
    b[0] = 2.0
    for k in range(1, (3 * n + 1) // 2 + 1):
        b[k] = k * k / (4.0 * k * k - 1.0)  # Legendre's
    s = [0.0] * (n // 2 + 2)
    t = [0.0] * (n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = 0.0
        for k in range((m + 1) // 2, -1, -1):
            u += b[k + n + 1] * s[k] - b[m - k] * s[k + 1]
            s[k + 1] = u
        s, t = t, s
    s[1:] = s[:-1]
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            j = n - 1 - m + k
            u += b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1]
            s[j + 1] = u
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    return b


def constructed_rule() -> tuple:
    """The Kronrod rule on ``[-1, 1]`` formed from its recurrence: its
    ascending nodes, its weights, and the weights of the embedded
    Gauss-Legendre rule, whose nodes are ``nodes[1::2]``.

    The nodes are the eigenvalues of the Kronrod Jacobi matrix (Golub &
    Welsch, Math. Comp. 23 (1969) 221-230), made exactly symmetric.  Each
    weight is the Christoffel number ``1 / sum_k p_k(x)^2`` of the
    orthonormal polynomials of the matrix, over its first ``2n + 1`` rows
    for the Kronrod rule and its first ``n`` (Legendre's own) for the
    Gauss rule: the Golub-Welsch weight, without the eigenvectors.
    """
    b = kronrod_recurrence(GL_POINTS)
    off = np.sqrt(b[1:])
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    x = 0.5 * (x - x[::-1])
    p_prev, p = np.zeros_like(x), np.full_like(x, 1.0 / math.sqrt(b[0]))
    squares = [p * p]
    for k in range(2 * GL_POINTS):
        p_prev, p = p, (x * p - math.sqrt(b[k]) * p_prev) / off[k]
        squares.append(p * p)
    squares = np.array(squares)
    return x, 1.0 / squares.sum(axis=0), 1.0 / squares[:GL_POINTS, 1::2].sum(axis=0)


def tabulated_rule() -> tuple:
    """The module's table as arrays: nodes, Kronrod weights, and the Gauss
    weights of the odd nodes."""
    gauss = np.asarray(quadrature.GAUSS_WEIGHTS)
    return np.asarray(quadrature.KRONROD_NODES), np.asarray(quadrature.KRONROD_WEIGHTS), gauss[1::2]


def test_table_is_the_constructed_rule():
    """The tabulated rule is its construction to the bit, and the Gauss
    weights of the Kronrod-only nodes are 0."""
    for table, formed in zip(tabulated_rule(), constructed_rule()):
        assert table.tolist() == formed.tolist()
    assert quadrature.GAUSS_WEIGHTS[::2] == (0.0,) * (GL_POINTS + 1)


def even_monomial_errors(nodes, weights, degree):
    """Largest error of the rule over x^d, d = 0, 2, ..., degree, on [-1, 1]."""
    return max(abs(float(np.dot(weights, nodes**d)) - 2.0 / (d + 1)) for d in range(0, degree + 1, 2))


def legendre_zeros_and_weights():
    """The 32-point Gauss-Legendre rule to 30 digits: Newton on P_32 from
    numpy's zeros, weights 2 / ((1 - x^2) P_32'(x)^2)."""
    n = GL_POINTS

    def slope(x):
        return n * (x * mpmath.legendre(n, x) - mpmath.legendre(n - 1, x)) / (x * x - 1)

    with mpmath.workdps(30):
        rule = []
        for x in np.polynomial.legendre.leggauss(n)[0].tolist():
            x = mpmath.mpf(x)
            for _ in range(4):
                x -= mpmath.legendre(n, x) / slope(x)
            rule.append((float(x), float(2 / ((1 - x * x) * slope(x) ** 2))))
    return map(np.array, zip(*rule))


def test_kronrod_and_gauss_rules_reach_their_degrees():
    """K65 is exact through degree 3 * 32 + 1 = 97 and its embedded G32
    through 63; odd degrees vanish by the exact symmetry of the nodes."""
    x, kronrod, gauss = tabulated_rule()
    assert np.array_equal(x, -x[::-1])
    assert even_monomial_errors(x, kronrod, 96) <= 1e-15
    assert even_monomial_errors(x[1::2], gauss, 62) <= 1e-15
    # and no further: P_98 and P_64 integrate to 0, which the rules miss
    # by far more than rounding
    legendre = np.polynomial.legendre.Legendre.basis
    assert abs(np.dot(kronrod, legendre(98)(x))) > 1e-5
    assert abs(np.dot(gauss, legendre(64)(x[1::2]))) > 1e-2


def test_gauss_nodes_are_kronrod_nodes():
    """The Gauss sum weighs only the odd Kronrod nodes of each panel, and
    those are the zeros of P_32 with Gauss-Legendre weights."""
    x, kronrod, gauss = tabulated_rule()
    assert len(x) == KRONROD_POINTS and len(gauss) == GL_POINTS
    zeros, weights = legendre_zeros_and_weights()
    # eigenvalues of the Jacobi matrix (norm below 1) are good to a few
    # units of rounding at 1
    assert np.max(np.abs(x[1::2] - zeros)) <= 2.0 * np.finfo(float).eps
    # the weights to a unit of rounding at 1 (numpy's leggauss: 4.1e-16)
    assert np.max(np.abs(gauss - weights)) <= np.finfo(float).eps
    nodes, (_, gauss_w) = panel_nodes(-3.0, 5.0, 4)
    nodes = np.asarray(nodes)
    assert len(nodes) == 4 * KRONROD_POINTS
    odd = (np.arange(len(nodes)) % KRONROD_POINTS) % 2 == 1
    assert np.array_equal(np.asarray(gauss_w) != 0.0, odd)
    assert np.all(np.diff(nodes) > 0.0) and -3.0 < nodes[0] and nodes[-1] < 5.0


def test_rule_weights_are_positive_and_sum_to_two():
    _, kronrod, gauss = tabulated_rule()
    assert np.all(kronrod > 0.0) and np.all(gauss > 0.0)
    assert math.fsum(kronrod) == pytest.approx(2.0, abs=4.5e-16)
    assert math.fsum(gauss) == pytest.approx(2.0, abs=4.5e-16)


def test_kronrod_sum_beats_gauss_sum_on_runge():
    """On 1/(1 + 25 x^2), whose poles at +-i/5 slow both rules, the
    Kronrod sum is at least 1e4 times closer than the Gauss sum."""
    x, kronrod, gauss = tabulated_rule()
    exact = 0.4 * math.atan(5.0)
    y = 1.0 / (1.0 + 25.0 * x * x)
    k_err = abs(float(np.dot(kronrod, y)) - exact)
    g_err = abs(float(np.dot(gauss, y[1::2])) - exact)
    assert g_err > 1e-7 and k_err <= 1e-4 * g_err


_NO_NUMPY_PROBE = """
import json, sys
import schwsurf.cli
from schwsurf import SchwarzschildModel, make_plane, mu_integral
m2 = SchwarzschildModel(2.0)
mu = mu_integral(m2, make_plane(m2, 100.0), 20.0)
print(json.dumps({"numpy": "numpy" in sys.modules, "mu": mu.hex()}))
"""


def test_cone_integral_loads_no_numpy():
    # the rule is a plain-float table: a cone integral in a fresh
    # interpreter loads no numpy, and gives the value found here to the bit
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_PROBE], capture_output=True, text=True, check=True
    )
    probe = json.loads(proc.stdout)
    assert probe["numpy"] is False
    m2 = SchwarzschildModel(2.0)
    assert probe["mu"] == mu_integral(m2, make_plane(m2, 100.0), 20.0).hex()
