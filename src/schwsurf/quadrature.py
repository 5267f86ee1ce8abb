"""Nested 1-D quadrature: Gauss-Kronrod panels and the periodic trapezoid rule.

The surface integrands here are smooth on their (clipped) domains.  Over
an interval, the 65-point Kronrod extension of the 32-point
Gauss-Legendre rule on 2^j uniform panels converges extremely fast, and
each level's one set of samples gives both sums, whose difference bounds
the error of the Gauss sum (Piessens et al., *QUADPACK*, Springer 1983).
Over a full period of a smooth periodic function, the equispaced
trapezoid rule converges geometrically and nests on doubling, so no node
is evaluated twice (Trefethen & Weideman, "The exponentially convergent
trapezoidal rule", SIAM Review 56 (2014) 385-458).  Two nested levels
agree exactly on the frequencies that alias on both, so the periodic
rule also checks the value it accepts against the coarser of the two
levels shifted off its nodes: that grid aliases the same frequencies
with a phase the unshifted grids do not share, and costs half the finer
level.  Both doubling loops turn this into a verified relative tolerance.
The periodic rule starts from one node.  On an integrand that does not
depend on the variable, such as the slice integrals of a surface of
revolution about the chart's axis, every level is exact, so levels 1
and 2 and the one-node guard settle it on three samples.

Both rules run on plain floats and load no numpy.  An integrand ``f(x)``
takes a list of nodes and returns a sequence of samples, one per node,
or a tuple of such sequences, one per component.  A single sequence
integrates to a float, a tuple to a tuple of floats whose components
are tested together (see :func:`_settled`).
"""

from __future__ import annotations

import functools
import math
import operator

from ._record import Record
from .errors import QuadratureError
from .geometry import DEFAULT_QUAD_TOL


class QuadSpec(Record):
    """Accuracy contract for the surface integrals.

    ``rel_tol`` (positive and finite) is the convergence target: between
    a level's Kronrod and Gauss sums, and between periodic doublings.
    Every panel carries the ``KRONROD_POINTS``-point Kronrod extension of
    the ``GL_POINTS``-point Gauss-Legendre rule; past ``MAX_PANELS``
    panels (``MAX_PANELS * KRONROD_POINTS`` nodes at the last level), or
    the periodic rule's node budget ``MAX_PANELS * GL_POINTS``, a rule
    raises :class:`QuadratureError`.
    """

    rel_tol: float = DEFAULT_QUAD_TOL

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf):
            raise ValueError(f"invalid quadrature spec {self}")


# Gauss-Legendre order per panel, the Kronrod rule that extends it, and
# the refinement cap in panels
GL_POINTS = 32
KRONROD_POINTS = 2 * GL_POINTS + 1
MAX_PANELS = 4096

# The Kronrod rule on [-1, 1] from its center outward: the nodes 0 = x_0
# < x_1 < ... < x_32 and their Kronrod weights, and the Gauss-Legendre
# weights of x_1, x_3, ..., x_31, the positive zeros of P_32.  The rule
# is even, so these halves give it whole.  They are the eigenvalues of
# the Kronrod Jacobi matrix of Laurie's algorithm (Math. Comp. 66 (1997)
# 1133-1145) and their Christoffel numbers (Golub & Welsch, Math. Comp.
# 23 (1969) 221-230), rounded to doubles; tests/test_quadrature.py forms
# them again and checks this table against them.
_HALF_NODES = (
    0.0, 0.04830766568773832, 0.09650269687689439, 0.14447196158279654,
    0.1921036089831423, 0.23928736225213712, 0.2859124585894596,
    0.331868602282128, 0.37704942115412093, 0.4213512761306356,
    0.46466930848199206, 0.506899908932229, 0.5479463141991525,
    0.5877157572407623, 0.6261129377018241, 0.6630442669302153,
    0.6984265577952102, 0.7321821187402895, 0.7642282519978039,
    0.7944837959679423, 0.8228829501360512, 0.8493676137325696,
    0.8738697689453103, 0.8963211557660522, 0.916677266651365,
    0.9349060759377399, 0.9509546848486613, 0.9647622555875065,
    0.976310283614664, 0.9856115115452684, 0.9926280352629719,
    0.9972638618494816, 0.9995459021243644,
)
_HALF_KRONROD = (
    0.04832638398656784, 0.04827019307577742, 0.048100969185457795,
    0.047818908736988484, 0.04742606187388236, 0.04692296828170363,
    0.04630875673802569, 0.04558582656454703, 0.04475863874976702,
    0.04382754403013977, 0.04279111559644676, 0.04165401998564309,
    0.04042349237037309, 0.0390994201333066, 0.03767913064561337,
    0.0361697694756423, 0.03458212274473303, 0.03291507764390364,
    0.031163325561973727, 0.029336956689620684, 0.02745209842221041,
    0.02550569548089466, 0.02348665967216333, 0.02140891318482193,
    0.019298771430326694, 0.017149805209784215, 0.014936103606085993,
    0.01267605480665439, 0.010423987398806721, 0.008172504038531673,
    0.005841737079166716, 0.0034268187757723885, 0.0012233608179515014,
)
_HALF_GAUSS = (
    0.09654008851472785, 0.09563872007927486, 0.09384439908080457,
    0.09117387869576384, 0.08765209300440381, 0.08331192422694683,
    0.07819389578707028, 0.0723457941088485, 0.06582222277636192,
    0.05868409347853561, 0.050998059262376244, 0.04283589802222662,
    0.03427386291302129, 0.025392065309261944, 0.016274394730905656,
    0.007018610009470023,
)

# the whole rule, by ascending node: nodes, Kronrod weights, and the
# embedded Gauss rule's weights (0 on the Kronrod-only even nodes)
KRONROD_NODES = tuple(-x for x in _HALF_NODES[:0:-1]) + _HALF_NODES
KRONROD_WEIGHTS = _HALF_KRONROD[:0:-1] + _HALF_KRONROD
_HALF_EMBEDDED = tuple(_HALF_GAUSS[j // 2] if j % 2 else 0.0 for j in range(GL_POINTS + 1))
GAUSS_WEIGHTS = _HALF_EMBEDDED[:0:-1] + _HALF_EMBEDDED


@functools.cache
def _unit_panels(n_panels: int) -> tuple:
    """The composite rule on ``n_panels`` uniform panels of ``[0, 1]``: its
    nodes, and its Kronrod and Gauss weights, one of each per node."""
    scale = 1.0 / (2 * n_panels)
    return (
        [(i + 0.5 * (1.0 + x)) / n_panels for i in range(n_panels) for x in KRONROD_NODES],
        [w * scale for w in KRONROD_WEIGHTS] * n_panels,
        [w * scale for w in GAUSS_WEIGHTS] * n_panels,
    )


# periodic rule: nodes of the first level, and the alias guard's shift in
# units of the node spacing (the golden-ratio fraction, far from every
# rational with a small denominator).  One node: a constant integrand
# settles on three samples, and the levels nest, so a varying one visits
# the same nodes as from any larger start.
PERIODIC_START = 1
ALIAS_SHIFT = 0.5 * (math.sqrt(5.0) - 1.0)


def panel_nodes(a: float, b: float, n_panels: int) -> tuple:
    """Nodes of the composite Gauss-Kronrod rule on ``n_panels`` uniform
    panels of ``[a, b]``, ascending, and its weights: the pair of lists
    ``(kronrod, gauss)`` with one weight per node, the Gauss weight 0 on
    a Kronrod-only node.  The weights are those of the same rule on ``[0,
    1]``: a sum over ``[a, b]`` is ``b - a`` times the weighted sum, as
    QUADPACK scales its unit sums by the half-length."""
    u, kronrod, gauss = _unit_panels(n_panels)
    d = b - a
    return [a + d * x for x in u], (kronrod, gauss)


def _settled(cur, prev, rel_tol: float) -> bool:
    """Do two estimates, floats or tuples of floats, agree to ``rel_tol``
    component by component?

    Each component is measured against its own size, floored at
    ``rel_tol`` times the largest component.  The floor is what ends an
    integrand that is rounding noise beside the integral carried with it
    (a defect that vanishes, next to the area that bounds it); a component
    above ``rel_tol`` of the largest meets the plain relative test, and a
    scalar always does.
    """
    if isinstance(cur, float):
        return abs(cur - prev) <= rel_tol * max(abs(cur), abs(prev), 1e-300)
    sizes = [max(abs(c), abs(p)) for c, p in zip(cur, prev)]
    floor = max(rel_tol * max(sizes), 1e-300)
    return all(abs(c - p) <= rel_tol * max(s, floor) for c, p, s in zip(cur, prev, sizes))


def _estimate(v, rule: str, where):
    """A rule's value ``v``, a float or a sequence of floats, as a float or
    a tuple, or :class:`QuadratureError` if any component is not finite:
    refining cannot bring it back.  ``where()`` names the interval, formed
    only for the message."""
    if isinstance(v, float):
        v = float(v)
        finite = math.isfinite(v)
    else:
        v = tuple(map(float, v))
        finite = all(map(math.isfinite, v))
    if not finite:
        raise QuadratureError(f"{rule}: estimate {v!r} on {where()} is not finite")
    return v


def _no_convergence(rule: str, nodes: int, prev, cur, rel_tol: float, where: str):
    return QuadratureError(
        f"{rule}: no convergence to rel_tol={rel_tol} on {where} after "
        f"{nodes} nodes; last two estimates {prev!r} and {cur!r}"
    )


def _dot(weights, samples) -> float:
    return sum(map(operator.mul, weights, samples))


def _each(fn, y, *rest):
    """``fn`` of an integrand's samples ``y``, one sequence, or of each
    sequence of a tuple ``y`` with the matching entries of the tuples
    ``rest``, as a tuple: one value per component."""
    return tuple(map(fn, y, *rest)) if isinstance(y, tuple) else fn(y, *rest)


def integrate(f, a: float, b: float, spec: QuadSpec = QuadSpec()):
    """Integral over ``[a, b]`` of ``f``, called on a list of nodes (see the
    module docstring), to ``spec.rel_tol``.

    Each level evaluates ``f`` once, on the Kronrod nodes of its uniform
    panels, and forms from those samples the Kronrod sum and the sum of
    the Gauss rule embedded in it.  Their difference bounds the error of
    the Gauss sum; once it is within ``rel_tol`` the Kronrod sum, of
    higher degree, is returned, and otherwise the panel count doubles.
    Raises :class:`QuadratureError` on an endpoint that is not finite
    (before any node is formed), at the panel cap, or on the first
    estimate that is not finite.  Samples may be ``inf`` or ``nan``:
    that error reports them.
    """
    if not (-math.inf < a < math.inf and -math.inf < b < math.inf):
        raise QuadratureError(f"Gauss-Kronrod: interval [{a}, {b}] is not finite")
    if b <= a:
        return 0.0

    def where() -> str:
        return f"[{a}, {b}]"

    d = b - a
    n = 1
    while True:
        x, (kronrod_w, gauss_w) = panel_nodes(a, b, n)
        y = f(x)
        kronrod = _estimate(_each(lambda c: d * _dot(kronrod_w, c), y), "Gauss-Kronrod", where)
        gauss = _estimate(_each(lambda c: d * _dot(gauss_w, c), y), "Gauss-Kronrod", where)
        if _settled(kronrod, gauss, spec.rel_tol):
            return kronrod
        if 2 * n > MAX_PANELS:
            raise _no_convergence("Gauss-Kronrod", n * KRONROD_POINTS, gauss, kronrod, spec.rel_tol, where())
        n *= 2


def integrate_periodic(f, period: float, spec: QuadSpec = QuadSpec()):
    """Integral over ``[0, period)`` of a ``period``-periodic ``f``, called
    on a list of nodes (see the module docstring), by the trapezoid rule,
    to ``spec.rel_tol``: a float, or a tuple of floats for an integrand of
    several components.

    The first level is the one node ``0``, and each doubling adds the
    midpoints of the current grid.  Equispaced levels ``n`` and ``2n``
    agree exactly on every frequency that is a multiple of ``2n``, so
    before the ``2n`` value is accepted the ``n`` grid shifted by
    ``ALIAS_SHIFT`` of its spacing must reproduce it too.  That grid
    aliases every multiple of ``n``, those of ``2n`` among them, but a
    multiple ``j n`` arrives turned by the phase ``2 pi j ALIAS_SHIFT``,
    which no integer ``j`` makes a full turn: a value that fools both
    nested levels moves on it.  It is as thorough as the shifted ``2n``
    grid on everything that aliases on both levels, and costs ``n``
    samples instead of ``2n``.  A constant integrand is accepted after
    three samples (levels 1 and 2, then the one-node guard); a varying
    one visits the nodes it would from any larger start, plus a guard of
    a node or two where two low levels agree by accident.

    Raises :class:`QuadratureError` when the next level would pass
    ``MAX_PANELS * GL_POINTS`` nodes, or on the first estimate that is not
    finite.  Samples may be ``inf`` or ``nan``: that error reports them.
    """

    def where() -> str:
        return f"[0, {period})"

    def level(step, offset, n):
        # the sum of the samples at the n nodes step * (i + offset)
        return _each(sum, f([step * (i + offset) for i in range(n)]))

    def value(step, total):
        return _estimate(_each(lambda t: step * t, total), "periodic trapezoid", where)

    n = PERIODIC_START
    h = period / n
    total = level(h, 0, n)
    prev = value(h, total)
    while True:
        coarse = h
        n *= 2
        h = period / n
        total = _each(operator.add, total, level(coarse, 0.5, n // 2))
        cur = value(h, total)
        if _settled(cur, prev, spec.rel_tol):
            shifted = value(coarse, level(coarse, ALIAS_SHIFT, n // 2))
            if _settled(shifted, cur, spec.rel_tol):
                return cur
        if 2 * n > MAX_PANELS * GL_POINTS:
            raise _no_convergence("periodic trapezoid", n, prev, cur, spec.rel_tol, where())
        prev = cur
