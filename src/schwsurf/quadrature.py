"""Nested 1-D quadrature: Gauss-Kronrod panels and the periodic trapezoid rule.

The surface integrands here are smooth on their (clipped) domains.  Over
an interval, the 33-point Kronrod extension of the 16-point
Gauss-Legendre rule on 2^j uniform panels converges extremely fast, and
each level's one set of samples gives both sums, whose difference bounds
the error of the Gauss sum (Piessens et al., *QUADPACK*, Springer 1983).
Sixteen Gauss points suffice: one panel settles every cone integral in
``log(t/t0)`` from next to the horizon out to a million masses, where
the 65-point rule that extends the 32-point one samples twice the nodes
for nothing.
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
    Every panel carries the ``KRONROD_POINTS``-point (33) Kronrod
    extension of the ``GL_POINTS``-point (16) Gauss-Legendre rule; past
    ``MAX_PANELS`` (8192) panels (``MAX_PANELS * KRONROD_POINTS`` = 270 336
    nodes at the last level), or the periodic rule's node budget
    ``MAX_PANELS * GL_POINTS`` = 131 072, a rule raises
    :class:`QuadratureError`.
    """

    rel_tol: float = DEFAULT_QUAD_TOL

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf):
            raise ValueError(f"invalid quadrature spec {self}")


# Gauss-Legendre order per panel, the Kronrod rule that extends it, and
# the refinement cap in panels.  GL_POINTS must be even: the Kronrod
# nodes then alternate Kronrod-only, Gauss, ..., Kronrod-only from either
# end, so the centre node 0 is Kronrod-only and the Gauss nodes are the
# odd ones, as _HALF_EMBEDDED places them.  An odd GL_POINTS would put a
# Gauss node at 0 and shift every Gauss weight onto a Kronrod-only node.
GL_POINTS = 16
KRONROD_POINTS = 2 * GL_POINTS + 1
MAX_PANELS = 8192

# The Kronrod rule on [-1, 1] from its center outward: the nodes 0 = x_0
# < x_1 < ... < x_16 and their Kronrod weights, and the Gauss-Legendre
# weights of x_1, x_3, ..., x_15, the positive zeros of P_16.  The rule
# is even, so these halves give it whole.  They are the eigenvalues of
# the Kronrod Jacobi matrix of Laurie's algorithm (Math. Comp. 66 (1997)
# 1133-1145) and their Christoffel numbers (Golub & Welsch, Math. Comp.
# 23 (1969) 221-230), formed at 40 digits and rounded to doubles;
# tests/test_quadrature.py forms them again and checks this table
# against them.
_HALF_NODES = (
    0.0, 0.09501250983763744, 0.18916857901808373, 0.2816035507792589,
    0.37148378087841627, 0.45801677765722737, 0.5404076763521397,
    0.6178762444026438, 0.6897411066817623, 0.755404408355003,
    0.8142402870624444, 0.8656312023878318, 0.9091576670123429,
    0.9445750230732326, 0.9715059509693926, 0.9894009349916499,
    0.9982392741454446,
)
_HALF_KRONROD = (
    0.0951542160804983, 0.09472840124723005, 0.09343867406092123,
    0.09129203282819166, 0.08833750257911273, 0.08459580379259064,
    0.08005394126371929, 0.07476982388559955, 0.06886299519153125,
    0.062358806011834855, 0.055205633095422174, 0.047506215976407015,
    0.039512951202421966, 0.031260543647380526, 0.022498859440049444,
    0.013257930688091158, 0.004742777049247318,
)
_HALF_GAUSS = (
    0.1894506104550685, 0.18260341504492358, 0.16915651939500254,
    0.14959598881657674, 0.12462897125553388, 0.09515851168249279,
    0.062253523938647894, 0.027152459411754096,
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
