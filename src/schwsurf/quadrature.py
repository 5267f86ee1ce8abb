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

Integrands are vectorized: ``f(x)`` returns an array whose last axis runs
over the nodes ``x``.  A 1-D result integrates to a float; a ``(k, n)``
result to a ``k``-vector whose components are tested together (see
:func:`_settled`).  numpy is imported by the rules, not with the module,
so reading :class:`QuadSpec` defaults loads no numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import QuadratureError


@dataclass(frozen=True)
class QuadSpec:
    """Accuracy contract for the surface integrals.

    ``rel_tol`` (positive and finite) is the convergence target: between
    a level's Kronrod and Gauss sums, and between periodic doublings.
    Every panel carries the ``KRONROD_POINTS``-point Kronrod extension of
    the ``GL_POINTS``-point Gauss-Legendre rule; past ``MAX_PANELS``
    panels (``MAX_PANELS * KRONROD_POINTS`` nodes at the last level), or
    the periodic rule's node budget ``MAX_PANELS * GL_POINTS``, a rule
    raises :class:`QuadratureError`.
    """

    rel_tol: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf):
            raise ValueError(f"invalid quadrature spec {self}")


# Gauss-Legendre order per panel, the Kronrod rule that extends it, and
# the refinement cap in panels
GL_POINTS = 32
KRONROD_POINTS = 2 * GL_POINTS + 1
MAX_PANELS = 4096


def _kronrod_recurrence(n: int) -> list:
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


@functools.cache
def _gauss_kronrod() -> tuple:
    """The Kronrod rule on ``[-1, 1]``: its ascending nodes, its weights,
    and the weights of the embedded Gauss-Legendre rule, whose nodes are
    ``nodes[1::2]``.  Formed on first use, so that importing the package
    loads no numpy.

    The nodes are the eigenvalues of the Kronrod Jacobi matrix (Golub &
    Welsch, Math. Comp. 23 (1969) 221-230), made exactly symmetric.  Each
    weight is the Christoffel number ``1 / sum_k p_k(x)^2`` of the
    orthonormal polynomials of the matrix, over its first ``2n + 1`` rows
    for the Kronrod rule and its first ``n`` (Legendre's own) for the
    Gauss rule: the Golub-Welsch weight, without the eigenvectors.
    """
    import numpy as np

    b = _kronrod_recurrence(GL_POINTS)
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


@functools.cache
def _unit_panels(n_panels: int) -> tuple:
    """The composite rule on ``n_panels`` uniform panels of ``[0, 1]``:
    its nodes, and a ``(nodes, 2)`` array whose columns weigh the Kronrod
    sum and the Gauss sum (zero on the Kronrod-only nodes)."""
    import numpy as np

    x, kronrod, gauss = _gauss_kronrod()
    both = np.zeros((KRONROD_POINTS, 2))
    both[:, 0] = kronrod
    both[1::2, 1] = gauss
    nodes = (np.arange(n_panels)[:, None] + 0.5 * (1.0 + x)).ravel() / n_panels
    return nodes, np.tile(both / (2 * n_panels), (n_panels, 1))


# periodic rule: nodes of the first level, and the alias guard's shift in
# units of the node spacing (the golden-ratio fraction, far from every
# rational with a small denominator)
PERIODIC_START = 4
ALIAS_SHIFT = 0.5 * (math.sqrt(5.0) - 1.0)


def panel_nodes(a: float, b: float, n_panels: int) -> tuple:
    """Nodes of the composite Gauss-Kronrod rule on ``n_panels`` uniform
    panels of ``[a, b]``, and its ``(nodes, 2)`` weights: the Kronrod sum's
    column and the embedded Gauss sum's."""
    u, w = _unit_panels(n_panels)
    return a + (b - a) * u, (b - a) * w


def _settled(cur, prev, rel_tol: float) -> bool:
    """Do two estimates agree to ``rel_tol``, component by component?

    Each component is measured against its own size, floored at
    ``rel_tol`` times the largest component.  The floor is what ends an
    integrand that is rounding noise beside the integral carried with it
    (a defect that vanishes, next to the area that bounds it); a component
    above ``rel_tol`` of the largest meets the plain relative test, and a
    scalar always does.
    """
    import numpy as np

    if np.ndim(cur) == 0:
        return abs(cur - prev) <= rel_tol * max(abs(cur), abs(prev), 1e-300)
    size = np.maximum(np.abs(cur), np.abs(prev))
    scale = np.maximum(size, max(rel_tol * np.max(size), 1e-300))
    return bool(np.all(np.abs(cur - prev) <= rel_tol * scale))


def _estimate(v, rule: str, where):
    """A rule's value ``v`` (a numpy scalar or array) as a float or an
    array, or :class:`QuadratureError` if any component is not finite:
    refining cannot bring it back.  ``where()`` names the interval, formed
    only for the message."""
    if v.ndim == 0:
        v = float(v)
        finite = math.isfinite(v)
    else:
        finite = all(map(math.isfinite, v.ravel().tolist()))
    if not finite:
        raise QuadratureError(f"{rule}: estimate {v!r} on {where()} is not finite")
    return v


# samples, and sums of finite samples, may overflow; _estimate reports
# that, so numpy need not warn about it too
_QUIET = {"over": "ignore", "invalid": "ignore"}


def _no_convergence(rule: str, nodes: int, prev, cur, rel_tol: float, where: str):
    return QuadratureError(
        f"{rule}: no convergence to rel_tol={rel_tol} on {where} after "
        f"{nodes} nodes; last two estimates {prev!r} and {cur!r}"
    )


def integrate(f, a: float, b: float, spec: QuadSpec = QuadSpec()):
    """Integral of a vectorized callable over ``[a, b]`` to ``spec.rel_tol``.

    Each level evaluates ``f`` once, on the Kronrod nodes of its uniform
    panels, and forms from those samples the Kronrod sum and the sum of
    the Gauss rule embedded in it.  Their difference bounds the error of
    the Gauss sum; once it is within ``rel_tol`` the Kronrod sum, of
    higher degree, is returned, and otherwise the panel count doubles.
    Raises :class:`QuadratureError` at the panel cap or on the first
    estimate that is not finite.  ``f`` runs with numpy's overflow and
    invalid-value warnings off: a sample that overflows is reported once,
    by that error.
    """
    import numpy as np

    if b <= a:
        return 0.0

    def where() -> str:
        return f"[{a}, {b}]"

    n = 1
    while True:
        x, w = panel_nodes(a, b, n)
        with np.errstate(**_QUIET):
            y = f(x)
            sums = np.dot(y, w)
        kronrod, gauss = (_estimate(sums[..., j], "Gauss-Kronrod", where) for j in (0, 1))
        if _settled(kronrod, gauss, spec.rel_tol):
            return kronrod
        if 2 * n > MAX_PANELS:
            raise _no_convergence("Gauss-Kronrod", n * KRONROD_POINTS, gauss, kronrod, spec.rel_tol, where())
        n *= 2


def integrate_periodic(f, period: float, spec: QuadSpec = QuadSpec()):
    """Integral over ``[0, period)`` of a vectorized ``period``-periodic
    callable, by the trapezoid rule, to ``spec.rel_tol``.

    Each doubling adds the midpoints of the current grid.  Equispaced
    levels ``n`` and ``2n`` agree exactly on every frequency that is a
    multiple of ``2n``, so before the ``2n`` value is accepted the ``n``
    grid shifted by ``ALIAS_SHIFT`` of its spacing must reproduce it too.
    That grid aliases every multiple of ``n``, those of ``2n`` among them,
    but a multiple ``j n`` arrives turned by the phase ``2 pi j
    ALIAS_SHIFT``, which no integer ``j`` makes a full turn: a value that
    fools both nested levels moves on it.  It is as thorough as the
    shifted ``2n`` grid on everything that aliases on both levels, and
    costs ``n`` samples instead of ``2n``.

    Raises :class:`QuadratureError` when the next level would pass
    ``MAX_PANELS * GL_POINTS`` nodes, or on the first estimate that is not
    finite; ``f`` runs with warnings off as in :func:`integrate`.
    """
    import numpy as np

    def where() -> str:
        return f"[0, {period})"

    n = PERIODIC_START
    h = period / n
    with np.errstate(**_QUIET):
        y = f(h * np.arange(n))
        total = np.sum(y, axis=-1)
        prev = _estimate(h * total, "periodic trapezoid", where)
    while True:
        coarse = h
        n *= 2
        h = period / n
        with np.errstate(**_QUIET):
            y = f(coarse * (np.arange(n // 2) + 0.5))
            total = total + np.sum(y, axis=-1)
            cur = _estimate(h * total, "periodic trapezoid", where)
        if _settled(cur, prev, spec.rel_tol):
            with np.errstate(**_QUIET):
                y = f(coarse * (np.arange(n // 2) + ALIAS_SHIFT))
                shifted = _estimate(coarse * np.sum(y, axis=-1), "periodic trapezoid", where)
            if _settled(shifted, cur, spec.rel_tol):
                return cur
        if 2 * n > MAX_PANELS * GL_POINTS:
            raise _no_convergence("periodic trapezoid", n, prev, cur, spec.rel_tol, where())
        prev = cur
