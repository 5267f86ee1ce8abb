"""Nested 1-D quadrature: Gauss-Legendre panels and the periodic trapezoid rule.

The surface integrands here are smooth on their (clipped) domains.  Over
an interval, a fixed-order Gauss-Legendre rule on 2^j uniform panels
converges extremely fast; over a full period of a smooth periodic
function, the equispaced trapezoid rule converges geometrically and nests
on doubling, so no node is evaluated twice (Trefethen & Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 56 (2014)
385-458).  Both doubling loops turn that into a verified relative
tolerance.

Integrands are vectorized: ``f(x)`` returns an array whose last axis runs
over the nodes ``x``.  A 1-D result integrates to a float; a ``(k, n)``
result to a ``k``-vector whose components are tested together (see
:func:`_settled`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError


@dataclass(frozen=True)
class QuadSpec:
    """Accuracy contract for the surface integrals.

    ``rel_tol`` (positive and finite) is the convergence target between
    doublings; ``max_panels`` the refinement cap before
    :class:`QuadratureError`.  Every panel carries the ``GL_POINTS``-point
    Gauss-Legendre rule, and the periodic rule stops at the same node
    budget, ``max_panels * GL_POINTS``.
    """

    rel_tol: float = 1e-8
    max_panels: int = 4096

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf) or self.max_panels < 2:
            raise ValueError(f"invalid quadrature spec {self}")


# Gauss-Legendre order per panel, and its nodes and weights on [-1, 1],
# formed on first use so that importing the package loads no numpy.polynomial
GL_POINTS = 32
_gauss_legendre = functools.cache(lambda: np.polynomial.legendre.leggauss(GL_POINTS))

# periodic rule: nodes of the first level, and the alias guard's shift in
# units of the node spacing (the golden-ratio fraction, far from every
# rational with a small denominator)
PERIODIC_START = 4
ALIAS_SHIFT = 0.5 * (math.sqrt(5.0) - 1.0)


def panel_nodes(a: float, b: float, n_panels: int) -> tuple:
    """Nodes and weights of the composite rule on ``n_panels`` uniform panels."""
    x, w = _gauss_legendre()
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * x[None, :]).ravel()
    weights = np.broadcast_to(half * w[None, :], (n_panels, GL_POINTS)).ravel()
    return nodes, weights


def _value(v):
    return float(v) if np.ndim(v) == 0 else v


def _settled(cur, prev, rel_tol: float) -> bool:
    """Do two estimates agree to ``rel_tol``, component by component?

    Each component is measured against its own size, floored at
    ``rel_tol`` times the largest component.  The floor is what ends an
    integrand that is rounding noise beside the integral carried with it
    (a defect that vanishes, next to the area that bounds it); a component
    above ``rel_tol`` of the largest meets the plain relative test, and a
    scalar always does.
    """
    if np.ndim(cur) == 0:
        return abs(cur - prev) <= rel_tol * max(abs(cur), abs(prev), 1e-300)
    size = np.maximum(np.abs(cur), np.abs(prev))
    scale = np.maximum(size, max(rel_tol * np.max(size), 1e-300))
    return bool(np.all(np.abs(cur - prev) <= rel_tol * scale))


def _no_convergence(rule: str, nodes: int, prev, cur, rel_tol: float, where: str):
    return QuadratureError(
        f"{rule}: no convergence to rel_tol={rel_tol} on {where} after "
        f"{nodes} nodes; last two estimates {prev!r} and {cur!r}"
    )


def integrate(f, a: float, b: float, spec: QuadSpec = QuadSpec()):
    """Integral of a vectorized callable over ``[a, b]`` to ``spec.rel_tol``.

    Doubles the panel count until two successive composite values agree;
    raises :class:`QuadratureError` at the panel cap.
    """
    if b <= a:
        return 0.0
    n = 1
    x, w = panel_nodes(a, b, n)
    prev = _value(np.dot(f(x), w))
    while True:
        n *= 2
        x, w = panel_nodes(a, b, n)
        cur = _value(np.dot(f(x), w))
        if _settled(cur, prev, spec.rel_tol):
            return cur
        if 2 * n > spec.max_panels:
            raise _no_convergence(
                "Gauss-Legendre", n * GL_POINTS, prev, cur, spec.rel_tol, f"[{a}, {b}]"
            )
        prev = cur


def integrate_periodic(f, period: float, spec: QuadSpec = QuadSpec()):
    """Integral over ``[0, period)`` of a vectorized ``period``-periodic
    callable, by the trapezoid rule, to ``spec.rel_tol``.

    Each doubling adds the midpoints of the current grid.  Equispaced
    levels ``n`` and ``2n`` agree exactly on every frequency that is a
    multiple of ``2n``, so before a value is accepted the ``2n`` grid
    shifted by ``ALIAS_SHIFT`` of its spacing must reproduce it too.
    Raises :class:`QuadratureError` when the next level would pass
    ``spec.max_panels * GL_POINTS`` nodes.
    """
    budget = spec.max_panels * GL_POINTS
    n = PERIODIC_START
    h = period / n
    total = np.sum(f(h * np.arange(n)), axis=-1)
    prev = _value(h * total)
    while True:
        total = total + np.sum(f(h * (np.arange(n) + 0.5)), axis=-1)
        n *= 2
        h = period / n
        cur = _value(h * total)
        if _settled(cur, prev, spec.rel_tol):
            shifted = _value(h * np.sum(f(h * (np.arange(n) + ALIAS_SHIFT)), axis=-1))
            if _settled(shifted, cur, spec.rel_tol):
                return cur
        if 2 * n > budget:
            raise _no_convergence(
                "periodic trapezoid", n, prev, cur, spec.rel_tol, f"[0, {period})"
            )
        prev = cur
