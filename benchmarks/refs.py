"""Frozen references for the benchmark's correctness gate.

Every value here is computed by the benchmark itself, independently of
the package under test: mpmath roots at 50 significant digits and the
closed forms of the totally geodesic plane.
"""

from __future__ import annotations

import math

import mpmath

DIGITS = 50

# root of (1/2) log(2x) = (2x + 1)/(2x - 1), x = R*/m; rstar_over_m()
# recomputes it and the self-tests check that the two agree
R_STAR_OVER_M_50 = "5.5080469233427113987445157752350853539454836957872"


def rstar_over_m() -> mpmath.mpf:
    """``R*/m`` to 50 digits: the stability radius in mass units."""
    with mpmath.workdps(DIGITS + 10):
        x = mpmath.findroot(
            lambda x: mpmath.log(2 * x) / 2 - (2 * x + 1) / (2 * x - 1), 5.5
        )
        return +x


def areal_from_distance(m: float, rho: float) -> float:
    """Areal radius ``h`` at horizon distance ``rho``, to double precision.

    With ``s = 2m cosh^2(w/2)`` the distance integral becomes
    ``rho = m (sinh w + w)`` and ``h = m (1 + cosh w)``; ``w`` is found by
    Newton's method in 50-digit arithmetic.
    """
    if rho == 0.0:
        return 2.0 * m
    with mpmath.workdps(DIGITS + 10):
        target = mpmath.mpf(rho) / m
        w = mpmath.findroot(
            lambda w: mpmath.sinh(w) + w - target, mpmath.asinh(target / 2)
        )
        return float(m * (1 + mpmath.cosh(w)))


def riccati_blowup(m: float, c: float) -> float:
    """Blow-up radius of ``psi_c``: root of
    ``(2R - m)(4 log R + 8 + c) = 8 (2R + m)`` above ``m/2``."""
    with mpmath.workdps(DIGITS + 10):
        mm, cc = mpmath.mpf(m), mpmath.mpf(c)

        def F(R):
            return (2 * R - mm) * (4 * mpmath.log(R) + 8 + cc) - 8 * (2 * R + mm)

        lo = mm / 2
        hi = max(2 * mm, mpmath.mpf(1))
        while F(hi) <= 0:
            hi *= 2
        return float(mpmath.findroot(F, (lo, hi), solver="anderson"))


def plane_ratio(m: float, h: float) -> float:
    """Weighted-area ratio of the plane at areal radius ``h``: ``pi (1 - 4 m^2/h^2)``."""
    return math.pi * (1.0 - 4.0 * m * m / (h * h))


def plane_boundary_length(m: float) -> float:
    """g-length of the plane's horizon edge: ``4 pi m``."""
    return 4.0 * math.pi * m


PLANE_DENSITY = 1.0  # Theta of a plane through the origin


def flat_graph_ratio(c: float, rho: float) -> float:
    """Ratio of the flat graph ``z = c`` at ``m = 0``: ``pi (1 - c^2/rho^2)``."""
    return math.pi * (1.0 - c * c / (rho * rho))
