"""Coordinate systems on the Riemannian Schwarzschild manifold.

The model is the time-symmetric slice of mass ``m`` in isotropic
coordinates: the region ``|x| >= m/2`` of Euclidean 3-space carrying the
conformal metric ``(1 + m/2|x|)^4 delta``.  Three radial coordinates are
used throughout the package:

``rho``
    isotropic radius, ``rho >= m/2`` (horizon at ``rho = m/2``),
``s``
    areal radius, ``s >= 2m`` (horizon sphere has area ``4 pi (2m)^2``),
``r``
    Riemannian distance to the horizon, ``r >= 0``.

The maps between them are

    s(rho) = rho (1 + m/2 rho)^2
    r(s)   = s sqrt(1 - 2m/s) + m log[(1 + sqrt(1 - 2m/s)) / (1 - sqrt(1 - 2m/s))]

and their inverses.  ``h`` denotes the inverse of ``r(s)``, so ``h(r)`` is
the areal radius at horizon distance ``r``, with ``h(0) = 2m`` and
``h'(r) = sqrt(1 - 2m/h(r))``, the static potential.

``mass = 0`` is admitted as a degenerate flat model for testing; operations
that reference the horizon raise :class:`~schwsurf.errors.DomainError` on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

DEFAULT_ROOT_TOL = 1e-12

# -------------------------------------------------------------------------
# model
# -------------------------------------------------------------------------


@dataclass(frozen=True)
class SchwarzschildModel:
    """Mass parameter plus derived horizon radii."""

    mass: float

    def __post_init__(self):
        if not math.isfinite(self.mass) or self.mass < 0.0:
            raise DomainError(f"mass must be finite and >= 0, got {self.mass}")

    @property
    def horizon_rho(self) -> float:
        """Isotropic radius of the horizon sphere."""
        return 0.5 * self.mass

    @property
    def horizon_areal(self) -> float:
        """Areal radius of the horizon sphere."""
        return 2.0 * self.mass

    def require_horizon(self, what: str) -> None:
        if self.mass == 0.0:
            raise DomainError(f"{what} references the horizon; mass must be > 0")


# -------------------------------------------------------------------------
# conformal factor and forward maps
# -------------------------------------------------------------------------


def conformal_exponent(model: SchwarzschildModel, rho: float) -> float:
    """Conformal factor ``(1 + m/2 rho)^4`` multiplying the flat metric.

    This is the factor on the metric tensor; lengths scale by its square
    root and areas by its square root squared, i.e. by ``(1 + m/2 rho)^4``
    per unit flat area element when combined over two directions.
    """
    m = model.mass
    if m == 0.0:
        if rho < 0.0:
            raise DomainError(f"rho must be >= 0 for mass 0, got {rho}")
        return 1.0
    if rho < 0.5 * m:
        raise DomainError(f"rho must be >= m/2 = {0.5 * m}, got {rho}")
    a = 1.0 + 0.5 * m / rho
    return a * a * a * a


def areal_from_isotropic(model: SchwarzschildModel, rho: float) -> float:
    """Areal radius ``s = rho (1 + m/2 rho)^2``; increasing on [m/2, oo)."""
    m = model.mass
    if m == 0.0:
        if rho < 0.0:
            raise DomainError(f"rho must be >= 0 for mass 0, got {rho}")
        return rho
    if rho < 0.5 * m:
        raise DomainError(f"rho must be >= m/2 = {0.5 * m}, got {rho}")
    a = 1.0 + 0.5 * m / rho
    return rho * a * a


def isotropic_from_areal(model: SchwarzschildModel, s: float) -> float:
    """Exterior inverse of :func:`areal_from_isotropic`.

    Solves ``rho + m + m^2/(4 rho) = s`` on the branch ``rho >= m/2``:
    ``rho = (s - m + sqrt(s) sqrt(s - 2m)) / 2``.  The root of the product
    is taken as a product of roots, so ``s^2`` never overflows, and
    ``s - 2m`` is exact near the horizon.
    """
    m = model.mass
    if m == 0.0:
        if s < 0.0:
            raise DomainError(f"s must be >= 0 for mass 0, got {s}")
        return s
    if s < 2.0 * m:
        raise DomainError(f"s must be >= 2m = {2.0 * m}, got {s}")
    return 0.5 * (s - m + math.sqrt(s) * math.sqrt(s - 2.0 * m))


def distance_from_areal(model: SchwarzschildModel, s: float) -> float:
    """Riemannian distance from the horizon to the sphere of areal radius s.

    Closed form ``r(s) = s q + m log((1+q)^2 s / 2m)`` with
    ``q = sqrt(1 - 2m/s)``; the log argument is the cancellation-free
    rewrite of ``(1+q)/(1-q)``, taken as ``2 log1p(q) + log(s/2m)`` so
    that it does not overflow for ``s`` near the top of the double range
    (nor does ``s/2m`` itself, whose log is then ``log s - log 2m``).
    For ``s - 2m < 1e-8 m`` the leading
    series ``r = 2 sqrt(2m (s - 2m))`` is used instead, where the direct
    formula has lost its significant digits.
    """
    m = model.mass
    if m == 0.0:
        if s < 0.0:
            raise DomainError(f"s must be >= 0 for mass 0, got {s}")
        return s
    if s < 2.0 * m:
        raise DomainError(f"s must be >= 2m = {2.0 * m}, got {s}")
    gap = s - 2.0 * m
    if gap < 1e-8 * m:
        return 2.0 * math.sqrt(2.0 * m * gap)
    q = math.sqrt(gap / s)
    x = s / (2.0 * m)
    log_x = math.log(x) if x < math.inf else math.log(s) - math.log(2.0 * m)
    return s * q + m * (2.0 * math.log1p(q) + log_x)


# -------------------------------------------------------------------------
# inverse of the distance function
# -------------------------------------------------------------------------


def areal_from_distance(model: SchwarzschildModel, r: float, tol: float = DEFAULT_ROOT_TOL) -> float:
    """Areal radius ``h(r)`` at horizon distance ``r``.

    Inverts :func:`distance_from_areal` by bisection sharpened with the
    derivative step ``ds = f dr``, ``f = sqrt(1 - 2m/s)``.  ``tol`` is
    relative: the iteration stops once the distance residual satisfies
    ``|r(h) - r| <= tol * max(r, m)``.  The initial bracket is
    ``[2m, 2m + r + 2m max(0, log(1 + r/m))]``; its upper end is valid
    because ``r(s) >= s - 2m``.
    """
    m = model.mass
    if m == 0.0:
        if r < 0.0:
            raise DomainError(f"r must be >= 0 for mass 0, got {r}")
        return r
    if r < 0.0:
        raise DomainError(f"r must be >= 0, got {r}")
    if not (tol > 0.0):
        raise DomainError(f"tol must be > 0, got {tol}")
    if r == 0.0:
        return 2.0 * m

    scale = max(r, m)
    lo = 2.0 * m
    hi = 2.0 * m + r + 2.0 * m * max(0.0, math.log1p(r / m))
    s = min(2.0 * m + r, hi)  # r(s) >= s - 2m makes this an upper-side guess
    for _ in range(200):
        resid = distance_from_areal(model, s) - r
        if abs(resid) <= tol * scale:
            return s
        if resid > 0.0:
            hi = s
        else:
            lo = s
        q = math.sqrt(max(0.0, 1.0 - 2.0 * m / s)) if s > 2.0 * m else 0.0
        step = -resid * q  # Newton step via dr/ds = 1/q
        s_new = s + step
        if not (lo < s_new < hi) or q == 0.0:
            s_new = 0.5 * (lo + hi)
        if s_new == s:
            break
        s = s_new
    return s


def distance_from_isotropic(model: SchwarzschildModel, rho: float) -> float:
    """Horizon distance of the sphere with isotropic radius ``rho``."""
    return distance_from_areal(model, areal_from_isotropic(model, rho))


# -------------------------------------------------------------------------
# static potential
# -------------------------------------------------------------------------


def static_potential(model: SchwarzschildModel, r: float, tol: float = DEFAULT_ROOT_TOL) -> float:
    """Static potential ``f(r) = h'(r) = sqrt(1 - 2m/h(r))``.

    Vanishes on the horizon and tends to 1 at infinity with the expansion
    ``f = 1 - m/r + o(1/r)``.
    """
    m = model.mass
    if m == 0.0:
        if r < 0.0:
            raise DomainError(f"r must be >= 0 for mass 0, got {r}")
        return 1.0
    h = areal_from_distance(model, r, tol=tol)
    return math.sqrt(max(0.0, 1.0 - 2.0 * m / h))


def static_potential_from_isotropic(model: SchwarzschildModel, rho: float) -> float:
    """Static potential at isotropic radius rho: ``(1 - m/2 rho)/(1 + m/2 rho)``.

    Algebraically equal to ``sqrt(1 - 2m/s(rho))`` on ``rho >= m/2``; this
    form needs no inversion and no square root of a small difference.
    """
    m = model.mass
    if m == 0.0:
        if rho < 0.0:
            raise DomainError(f"rho must be >= 0 for mass 0, got {rho}")
        return 1.0
    if rho < 0.5 * m:
        raise DomainError(f"rho must be >= m/2 = {0.5 * m}, got {rho}")
    x = 0.5 * m / rho
    return (1.0 - x) / (1.0 + x)


def asymptotic_defect(model: SchwarzschildModel, r: float) -> float:
    """``r |f(r) - (1 - m/r)|``, the scaled remainder of the far expansion.

    Decreases toward 0 as ``r`` grows; exposed so callers can measure the
    little-o remainder instead of assuming a coefficient for it.
    """
    model.require_horizon("asymptotic_defect")
    if r <= 0.0:
        raise DomainError(f"r must be > 0, got {r}")
    return r * abs(static_potential(model, r) - (1.0 - model.mass / r))
