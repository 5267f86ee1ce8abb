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

Every map between them is a closed form in the isotropic excess
``d = rho - m/2``, which vanishes on the horizon:

    s(d) = (m + d)^2 / (m/2 + d),        so  s - 2m = d^2 / (m/2 + d),
    r(d) = d (m + d)/(m/2 + d) + m log(1 + 2d/m),
    f(d) = d / (m + d) = sqrt(1 - 2m/s),
    d(s) = (s - 2m)/2 + sqrt(s) sqrt(s - 2m)/2,

none of which cancels near the horizon.  The one inverse is ``d(r)``:
``r(d)`` is increasing and concave with slope ``((m + d)/(m/2 + d))^2``
in ``(1, 4]``, so Newton's method started at ``d = r/4``, where
``r(d) <= r``, climbs to the root monotonically.  ``h(r) = s(d(r))`` is
the areal radius at horizon distance ``r``, with ``h(0) = 2m`` and
``h'(r) = f``, the static potential.

``mass = 0`` is admitted as a degenerate flat model for testing: every
radial map is the identity there and ``f = 1``; operations that
reference the horizon raise :class:`~schwsurf.errors.DomainError` on it.

The model stores its mass, and every radial map its radius, as a Python
float: a numpy scalar is coerced once, at entry, so the closed forms and
the Newton loop of ``d(r)`` compute on plain floats.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import DomainError, SearchError

# the library's default tolerances, also the CLI's flag defaults
DEFAULT_ROOT_TOL = 1e-12
DEFAULT_ODE_TOL = 1e-10
DEFAULT_QUAD_TOL = 1e-8

# -------------------------------------------------------------------------
# model
# -------------------------------------------------------------------------


class SchwarzschildModel(Record):
    """Mass parameter plus derived horizon radii."""

    mass: float

    def __post_init__(self):
        if not math.isfinite(self.mass) or self.mass < 0.0:
            raise DomainError(f"mass must be finite and >= 0, got {self.mass}")
        if self.mass > 0.0 and self.horizon_rho == 0.0:
            raise DomainError(f"mass {self.mass} is positive, but its horizon radius m/2 underflows to 0")
        # a numpy scalar would make every radial map and shot on this model
        # a numpy scalar operation
        object.__setattr__(self, "mass", float(self.mass))

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


def _exp(x: float) -> float:
    """``math.exp``, saturating to ``inf`` past the double range as ``np.exp``
    does: for the plain-float shots and cone integrands."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _radius(model: SchwarzschildModel, name: str, x: float, horizon: float) -> float:
    """``x`` as a float, rejected below its horizon value ``horizon * m``
    (and NaN)."""
    x = float(x)
    bound = horizon * model.mass
    if not (x >= bound):
        raise DomainError(f"{name} must be >= {bound}, got {x}")
    return x


# -------------------------------------------------------------------------
# closed forms in the isotropic excess d = rho - m/2, for m > 0
# -------------------------------------------------------------------------


def _ratio(m: float, d: float) -> float:
    """``(m + d)/(m/2 + d) = 1 + m/2 rho``, in ``(1, 2]``; 1 at ``d = inf``."""
    return 1.0 + 0.5 * m / (0.5 * m + d)


def _areal(m: float, d: float) -> float:
    """``s = (m + d)^2/(m/2 + d)``, as a product that does not overflow."""
    return (m + d) * _ratio(m, d)


def _distance(m: float, d: float) -> float:
    """``r = d (m + d)/(m/2 + d) + m log(1 + 2d/m)``; the log is
    ``log d - log(m/2)`` where ``2d/m`` overflows."""
    x = d / (0.5 * m)
    log_x = math.log1p(x) if x < math.inf else math.log(d) - math.log(0.5 * m)
    return d * _ratio(m, d) + m * log_x


def _potential(m: float, d: float) -> float:
    """``f = d/(m + d)``; 1 at ``d = inf``."""
    return d / (m + d) if d < math.inf else 1.0


def _excess_from_areal(m: float, s: float) -> float:
    """``d = (s - 2m)/2 + sqrt(s) sqrt(s - 2m)/2``: ``s - 2m`` is exact near
    the horizon, and each half is taken before the sum, which then does
    not overflow."""
    gap = s - 2.0 * m
    return 0.5 * gap + 0.5 * (math.sqrt(s) * math.sqrt(gap))


def _excess_from_distance(m: float, r: float, tol: float) -> float:
    """The inverse ``d(r)``, under the contract of :func:`isotropic_from_distance`."""
    if not (tol > 0.0):
        raise DomainError(f"tol must be > 0, got {tol}")
    if r == math.inf:
        return math.inf
    d = 0.25 * r
    while True:
        k = _ratio(m, d)
        step = (r - _distance(m, d)) / (k * k)
        d += step
        if not step > 4.0 * math.ulp(d):
            break
    residual = _distance(m, d) - r
    if not abs(residual) <= tol * max(r, m):
        raise SearchError(
            f"no isotropic radius at distance r = {r}: residual {residual} exceeds {tol} * max(r, m)",
            diagnostics={"r": r, "residual": residual},
        )
    return d


# -------------------------------------------------------------------------
# conformal factor and forward maps
# -------------------------------------------------------------------------


def conformal_exponent(model: SchwarzschildModel, rho: float) -> float:
    """Conformal factor ``(1 + m/2 rho)^4 = e^{2 phi}``, ``phi = 2 log(1 +
    m/2 rho)``, multiplying the flat metric.

    This is the factor on the metric tensor: lengths scale by its square
    root ``(1 + m/2 rho)^2`` and areas by the factor itself.
    """
    rho = _radius(model, "rho", rho, 0.5)
    if model.mass == 0.0:
        return 1.0
    a = 1.0 + 0.5 * model.mass / rho
    return a * a * a * a


def areal_from_isotropic(model: SchwarzschildModel, rho: float) -> float:
    """Areal radius ``s = rho (1 + m/2 rho)^2``; increasing on [m/2, oo)."""
    rho = _radius(model, "rho", rho, 0.5)
    if model.mass == 0.0:
        return rho
    return _areal(model.mass, rho - 0.5 * model.mass)


def isotropic_from_areal(model: SchwarzschildModel, s: float) -> float:
    """Exterior inverse of :func:`areal_from_isotropic`: ``rho = m/2 + d(s)``."""
    s = _radius(model, "s", s, 2.0)
    if model.mass == 0.0:
        return s
    return 0.5 * model.mass + _excess_from_areal(model.mass, s)


def distance_from_areal(model: SchwarzschildModel, s: float) -> float:
    """Riemannian distance from the horizon to the sphere of areal radius s."""
    s = _radius(model, "s", s, 2.0)
    if model.mass == 0.0:
        return s
    return _distance(model.mass, _excess_from_areal(model.mass, s))


def distance_from_isotropic(model: SchwarzschildModel, rho: float) -> float:
    """Horizon distance of the sphere with isotropic radius ``rho``."""
    rho = _radius(model, "rho", rho, 0.5)
    if model.mass == 0.0:
        return rho
    return _distance(model.mass, rho - 0.5 * model.mass)


# -------------------------------------------------------------------------
# inverse of the distance function
# -------------------------------------------------------------------------


def isotropic_from_distance(model: SchwarzschildModel, r: float, tol: float = DEFAULT_ROOT_TOL) -> float:
    """Isotropic radius ``m/2 + d(r)`` of the sphere at horizon distance ``r``.

    Newton's method on ``r(d) = r`` from ``d = r/4`` climbs to the root
    and stops at the first step that does not climb by more than 4 ulps
    of ``d``.  The answer must then meet the residual
    ``|r(d) - r| <= tol * max(r, m)``; ``tol`` is that bound, not a
    stopping rule, and one finer than doubles can meet (below about
    1e-15) fails.  A failed residual, a non-finite one included, raises
    :class:`SearchError` with ``r`` and the residual.  ``r = inf`` gives
    ``inf``.
    """
    r = _radius(model, "r", r, 0.0)
    if model.mass == 0.0:
        return r
    return 0.5 * model.mass + _excess_from_distance(model.mass, r, tol)


def areal_from_distance(model: SchwarzschildModel, r: float, tol: float = DEFAULT_ROOT_TOL) -> float:
    """Areal radius ``h(r)`` at horizon distance ``r``, through the inverse
    ``d(r)`` of :func:`isotropic_from_distance` and under its contract."""
    r = _radius(model, "r", r, 0.0)
    if model.mass == 0.0:
        return r
    return _areal(model.mass, _excess_from_distance(model.mass, r, tol))


# -------------------------------------------------------------------------
# static potential
# -------------------------------------------------------------------------


def static_potential(model: SchwarzschildModel, r: float, tol: float = DEFAULT_ROOT_TOL) -> float:
    """Static potential ``f(r) = h'(r) = sqrt(1 - 2m/h(r))``.

    Vanishes on the horizon and tends to 1 at infinity with the expansion
    ``f = 1 - m/r + o(1/r)``.  Formed as ``d/(m + d)`` from the inverse
    ``d(r)`` of :func:`isotropic_from_distance`, under its contract.
    """
    r = _radius(model, "r", r, 0.0)
    if model.mass == 0.0:
        return 1.0
    return _potential(model.mass, _excess_from_distance(model.mass, r, tol))


def static_potential_from_isotropic(model: SchwarzschildModel, rho: float) -> float:
    """Static potential at isotropic radius rho: ``(1 - m/2 rho)/(1 + m/2 rho)``.

    Formed as ``d/(m + d)``, which is algebraically equal to
    ``sqrt(1 - 2m/s(rho))`` on ``rho >= m/2`` and needs no inversion and
    no square root of a small difference.
    """
    rho = _radius(model, "rho", rho, 0.5)
    if model.mass == 0.0:
        return 1.0
    return _potential(model.mass, rho - 0.5 * model.mass)


def asymptotic_defect(model: SchwarzschildModel, r: float) -> float:
    """``r |f(r) - (1 - m/r)|``, the scaled remainder of the far expansion.

    Decreases toward 0 as ``r`` grows; exposed so callers can measure the
    little-o remainder instead of assuming a coefficient for it.
    """
    model.require_horizon("asymptotic_defect")
    r = float(r)
    if r <= 0.0:
        raise DomainError(f"r must be > 0, got {r}")
    return r * abs(static_potential(model, r) - (1.0 - model.mass / r))
