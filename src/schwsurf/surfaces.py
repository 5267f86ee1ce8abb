"""Surfaces over sphere curves: areas, weighted measures, and the
boundary-length bound.

Surfaces live in the isotropic Cartesian chart, where the metric is the
conformal factor ``(1 + m/2|x|)^4`` times the flat one.  Cones ``t alpha(s)``
over unit-sphere curves are the workhorses: their flat induced metric is
``dt^2 + t^2 ds^2`` when ``alpha`` is parametrized by arc length, every
ball-clipping level is a ``t`` level, and the unit radial field is
tangent to them, which collapses the defect integral to zero and makes
the monotonicity bookkeeping exact up to rounding: a clipped integral
over a cone is elementary (see :func:`_clipped_integral`).

Every integral and report runs on plain floats: a general chart's value
and partials at a node are read as three floats each, and rotations are
nested tuples.  numpy is imported only where a curve's value is formed
(:func:`_vector`, for charts that compute with it) and by
``SphereCurve.check``, so neither a cone report nor a general chart
whose values are tuples loads it.

Conformal bookkeeping used throughout (``e^phi = (1 + m/2|x|)^2``):

    g-length element   = e^phi * flat
    g-area element     = e^{2 phi} * flat
    static potential f = (1 - m/2|x|) / (1 + m/2|x|)
"""

from __future__ import annotations

import math

from . import quadrature, roots
from ._record import Record
from .errors import DomainError, GeometryError, PreconditionError, QuadratureError
from .geometry import SchwarzschildModel, areal_from_isotropic, isotropic_from_distance
from .quadrature import QuadSpec

_TWO_PI = 2.0 * math.pi
_TINY = 2.2250738585072014e-308  # the smallest normal double


# -------------------------------------------------------------------------
# curves on the unit sphere
# -------------------------------------------------------------------------


class SphereCurve(Record):
    """Closed curve on the unit sphere, parametrized by arc length.

    ``alpha`` maps s to a 3-vector; ``alpha_d``/``alpha_dd`` are its first
    and second derivatives (analytic for the built-in constructors).
    """

    alpha: object
    alpha_d: object
    alpha_dd: object
    period: float

    def check(self, n_samples: int = 256) -> dict:
        """Max deviations from the unit-speed spherical invariants."""
        import numpy as np

        s = np.linspace(0.0, self.period, n_samples, endpoint=False)
        a = np.array([self.alpha(x) for x in s])
        ad = np.array([self.alpha_d(x) for x in s])
        return {
            "radius": float(np.max(np.abs(np.linalg.norm(a, axis=1) - 1.0))),
            "speed": float(np.max(np.abs(np.linalg.norm(ad, axis=1) - 1.0))),
            "tangency": float(np.max(np.abs(np.sum(a * ad, axis=1)))),
        }


_numpy = None


def _vector(x, y, z):
    """A curve's value as a numpy 3-vector, for callers that compute with
    it (a chart ``t * alpha(s)``); numpy is imported on the first one."""
    global _numpy
    if _numpy is None:
        import numpy as _numpy
    return _numpy.array((x, y, z))


def great_circle() -> SphereCurve:
    """Equator of the unit sphere; cones over it are planes through 0."""
    return SphereCurve(
        alpha=lambda s: _vector(math.cos(s), math.sin(s), 0.0),
        alpha_d=lambda s: _vector(-math.sin(s), math.cos(s), 0.0),
        alpha_dd=lambda s: _vector(-math.cos(s), -math.sin(s), 0.0),
        period=_TWO_PI,
    )


def latitude_circle(theta0: float) -> SphereCurve:
    """Circle at colatitude ``theta0``; arc-length period ``2 pi sin theta0``."""
    if not (0.0 < theta0 < math.pi):
        raise DomainError(f"colatitude must lie in (0, pi), got {theta0}")
    rho = math.sin(theta0)
    z = math.cos(theta0)
    # angular rate 1/rho makes s true arc length
    return SphereCurve(
        alpha=lambda s: _vector(rho * math.cos(s / rho), rho * math.sin(s / rho), z),
        alpha_d=lambda s: _vector(-math.sin(s / rho), math.cos(s / rho), 0.0),
        alpha_dd=lambda s: _vector(-math.cos(s / rho) / rho, -math.sin(s / rho) / rho, 0.0),
        period=_TWO_PI * rho,
    )


def _floats(v) -> tuple:
    """A 3-vector, any sequence of three numbers, as three floats."""
    return float(v[0]), float(v[1]), float(v[2])


def _cross(a: tuple, b: tuple) -> tuple:
    """The cross product of two float triples, and its length."""
    n = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
    return n, math.hypot(*n)


def _orthogonal(Q: tuple) -> bool:
    """Is the 3x3 ``Q`` orthogonal: ``Q Q^T`` within ``1e-12 + 1e-5 |I|``
    of the identity, entry by entry, as ``numpy.allclose(Q @ Q.T, I,
    atol=1e-12)`` tests it?"""
    for i, row in enumerate(Q):
        for j, other in enumerate(Q):
            dot = row[0] * other[0] + row[1] * other[1] + row[2] * other[2]
            eye = 1.0 if i == j else 0.0
            if not abs(dot - eye) <= 1e-12 + 1e-5 * eye:
                return False
    return True


def _rotation(rotation) -> tuple:
    """A rotation, nested sequences or an array, as a nested tuple of
    floats, checked to be a 3x3 orthogonal matrix."""
    Q = tuple(tuple(map(float, row)) for row in rotation)
    if [len(row) for row in Q] != [3, 3, 3] or not _orthogonal(Q):
        raise DomainError("rotation must be a 3x3 orthogonal matrix")
    return Q


def _turned(Q: tuple, v):
    x, y, z = _floats(v)
    return _vector(*(q[0] * x + q[1] * y + q[2] * z for q in Q))


def rotate_curve(curve: SphereCurve, rotation) -> SphereCurve:
    """Curve composed with a fixed rotation: a 3x3 orthogonal matrix, as
    nested sequences or an array."""
    Q = _rotation(rotation)
    return SphereCurve(
        alpha=lambda s: _turned(Q, curve.alpha(s)),
        alpha_d=lambda s: _turned(Q, curve.alpha_d(s)),
        alpha_dd=lambda s: _turned(Q, curve.alpha_dd(s)),
        period=curve.period,
    )


def random_rotation(seed: int) -> tuple:
    """Deterministic rotation matrix, uniform over SO(3), as a nested tuple
    of rows; ``seed >= 0``.

    The matrix of a unit quaternion uniform on the 3-sphere, drawn from
    three uniforms (K. Shoemake, "Uniform random rotations", Graphics
    Gems III, 1992).
    """
    if seed < 0:
        raise DomainError(f"rotation seed must be >= 0, got {seed}")
    import random

    rng = random.Random(seed)
    u1, u2, u3 = rng.random(), _TWO_PI * rng.random(), _TWO_PI * rng.random()
    a, b = math.sqrt(1.0 - u1), math.sqrt(u1)
    w, x, y, z = a * math.sin(u2), a * math.cos(u2), b * math.sin(u3), b * math.cos(u3)
    return (
        (1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)),
        (2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)),
        (2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)),
    )


# -------------------------------------------------------------------------
# parametrized surfaces
# -------------------------------------------------------------------------


class ParamSurface(Record, hide=("curve",)):
    """Chart ``(t, s) -> R^3`` on ``[t0, t1] x [0, S)``, s-periodic.

    ``S = s_period`` must be the chart's true period: general charts are
    integrated over ``s`` by the periodic trapezoid rule, which assumes a
    smooth periodic integrand.  Cones (planes through the origin among
    them) carry their ``curve``, and their integrals are closed forms;
    general charts carry none.  ``chart_t``/``chart_s`` are the partial
    derivatives: analytic on cones, given or finite differences on general
    charts (:func:`make_general`), read one node at a time as three floats.
    """

    chart: object
    t_range: tuple
    s_period: float
    free_boundary: bool
    chart_t: object
    chart_s: object
    curve: SphereCurve | None = None

    @property
    def is_cone(self) -> bool:
        return self.curve is not None

    def check(self, model: SchwarzschildModel, n_samples: int = 64) -> dict:
        """Max invariant deviations on 9 ``t`` levels by ``n_samples`` ``s``
        nodes: exterior containment, horizon edge (on the ``t0`` level)."""
        t0, t1 = self.t_range
        half = 0.5 * model.mass
        # the nodes of numpy.linspace, bit for bit
        ts = [t0 + i * ((t1 - t0) / 8) for i in range(8)] + [t1]
        ss = [i * (self.s_period / n_samples) for i in range(n_samples)]
        # one row per s node, |x| on its t levels from t0 on
        r = [[math.hypot(*_floats(self.chart(t, s))) for t in ts] for s in ss]
        out = {"exterior": max(0.0, max(half - x for row in r for x in row)), "horizon_edge": 0.0}
        if self.free_boundary and half > 0.0:
            out["horizon_edge"] = max(abs(row[0] - half) / half for row in r)
        return out


def _cone(curve: SphereCurve, t_range: tuple) -> ParamSurface:
    al, ald = curve.alpha, curve.alpha_d
    return ParamSurface(
        chart=lambda t, s: t * al(s),
        t_range=t_range,
        s_period=curve.period,
        free_boundary=True,
        chart_t=lambda t, s: al(s),
        chart_s=lambda t, s: t * ald(s),
        curve=curve,
    )


def make_cone(model: SchwarzschildModel, curve: SphereCurve, t_max: float) -> ParamSurface:
    """Cone ``{t alpha(s) : m/2 <= t <= t_max}`` over a unit-sphere curve."""
    m = model.mass
    if not (0.5 * m < t_max < math.inf):
        raise DomainError(f"t_max must be finite and exceed m/2 = {0.5 * m}, got {t_max}")
    return _cone(curve, (0.5 * m, t_max))


def make_plane(model: SchwarzschildModel, t_max: float, rotation=None) -> ParamSurface:
    """Totally geodesic plane through the origin (a great-circle cone)."""
    curve = great_circle()
    if rotation is not None:
        curve = rotate_curve(curve, rotation)
    return make_cone(model, curve, t_max)


def make_general(
    chart,
    t_range: tuple,
    s_period: float,
    free_boundary: bool = False,
    chart_t=None,
    chart_s=None,
) -> ParamSurface:
    """User-supplied chart; missing partials by central differences.

    Each of ``chart``, ``chart_t`` and ``chart_s`` is called once per
    node with scalar ``(t, s)`` and returns a 3-vector: any sequence of
    three numbers (an array, a tuple, a list), which the integrals read
    as three floats.  The chart is stored as given.  A missing
    ``chart_t`` or ``chart_s`` is one 4th-order central difference of
    the chart along ``t`` or ``s``, component by component in floats,
    with a step of ``1e-5`` times the ``t`` range or the period, so the
    chart must be evaluable two steps outside the ``t`` range.
    ``s_period`` must be the chart's true period in ``s`` (not a
    multiple or a fraction of it): the outer trapezoid rule converges
    only on a smooth periodic integrand.
    """
    t0, t1 = t_range
    if not (-math.inf < t0 < t1 < math.inf):
        raise DomainError(f"t range {t_range} is empty or not finite")
    if not (s_period > 0.0):
        raise DomainError(f"s period must be > 0, got {s_period}")
    ht = 1e-5 * (t1 - t0)
    hs = 1e-5 * s_period

    def difference(f, u, h):
        # 4th-order central difference of f at u with step h, componentwise
        ends = zip(*(_floats(f(v)) for v in (u - 2 * h, u - h, u + h, u + 2 * h)))
        return tuple((a - 8.0 * b + 8.0 * c - d) / (12.0 * h) for a, b, c, d in ends)

    if chart_t is None:
        def chart_t(t, s):
            return difference(lambda u: chart(u, s), t, ht)

    if chart_s is None:
        def chart_s(t, s):
            return difference(lambda u: chart(t, u), s, hs)

    return ParamSurface(
        chart=chart,
        t_range=(t0, t1),
        s_period=s_period,
        free_boundary=free_boundary,
        chart_t=chart_t,
        chart_s=chart_s,
    )


def rotate_surface(surface: ParamSurface, rotation) -> ParamSurface:
    """Surface composed with a fixed rotation, checked as by
    :func:`rotate_curve`; cones stay cones."""
    if surface.curve is not None:
        return _cone(rotate_curve(surface.curve, rotation), surface.t_range)
    Q = _rotation(rotation)
    old_chart, old_t, old_s = surface.chart, surface.chart_t, surface.chart_s
    return ParamSurface(
        chart=lambda t, s: _turned(Q, old_chart(t, s)),
        t_range=surface.t_range,
        s_period=surface.s_period,
        free_boundary=surface.free_boundary,
        chart_t=lambda t, s: _turned(Q, old_t(t, s)),
        chart_s=lambda t, s: _turned(Q, old_s(t, s)),
    )


# -------------------------------------------------------------------------
# pointwise quantities
# -------------------------------------------------------------------------


def cone_mean_curvature(model: SchwarzschildModel, curve: SphereCurve, t: float, s: float) -> float:
    """Mean curvature of the cone over ``curve`` at the point ``t alpha(s)``.

        H = det[alpha, alpha'', alpha'] / (t e^{phi(t)})

    Zero for every great circle; ``-cot(theta0) / (t e^{phi})`` on the
    colatitude-``theta0`` circle.
    """
    if not (t >= 0.5 * model.mass) or t <= 0.0:
        raise DomainError(f"t = {t} is inside the horizon or nonpositive")
    n, _ = _cross(_floats(curve.alpha(s)), _floats(curve.alpha_dd(s)))
    ad = _floats(curve.alpha_d(s))
    triple = n[0] * ad[0] + n[1] * ad[1] + n[2] * ad[2]
    conf = (1.0 + 0.5 * model.mass / t) ** 2
    return triple / (t * conf)


def _radial_normal_sq(x, x_t, x_s):
    """Squared cosine between ``x`` and the normal ``x_t x x_s``, float
    triples at one node, at most 1.  The tangent plane is degenerate where
    a partial vanishes or ``|x_t x x_s| <= 1e-12 |x_t| |x_s|``; every
    length is a hypot, so no square leaves the double range, and a normal
    that overflows or a NaN passes the test and comes out NaN."""
    a, b = math.hypot(*x_t), math.hypot(*x_s)
    n, length = _cross(x_t, x_s)
    if a == 0.0 or b == 0.0 or length / a <= 1e-12 * b:
        raise GeometryError(f"degenerate tangent plane at chart point {x}")
    r = math.hypot(*x)
    if r == 0.0:
        raise GeometryError("radial direction undefined at the origin")
    cosine = (x[0] / r) * (n[0] / length) + (x[1] / r) * (n[1] / length) + (x[2] / r) * (n[2] / length)
    return min(cosine * cosine, 1.0)


def radial_normal_component(model: SchwarzschildModel, surface: ParamSurface, t: float, s: float) -> float:
    """Squared g-norm of the normal part of the unit radial field, in [0, 1].

    Conformal metrics preserve angles, so this equals the squared cosine
    between the flat radial direction and the flat surface normal.
    """
    fns = (surface.chart, surface.chart_t, surface.chart_s)
    value = _radial_normal_sq(*(_floats(f(t, s)) for f in fns))
    if not math.isfinite(value):
        raise GeometryError(f"radial normal component is not finite at chart point (t, s) = ({t}, {s})")
    return value


# -------------------------------------------------------------------------
# clipped integrals
# -------------------------------------------------------------------------


def clip_radius(model: SchwarzschildModel, rho: float) -> float:
    """Isotropic radius of the sphere at horizon distance ``rho``; it is
    at most ``rho + m/2``, so finite with ``rho``."""
    if not 0.0 <= rho < math.inf:
        raise DomainError(f"horizon distance must be finite and >= 0, got {rho}")
    return isotropic_from_distance(model, float(rho))


def _kept(store, key, make):
    """``make()``, kept in ``store`` under ``key`` when a store is given."""
    if store is None:
        return make()
    if key not in store:
        store[key] = make()
    return store[key]


def _clipped_integral(model, surface, t_iso, spec, w, normal=False, store=None) -> float:
    """Integral over the part of the surface within the clip level ``|x| <=
    t_iso`` (the ball ``B_rho`` of ``t_iso = clip_radius(rho)``) of the
    radial factor ``w(m, |x|)`` (conformal factor included) times the flat
    area element, times the squared radial-normal part when ``normal``.
    A clip level at or below the horizon ``m/2`` clips nothing but the
    horizon itself, and gives 0.

    A cone's integral is its period ``S`` times that of ``w(m, t) t dt``
    from ``t0`` to ``t_top``, elementary in ``u = log(t/t0)``: each weight
    carries its primitive ``w.cone`` (see the weights), and no quadrature
    runs.  ``u`` is formed by ``log1p``, so that a clip level next to the
    horizon keeps its digits.  Where the integral is not finite (``t_top``
    past about ``1.3e154``, or ``u`` infinite) the :class:`QuadratureError`
    names the interval in ``u``, and where it times ``S`` is not, its two
    factors.  General charts run the periodic trapezoid rule
    :func:`quadrature.integrate_periodic` over ``s`` in ``[0, S)`` (so
    ``S`` must be the chart's true period), whose every node runs a
    Gauss-Kronrod :func:`quadrature.integrate` over ``t`` up to the
    slice's clip level.  That rule starts from one
    node, so a surface of revolution about the chart's axis, whose
    slices all give the same integral, costs three slices: ``s = 0``,
    ``S/2`` and the one-node alias guard.  Each chart node is one row of
    plain floats: the chart and its partials, ``|x|`` and the flat area
    element ``|x_t x x_s|``.  A sample that overflows reaches the rules as
    ``inf`` or ``nan``, and their :class:`QuadratureError` reports it
    once.  A chart node inside the horizon ``|x| < m/2`` raises
    :class:`DomainError`.  With ``normal`` both rules carry the integral
    without the radial-normal factor alongside, which bounds it: its
    scale is the floor that ends a defect that is rounding noise (a cone
    written as a general chart).

    ``store``, a dict, keeps each slice's clip level, keyed by ``s``, and
    the rows of each inner level, keyed by ``s`` and the node count, so
    that the integrals of one clip level that share it evaluate each
    chart node once.  Each integral still runs its own rules to its
    own tests; where their levels coincide they visit the same ``s`` and
    ``t`` nodes bit for bit.  Without a store nothing is kept.
    """
    m = model.mass
    # the radial field is tangent to cones
    if t_iso <= 0.5 * m or (normal and surface.is_cone):
        return 0.0
    t0, t1 = surface.t_range
    if surface.is_cone:
        top = min(t_iso, t1)
        # the flat model's cones start at t0 = 0, where the term in u vanishes
        u = math.log1p((top - t0) / t0) if t0 > 0.0 else 0.0
        e = math.frexp(top)[1]  # lengths in units of 2^e > top
        try:
            value = math.ldexp(w.cone(math.ldexp(t0, -e), math.ldexp(top, -e), u), 2 * e)
        except OverflowError:
            value = math.inf
        if not (math.isfinite(value) and u < math.inf):
            where = f"[0.0, {u!r}] in log(t/t0)" if t0 > 0.0 else f"[0.0, {top!r}] in t"
            raise QuadratureError(f"cone integral over {where} is not finite")
        total = surface.s_period * value
        if not math.isfinite(total):
            raise QuadratureError(f"cone integral {value!r} times the period {surface.s_period!r} is not finite")
        return total

    chart, chart_t, chart_s = surface.chart, surface.chart_t, surface.chart_s
    horizon = 0.5 * m
    # a few ulps of the t range: every Brent search ends well within maxiter
    xtol = 4.0 * math.ulp(1.0) * max(abs(t0), abs(t1))

    def slice_limit(s: float) -> float:
        # largest t with |chart| <= clip level (monotone radial profile
        # assumed, as documented)
        def excess(t):
            return math.hypot(*chart(t, s)) - t_iso

        e0 = excess(t0)
        if e0 > 0.0:
            return t0
        e1 = excess(t1)
        if e1 <= 0.0:
            return t1
        return roots.brentq(excess, t0, t1, xtol=xtol, f_a=e0, f_b=e1)

    def samples(ts, s):
        # one row (x, x_t, x_s, |x|, flat area element) per node t of slice s
        rows = []
        for t in ts:
            x, x_t, x_s = _floats(chart(t, s)), _floats(chart_t(t, s)), _floats(chart_s(t, s))
            r = math.hypot(*x)
            if r < horizon:
                raise DomainError(f"chart reaches |x| = {r} inside the horizon |x| = {horizon}")
            rows.append((x, x_t, x_s, r, _cross(x_t, x_s)[1]))
        return rows

    empty = (0.0, 0.0) if normal else 0.0

    def slice_integral(s: float):
        def integrand(ts):
            rows = _kept(store, (s, len(ts)), lambda: samples(ts, s))
            # a node at the origin, reachable only on the flat model, takes
            # the flat weight (r = inf), where m/2r would be 0/0
            weights = [w(m, r if r else math.inf) for _, _, _, r, _ in rows]
            areas = [wt * row[4] for wt, row in zip(weights, rows)]
            if normal:
                return [wt * (_radial_normal_sq(x, a, b) * el) for wt, (x, a, b, _, el) in zip(weights, rows)], areas
            return areas

        top = _kept(store, s, lambda: slice_limit(s))
        return quadrature.integrate(integrand, t0, top, spec) if top > t0 else empty

    def slices(ss):
        values = [slice_integral(s) for s in ss]
        return tuple(zip(*values)) if normal else values

    total = quadrature.integrate_periodic(slices, surface.s_period, spec)
    return total[0] if normal else total


# the weights take a float: a node of a general chart.  A cone from
# t0 = m/2 integrates them through their primitives ``cone(t0, t, u)``,
# the integral of w t dt from t0 to t, u = log(t/t0), written in t - t0
# and q = t0/t = e^-u, where every term is positive


def _mu_weight(m, r):
    q = 0.5 * m / r
    p = 1.0 + q
    return (1.0 - q) * (p * p * p)  # f times conformal area factor


def _mu_cone(t0, t, u):
    q, d = t0 / t, t - t0  # 2 (t0 sinh u)^2 + 8 (t0 sinh u/2)^2
    return d * d * (0.5 * (1.0 + q) ** 2 + 2.0 * q)


def _area_weight(m, r):
    p = 1.0 + 0.5 * m / r
    p2 = p * p
    return p2 * p2


def _area_cone(t0, t, u):
    q = t0 / t  # t0^2 (6u + 8 sinh u + 2 sinh u cosh u)
    return (t - t0) * t * (1.0 + q) * (0.5 * (1.0 + q * q) + 4.0 * q) + 6.0 * t0 * t0 * u


_mu_weight.cone, _area_weight.cone = _mu_cone, _area_cone


def _defect_weight(m, r):
    q = 0.5 * m / r
    f = (1.0 - q) / (1.0 + q)
    h = r * (1.0 + q) ** 2  # areal radius
    return f / (h * h) * (1.0 + q) ** 4


def mu_integral(model: SchwarzschildModel, surface: ParamSurface, rho: float, spec: QuadSpec = QuadSpec()) -> float:
    """f-weighted g-area of the part of the surface within ``B_rho``."""
    return _clipped_integral(model, surface, clip_radius(model, rho), spec, _mu_weight)


def area_integral(model: SchwarzschildModel, surface: ParamSurface, rho: float, spec: QuadSpec = QuadSpec()) -> float:
    """Unweighted g-area of the part of the surface within ``B_rho``."""
    return _clipped_integral(model, surface, clip_radius(model, rho), spec, _area_weight)


def defect_integral(model: SchwarzschildModel, surface: ParamSurface, rho: float, spec: QuadSpec = QuadSpec()) -> float:
    """``(f/h^2) |radial normal part|^2`` integrated over the clipped surface.

    Identically zero on cones (the radial field is tangent to them); this
    is the middle term of the monotonicity identity and the defect in the
    boundary-length bound.
    """
    return _clipped_integral(model, surface, clip_radius(model, rho), spec, _defect_weight, normal=True)


def boundary_length(model: SchwarzschildModel, surface: ParamSurface, spec: QuadSpec = QuadSpec()) -> float:
    """g-length of the horizon edge ``t = t0`` of a free-boundary surface:
    ``4 t0 S`` on a cone, the periodic rule to ``spec.rel_tol`` on a
    general chart, which reads the edge one node at a time in plain
    floats."""
    model.require_horizon("boundary_length")
    if not surface.free_boundary:
        raise PreconditionError("surface does not carry the free-boundary flag")
    t0 = surface.t_range[0]
    if surface.is_cone:
        # edge speed is t0, conformal factor 4 on the horizon
        return 4.0 * t0 * surface.s_period
    half = 0.5 * model.mass
    chart, chart_s = surface.chart, surface.chart_s

    def speed(ss):
        # the conformal factor at an edge node |x| = 0 is infinite, and so
        # is its speed: the rule's error reports it
        out = []
        for s in ss:
            r = math.hypot(*chart(t0, s))
            p = 1.0 + half / r if r else math.inf
            out.append(p * p * math.hypot(*chart_s(t0, s)))
        return out

    return quadrature.integrate_periodic(speed, surface.s_period, spec)


# -------------------------------------------------------------------------
# monotonicity, density, and the boundary-length bound
# -------------------------------------------------------------------------


class MonotonicityReport(Record):
    """Ratio trace of the weighted-area monotonicity identity.

    ``ratios[i] = mu(B_rhos[i]) / h(rhos[i])^2``, and 0 at ``rhos[i] = 0``;
    ``formula_residuals[i]`` is the identity mismatch for the consecutive
    pair ``(rhos[i], rhos[i+1])``.  ``max_backstep`` is the largest decrease
    between consecutive ratios (0 when the trace is monotone).  The
    sequences are tuples of floats.
    """

    rhos: tuple
    mu_values: tuple
    ratios: tuple
    boundary_length: float
    monotone: bool
    max_backstep: float
    formula_residuals: tuple


class DensityReport(Record):
    """Area-ratio tail and its extrapolation to infinite radius; ``rhos``
    and ``ratios`` are tuples of floats."""

    theta: float
    rhos: tuple
    ratios: tuple
    converged: bool
    note: str


class BoundaryBoundReport(Record):
    """Both sides of the boundary-length bound and the equality defect.

    ``lhs`` is the density at infinity, ``rhs`` the boundary-length side
    plus the defect integral; ``equality_defect = lhs - rhs`` is the
    residual of the proof's identity ``Theta = boundary_term + defect/pi``
    cut off at ``rho_max``, which vanishes exactly on planes through the
    origin.  ``boundary_length`` is the g-length of the boundary curve on
    the horizon, and ``boundary_term`` that length over ``4 pi m``.
    ``bound_satisfied`` tests the bound itself, ``|boundary| <= 4 pi m
    Theta``, that is ``boundary_term <= lhs`` within the report's
    tolerance, not the identity.
    """

    lhs: float
    rhs: float
    boundary_length: float
    equality_defect: float
    boundary_term: float
    defect_value: float
    defect_tail_bound: float
    bound_satisfied: bool


def formula_residual(
    model: SchwarzschildModel,
    surface: ParamSurface,
    sigma: float,
    rho: float,
    spec: QuadSpec = QuadSpec(),
) -> float:
    """Mismatch of the monotonicity identity between radii ``sigma < rho``.

        ratio(rho) - ratio(sigma)
            - [defect(rho) - defect(sigma)]
            - m (1/h(sigma)^2 - 1/h(rho)^2) |boundary|

    The two-radius :func:`monotonicity_report`.  Vanishes (up to quadrature)
    for minimal free-boundary surfaces; the ``sigma = 0`` case is the form
    integrated directly from the horizon.
    """
    return monotonicity_report(model, surface, [sigma, rho], spec).formula_residuals[0]


def monotonicity_report(
    model: SchwarzschildModel,
    surface: ParamSurface,
    rho_grid,
    spec: QuadSpec = QuadSpec(),
) -> MonotonicityReport:
    """Ratio trace over an increasing grid of horizon distances.

    Each radius's distance is inverted once: its clip level gives ``h``
    and is the one mu and the defect are clipped at (see
    :func:`_clipped_integral`).  On a general chart the two share a store
    of slice clip levels and chart samples, dropped once both are formed:
    each chart node is evaluated once per radius.
    """
    rhos = tuple(map(float, rho_grid))
    if len(rhos) < 2 or any(b <= a for a, b in zip(rhos, rhos[1:])) or rhos[0] < 0.0:
        raise DomainError("rho grid must be increasing and nonnegative")
    m = model.mass

    mus, defects, squares = [], [], []
    for r in rhos:
        t, store = clip_radius(model, r), {}
        h = areal_from_isotropic(model, t)
        squares.append(_normal("h^2", r, h * h, nonzero=r > 0.0 or m > 0.0))
        mus.append(_normal("mu", r, _clipped_integral(model, surface, t, spec, _mu_weight, store=store)))
        defects.append(_normal("defect", r, _clipped_integral(model, surface, t, spec, _defect_weight, True, store)))
    ratios = [mu / h2 if r > 0.0 else 0.0 for r, mu, h2 in zip(rhos, mus, squares)]

    blen = boundary_length(model, surface, spec) if m > 0.0 and surface.free_boundary else 0.0
    blen = _normal("boundary length", 0.0, blen)

    # m |boundary| (1/h(sigma)^2 - 1/h(rho)^2); h = 0 at rho = 0 on the flat model
    edges = [m * -(1.0 / b - 1.0 / a) * blen if m > 0.0 else 0.0 for a, b in zip(squares, squares[1:])]
    steps = [b - a for a, b in zip(ratios, ratios[1:])]
    resid = tuple(step - (d1 - d0) - edge for step, d0, d1, edge in zip(steps, defects, defects[1:], edges))
    max_backstep = max(0.0, -min(steps))
    scale = max(map(abs, ratios)) or 1.0
    return MonotonicityReport(
        rhos=rhos,
        mu_values=tuple(mus),
        ratios=tuple(ratios),
        boundary_length=blen,
        monotone=max_backstep <= spec.rel_tol * scale,
        max_backstep=max_backstep,
        formula_residuals=resid,
    )


def _normal(what: str, rho: float, value: float, nonzero: bool = False) -> float:
    """The report's ``what`` at ``rho``, or :class:`QuadratureError` where it
    is below the normal doubles (0 included where ``nonzero``)."""
    if abs(value) < _TINY and (value or nonzero):
        raise QuadratureError(f"{what} {value!r} at rho = {rho!r} underflows the normal double range")
    return value


def density_at_infinity(
    model: SchwarzschildModel,
    surface: ParamSurface,
    rho_max: float,
    spec: QuadSpec = QuadSpec(),
) -> DensityReport:
    """Limiting area ratio against the reference great-circle cone.

    Samples the ratio at six radii, halving down from ``rho_max``, then
    extrapolates linearly in ``1/h(rho)``.  A tail whose increments grow
    is flagged as not converged ("no finite density detected").  Each
    radius's clip level gives ``h`` and clips both area integrals.
    """
    m = model.mass
    if not (rho_max > max(m, surface.t_range[0])):
        raise DomainError(f"rho_max = {rho_max} is too small for a tail estimate")
    rhos = tuple(rho_max * 0.5**k for k in range(5, -1, -1))
    clips = [clip_radius(model, r) for r in rhos]

    # reference cone large enough to never be clipped by its own t_max
    ref = make_plane(model, t_max=2.0 * clips[-1])

    ratios = []
    for r, t in zip(rhos, clips):
        denom = _normal("reference plane area", r, _clipped_integral(model, ref, t, spec, _area_weight), nonzero=True)
        ratios.append(_normal("area", r, _clipped_integral(model, surface, t, spec, _area_weight)) / denom)

    # two-point linear extrapolation to 1/h -> 0
    x0, x1 = (1.0 / areal_from_isotropic(model, t) for t in clips[-2:])
    y0, y1 = ratios[-2], ratios[-1]
    theta = (y1 * x0 - y0 * x1) / (x0 - x1)

    d_last = abs(ratios[-1] - ratios[-2])
    d_prev = abs(ratios[-2] - ratios[-3])
    scale = max(abs(ratios[-1]), 1e-300)
    converged = d_last <= max(1.05 * d_prev, 1e3 * spec.rel_tol * scale)
    note = "" if converged else "no finite density detected"
    return DensityReport(theta=theta, rhos=rhos, ratios=tuple(ratios), converged=converged, note=note)


def boundary_bound_check(
    model: SchwarzschildModel,
    surface: ParamSurface,
    rho_max: float,
    spec: QuadSpec = QuadSpec(),
) -> BoundaryBoundReport:
    """Both sides of ``|boundary| <= 4 pi m Theta`` with the proof identity.

    For minimal free-boundary surfaces the density splits exactly into
    the boundary term plus the (nonnegative) defect integral, so the
    report's ``equality_defect`` is a discretization residual for planes
    and, for genuinely tilted surfaces, the defect beyond ``rho_max``
    plus the signed error of the extrapolated density.  The tail of the
    defect integral beyond ``rho_max`` is bounded through the
    monotonicity identity itself and carried separately.
    ``bound_satisfied`` compares the boundary term with the
    density alone, so a defect that has not all arrived by ``rho_max``
    moves the identity's residual but not the bound.
    """
    model.require_horizon("boundary_bound_check")
    m = model.mass
    dens = density_at_infinity(model, surface, rho_max, spec)
    blen = _normal("boundary length", 0.0, boundary_length(model, surface, spec))
    bterm = blen / (4.0 * math.pi * m)
    t_max, store = clip_radius(model, rho_max), {}
    defect = _clipped_integral(model, surface, t_max, spec, _defect_weight, True, store)
    defect = _normal("defect", rho_max, defect) / math.pi

    # tail bound: pi Theta - ratio(rho_max) - m |boundary| / h(rho_max)^2,
    # clipped at zero against extrapolation noise
    h_max = areal_from_isotropic(model, t_max)
    h2_max = _normal("h^2", rho_max, h_max * h_max, nonzero=True)
    ratio_max = _normal("mu", rho_max, _clipped_integral(model, surface, t_max, spec, _mu_weight, store=store)) / h2_max
    tail = max(0.0, (math.pi * dens.theta - ratio_max) / math.pi - m * blen / (math.pi * h2_max))

    lhs = dens.theta
    rhs = bterm + defect
    tol = 100.0 * max(spec.rel_tol, abs(tail))
    return BoundaryBoundReport(
        lhs=lhs,
        rhs=rhs,
        boundary_length=blen,
        equality_defect=lhs - rhs,
        boundary_term=bterm,
        defect_value=defect,
        defect_tail_bound=tail,
        bound_satisfied=bterm <= lhs + tol,
    )
