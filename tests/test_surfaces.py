"""Cones, clipped integrals, monotonicity, density, boundary bound.

General charts (flat and tilted planes, k-fold wavy graphs, cones written
as general charts) exercise the nested-quadrature path against closed
forms, the cone path and frozen values; everything else rides the 1-D
cone fast path whose densities have elementary antiderivatives.
"""

import json
import math
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_radii
from schwsurf import (
    QuadSpec,
    SchwarzschildModel,
    areal_from_distance,
    area_integral,
    boundary_bound_check,
    boundary_length,
    cone_mean_curvature,
    defect_integral,
    density_at_infinity,
    formula_residual,
    great_circle,
    latitude_circle,
    make_cone,
    make_general,
    make_plane,
    monotonicity_report,
    mu_integral,
    radial_normal_component,
    random_rotation,
    rotate_curve,
    rotate_surface,
)
from schwsurf import geometry, quadrature
from schwsurf.errors import DomainError, GeometryError, PreconditionError, QuadratureError
from schwsurf.surfaces import clip_radius

TWO_PI = 2.0 * math.pi


def flat_graph(height: float, t_max: float):
    """Horizontal plane z = height over an annulus chart, with exact
    derivatives so the general integration path is fast."""
    return make_general(
        chart=lambda t, s: np.array([t * math.cos(s), t * math.sin(s), height]),
        t_range=(0.0, t_max),
        s_period=TWO_PI,
        chart_t=lambda t, s: np.array([math.cos(s), math.sin(s), 0.0]),
        chart_s=lambda t, s: np.array([-t * math.sin(s), t * math.cos(s), 0.0]),
    )


# ------------------------------------------------------------------- curves


def test_builtin_curves_pass_invariants():
    for curve in (great_circle(), latitude_circle(0.4), latitude_circle(2.8)):
        dev = curve.check(256)
        assert dev["radius"] <= 1e-12
        assert dev["speed"] <= 1e-12
        assert dev["tangency"] <= 1e-12


def test_latitude_circle_validation():
    for bad in (0.0, math.pi, -0.3, 4.0):
        with pytest.raises(DomainError):
            latitude_circle(bad)


def test_rotation_check_is_numpy_allclose():
    """rotate_curve accepts a matrix exactly when np.allclose(Q Q^T, I,
    atol=1e-12) does: its default rtol=1e-5 on the diagonal, atol alone
    off it.  Nested tuples and arrays are both accepted."""
    for scale in (1.0 + 4e-6, 1.0 + 6e-6):
        for shear in (0.0, 5e-13, 2e-12):
            Q = np.diag([scale, 1.0, 1.0])
            Q[0, 1] = shear
            expected = np.allclose(Q @ Q.T, np.eye(3), atol=1e-12)
            for rotation in (Q, tuple(map(tuple, Q.tolist()))):
                if expected:
                    rotate_curve(great_circle(), rotation)
                else:
                    with pytest.raises(DomainError):
                        rotate_curve(great_circle(), rotation)
    with pytest.raises(DomainError):
        rotate_curve(great_circle(), np.eye(2))


def test_rotate_curve_stays_on_sphere():
    Q = random_rotation(7)
    rotated = rotate_curve(latitude_circle(1.0), Q)
    dev = rotated.check(128)
    assert max(dev.values()) <= 1e-12
    with pytest.raises(DomainError):
        rotate_curve(great_circle(), np.eye(3) * 1.1)


def test_random_rotation_properties():
    seen = []
    for seed in (0, 1, 12345):
        Q = np.asarray(random_rotation(seed))
        assert np.allclose(Q @ Q.T, np.eye(3), atol=1e-13)
        assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(Q, random_rotation(seed))  # deterministic
        seen.append(Q)
    assert not np.allclose(seen[0], seen[1])


# ----------------------------------------------------------- mean curvature


def test_great_circle_cones_are_minimal(m2):
    for seed in (1, 2, 3):
        curve = rotate_curve(great_circle(), random_rotation(seed))
        for t in (1.0, 2.5, 40.0):
            for s in np.linspace(0.0, TWO_PI, 9):
                assert abs(cone_mean_curvature(m2, curve, t, s)) <= 1e-14


@pytest.mark.parametrize("theta0", [math.pi / 6, math.pi / 3, 4 * math.pi / 9])
def test_latitude_cone_mean_curvature_closed_form(m2, theta0):
    curve = latitude_circle(theta0)
    cot = math.cos(theta0) / math.sin(theta0)
    for t in (1.0, 3.0, 17.0):
        expected = cot / (t * (1.0 + 1.0 / t) ** 2)
        got = cone_mean_curvature(m2, curve, t, 0.3)
        assert abs(got) == pytest.approx(expected, rel=1e-12)


def test_cone_mean_curvature_inside_horizon_rejected(m2):
    with pytest.raises(DomainError):
        cone_mean_curvature(m2, great_circle(), 0.7, 0.0)


# ------------------------------------------------------------ cone integrals


def test_plane_mu_closed_form(m2):
    """mu over the clipped plane is pi (h^2 - 4 m^2) exactly."""
    m = m2.mass
    plane = make_plane(m2, t_max=1e5)
    for rho in np.geomspace(0.3, 2e3, 12):
        h = areal_from_distance(m2, rho)
        expected = math.pi * (h * h - 4.0 * m * m)
        assert mu_integral(m2, plane, rho) == pytest.approx(expected, rel=1e-8)


def test_plane_area_closed_form(m2):
    """Antiderivative check of the unweighted area density.

    2 pi integral of (1 + m/2t)^4 t dt from m/2 to T, with
    F(t) = t^2/2 + 2 m t + (3 m^2 / 2) log t - m^3/(2t) - m^4/(32 t^2).
    """
    m = m2.mass
    plane = make_plane(m2, t_max=1e4)

    def F(t):
        return (
            0.5 * t * t
            + 2.0 * m * t
            + 1.5 * m * m * math.log(t)
            - 0.5 * m**3 / t
            - m**4 / (32.0 * t * t)
        )

    for rho in (1.0, 7.0, 120.0):
        t_clip = clip_radius(m2, rho)
        expected = TWO_PI * (F(t_clip) - F(0.5 * m))
        assert area_integral(m2, plane, rho) == pytest.approx(expected, rel=1e-10)
        assert area_integral(m2, plane, rho) > mu_integral(m2, plane, rho)


def far_cones(model, rho_max):
    """A plane, a rotated plane and a latitude cone, long enough that no
    radius up to ``rho_max`` reaches their ends; each with its period."""
    t_max = 2.0 * clip_radius(model, rho_max)
    return [
        (make_plane(model, t_max), TWO_PI),
        (make_plane(model, t_max, rotation=random_rotation(5)), TWO_PI),
        (make_cone(model, latitude_circle(0.8), t_max), TWO_PI * math.sin(0.8)),
    ]


@pytest.mark.parametrize("mass", [0.0, 0.7, 2.0])
def test_cone_integrals_run_no_quadrature(mass, monkeypatch):
    """A cone's mu and area are elementary in log(t/t0): from next to the
    horizon out to 1e100 masses, and through the reports built on them,
    no quadrature rule is called."""
    model = SchwarzschildModel(mass)

    def forbidden(*args):
        raise AssertionError("a cone integral called a quadrature rule")

    for name in ("integrate", "integrate_periodic", "panel_nodes"):
        monkeypatch.setattr(quadrature, name, forbidden)
    scale = mass or 1.0
    for cone, _ in far_cones(model, 1e100 * scale):
        for rho in scale * np.geomspace(1e-9, 1e100, 28):
            assert mu_integral(model, cone, rho) > 0.0
            assert area_integral(model, cone, rho) > 0.0
        monotonicity_report(model, cone, scale * np.geomspace(0.1, 1e3, 5))
        if mass > 0.0:
            boundary_bound_check(model, cone, 500.0 * mass)


@pytest.mark.parametrize("mass", [0.7, 2.0])
def test_cone_integrals_match_exact_antiderivatives(mass):
    """mu and the area of cones against 40-digit primitives of w(m, t) t,
    from a millionth of a mass to a million masses.  With a = m/2,

        (1 - a/t)(1 + a/t)^3 t:  t^2/2 + 2 a t + 2 a^3/t + a^4/(2 t^2),
        (1 + a/t)^4 t:           t^2/2 + 4 a t + 6 a^2 log t - 4 a^3/t - a^4/(2 t^2),

    each times the period, between m/2 and the clip radius the code
    integrates up to."""
    model = SchwarzschildModel(mass)
    rel = QuadSpec().rel_tol
    with mpmath.workdps(40):
        a = mpmath.mpf(mass) / 2

        def primitives(t):
            t = mpmath.mpf(t)
            mu = t * t / 2 + 2 * a * t + 2 * a**3 / t + a**4 / (2 * t * t)
            area = t * t / 2 + 4 * a * t + 6 * a * a * mpmath.log(t) - 4 * a**3 / t - a**4 / (2 * t * t)
            return mu, area

        base = primitives(a)
        for cone, period in far_cones(model, 1e6 * mass):
            for rho in mass * np.geomspace(1e-6, 1e6, 25):
                top = primitives(clip_radius(model, rho))
                for integral, lo, hi in zip((mu_integral, area_integral), base, top):
                    ref = period * (hi - lo)
                    got = integral(model, cone, rho)
                    assert abs(got - ref) <= rel * ref, (integral.__name__, rho)


def cone_primitives(mass):
    """The 40-digit primitives of the mu and area densities of a cone at
    ``mass``, those of the test above, as a function of ``t``."""
    a = mpmath.mpf(mass) / 2

    def primitives(t):
        t = mpmath.mpf(t)
        mu = t * t / 2 + 2 * a * t + 2 * a**3 / t + a**4 / (2 * t * t)
        area = t * t / 2 + 4 * a * t + 6 * a * a * mpmath.log(t) - 4 * a**3 / t - a**4 / (2 * t * t)
        return mu, area

    return primitives


@pytest.mark.parametrize("mass", [0.7, 2.0])
def test_first_level_cone_integrals_reach_rounding_level(mass):
    """The one panel a cone integral is accepted on is good to 1e-13, far
    inside rel_tol, from a hundredth of a mass to a million masses: a rule
    that only just met its tolerance on the first level would fail here.
    (Next to the horizon, at a millionth of a mass, rounding in 1 - m/2t
    sets the error, about 2e-10; the test above covers those radii.)"""
    model = SchwarzschildModel(mass)
    with mpmath.workdps(40):
        primitives = cone_primitives(mass)
        base = primitives(mpmath.mpf(mass) / 2)
        for cone, period in far_cones(model, 1e6 * mass):
            for rho in mass * np.geomspace(1e-2, 1e6, 25):
                top = primitives(clip_radius(model, rho))
                for integral, lo, hi in zip((mu_integral, area_integral), base, top):
                    ref = period * (hi - lo)
                    got = integral(model, cone, rho)
                    assert abs(got - ref) <= 1e-13 * ref, (integral.__name__, rho)


@pytest.mark.parametrize("mass", [0.7, 2.0])
def test_cone_integrals_reach_rounding_level_out_to_1e100_masses(mass):
    """The closed forms in log(t/t0) against the 40-digit primitives above
    within 1e-14, from a billionth of a mass next to the horizon out to
    1e10, 1e20 and 1e100 masses, where a Gauss-Kronrod panel needed more
    levels."""
    model = SchwarzschildModel(mass)
    rhos = [*(mass * np.geomspace(1e-9, 1e6, 31)), 1e10 * mass, 1e20 * mass, 1e100 * mass]
    with mpmath.workdps(40):
        primitives = cone_primitives(mass)
        base = primitives(mpmath.mpf(mass) / 2)
        for cone, period in far_cones(model, 1e100 * mass):
            for rho in rhos:
                top = primitives(clip_radius(model, rho))
                for integral, lo, hi in zip((mu_integral, area_integral), base, top):
                    ref = period * (hi - lo)
                    got = integral(model, cone, rho)
                    assert abs(got - ref) <= 1e-14 * ref, (integral.__name__, rho)


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(
    mass=st.floats(0.1, 10.0),
    log_scale=st.floats(-3.0, 3.0),
    log_rho=st.floats(-3.0, 6.0),
    theta0=st.one_of(st.none(), st.floats(0.2, math.pi - 0.2)),
)
def test_cone_mu_is_scale_covariant(mass, log_scale, log_rho, theta0):
    """mu(lambda m; lambda rho) = lambda^2 mu(m; rho) on planes and latitude
    cones, for rho from a thousandth of a mass to a million masses."""
    lam = 10.0**log_scale
    values = []
    for m in (mass, lam * mass):
        model = SchwarzschildModel(m)
        rho = 10.0**log_rho * m
        t_max = 2.0 * clip_radius(model, rho)
        cone = make_plane(model, t_max) if theta0 is None else make_cone(model, latitude_circle(theta0), t_max)
        values.append(mu_integral(model, cone, rho))
    assert values[1] == pytest.approx(lam * lam * values[0], rel=1e-11)


def test_latitude_cone_mu_scales_by_sin(m2):
    plane = make_plane(m2, t_max=500.0)
    for theta0 in (0.3, 1.2):
        cone = make_cone(m2, latitude_circle(theta0), t_max=500.0)
        for rho in (1.0, 30.0):
            assert mu_integral(m2, cone, rho) == pytest.approx(
                math.sin(theta0) * mu_integral(m2, plane, rho), rel=1e-12
            )


def test_clipped_integral_outside_range_is_zero(m2):
    plane = make_plane(m2, t_max=2.0)
    # clipping below the horizon edge leaves nothing
    assert mu_integral(m2, plane, 0.0) == 0.0


def test_make_cone_validation(m2):
    with pytest.raises(DomainError):
        make_cone(m2, great_circle(), t_max=0.5)
    with pytest.raises(DomainError):
        make_cone(m2, great_circle(), t_max=math.inf)


def test_make_general_rejects_non_finite_t_range():
    chart = lambda t, s: np.array([t * math.cos(s), t * math.sin(s), 1.0])
    for t_range in ((0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan), (2.0, 1.0)):
        with pytest.raises(DomainError):
            make_general(chart, t_range, TWO_PI)


def test_make_general_rejects_non_positive_period():
    chart = lambda t, s: np.array([t * math.cos(s), t * math.sin(s), 1.0])
    for s_period in (0.0, -TWO_PI, math.nan):
        with pytest.raises(DomainError):
            make_general(chart, (0.0, 1.0), s_period)


def test_surface_check_plane(m2):
    plane = make_plane(m2, t_max=30.0)
    dev = plane.check(m2, 32)
    assert dev["exterior"] <= 1e-12
    assert dev["horizon_edge"] <= 1e-12
    assert plane.is_cone


def test_surface_check_general_charts(m2):
    """A latitude cone written as a general chart from the horizon out
    meets both invariants to rounding (its outer rows lie far from the
    horizon, so the edge is read off the t0 row); against m = 2.4 its
    edge |x| = 1 lies 0.2 inside the horizon.  The graph z = 1/2 over
    t in [-3, 3] passes |x| = 1/2 at its middle row, inside the horizon
    |x| = 1."""
    cone = general_cone(m2, math.pi / 3, free_boundary=True)
    dev = cone.check(m2, 32)
    assert dev["exterior"] <= 1e-15
    assert dev["horizon_edge"] <= 1e-15
    dev = cone.check(SchwarzschildModel(2.4), 32)
    assert dev["exterior"] == pytest.approx(0.2, rel=1e-14)
    assert dev["horizon_edge"] == pytest.approx(0.2 / 1.2, rel=1e-14)
    dip = make_general(
        chart=lambda t, s: np.array([t * math.cos(s), t * math.sin(s), 0.5]),
        t_range=(-3.0, 3.0),
        s_period=TWO_PI,
    )
    assert dip.check(m2, 16) == {"exterior": 0.5, "horizon_edge": 0.0}


# ----------------------------------------------------------- boundary length


def test_boundary_length_values(m2):
    m = m2.mass
    plane = make_plane(m2, t_max=10.0)
    assert boundary_length(m2, plane) == pytest.approx(4.0 * math.pi * m, rel=1e-14)
    rotated = make_plane(m2, t_max=10.0, rotation=random_rotation(5))
    assert boundary_length(m2, rotated) == boundary_length(m2, plane)
    for theta0 in (0.4, 1.0):
        cone = make_cone(m2, latitude_circle(theta0), t_max=10.0)
        assert boundary_length(m2, cone) == pytest.approx(
            4.0 * math.pi * m * math.sin(theta0), rel=1e-14
        )


def test_boundary_length_preconditions(m2, flat):
    graph = flat_graph(1.0, 5.0)
    with pytest.raises(PreconditionError):
        boundary_length(m2, graph)
    with pytest.raises(DomainError):
        boundary_length(flat, make_plane(flat, t_max=5.0))


# ------------------------------------------------------- radial normal field


def test_radial_normal_vanishes_on_planes_through_origin(m2):
    for surface in (
        make_plane(m2, t_max=20.0),
        make_plane(m2, t_max=20.0, rotation=random_rotation(11)),
    ):
        for t in (1.0, 4.0, 18.0):
            for s in (0.0, 1.1, 4.4):
                assert radial_normal_component(m2, surface, t, s) <= 1e-28


def test_radial_normal_on_flat_graph(flat):
    """Graph z = c: the squared radial-normal cosine is c^2/(t^2+c^2)."""
    c = 1.5
    graph = make_general(
        chart=lambda t, s: np.array([t * math.cos(s), t * math.sin(s), c]),
        t_range=(0.5, 10.0),
        s_period=TWO_PI,
    )  # finite-difference derivative fallbacks on purpose
    for t in (0.7, 2.0, 8.0):
        expected = c * c / (t * t + c * c)
        got = radial_normal_component(flat, graph, t, 0.9)
        assert got == pytest.approx(expected, rel=1e-6)


def test_radial_normal_degenerate_chart_raises(flat):
    line = make_general(
        chart=lambda t, s: np.array([t, 0.0, 0.0]),
        t_range=(0.5, 2.0),
        s_period=1.0,
    )
    with pytest.raises(GeometryError):
        radial_normal_component(flat, line, 1.0, 0.5)
    with pytest.raises(GeometryError):
        defect_integral(flat, line, 1.0)  # the same check, through the weight


def test_radial_normal_of_a_regular_chart_whose_partials_square_to_overflow(flat):
    """The tube (1e160 t, 1e-100 cos s, 1e-100 sin s) is regular: its
    normal has |x_t x x_s|^2 = 1e120, though |x_t|^2 = 1e320 overflows.
    The degeneracy test reads each partial scaled by its largest
    component.  The radial direction lies in the tangent plane to within
    a cosine of 7e-261, whose square underflows to 0."""
    tube = make_general(
        chart=lambda t, s: np.array([1e160 * t, 1e-100 * math.cos(s), 1e-100 * math.sin(s)]),
        t_range=(1.0, 2.0),
        s_period=TWO_PI,
        chart_t=lambda t, s: np.array([1e160, 0.0, 0.0]),
        chart_s=lambda t, s: np.array([0.0, -1e-100 * math.sin(s), 1e-100 * math.cos(s)]),
    )
    assert radial_normal_component(flat, tube, 1.5, 0.5) == 0.0


def test_radial_normal_undefined_at_the_origin(flat):
    """The plane z = 0 charted by (t, sin s) passes the origin at t = s = 0,
    where its tangent plane is regular but the radial direction is not."""
    plane = make_general(
        chart=lambda t, s: np.array([t, math.sin(s), 0.0]),
        t_range=(-1.0, 1.0),
        s_period=TWO_PI,
    )
    with pytest.raises(GeometryError, match="origin"):
        radial_normal_component(flat, plane, 0.0, 0.0)


def test_flat_chart_node_at_the_origin_takes_the_flat_weight(flat):
    """The unit disc charted as (t cos s, t sin s, 0) on t in [-1, 1],
    covered twice, puts a node on the origin, where the weights formed
    m/2|x| as 0/0 and mu and area raised QuadratureError.  The flat
    weight there is 1, so both are 2 pi; the defect, whose tangent plane
    degenerates at the origin, still raises GeometryError."""
    disc = make_general(
        chart=lambda t, s: (t * math.cos(s), t * math.sin(s), 0.0),
        t_range=(-1.0, 1.0),
        s_period=TWO_PI,
        chart_t=lambda t, s: (math.cos(s), math.sin(s), 0.0),
        chart_s=lambda t, s: (-t * math.sin(s), t * math.cos(s), 0.0),
    )
    assert mu_integral(flat, disc, 5.0) == pytest.approx(TWO_PI, rel=1e-14)
    assert area_integral(flat, disc, 5.0) == pytest.approx(TWO_PI, rel=1e-14)
    with pytest.raises(GeometryError):
        defect_integral(flat, disc, 5.0)


# ------------------------------------------------------------- general path


@pytest.mark.parametrize(
    "rho, expected", [(1.2, 0.0), (5.0, 8.0 * math.pi), (2.0, 2.0 * math.pi)],
    ids=["every-slice-empty", "every-slice-whole", "brent"],
)
def test_slice_limit_whole_slice_shortcuts(flat, rho, expected):
    # z = 1 over the annulus 1 <= t <= 3: |x| = sqrt(t^2 + 1) runs from
    # sqrt(2) to sqrt(10), so the ball of radius rho clips nothing, all,
    # or t up to sqrt(rho^2 - 1)
    graph = make_general(
        chart=lambda t, s: np.array([t * math.cos(s), t * math.sin(s), 1.0]),
        t_range=(1.0, 3.0),
        s_period=TWO_PI,
        chart_t=lambda t, s: np.array([math.cos(s), math.sin(s), 0.0]),
        chart_s=lambda t, s: np.array([-t * math.sin(s), t * math.cos(s), 0.0]),
    )
    area = area_integral(flat, graph, rho)
    if expected == 0.0:
        assert area == 0.0
    else:
        assert area == pytest.approx(expected, rel=1e-13)


def test_general_chart_may_return_any_sequence(flat):
    """The chart is stored as given: a tilted plane whose chart and partials
    return tuples gives the values of the same plane returning arrays, on
    the clipped integrals, a rotation and the finite-difference fallbacks."""
    a, b, d = 0.3, 0.2, 1.0

    def plane(vector, derivatives=True):
        extra = {}
        if derivatives:
            extra = dict(
                chart_t=lambda t, s: vector([math.cos(s), math.sin(s), a * math.cos(s) + b * math.sin(s)]),
                chart_s=lambda t, s: vector(
                    [-t * math.sin(s), t * math.cos(s), t * (b * math.cos(s) - a * math.sin(s))]
                ),
            )
        return make_general(
            lambda t, s: vector([t * math.cos(s), t * math.sin(s), d + t * (a * math.cos(s) + b * math.sin(s))]),
            (0.0, 10.0),
            TWO_PI,
            **extra,
        )

    Q = random_rotation(3)
    values = {}
    for vector in (np.array, tuple):
        surface = plane(vector)
        values[vector] = (
            mu_integral(flat, surface, 2.0),
            defect_integral(flat, surface, 2.0),
            mu_integral(flat, rotate_surface(surface, Q), 2.0),
            radial_normal_component(flat, plane(vector, derivatives=False), 1.5, 0.7),
        )
    assert values[tuple] == values[np.array]


def test_general_path_matches_cone_path(m2):
    """The nested 2-D quadrature reproduces the 1-D cone integral, with
    Brent's method (not bisection) finding each slice's clip level."""
    theta0 = math.pi / 3
    curve = latitude_circle(theta0)
    cone = make_cone(m2, curve, t_max=12.0)
    calls = [0]

    def counted(fn):
        def wrapped(t, s):
            calls[0] += 1
            return fn(t, s)

        return wrapped

    general = make_general(
        chart=counted(lambda t, s: t * curve.alpha(s)),
        t_range=(1.0, 12.0),
        s_period=curve.period,
        chart_t=counted(lambda t, s: curve.alpha(s)),
        chart_s=counted(lambda t, s: t * curve.alpha_d(s)),
    )
    for rho in (2.0, 5.0):
        ref = mu_integral(m2, cone, rho)
        calls[0] = 0
        got = mu_integral(m2, general, rho)
        assert got == pytest.approx(ref, rel=1e-12)
    # chart, chart_t and chart_s calls of the rho = 5 integral: 33 038 with
    # an 80-step bisection per slice, 28 182 with Brent and an outer
    # Gauss-Legendre rule, 4 702 with the periodic trapezoid rule, 4 670
    # with Brent taking the end values the slice checks already computed,
    # 3 182 with one Gauss-Kronrod evaluation per inner level, 2 384 with
    # the alias guard on the coarser of the two compared levels
    assert calls[0] < 4700


def test_surface_of_revolution_settles_on_three_slices(m2):
    """Every slice of the latitude cone about the chart's axis integrates to
    the same number, so the periodic s rule accepts after three slices:
    s = 0, its midpoint pi, and the one-node guard.  Chart calls of the
    rho = 5 integral: 2 384 from a four-node start, 596 from one node."""
    curve = latitude_circle(math.pi / 3)
    calls = []

    def counted(fn):
        def wrapped(t, s):
            calls.append(s)
            return fn(t, s)

        return wrapped

    general = make_general(
        chart=counted(lambda t, s: t * curve.alpha(s)),
        t_range=(1.0, 12.0),
        s_period=curve.period,
        chart_t=counted(lambda t, s: curve.alpha(s)),
        chart_s=counted(lambda t, s: t * curve.alpha_d(s)),
    )
    mu_integral(m2, general, 5.0)
    shift = quadrature.ALIAS_SHIFT * curve.period
    assert set(calls) == {0.0, 0.5 * curve.period, shift}
    assert len(calls) <= 2384 // 4


def general_cone(model, theta0, derivatives=True, free_boundary=False):
    """The latitude cone written as a general chart, from the horizon out."""
    curve = latitude_circle(theta0)
    extra = {}
    if derivatives:
        extra = dict(
            chart_t=lambda t, s: curve.alpha(s),
            chart_s=lambda t, s: t * curve.alpha_d(s),
        )
    return make_general(
        chart=lambda t, s: t * curve.alpha(s),
        t_range=(0.5 * model.mass, 12.0),
        s_period=curve.period,
        free_boundary=free_boundary,
        **extra,
    )


def test_boundary_length_general_chart_matches_cone(m2):
    """The periodic rule over the horizon edge of a general chart against
    the cone path's 4 t0 S."""
    for theta0 in (math.pi / 3, 1.0):
        general = general_cone(m2, theta0, free_boundary=True)
        cone = make_cone(m2, latitude_circle(theta0), t_max=12.0)
        assert boundary_length(m2, general) == pytest.approx(
            boundary_length(m2, cone), rel=1e-13
        )


def bumped_curve():
    """normalize(cos s, sin s, 0.3 |sin s|^2.5), its s derivative, and its
    speed in mpmath: a closed sphere curve whose third derivative is
    singular at s = 0 and pi, so the periodic rule converges on it only
    algebraically."""
    b = 0.3

    def v(s):
        return np.array([math.cos(s), math.sin(s), b * abs(math.sin(s)) ** 2.5])

    def alpha(s):
        x = v(s)
        return x / np.linalg.norm(x)

    def alpha_d(s):
        x = v(s)
        sin = math.sin(s)
        dx = np.array([-sin, math.cos(s), 2.5 * b * abs(sin) ** 1.5 * math.copysign(1.0, sin) * math.cos(s)])
        n = np.linalg.norm(x)
        a = x / n
        return (dx - a * np.dot(a, dx)) / n

    def speed(s):  # |alpha'(s)| in mpmath
        sin = mpmath.sin(s)
        z = b * abs(sin) ** 2.5
        dz = 2.5 * b * abs(sin) ** 1.5 * mpmath.sign(sin) * mpmath.cos(s)
        vv, dd, vd = 1 + z * z, 1 + dz * dz, z * dz
        return mpmath.sqrt(vv * dd - vd * vd) / vv

    return alpha, alpha_d, speed


def test_boundary_length_of_general_chart_meets_its_spec(m2):
    """The horizon edge of a free-boundary general chart is integrated to
    the caller's rel_tol: 4 t0 times the curve's length, against a 30-digit
    mpmath value (5.4e-10 off when the edge ignored its spec and ran at
    the default 1e-8)."""
    alpha, alpha_d, speed = bumped_curve()
    t0 = 0.5 * m2.mass
    cone = make_general(
        chart=lambda t, s: t * alpha(s),
        t_range=(t0, 12.0),
        s_period=TWO_PI,
        free_boundary=True,
        chart_t=lambda t, s: alpha(s),
        chart_s=lambda t, s: t * alpha_d(s),
    )
    with mpmath.workdps(30):
        pi = mpmath.pi
        ref = float(4 * t0 * mpmath.quad(speed, [0, pi / 2, pi, 3 * pi / 2, 2 * pi]))
    got = boundary_length(m2, cone, QuadSpec(rel_tol=1e-12))
    assert abs(got - ref) <= 1e-12 * ref


@pytest.mark.parametrize("report", ["monotonicity", "boundary_bound"])
def test_reports_pass_their_spec_to_the_boundary_length(m2, monkeypatch, report):
    from schwsurf import surfaces

    seen = []

    def spy(model, surface, spec=QuadSpec()):
        seen.append(spec)
        return boundary_length(model, surface, spec)

    monkeypatch.setattr(surfaces, "boundary_length", spy)
    spec = QuadSpec(rel_tol=1e-9)
    plane = make_plane(m2, t_max=50.0)
    if report == "monotonicity":
        monotonicity_report(m2, plane, [0.5, 2.0], spec)
    else:
        boundary_bound_check(m2, plane, 20.0, spec)
    assert seen == [spec]


@pytest.mark.parametrize("derivatives", [True, False], ids=["analytic", "fd"])
def test_vanishing_defect_on_general_chart_ends(m2, derivatives):
    """The radial-normal part of a cone is rounding noise (cos^2 below
    1e-24 even with finite-difference derivatives).  The integral that
    bounds it ends the doubling instead of QuadratureError at the cap."""
    general = general_cone(m2, math.pi / 3, derivatives)
    got = defect_integral(m2, general, 2.0)
    assert 0.0 <= got <= 1e-22


def tilted_plane(a, b, d, t_max):
    """The plane z = d + a x + b y over a polar chart."""
    return make_general(
        chart=lambda t, s: np.array(
            [t * math.cos(s), t * math.sin(s), d + t * (a * math.cos(s) + b * math.sin(s))]
        ),
        t_range=(0.0, t_max),
        s_period=TWO_PI,
        chart_t=lambda t, s: np.array(
            [math.cos(s), math.sin(s), a * math.cos(s) + b * math.sin(s)]
        ),
        chart_s=lambda t, s: np.array(
            [-t * math.sin(s), t * math.cos(s), t * (b * math.cos(s) - a * math.sin(s))]
        ),
    )


@pytest.mark.parametrize("rho", [2.0, 5.0])
def test_tilted_off_centre_plane_closed_form(flat, rho):
    """At m = 0, mu is the flat area of a disc: pi (rho^2 - dist^2), with
    the plane at distance 1/sqrt(1.13) from the origin.  Every slice has
    its own clip level, so the outer rule sees a genuinely s-dependent
    integrand."""
    plane = tilted_plane(0.3, 0.2, 1.0, t_max=10.0)
    expected = math.pi * (rho * rho - 1.0 / 1.13)
    assert mu_integral(flat, plane, rho) == pytest.approx(expected, rel=1e-10)


# mu at m = 0, rho = 3 of the graph below, from the nested Gauss-Legendre
# rule that preceded the periodic one
WAVY_REFERENCE = {16: 28.757123380978094, 32: 37.120784276361384}


@pytest.mark.parametrize("k", sorted(WAVY_REFERENCE))
def test_k_fold_wavy_graph(flat, k):
    """z = 1 + 0.05 t cos(k s): the s integrand has only harmonics of
    k = 4 and 8 times the periodic rule's start, so its first nested
    levels agree on a wrong value and only the alias guard refuses it."""
    a = 0.05
    graph = make_general(
        chart=lambda t, s: np.array([t * math.cos(s), t * math.sin(s), 1.0 + a * t * math.cos(k * s)]),
        t_range=(0.0, 4.0),
        s_period=TWO_PI,
        chart_t=lambda t, s: np.array([math.cos(s), math.sin(s), a * math.cos(k * s)]),
        chart_s=lambda t, s: np.array(
            [-t * math.sin(s), t * math.cos(s), -a * k * t * math.sin(k * s)]
        ),
    )
    assert mu_integral(flat, graph, 3.0) == pytest.approx(WAVY_REFERENCE[k], rel=1e-10)


def test_defect_zero_on_cones_positive_off_origin(m2, flat):
    plane = make_plane(m2, t_max=50.0)
    assert defect_integral(m2, plane, 10.0) == 0.0
    graph = flat_graph(1.0, 8.0)
    assert defect_integral(flat, graph, 4.0) > 0.0


def test_defect_rejects_chart_inside_horizon(m2):
    """Graph z = 0.3 at m = 2 dips inside |x| = m/2 = 1 near its axis."""
    graph = flat_graph(0.3, 5.0)
    with pytest.raises(DomainError):
        defect_integral(m2, graph, 3.0)


@pytest.mark.parametrize("integral", [mu_integral, area_integral, defect_integral])
def test_every_clipped_integral_rejects_chart_inside_horizon(m2, integral):
    """The plane chart from t = 0.2, inside |x| = m/2 = 1 at m = 2."""
    disc = make_general(
        lambda t, s: np.array([t * math.cos(s), t * math.sin(s), 0.0]), (0.2, 8.0), TWO_PI
    )
    with pytest.raises(DomainError, match="inside the horizon"):
        integral(m2, disc, 3.0)


@pytest.mark.parametrize(
    "integral, error",
    [(mu_integral, QuadratureError), (area_integral, QuadratureError), (defect_integral, QuadratureError)],
)
def test_general_chart_samples_that_overflow_raise_without_warning(flat, integral, error):
    """The plane chart scaled by 1e200: its area element and normal
    overflow to inf, which must not warn.  Each integral reports
    the estimate that is not finite; the defect's tangent-plane test does
    not read the overflowed normal as a degenerate plane."""
    huge = make_general(
        lambda t, s: 1e200 * t * np.array([math.cos(s), math.sin(s), 0.0]), (1.0, 2.0), TWO_PI
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="is not finite"):
            integral(flat, huge, 1e300)
        with pytest.raises(GeometryError, match="not finite"):
            radial_normal_component(flat, huge, 1.5, 0.5)


def test_chart_nan_and_zero_partial_keep_their_error_classes(flat):
    """A chart that is NaN on part of each slice (1.2 < t < 1.4) reaches
    the rules as NaN: mu and the defect report an estimate that is not
    finite, and the radial normal component there is not finite either.
    A partial that vanishes gives a zero area element, so mu = 0, and a
    degenerate tangent plane for the defect, named by its chart point."""

    def chart(t, s):
        if 1.2 < t < 1.4:
            return (math.nan, math.nan, math.nan)
        return (t * math.cos(s), t * math.sin(s), 1.0)

    def chart_t(t, s):
        return (math.cos(s), math.sin(s), 0.0)

    def chart_s(t, s):
        return (-t * math.sin(s), t * math.cos(s), 0.0)

    holed = make_general(chart, (1.0, 3.0), TWO_PI, chart_t=chart_t, chart_s=chart_s)
    for integral in (mu_integral, defect_integral):
        with pytest.raises(QuadratureError, match="is not finite"):
            integral(flat, holed, 5.0)
    with pytest.raises(GeometryError, match="not finite"):
        radial_normal_component(flat, holed, 1.3, 0.5)
    flat_s = make_general(chart, (1.5, 3.0), TWO_PI, chart_t=chart_t, chart_s=lambda t, s: (0.0, 0.0, 0.0))
    assert mu_integral(flat, flat_s, 5.0) == 0.0
    with pytest.raises(GeometryError, match=r"degenerate tangent plane at chart point \("):
        defect_integral(flat, flat_s, 5.0)


_TUPLE_CHART_PROBE = """
import json, math, sys
from schwsurf import (SchwarzschildModel, QuadSpec, area_integral, boundary_length, defect_integral,
                      make_general, monotonicity_report, mu_integral, radial_normal_component)

def sheared_cone(t, s):
    # t alpha(s) + (t - 1) c over the colatitude-pi/3 circle: its t = 1
    # edge lies on the horizon |x| = 1 of m = 2
    u = s / RHO
    return (t * RHO * math.cos(u) + 0.1 * (t - 1.0), t * RHO * math.sin(u), t * Z + 0.2 * (t - 1.0))

def sheared_cone_t(t, s):
    u = s / RHO
    return (RHO * math.cos(u) + 0.1, RHO * math.sin(u), Z + 0.2)

def sheared_cone_s(t, s):
    u = s / RHO
    return (-t * math.sin(u), t * math.cos(u), 0.0)

def tilted(t, s):
    return (t * math.cos(s), t * math.sin(s), 1.0 + t * (0.3 * math.cos(s) + 0.2 * math.sin(s)))

def tilted_t(t, s):
    return (math.cos(s), math.sin(s), 0.3 * math.cos(s) + 0.2 * math.sin(s))

def tilted_s(t, s):
    return (-t * math.sin(s), t * math.cos(s), t * (0.2 * math.cos(s) - 0.3 * math.sin(s)))

RHO, Z = math.sin(math.pi / 3), math.cos(math.pi / 3)
spec = QuadSpec(rel_tol=1e-7)
out = {}
cases = [
    ("m0", 0.0, (tilted, tilted_t, tilted_s), (0.0, 10.0), 2.0 * math.pi, False, [1.5, 2.0, 3.0]),
    ("m2", 2.0, (sheared_cone, sheared_cone_t, sheared_cone_s), (1.0, 12.0), 2.0 * math.pi * RHO, True,
     [1.0, 3.0, 6.0]),
]
for name, mass, (chart, chart_t, chart_s), t_range, period, free, rhos in cases:
    model = SchwarzschildModel(mass)
    for partials in ("given", "fd"):
        extra = dict(chart_t=chart_t, chart_s=chart_s) if partials == "given" else {}
        surface = make_general(chart, t_range, period, free, **extra)
        values = [f(model, surface, rhos[1], spec) for f in (mu_integral, area_integral, defect_integral)]
        values.append(radial_normal_component(model, surface, 2.5, 0.7))
        values += list(surface.check(model, 16).values())
        if free:
            values.append(boundary_length(model, surface, spec))
        rep = monotonicity_report(model, surface, rhos, spec)
        values += [*rep.mu_values, *rep.formula_residuals]
        out[name + " " + partials] = [v.hex() for v in values]
out["numpy"] = "numpy" in sys.modules
print(json.dumps(out))
"""


def test_a_general_chart_of_tuples_needs_no_numpy():
    """A general chart whose values and partials are tuples, at m = 0 and
    at m = 2 with its edge on the horizon, with its partials and with the
    finite-difference fallbacks, runs through the integrals, the radial
    normal component, the invariant check, the boundary length and the
    monotonicity report without loading numpy.  The values are those of
    this process bit for bit, and the fallbacks meet the given partials."""
    proc = subprocess.run([sys.executable, "-c", _TUPLE_CHART_PROBE], capture_output=True, text=True, check=True)
    probe = json.loads(proc.stdout)
    assert probe.pop("numpy") is False
    here = {}
    exec(_TUPLE_CHART_PROBE.replace("print(json.dumps(out))", ""), here)
    assert here["out"].pop("numpy") is True
    assert probe == here["out"]
    for name in ("m0", "m2"):
        given, fd = ([float.fromhex(v) for v in probe[f"{name} {kind}"]] for kind in ("given", "fd"))
        assert all(math.isfinite(v) for v in given)
        scale = max(map(abs, given))
        assert fd == pytest.approx(given, rel=1e-6, abs=1e-9 * scale)


def test_flat_graph_monotonicity_identity(flat):
    """m = 0 graph z = c: ratio pi (1 - c^2/rho^2), defect makes up the gap."""
    c = 1.0
    graph = flat_graph(c, 8.0)
    spec = QuadSpec(rel_tol=1e-7)
    rhos = [1.8, 2.5, 4.0]
    ratios = [mu_integral(flat, graph, rho, spec) / rho**2 for rho in rhos]
    for rho, ratio in zip(rhos, ratios):
        expected = math.pi * (1.0 - c * c / (rho * rho))
        assert ratio == pytest.approx(expected, rel=1e-4)
    # identity: ratio increment equals defect increment (no boundary term)
    rep = monotonicity_report(flat, graph, rhos, spec)
    for i in (0, 1):
        resid = formula_residual(flat, graph, rhos[i], rhos[i + 1], spec)
        assert abs(resid) <= 1e-5 * ratios[-1]
        assert resid == rep.formula_residuals[i]  # one identity, bit for bit


@pytest.mark.parametrize(
    "surface",
    [flat_graph(1.0, 8.0), tilted_plane(0.3, 0.2, 1.0, t_max=10.0)],
    ids=["flat-graph", "tilted-plane"],
)
def test_monotonicity_report_shares_samples_per_radius(flat, surface):
    """mu and the defect at one radius read one set of chart samples: the
    report's values are those of separate calls bit for bit, from about
    half their chart calls."""
    calls = [0]

    def counted(fn):
        def wrapped(t, s):
            calls[0] += 1
            return fn(t, s)

        return wrapped

    surface = make_general(
        counted(surface.chart),
        surface.t_range,
        surface.s_period,
        chart_t=counted(surface.chart_t),
        chart_s=counted(surface.chart_s),
    )
    rhos = [1.8, 2.5, 4.0]
    spec = QuadSpec(rel_tol=1e-7)
    rep = monotonicity_report(flat, surface, rhos, spec)
    shared, calls[0] = calls[0], 0
    mus = [mu_integral(flat, surface, rho, spec) for rho in rhos]
    defects = [defect_integral(flat, surface, rho, spec) for rho in rhos]
    separate = calls[0]
    assert list(rep.mu_values) == mus
    # m = 0: no boundary term, so each residual is the ratio step less the
    # defect step
    steps = np.diff(rep.ratios)
    for i in (0, 1):
        assert rep.formula_residuals[i] == steps[i] - (defects[i + 1] - defects[i])
    assert shared <= 0.55 * separate


# -------------------------------------------------------------- monotonicity


def test_monotonicity_report_plane(m2):
    plane = make_plane(m2, t_max=1e4)
    grid = np.geomspace(0.2, 200.0, 25)
    rep = monotonicity_report(m2, plane, grid)
    assert rep.monotone
    assert np.all(np.diff(rep.ratios) > 0.0)
    assert rep.boundary_length == pytest.approx(8.0 * math.pi, rel=1e-14)
    assert np.max(np.abs(rep.formula_residuals)) <= 1e-7
    assert rep.max_backstep == 0.0


def test_monotonicity_ratios_approach_pi(m2):
    plane = make_plane(m2, t_max=1e5)
    rho = 2e3
    ratio = mu_integral(m2, plane, rho) / areal_from_distance(m2, rho) ** 2
    assert 0.0 < math.pi - ratio < 1e-4


def test_formula_residual_from_horizon(m2):
    plane = make_plane(m2, t_max=1e4)
    for rho in (1.0, 24.0, 150.0):
        resid = formula_residual(m2, plane, 0.0, rho)
        assert abs(resid) <= 1e-7
        assert resid == monotonicity_report(m2, plane, [0.0, rho]).formula_residuals[0]
    resid = formula_residual(m2, plane, 3.0, 40.0)
    assert resid == monotonicity_report(m2, plane, [3.0, 40.0]).formula_residuals[0]
    with pytest.raises(DomainError):
        formula_residual(m2, plane, 5.0, 5.0)


def test_monotonicity_report_flat_grid_from_zero(flat):
    """At m = 0 the areal radius vanishes at rho = 0; the ratio there is 0."""
    plane = make_plane(flat, t_max=100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = monotonicity_report(flat, plane, [0.0, 1.0, 2.0, 4.0])
    assert rep.ratios[0] == 0.0
    assert np.all(np.isfinite(rep.ratios)) and np.all(np.isfinite(rep.formula_residuals))
    assert np.asarray(rep.ratios[1:]) == pytest.approx(math.pi, rel=1e-12)  # flat plane: pi rho^2 / rho^2


def test_monotonicity_report_validation(m2):
    plane = make_plane(m2, t_max=10.0)
    with pytest.raises(DomainError):
        monotonicity_report(m2, plane, [3.0, 2.0, 1.0])
    with pytest.raises(DomainError):
        monotonicity_report(m2, plane, [1.0])


# ------------------------------------------------- density and boundary bound


def test_density_of_plane_is_one(m2):
    plane = make_plane(m2, t_max=1e4)
    rep = density_at_infinity(m2, plane, 500.0)
    assert rep.converged
    assert rep.theta == pytest.approx(1.0, abs=1e-6)
    assert np.all(np.diff(rep.rhos) > 0.0)


@pytest.mark.parametrize("theta0", [math.pi / 6, 1.0])
def test_density_of_latitude_cone(m2, theta0):
    cone = make_cone(m2, latitude_circle(theta0), t_max=2e3)
    rep = density_at_infinity(m2, cone, 400.0)
    assert rep.converged
    assert rep.theta == pytest.approx(math.sin(theta0), abs=1e-6)


def test_density_needs_rho_max_above_the_mass(m2):
    plane = make_plane(m2, t_max=50.0)
    for rho_max in (1.5, 2.0):
        with pytest.raises(DomainError, match="too small"):
            density_at_infinity(m2, plane, rho_max)


def test_density_flat_plane(flat):
    plane = make_plane(flat, t_max=1e4)
    rep = density_at_infinity(flat, plane, 300.0)
    assert rep.converged
    assert rep.theta == pytest.approx(1.0, abs=1e-10)


def test_boundary_bound_plane(m2):
    plane = make_plane(m2, t_max=2e3)
    rep = boundary_bound_check(m2, plane, 500.0)
    assert rep.bound_satisfied
    assert rep.lhs == pytest.approx(1.0, abs=1e-4)
    assert rep.boundary_term == pytest.approx(1.0, rel=1e-12)
    assert rep.defect_value == 0.0
    assert abs(rep.equality_defect) <= 1e-4
    assert rep.defect_tail_bound <= 1e-4


def test_boundary_bound_latitude_cone(m2):
    theta0 = math.pi / 6
    cone = make_cone(m2, latitude_circle(theta0), t_max=2e3)
    rep = boundary_bound_check(m2, cone, 500.0)
    # both sides scale by sin(theta0); the bound holds with equality
    assert rep.bound_satisfied
    assert rep.lhs == pytest.approx(0.5, abs=1e-4)
    assert rep.boundary_term == pytest.approx(0.5, rel=1e-12)


def catenoid_profile(model, theta0, sigma_max):
    """The minimal surface of revolution that leaves the horizon
    orthogonally at colatitude theta0: its profile (rho, z, psi) in flat
    arc length sigma, for g = u^4 delta with u = 1 + m/2r,

        rho' = cos psi,  z' = sin psi,
        psi' = -sin psi / rho - 2 m (z cos psi - rho sin psi) / (r^3 u),

    from rho + i z = (m/2) e^(i (pi/2 - theta0)) and psi = pi/2 - theta0,
    by scipy's DOP853 (rtol = atol = 1e-13), an integrator the package
    does not use; the dense output of the solution on [0, sigma_max]."""
    from scipy.integrate import solve_ivp

    m = model.mass

    def rhs(sigma, y):
        rho, z, psi = y
        r = math.hypot(rho, z)
        u = 1.0 + 0.5 * m / r
        c, s = math.cos(psi), math.sin(psi)
        return [c, s, -s / rho - 2.0 * m * (z * c - rho * s) / (r**3 * u)]

    y0 = [0.5 * m * math.sin(theta0), 0.5 * m * math.cos(theta0), 0.5 * math.pi - theta0]
    sol = solve_ivp(rhs, (0.0, sigma_max), y0, method="DOP853", rtol=1e-13, atol=1e-13, dense_output=True)
    assert sol.success
    return sol.sol


def catenoid(model, theta0, sigma_max=80.0):
    """The catenoid of :func:`catenoid_profile` as a free-boundary general
    chart (t = sigma, s the angle about the z axis), with its profile."""
    profile = catenoid_profile(model, theta0, sigma_max)

    def chart(t, s):
        rho, z, _ = profile(t)
        return np.array([rho * math.cos(s), rho * math.sin(s), z])

    def chart_t(t, s):
        _, _, psi = profile(t)
        c = math.cos(psi)
        return np.array([c * math.cos(s), c * math.sin(s), math.sin(psi)])

    def chart_s(t, s):
        rho = profile(t)[0]
        return np.array([-rho * math.sin(s), rho * math.cos(s), 0.0])

    surface = make_general(
        chart=chart,
        t_range=(0.0, sigma_max),
        s_period=TWO_PI,
        free_boundary=True,
        chart_t=chart_t,
        chart_s=chart_s,
    )
    return surface, profile


@pytest.mark.parametrize("theta0", [0.5, 1.0, 1.4])
def test_boundary_bound_holds_strictly_on_catenoids(m2, theta0):
    """|boundary| = 4 pi m sin(theta0) < 4 pi m Theta with Theta near 1:
    the bound holds with a margin, though the identity Theta = bterm +
    defect/pi, cut off at rho_max = 40, still misses the defect beyond
    it (at theta0 = 1: 0.997347 against 0.998586).  The bound is what
    bound_satisfied reports; the identity's residual stays in
    equality_defect."""
    surface, profile = catenoid(m2, theta0)
    rho, z, _ = profile(np.linspace(0.0, 80.0, 4001))
    # slice_limit needs |x| monotone along every slice, and the chart
    # must reach past the clip level of rho_max
    r = np.hypot(rho, z)
    assert np.all(np.diff(r) > 0.0)
    assert r[-1] > clip_radius(m2, 40.0)

    rep = boundary_bound_check(m2, surface, 40.0)
    assert rep.boundary_term == pytest.approx(math.sin(theta0), rel=1e-7)
    assert rep.lhs == pytest.approx(1.0, abs=2e-2)
    assert rep.lhs - rep.boundary_term > 1e-2
    assert rep.bound_satisfied
    assert rep.equality_defect == rep.lhs - rep.rhs
    assert rep.equality_defect < 0.0
    if theta0 == 1.0:
        assert rep.lhs == pytest.approx(0.997347, abs=1e-6)
        assert rep.rhs == pytest.approx(0.998586, abs=1e-6)
        assert rep.equality_defect == pytest.approx(-1.24e-3, abs=1e-5)


def test_boundary_longer_than_the_density_fails_the_bound(m2, monkeypatch):
    """A boundary 10 % longer than the plane's 4 pi m breaks |boundary| <=
    4 pi m Theta, and the report says so."""
    from schwsurf import surfaces

    monkeypatch.setattr(surfaces, "boundary_length", lambda *args: 1.1 * boundary_length(*args))
    rep = boundary_bound_check(m2, make_plane(m2, t_max=2e3), 500.0)
    assert rep.boundary_term == pytest.approx(1.1, rel=1e-12)
    assert not rep.bound_satisfied


def test_density_and_bound_invert_each_radius_once(m2, monkeypatch):
    """Each density radius's clip level sizes the reference plane, gives
    h and seeds both area integrals; at rho_max mu and the defect share
    one more: six inversions of the horizon distance, then seven."""
    calls = [0]
    excess = geometry._excess_from_distance

    def counted(*args):
        calls[0] += 1
        return excess(*args)

    monkeypatch.setattr(geometry, "_excess_from_distance", counted)
    plane = make_plane(m2, t_max=2e3)
    density_at_infinity(m2, plane, 1000.0)
    assert calls[0] == 6
    calls[0] = 0
    boundary_bound_check(m2, plane, 1000.0)
    assert calls[0] == 7


@pytest.mark.parametrize("mass, rho", [(2.0, 9e153), (0.0, 1e154)])
def test_cone_integral_times_its_period_must_be_finite(mass, rho):
    """The rule's estimate is finite, but times the period 2 pi it is not:
    that is a QuadratureError, not an inf for the reports to print."""
    model = SchwarzschildModel(mass)
    plane = make_plane(model, t_max=2.0 * clip_radius(model, rho))
    with pytest.raises(QuadratureError, match="times the period"):
        mu_integral(model, plane, rho)
    assert math.isfinite(mu_integral(model, plane, rho / 2.0))


@pytest.mark.parametrize("rho", [2e154, 1e200, 1e300])
@pytest.mark.parametrize("integral", [mu_integral, area_integral])
def test_overflowing_cone_integral_names_its_interval(m2, integral, rho):
    """Past a clip radius of about 1e154 a cone integral overflows the
    doubles: a QuadratureError that names its interval in log(t/t0), with
    no OverflowError on the way and no RuntimeWarning."""
    plane = make_plane(m2, t_max=2.0 * clip_radius(m2, rho))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = r"^cone integral over \[0\.0, \d+\.\d+\] in log\(t/t0\) is not finite$"
        with pytest.raises(QuadratureError, match=message):
            integral(m2, plane, rho)


def test_cone_integral_whose_clip_radius_squares_past_the_doubles(m2):
    """A narrow latitude cone (period 0.63) at a clip radius of 1.5e154 and
    1.8e154, whose square overflows though mu and the area do not: the
    primitives take their lengths in units of a power of 2, so both are
    finite and within 1e-14 of 40-digit primitives."""
    with mpmath.workdps(40):
        primitives = cone_primitives(2.0)
        base = primitives(1)
        for rho in (1.5e154, 1.8e154):
            cone = make_cone(m2, latitude_circle(0.1), 2.0 * clip_radius(m2, rho))
            top = primitives(clip_radius(m2, rho))
            for integral, lo, hi in zip((mu_integral, area_integral), base, top):
                ref = TWO_PI * mpmath.sin(0.1) * (hi - lo)
                assert abs(integral(m2, cone, rho) - ref) <= 1e-14 * ref, (integral.__name__, rho)


@pytest.mark.parametrize("report", ["monotonicity", "density"])
def test_underflowing_areal_square_is_a_numerical_failure(report):
    """At m = 1e-170 the areal radius squares to 0 (and the reference area
    underflows): a QuadratureError, not a ZeroDivisionError or a nan
    ratio."""
    model = SchwarzschildModel(1e-170)
    plane = make_plane(model, t_max=1e-167)
    with pytest.raises(QuadratureError, match="underflows|squares to 0"):
        if report == "monotonicity":
            monotonicity_report(model, plane, [1e-171, 1e-170])
        else:
            density_at_infinity(model, plane, 1e-169)


@pytest.mark.parametrize("report", ["monotonicity", "density"])
def test_subnormal_ratio_parts_are_a_numerical_failure(report):
    """At m = 1e-160 h^2 and the areas are nonzero but subnormal: a ratio
    over them kept a few bits (a first ratio 2.5 % off, nan residuals),
    so the reports raise QuadratureError.  At m = 1e-150 they give the
    numbers of m = 1 within 1e-12."""

    def scale_free(mass):
        model = SchwarzschildModel(mass)
        plane = make_plane(model, t_max=2e3 * mass)
        if report == "monotonicity":
            rep = monotonicity_report(model, plane, [0.1 * mass, mass, 100.0 * mass])
            return rep.ratios + rep.formula_residuals
        rep = density_at_infinity(model, plane, 500.0 * mass)
        return (rep.theta, *rep.ratios)

    with pytest.raises(QuadratureError, match="underflows"):
        scale_free(1e-160)
    for got, want in zip(scale_free(1e-150), scale_free(1.0)):
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


@pytest.mark.parametrize("rho", [-1.0, math.inf, math.nan])
def test_clip_radius_rejects_a_negative_or_infinite_distance(m2, rho):
    with pytest.raises(DomainError, match="finite and >= 0"):
        clip_radius(m2, rho)


# --------------------------------------------------------- filters and misc


def test_clip_radius_inverts_horizon_distance(m2):
    from schwsurf import distance_from_isotropic

    assert clip_radius(m2, 0.0) == 1.0  # horizon sphere, isotropic radius m/2
    for rho in (0.5, 3.0, 88.0):
        assert distance_from_isotropic(m2, clip_radius(m2, rho)) == pytest.approx(
            rho, rel=1e-10
        )


def test_clip_radius_at_the_top_of_the_double_range(m2):
    """The isotropic radius at distance 1e308 is finite, against mpmath on
    ``r = m (sinh w + w)``, ``rho = (m/2) e^w``; no warning on the way."""
    for model in (m2, SchwarzschildModel(0.1)):
        ref = exact_radii(model.mass, 1e308)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = clip_radius(model, np.float64(1e308))
        assert abs(got - ref) <= 1e-15 * ref
    assert clip_radius(m2, np.float64(1e150)) == clip_radius(m2, 1e150)


@pytest.mark.parametrize("rho", [2e154, 1e300])
def test_clip_radius_where_the_areal_radius_squared_overflows(m2, rho):
    """Past s = 1.34e154 the square of the areal radius overflows, but the
    clip radius is finite: against the exact distance inverted in mpmath."""
    m = mpmath.mpf(m2.mass)
    with mpmath.workdps(50):

        def distance(s):
            q = mpmath.sqrt(1 - 2 * m / s)
            return s * q + m * mpmath.log((1 + q) ** 2 * s / (2 * m)) - rho

        s = mpmath.findroot(distance, mpmath.mpf(rho))
        ref = (s - m + mpmath.sqrt(s * (s - 2 * m))) / 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = clip_radius(m2, rho)
    assert math.isfinite(got)
    assert abs(got - ref) <= 1e-12 * ref


def test_rotate_surface_cone_keeps_fast_path(m2):
    cone = make_cone(m2, latitude_circle(0.8), t_max=100.0)
    rotated = rotate_surface(cone, random_rotation(3))
    assert rotated.is_cone
    for rho in (2.0, 20.0):
        assert mu_integral(m2, rotated, rho) == mu_integral(m2, cone, rho)


@pytest.mark.parametrize(
    "rotation",
    [((2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), ((1.0, 0.0), (0.0, 1.0))],
    ids=["scaled", "2x2"],
)
def test_rotate_surface_checks_the_matrix_of_every_chart(m2, flat, rotation):
    """A general chart's rotation is checked as a cone's: a matrix that is
    not orthogonal (it would scale the flat mu at rho = 2 from 8.64 to
    7.85) or not 3x3 is a DomainError."""
    for model, surface in ((flat, flat_graph(1.0, 5.0)), (m2, make_plane(m2, t_max=10.0))):
        with pytest.raises(DomainError, match="rotation must be a 3x3 orthogonal matrix"):
            rotate_surface(surface, rotation)


def test_rotate_surface_general_chart(flat):
    graph = flat_graph(2.0, 5.0)
    Q = random_rotation(9)
    rotated = rotate_surface(graph, Q)
    assert not rotated.is_cone
    p = graph.chart(1.3, 0.4)
    assert rotated.chart(1.3, 0.4) == pytest.approx(Q @ p, abs=1e-14)
    # rotation invariance of the clipped integrals, on the general path
    mu, defect = mu_integral(flat, graph, 4.0), defect_integral(flat, graph, 4.0)
    for seed in (9, 21, 77):
        rotated = rotate_surface(graph, random_rotation(seed))
        assert mu_integral(flat, rotated, 4.0) == pytest.approx(mu, rel=1e-12)
        assert defect_integral(flat, rotated, 4.0) == pytest.approx(defect, rel=1e-12)


@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    theta0=st.floats(0.2, math.pi - 0.2),
    rho=st.floats(0.05, 15.0),
)
def test_general_chart_mu_is_rotation_invariant(seed, theta0, rho):
    """mu of a latitude cone written as a general chart is unchanged by a
    rotation of space, and equals the cone path's 1-D integral, at radii
    that clip the chart (from next to the horizon) and past its end.  Each
    value meets QuadSpec().rel_tol against its own error estimate, so two
    routes may differ by twice that."""
    model = SchwarzschildModel(2.0)
    general = general_cone(model, theta0)
    rel = 2.0 * QuadSpec().rel_tol
    mu = mu_integral(model, general, rho)
    rotated = rotate_surface(general, random_rotation(seed))
    assert mu_integral(model, rotated, rho) == pytest.approx(mu, rel=rel)
    cone = make_cone(model, latitude_circle(theta0), t_max=12.0)
    assert mu_integral(model, cone, rho) == pytest.approx(mu, rel=rel)


def test_scale_covariance_of_measures():
    """Doubling all lengths quadruples areas and doubles boundary length."""
    a = SchwarzschildModel(1.0)
    b = SchwarzschildModel(2.0)
    plane_a = make_plane(a, t_max=500.0)
    plane_b = make_plane(b, t_max=1000.0)
    for rho in (1.0, 10.0):
        assert mu_integral(b, plane_b, 2.0 * rho) == pytest.approx(
            4.0 * mu_integral(a, plane_a, rho), rel=1e-10
        )
    assert boundary_length(b, plane_b) == pytest.approx(
        2.0 * boundary_length(a, plane_a), rel=1e-14
    )
