"""Coordinate conversions, the static potential, and their contracts."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_radii, float_path_outcome
from schwsurf import (
    SchwarzschildModel,
    areal_from_distance,
    areal_from_isotropic,
    asymptotic_defect,
    conformal_exponent,
    distance_from_areal,
    distance_from_isotropic,
    isotropic_from_areal,
    isotropic_from_distance,
    static_potential,
    static_potential_from_isotropic,
)
from schwsurf import geometry
from schwsurf.errors import DomainError, SearchError
from schwsurf.surfaces import clip_radius

# Reference values evaluated independently at 30-digit precision from the
# defining closed forms, rounded to double.
R_OF_S20_M2 = 23.663085720713559  # distance to the sphere s = 20 at m = 2
F_AT_R1E4_M2 = 0.99979965105436941  # static potential at r = 1e4, m = 2
H_AT_R1E4_M2 = 9983.5832063998120  # areal radius at r = 1e4, m = 2


def test_model_horizon_radii(m2):
    assert m2.horizon_rho == 1.0
    assert m2.horizon_areal == 4.0


def test_model_rejects_bad_mass():
    with pytest.raises(DomainError):
        SchwarzschildModel(-1.0)
    with pytest.raises(DomainError):
        SchwarzschildModel(float("nan"))


def test_model_rejects_a_mass_whose_horizon_radius_underflows():
    """5e-324 is positive, but m/2 rounds to 0: no horizon to refer to."""
    with pytest.raises(DomainError, match="underflows to 0$"):
        SchwarzschildModel(5e-324)
    assert SchwarzschildModel(1e-323).horizon_rho == 5e-324


def test_flat_model_rejects_horizon_operations(flat):
    with pytest.raises(DomainError):
        flat.require_horizon("test")
    with pytest.raises(DomainError):
        asymptotic_defect(flat, 10.0)


def test_conformal_exponent_horizon_value(m2):
    # (1 + 1)^4 at rho = m/2
    assert conformal_exponent(m2, 1.0) == 16.0


def test_conformal_exponent_flat_is_one(flat):
    for rho in (0.0, 1.0, 7.3, 1e8):
        assert conformal_exponent(flat, rho) == 1.0


def test_conformal_exponent_far_field(m2):
    # binomial expansion (1 + 1e-6)^4 = 1 + 4e-6 + O(1e-12)
    val = conformal_exponent(m2, 1e6)
    assert abs(val - (1.0 + 4e-6)) < 1e-11


def test_conformal_exponent_inside_horizon_rejected(m2):
    with pytest.raises(DomainError):
        conformal_exponent(m2, 0.999)


def test_areal_from_isotropic_examples(m2, flat):
    assert areal_from_isotropic(m2, 1.0) == 4.0
    assert areal_from_isotropic(flat, 7.0) == 7.0
    assert areal_from_isotropic(m2, 100.0) == pytest.approx(102.01, rel=1e-15)


def test_isotropic_from_areal_examples(m2, flat):
    assert isotropic_from_areal(m2, 4.0) == pytest.approx(1.0, rel=1e-14)
    assert isotropic_from_areal(flat, 7.0) == 7.0
    assert isotropic_from_areal(m2, 102.01) == pytest.approx(100.0, rel=1e-12)
    with pytest.raises(DomainError):
        isotropic_from_areal(m2, 3.999)


def test_distance_from_areal_examples(m2, flat):
    assert distance_from_areal(m2, 4.0) == 0.0
    assert distance_from_areal(flat, 5.0) == 5.0
    assert distance_from_areal(m2, 20.0) == pytest.approx(R_OF_S20_M2, rel=1e-12)
    with pytest.raises(DomainError):
        distance_from_areal(m2, 3.9)


@pytest.mark.parametrize("mass", [2.0, 0.1])
def test_distance_from_areal_near_the_top_of_the_double_range(mass):
    """``(1+q)^2 s/2m`` overflows past s = 4.5e307 at m = 2, and ``s/2m``
    past 3.6e307 at m = 0.1; the distance does not, and its inverse
    recovers s (it stopped where the distance overflowed before)."""
    model = SchwarzschildModel(mass)
    s = 1e308
    with mpmath.workdps(40):
        q = mpmath.sqrt(1 - 2 * mpmath.mpf(mass) / s)
        ref = s * q + mass * mpmath.log((1 + q) ** 2 * s / (2 * mpmath.mpf(mass)))
    r = distance_from_areal(model, s)
    assert abs(r - ref) <= 1e-15 * ref
    assert areal_from_distance(model, r) == pytest.approx(s, rel=1e-15)


def test_distance_near_horizon_series(m2):
    # below the series switch the leading term 2 sqrt(2m (s - 2m)) applies
    s = 4.0 + 1e-12
    gap = s - 4.0  # the gap the map actually sees after rounding
    r = distance_from_areal(m2, s)
    assert r == pytest.approx(2.0 * math.sqrt(2.0 * 2.0 * gap), rel=1e-12)
    # and the inverse recovers the input to the resolution the map allows
    s_back = areal_from_distance(m2, r)
    assert s_back == pytest.approx(s, rel=1e-10)


def test_areal_from_distance_examples(m2, flat):
    assert areal_from_distance(m2, 0.0) == 4.0
    assert areal_from_distance(flat, 9.0) == 9.0
    # residual contract at a large radius: |r(h) - r| <= tol * max(r, m)
    r = 1e3
    h = areal_from_distance(m2, r, tol=1e-12)
    assert abs(distance_from_areal(m2, h) - r) <= 1e-12 * r
    assert h > 4.0
    with pytest.raises(DomainError):
        areal_from_distance(m2, -0.1)
    with pytest.raises(DomainError):
        areal_from_distance(m2, 1.0, tol=0.0)


def test_areal_from_distance_failures(m2, flat, monkeypatch):
    """NaN is outside the domain; inf maps to inf; an inversion whose
    residual turns non-finite raises with it."""
    for model in (m2, flat):
        with pytest.raises(DomainError):
            areal_from_distance(model, math.nan)
    assert areal_from_distance(m2, math.inf) == math.inf
    monkeypatch.setattr(geometry, "_distance", lambda m, d: math.nan)
    with pytest.raises(SearchError) as err:
        areal_from_distance(m2, 10.0)
    assert err.value.diagnostics["r"] == 10.0 and math.isnan(err.value.diagnostics["residual"])


def test_distance_inverse_meets_tol_near_horizon(m2):
    """Near the horizon s - 2m carries about 6 digits, so no double s has
    a distance within tol * max(r, m) = 2e-12 of r = 1e-4 (neighbours
    miss by 3e-11 and 4e-11); the isotropic excess, in which the inverse
    is taken, meets it, and h lands next to the root."""
    r = 1e-4
    rho = isotropic_from_distance(m2, r)
    assert abs(distance_from_isotropic(m2, rho) - r) <= 1e-12 * max(r, m2.mass)
    s = areal_from_distance(m2, r)
    below, above = math.nextafter(s, 0.0), math.nextafter(s, math.inf)
    assert distance_from_areal(m2, below) < r < distance_from_areal(m2, above)


def test_round_trip_areal_isotropic(m2):
    for s in np.geomspace(4.0, 2e6, 60):
        rho = isotropic_from_areal(m2, s)
        assert abs(areal_from_isotropic(m2, rho) - s) <= 1e-10 * s
        rho2 = isotropic_from_areal(m2, areal_from_isotropic(m2, rho))
        assert abs(rho2 - rho) <= 1e-10 * rho


def test_round_trip_distance(m2):
    tol = 1e-12
    for r in np.concatenate([[0.0], np.geomspace(1e-3, 2e6, 50)]):
        h = areal_from_distance(m2, r, tol=tol)
        assert abs(distance_from_areal(m2, h) - r) <= 10.0 * tol * max(r, 2.0)


def test_maps_strictly_increasing(m2):
    rhos = np.geomspace(1.0, 1e5, 120)
    s_vals = [areal_from_isotropic(m2, x) for x in rhos]
    assert all(b > a for a, b in zip(s_vals, s_vals[1:]))

    s_grid = np.geomspace(4.0, 1e5, 120)
    r_vals = [distance_from_areal(m2, s) for s in s_grid]
    assert all(b > a for a, b in zip(r_vals, r_vals[1:]))

    r_grid = np.geomspace(1e-2, 1e5, 120)
    h_vals = [areal_from_distance(m2, r) for r in r_grid]
    f_vals = [static_potential(m2, r) for r in r_grid]
    assert all(b > a for a, b in zip(h_vals, h_vals[1:]))
    assert all(b > a for a, b in zip(f_vals, f_vals[1:]))


def test_static_potential_values(m2, flat):
    assert static_potential(m2, 0.0) == 0.0
    assert static_potential(flat, 123.0) == 1.0
    assert static_potential(m2, 1e4) == pytest.approx(F_AT_R1E4_M2, rel=1e-11)
    assert areal_from_distance(m2, 1e4) == pytest.approx(H_AT_R1E4_M2, rel=1e-11)


def test_static_potential_range(m2):
    for r in np.geomspace(1e-4, 1e6, 80):
        f = static_potential(m2, r)
        assert 0.0 < f < 1.0


def test_static_potential_isotropic_form_agrees(m2):
    # (1 - m/2rho)/(1 + m/2rho) against the h-inversion route
    for rho in np.geomspace(1.0, 1e4, 40):
        direct = static_potential_from_isotropic(m2, rho)
        via_r = static_potential(m2, distance_from_isotropic(m2, rho))
        assert direct == pytest.approx(via_r, rel=1e-10, abs=1e-12)
    assert static_potential_from_isotropic(m2, 1.0) == 0.0


def test_asymptotic_defect_decreasing(m2):
    m = m2.mass
    vals = [asymptotic_defect(m2, 10.0**n * m) for n in range(2, 6)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < vals[0]


def test_flat_degeneration_is_identity(flat):
    for x in (0.0, 0.5, 3.0, 1e5):
        assert areal_from_isotropic(flat, x) == x
        assert isotropic_from_areal(flat, x) == x
        assert distance_from_areal(flat, x) == x
        assert areal_from_distance(flat, x) == x
        assert static_potential(flat, x) == 1.0


def test_scale_covariance_of_lengths():
    """Doubling the mass doubles every length-valued output."""
    a = SchwarzschildModel(1.0)
    b = SchwarzschildModel(2.0)
    for s in np.geomspace(2.0, 1e4, 25):
        assert distance_from_areal(b, 2.0 * s) == pytest.approx(
            2.0 * distance_from_areal(a, s), rel=1e-12
        )
        assert isotropic_from_areal(b, 2.0 * s) == pytest.approx(
            2.0 * isotropic_from_areal(a, s), rel=1e-12
        )
    for r in np.geomspace(0.01, 1e4, 25):
        assert areal_from_distance(b, 2.0 * r) == pytest.approx(
            2.0 * areal_from_distance(a, r), rel=1e-10
        )
        # the potential is dimensionless and scale-invariant
        assert static_potential(b, 2.0 * r) == pytest.approx(
            static_potential(a, r), rel=1e-10
        )


@pytest.mark.parametrize("mass", [0.1, 2.0])
def test_radial_maps_against_mpmath(mass):
    """h, the isotropic radius and f within 1e-15 relative at 20 distances
    from 1e-12 m to 1e300 m, the horizon neighbourhood included."""
    model = SchwarzschildModel(mass)
    for exponent in np.linspace(-12.0, 300.0, 20):
        r = mass * 10.0**exponent
        rho, s, f = exact_radii(mass, r)
        for got, want in (
            (isotropic_from_distance(model, r), rho),
            (areal_from_distance(model, r), s),
            (static_potential(model, r), f),
        ):
            assert abs(got - want) <= 1e-15 * want, (r, got, want)


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(
    log_m=st.floats(-3.0, 3.0),
    log_ratio=st.floats(-12.0, 290.0),
    log2_mu=st.integers(-3, 3),
)
def test_radial_maps_are_scale_covariant_and_increasing(log_m, log_ratio, log2_mu):
    """Rescaling (m, r) by a power of two rescales h and the clip radius
    and keeps f, to the bit; the distance of the isotropic radius is r to
    4 ulps of max(r, m) (the isotropic radius near the horizon is rounded
    to ulps of m/2); doubling r increases each map, f strictly until it
    rounds to 1."""
    m, mu = 10.0**log_m, 2.0**log2_mu
    r = m * 10.0**log_ratio
    model, scaled = SchwarzschildModel(m), SchwarzschildModel(mu * m)
    assert areal_from_distance(scaled, mu * r) == mu * areal_from_distance(model, r)
    assert clip_radius(scaled, mu * r) == mu * clip_radius(model, r)
    assert static_potential(scaled, mu * r) == static_potential(model, r)
    rho = isotropic_from_distance(model, r)
    assert abs(distance_from_isotropic(model, rho) - r) <= 4.0 * math.ulp(max(r, m))
    assert areal_from_distance(model, r) < areal_from_distance(model, 2.0 * r)
    assert rho < clip_radius(model, 2.0 * r)
    f, f_2r = static_potential(model, r), static_potential(model, 2.0 * r)
    assert f < f_2r if r < 1e12 * m else f <= f_2r


# a radial map, the horizon multiple of m where its radius starts
RADIAL_MAPS = (
    (conformal_exponent, 0.5),
    (areal_from_isotropic, 0.5),
    (distance_from_isotropic, 0.5),
    (static_potential_from_isotropic, 0.5),
    (isotropic_from_areal, 2.0),
    (distance_from_areal, 2.0),
    (isotropic_from_distance, 0.0),
    (areal_from_distance, 0.0),
    (static_potential, 0.0),
    (asymptotic_defect, 0.0),
)


def test_model_stores_its_mass_as_a_float():
    """As ``ModeParams`` does for ``lam``: a numpy or integer mass is stored
    as the float it holds (so ``repr`` reads ``mass=2.0``), and the horizon
    test reads it without a second validation."""
    model = SchwarzschildModel(np.float64(2.0))
    assert type(model.mass) is float and model == SchwarzschildModel(2.0)
    assert repr(SchwarzschildModel(2)) == "SchwarzschildModel(mass=2.0)"
    assert type(SchwarzschildModel(np.float64(0.0)).mass) is float
    with pytest.raises(DomainError, match="mass must be finite"):
        SchwarzschildModel(np.float64(-1.0))


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(m=st.sampled_from([0.0, 2.0]) | st.floats(1e-3, 1e3), stretch=st.floats(0.0, 1e6))
def test_radial_maps_compute_on_floats(m, stretch):
    """A numpy scalar mass and radius give a Python float with the bits of
    the float inputs' value (and a rejected radius the same error)."""
    model, np_model = SchwarzschildModel(m), SchwarzschildModel(np.float64(m))
    for f, horizon in RADIAL_MAPS:
        for x in (horizon * m + stretch * max(m, 1.0), -1.0):
            want, got = float_path_outcome(f, model, x), float_path_outcome(f, np_model, np.float64(x))
            assert type(got) is type(want) and repr(got) == repr(want), (f.__name__, x)
            assert type(want) is float or want[0] is DomainError
