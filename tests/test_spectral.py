"""Eigenvalue search, oscillation counts, Morse index, Rayleigh quotient."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schwsurf import (
    ModeParams,
    SchwarzschildModel,
    closed_form_v0,
    eigenfunction,
    eigenvalues_shooting,
    integrate_v,
    morse_index,
    negative_count,
    rayleigh_quotient,
    richardson_lowest,
    stability_radius,
)
from conftest import R_STAR_M2
from schwsurf import spectral
from schwsurf.errors import DomainError, IntegrationError, PreconditionError, SearchError
from schwsurf.mode_odes import miss_distance
from schwsurf.roots import brentq
from schwsurf.spectral import interior_zero_count

LAMBDA_TOL = 1e-9  # mass-squared units, the search default
ODE_TOL = 1e-10


@pytest.fixture(scope="module")
def spec20(m2):
    """Three lowest radial eigenvalues at R = 20, shared by several tests."""
    return eigenvalues_shooting(m2, 0, 20.0, 3, tol=LAMBDA_TOL, ode_tol=ODE_TOL)


# ------------------------------------------------------------ stability radius


def test_stability_radius_value_and_residual(m2):
    R = stability_radius(m2, tol=1e-12)
    assert R == pytest.approx(R_STAR_M2, rel=1e-13)
    assert 5.50 <= R / m2.mass <= 5.52
    assert abs(closed_form_v0(m2, R)) <= 1e-8


def test_stability_radius_residual_above_tol_raises(m2):
    """No double root has a residual of 1e-300: the search reports the
    root and its residual instead of returning it."""
    with pytest.raises(SearchError, match="residual above tolerance") as info:
        stability_radius(m2, tol=1e-300)
    assert info.value.diagnostics["root"] == pytest.approx(R_STAR_M2, rel=1e-12)
    assert abs(info.value.diagnostics["residual"]) > 1e-300


def test_stability_radius_scale_covariance():
    a = stability_radius(SchwarzschildModel(1.0))
    b = stability_radius(SchwarzschildModel(2.0))
    assert b == pytest.approx(2.0 * a, rel=1e-13)


def test_stability_radius_validation(m2):
    with pytest.raises(DomainError):
        stability_radius(m2, tol=0.0)


# ----------------------------------------------------------- counting machinery


def test_negative_count_dichotomy(m2):
    m = m2.mass
    for ratio in (1.5, 3.0, 5.4):
        assert negative_count(m2, 0, ratio * m) == 0
    for ratio in (5.6, 10.0):
        assert negative_count(m2, 0, ratio * m) == 1
    assert negative_count(m2, 1, 40.0) == 0


def test_negative_count_stable_at_the_critical_radius(m2):
    """At R exactly the stability radius the boundary zero is not interior."""
    R = stability_radius(m2)
    assert negative_count(m2, 0, R) == 0
    assert negative_count(m2, 0, R + 0.01) == 1


def test_interior_zero_count_boundary_band(m2):
    R = stability_radius(m2)
    sol = integrate_v(ModeParams(m2, 0, 0.0, R), tol=ODE_TOL)
    assert interior_zero_count(sol, R, ODE_TOL) == 0


# ------------------------------------------------------------------- spectrum


def test_spectrum_strictly_increasing(spec20):
    lams = spec20.lambdas()
    assert len(lams) == 3
    assert np.all(np.diff(lams) > 0.0)
    assert lams[0] < 0.0 < lams[1]  # R/m = 10 has exactly one unstable mode


def test_spectrum_metadata(spec20, m2):
    assert spec20.method == "shooting"
    assert spec20.R == 20.0
    assert [e.n for e in spec20.entries] == [1, 2, 3]
    assert all(e.k == 0 for e in spec20.entries)
    # the probe count is deterministic: the same search shoots the same lams
    again = eigenvalues_shooting(m2, 0, 20.0, 3, tol=LAMBDA_TOL, ode_tol=ODE_TOL)
    assert spec20.probes == again.probes > 0


def test_spectrum_terminal_condition(spec20, m2):
    """Re-shot terminal values are zero to bracket-width times slope."""
    m = m2.mass
    for e in spec20.entries:
        lam_raw = e.lam / (m * m)
        sol = integrate_v(ModeParams(m2, 0, lam_raw, 20.0), tol=ODE_TOL)
        # local sensitivity of the terminal value to the eigenvalue
        d = 1e-6
        lo = integrate_v(ModeParams(m2, 0, lam_raw - d, 20.0), tol=ODE_TOL)
        hi = integrate_v(ModeParams(m2, 0, lam_raw + d, 20.0), tol=ODE_TOL)
        slope = abs(hi.v(hi.r_max) - lo.v(lo.r_max)) / (2.0 * d)
        band = LAMBDA_TOL / (m * m)
        sup_abs_v = np.max(np.abs(sol.values(sol.nodes_r)[0]))
        assert abs(sol.v(sol.r_max)) <= 4.0 * slope * band + 1e-12 * sup_abs_v


def test_oscillation_consistency_around_eigenvalues(spec20, m2):
    """Interior zero count jumps by one across each reported eigenvalue."""
    m = m2.mass
    for e in spec20.entries:
        for sign, expect in ((-1.0, e.n - 1), (+1.0, e.n)):
            lam_raw = (e.lam + sign * 10.0 * LAMBDA_TOL) / (m * m)
            sol = integrate_v(ModeParams(m2, 0, lam_raw, 20.0), tol=ODE_TOL)
            count = math.floor(sol.phase(20.0) / math.pi)
            assert count == expect, (e.n, sign, count)


def test_nonradial_spectrum_positive(m2):
    spec = eigenvalues_shooting(m2, 1, 20.0, 1)
    assert spec.lambdas()[0] > 0.0


def test_upper_bracket_doubles_across_wide_gaps(m2):
    # at R = 1.5 m the gaps between high eigenvalues pass the start step
    # (pi/(R - m/2))^2 = 9.9/m^2, so the upper bracket must double; FD
    # Richardson is the oracle
    shoot = eigenvalues_shooting(m2, 0, 3.0, 5).lambdas()
    assert np.max(np.diff(shoot)) > 10.0
    fd = richardson_lowest(m2, 0, 3.0, 1024, 5)
    assert np.max(np.abs(shoot - fd) / np.abs(fd)) <= 1e-8


def test_spectrum_search_validation(m2):
    with pytest.raises(DomainError):
        eigenvalues_shooting(m2, 0, 20.0, 0)
    with pytest.raises(DomainError):
        eigenvalues_shooting(m2, 0, 0.5, 1)
    with pytest.raises(DomainError):
        eigenvalues_shooting(m2, 0, 20.0, 1, tol=-1e-9)


def test_spectrum_scale_covariance():
    """Eigenvalues in mass-squared units are invariant under rescaling."""
    a = eigenvalues_shooting(SchwarzschildModel(1.0), 0, 10.0, 2)
    b = eigenvalues_shooting(SchwarzschildModel(2.0), 0, 20.0, 2)
    assert b.lambdas() == pytest.approx(a.lambdas(), rel=1e-6, abs=1e-9)


# ------------------------------------------------------- two-sided shooting


def one_sided_eigenvalue(model, k, R, n):
    """Reference route: the root of the horizon shot's phase alone,
    ``theta(R; lam) = n pi``, in mass-squared units.  The phase increases
    with lam, so ``lam_n`` is its only root between the lower bound
    ``-1/8`` of the spectrum and ``1``; where the phase jumps across a
    narrow window, Brent's method bisects there."""
    mass_sq = model.mass**2

    def residual(lam):
        return integrate_v(ModeParams(model, k, lam, R), tol=ODE_TOL).phase(R) - n * math.pi

    lam = brentq(
        residual, -0.125 / mass_sq, 1.0 / mass_sq, xtol=LAMBDA_TOL / mass_sq, rtol=8.0 * np.finfo(float).eps
    )
    return lam * mass_sq


@pytest.mark.parametrize("R", [40.0, 200.0])  # 20 m and 100 m
@pytest.mark.parametrize("k", [0, 1])
def test_two_sided_shooting_matches_one_sided_reference(m2, k, R):
    lams = eigenvalues_shooting(m2, k, R, 2).lambdas()
    ref = [one_sided_eigenvalue(m2, k, R, n) for n in (1, 2)]
    assert np.max(np.abs(lams - ref)) <= 2.0 * LAMBDA_TOL


def test_miss_distance_roots_do_not_depend_on_the_matching_radius(m2):
    R = 40.0
    mass_sq = m2.mass**2
    for n in (1, 2):
        found = []
        for r_c in (1.5, 8.0, 30.0):

            def residual(lam):
                return miss_distance(ModeParams(m2, 0, lam, R), r_c, tol=ODE_TOL) - n * math.pi

            lam = brentq(residual, -0.125 / mass_sq, 1.0 / mass_sq, xtol=1e-13, rtol=8.0 * np.finfo(float).eps)
            found.append(lam * mass_sq)
        assert max(found) - min(found) <= LAMBDA_TOL, (n, found)


def test_miss_distance_validation(m2):
    params = ModeParams(m2, 0, 0.0, 20.0)
    for r_c in (1.0, 20.0, 0.5, 25.0):
        with pytest.raises(DomainError):
            miss_distance(params, r_c)


@pytest.mark.parametrize(
    "miss, message",
    [(0.0, "upper bracket expansion failed"), (10.0, "no probe below the eigenvalue")],
    ids=["never-above", "never-below"],
)
def test_search_errors_carry_their_diagnostics(m2, monkeypatch, miss, message):
    """A miss-distance that never exceeds pi cannot be bracketed from
    above; one that exceeds it at every probe, the spectrum's lower bound
    among them, has no probe below the first eigenvalue."""
    monkeypatch.setattr(spectral, "miss_distance", lambda params, r_c, tol: miss)
    with pytest.raises(SearchError, match=message) as info:
        eigenvalues_shooting(m2, 0, 20.0, 1)
    assert info.value.diagnostics["k"] == 0 and info.value.diagnostics["n"] == 1
    assert info.value.diagnostics["miss"] == miss


def test_search_at_100m_takes_few_probes(m2, monkeypatch):
    """The one-sided search took 35 shots here, bisecting across the jump."""
    shot = []

    def counted(params, r_c, tol):
        shot.append(params.lam)
        return miss_distance(params, r_c, tol=tol)

    monkeypatch.setattr(spectral, "miss_distance", counted)
    spec = eigenvalues_shooting(m2, 0, 200.0, 1)
    assert spec.probes == len(shot) == len(set(shot))
    assert spec.probes <= 20


def test_eigenvalues_at_the_index_truncation(m2):
    """At R = 1e3 m, lam_1 has converged to its value at 100 m, and the
    spectrum's sign change agrees with the Morse count."""
    far = eigenvalues_shooting(m2, 0, 2000.0, 2).lambdas()
    mid = eigenvalues_shooting(m2, 0, 200.0, 1).lambdas()
    assert abs(far[0] - mid[0]) <= 2e-9
    assert far[0] < 0.0 < far[1]
    assert morse_index(m2, R=2000.0, kmax=0).morse_index == 1


@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(
    mass=st.floats(0.3, 5.0),
    ratio=st.floats(3.0, 30.0),
    f=st.floats(1.05, 2.0),
    k=st.integers(0, 2),
)
def test_eigenvalues_fall_as_the_domain_grows(mass, ratio, f, k):
    """Domain monotonicity, lam_n(f R) < lam_n(R) for f > 1 and n = 1, 2:
    the Dirichlet problem on [m/2, R] is a restriction of the one on
    [m/2, f R].  The smallest gap of these draws, 1.0e-5 in mass-squared
    units (6.8e-6 over 30 draws), is far above the search's 1e-9."""
    model = SchwarzschildModel(mass)
    R = ratio * mass
    small = eigenvalues_shooting(model, k, R, 2).lambdas()
    large = eigenvalues_shooting(model, k, f * R, 2).lambdas()
    assert np.all(large < small), (small, large)


# -------------------------------------------------------------- eigenfunctions


def test_first_eigenfunction_shape(spec20, m2):
    lam1 = spec20.lambdas()[0]
    r, u, up = eigenfunction(m2, 0, 20.0, lam1)
    assert r[0] == 1.0 and r[-1] == 20.0
    assert u[0] > 0.0
    # ground state: no interior sign change; the terminal sample may sit
    # within roundoff of zero on either side
    assert np.all(u[:-1] > 0.0)
    assert abs(u[-1]) <= 1e-6 * np.max(np.abs(u))


def test_eigenfunction_normalization(spec20, m2):
    lam1 = spec20.lambdas()[0]
    r, u, up = eigenfunction(m2, 0, 20.0, lam1)
    w = (1.0 + 1.0 / r) ** 4 * r
    # trapezoid on 2001 samples carries its own O(h^2) error of a few 1e-6
    norm = np.trapezoid(u * u * w, r)
    assert norm == pytest.approx(1.0, rel=1e-5)


def test_second_eigenfunction_has_one_interior_zero(spec20, m2):
    lam2 = spec20.lambdas()[1]
    r, u, up = eigenfunction(m2, 0, 20.0, lam2)
    interior = u[:-1]
    signs = np.sign(interior[np.abs(interior) > 1e-8 * np.max(np.abs(u))])
    flips = np.sum(signs[1:] != signs[:-1])
    assert flips == 1


# ------------------------------------------------------------ Rayleigh quotient


def test_rayleigh_reproduces_eigenvalue(spec20, m2):
    lam1 = spec20.lambdas()[0]
    r, u, up = eigenfunction(m2, 0, 20.0, lam1)
    q = rayleigh_quotient(m2, 20.0, r, u, up)
    assert q == pytest.approx(lam1, rel=1e-4)


def test_rayleigh_of_critical_closed_form_vanishes(m2):
    """The explicit radial solution is the null direction at the critical R."""
    R = stability_radius(m2)
    r = np.linspace(1.0, R, 4001)
    u = np.array([closed_form_v0(m2, x) for x in r]) / np.sqrt(r)
    q = rayleigh_quotient(m2, R, r, u)
    assert abs(q) <= 1e-8


def test_rayleigh_positive_battery_inside_critical_radius(m2):
    """The quadratic form is positive on a 20-function battery at R = 3."""
    R = 3.0
    r = np.linspace(1.0, R, 801)
    x = (r - 1.0) / (R - 1.0)  # normalized coordinate in [0, 1]
    battery = []
    for j in range(1, 11):
        battery.append(np.sin(np.pi * j * x))  # vanishes at both ends
    for j in range(1, 6):
        battery.append((1.0 - x) * np.cos(2.3 * j * x))  # nonzero at horizon
    for j in range(1, 6):
        battery.append((1.0 - x) ** j * (1.0 + 0.5 * x))
    assert len(battery) == 20
    for u in battery:
        q = rayleigh_quotient(m2, R, r, np.asarray(u))
        assert q > 0.0


def test_rayleigh_validation(m2):
    r = np.linspace(1.0, 3.0, 101)
    u = np.ones_like(r)
    with pytest.raises(Exception):
        rayleigh_quotient(m2, 3.0, r, u)  # does not vanish at R
    with pytest.raises(Exception):
        rayleigh_quotient(m2, 3.0, r[:4], u[:4])  # too few samples
    with pytest.raises(Exception):
        rayleigh_quotient(m2, 3.0, r + 1.0, (1.0 - (r - 1.0) / 2.0))  # wrong span
    vanishing = 1.0 - (r - 1.0) / 2.0
    with pytest.raises(PreconditionError, match="strictly increasing"):
        rayleigh_quotient(m2, 3.0, r[::-1], vanishing)
    with pytest.raises(PreconditionError, match="strictly increasing"):
        rayleigh_quotient(m2, 3.0, np.r_[r[:50], r[49:-1]], vanishing)  # a repeated node
    with pytest.raises(PreconditionError, match="vanishes identically"):
        rayleigh_quotient(m2, 3.0, r, np.zeros_like(r))


@pytest.mark.parametrize("where", [0, 40, 100])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rayleigh_rejects_samples_that_are_not_finite(m2, where, bad):
    """A NaN passes every comparison of the other preconditions, so the
    quotient would come back NaN; an infinity would give inf/inf."""
    r = np.linspace(1.0, 3.0, 101)
    u = 1.0 - (r - 1.0) / 2.0
    up = np.full_like(r, -0.5)
    assert math.isfinite(rayleigh_quotient(m2, 3.0, r, u, up))
    u_bad, up_bad = u.copy(), up.copy()
    u_bad[where] = bad
    up_bad[where] = bad
    with pytest.raises(PreconditionError, match="u must be finite"):
        rayleigh_quotient(m2, 3.0, r, u_bad)
    with pytest.raises(PreconditionError, match="u_prime must be finite"):
        rayleigh_quotient(m2, 3.0, r, u, up_bad)
    r_bad = r.copy()
    r_bad[where] = bad
    with pytest.raises(PreconditionError, match="strictly increasing|must span"):
        rayleigh_quotient(m2, 3.0, r_bad, u)


@pytest.mark.parametrize("shape", [(100,), (102,), (101, 1), (1, 101)])
def test_rayleigh_rejects_u_prime_of_another_shape(m2, shape):
    """Another length failed in numpy's broadcast and a column in einsum,
    with their own errors."""
    r = np.linspace(1.0, 3.0, 101)
    u = 1.0 - (r - 1.0) / 2.0
    with pytest.raises(PreconditionError, match="u_prime has shape"):
        rayleigh_quotient(m2, 3.0, r, u, np.full(shape, -0.5))


def test_derivative_samples_match_per_sample_quartic_fits():
    """The closed-form stencil weights against one np.polyfit per sample as
    the reference, on an uneven grid; exact on a quartic."""
    r = np.geomspace(1.0, 40.0, 301)
    g = np.sin(r) * np.exp(-r / 15.0)
    ref = np.empty_like(r)
    for i in range(len(r)):
        j = min(max(i - 2, 0), len(r) - 5)
        x0 = r[j + 2]
        coef = np.polyfit(r[j : j + 5] - x0, g[j : j + 5], 4)
        ref[i] = np.polyval(np.polyder(coef), r[i] - x0)
    got = spectral._slope_operator(r)(g)
    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))
    quartic = spectral._slope_operator(r)((r - 3.0) ** 4 - 2.0 * r)
    assert quartic == pytest.approx(4.0 * (r - 3.0) ** 3 - 2.0, rel=1e-9, abs=1e-9)
    with pytest.raises(PreconditionError):
        spectral._slope_operator(r[:4])


# deterministic and small, so the properties cost well under a second
PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, database=None, derandomize=True)


@st.composite
def increasing_grids(draw):
    """A strictly increasing grid of 5-40 samples: gaps within a factor 20
    of each other, at a scale from 1e-3 to 1e3 and an offset of a few widths."""
    n = draw(st.integers(5, 40))
    gaps = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1)))
    t = np.concatenate([[0.0], np.cumsum(gaps)]) / np.sum(gaps)
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    offset = draw(st.floats(-5.0, 5.0))
    return scale * (offset + t), scale


@PROPERTY_SETTINGS
@given(
    grid=increasing_grids(),
    coef=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    lead=st.floats(0.25, 1.0),
    centre=st.floats(0.0, 1.0),
)
def test_stencil_is_exact_on_random_quartics(grid, coef, lead, centre):
    """Any quartic is differentiated exactly, up to rounding, on any grid."""
    r, scale = grid
    c = r[0] + centre * (r[-1] - r[0])
    a = np.array(coef + [lead])  # a_0 .. a_4 in the coordinate (r - c)/scale
    t = (r - c) / scale
    g = np.polynomial.polynomial.polyval(t, a)
    ref = np.polynomial.polynomial.polyval(t, a[1:] * np.arange(1, 5)) / scale
    got = spectral._slope_operator(r)(g)
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


BATTERY = {
    "sine": lambda x, j: np.sin(np.pi * j * x),
    "cosine": lambda x, j: (1.0 - x) * np.cos(2.3 * j * x),
    "power": lambda x, j: (1.0 - x) ** j * (1.0 + 0.5 * x),
}


@PROPERTY_SETTINGS
@given(
    family=st.sampled_from(sorted(BATTERY)),
    j=st.integers(1, 5),
    mass=st.floats(0.5, 4.0),
    ratio=st.floats(0.75, 4.0),
    log_mu=st.floats(-2.0, 2.0),
)
def test_rayleigh_quotient_is_scale_covariant(family, j, mass, ratio, log_mu):
    """Rescaling m, R and the samples by mu leaves the quotient in m^2 units."""
    mu = 10.0**log_mu
    R = ratio * mass
    r = np.linspace(0.5 * mass, R, 401)
    u = BATTERY[family]((r - r[0]) / (R - r[0]), j)  # vanishes at R
    q = rayleigh_quotient(SchwarzschildModel(mass), R, r, u)
    q_mu = rayleigh_quotient(SchwarzschildModel(mu * mass), mu * R, mu * r, u)
    assert q_mu == pytest.approx(q, rel=1e-10, abs=0.0)


@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(
    mass=st.floats(0.3, 5.0),
    ratio=st.floats(3.0, 30.0),
    k=st.integers(0, 2),
    log2_mu=st.integers(-3, 3),
)
def test_spectra_are_scale_covariant_by_both_routes(mass, ratio, k, log2_mu):
    """Rescaling m and R by a power of two leaves both spectra in m^2 units.

    The FD eigenvalues carry rounding of about 1e-11 absolute, and the
    radial lam_1 passes through zero at R = R*: they are compared to 1e-9
    relative, floored at 1e-10 absolute."""
    mu = 2.0**log2_mu
    model, scaled = SchwarzschildModel(mass), SchwarzschildModel(mu * mass)
    R = ratio * mass
    shoot = eigenvalues_shooting(model, k, R, 2).lambdas()
    shoot_mu = eigenvalues_shooting(scaled, k, mu * R, 2).lambdas()
    assert np.max(np.abs(shoot_mu - shoot)) <= 1e-12
    fd = richardson_lowest(model, k, R, n=256, how_many=2)
    fd_mu = richardson_lowest(scaled, k, mu * R, n=256, how_many=2)
    assert fd_mu == pytest.approx(fd, rel=1e-9, abs=1e-10)


def _spectral_numbers(m):
    """Every spectral number at mass ``m``, radii given as multiples of m:
    shooting eigenvalues and probe counts, negative counts, FD Richardson
    values, the Morse sweep and R*/m."""
    model = SchwarzschildModel(m)
    out = []
    for k, ratio in ((0, 10.0), (1, 40.0), (0, 1000.0)):
        spec = eigenvalues_shooting(model, k, ratio * m, 2)
        out.append((spec.lambdas().tolist(), spec.probes))
        out.append(negative_count(model, k, ratio * m))
        out.append(richardson_lowest(model, k, ratio * m, n=256, how_many=2))
    report = morse_index(model, R=2000.0 * m, kmax=2)
    out.append((report.per_mode_negative_counts, report.morse_index))
    out.append(stability_radius(model) / m)
    return out


@pytest.mark.parametrize("j", [-1000, -1, 1, 1000])
def test_spectra_at_powers_of_two_are_those_at_unit_mass(j):
    """Every mode problem is solved as the m = 1 one on R/m, and R/m and
    m X are exact at m = 2^j: each number equals its m = 1 value with ==,
    from 2^-1000 (where m^2 underflows to 0) to 2^1000 (where it
    overflows)."""
    assert _spectral_numbers(2.0**j) == _spectral_numbers(1.0)


def test_a_failed_shot_names_its_raw_radius():
    """At m = 1e-300 the k = 2 spectrum to R = 87352 is the m = 1 spectrum
    to 8.7e304, whose first probe above lam = 0 fails at R, where
    (r + 1/2)^2 overflows and lam (r + 1/2)^4 / r^2 with it; the error
    names the raw radius m r."""
    with pytest.raises(IntegrationError) as unit:
        eigenvalues_shooting(SchwarzschildModel(1.0), 2, 8.7352e304, 1)
    with pytest.raises(IntegrationError) as info:
        eigenvalues_shooting(SchwarzschildModel(1e-300), 2, 87352.0, 1)
    assert info.value.last_r == 1e-300 * unit.value.last_r
    assert str(info.value) == f"step size underflow at r = {info.value.last_r}"


# ----------------------------------------------------------------- Morse index


def test_morse_index_single_jump(m2):
    """The index goes 0 -> 1 exactly between 5.4 m and 5.6 m and stays 1."""
    m = m2.mass
    ratios = [1.1, 2.0, 4.0, 5.4, 5.6, 8.0, 20.0, 100.0]
    indices = []
    for ratio in ratios:
        rep = morse_index(m2, R=ratio * m, kmax=5)
        indices.append(rep.morse_index)
        # every nonradial mode must stay stable
        for k, c in rep.per_mode_negative_counts.items():
            if k != 0:
                assert c == 0, (ratio, k, c)
    assert indices == [0, 0, 0, 0, 1, 1, 1, 1]


def test_morse_index_default_truncation(m2):
    rep = morse_index(m2, kmax=5)
    assert rep.R == 2e3
    assert rep.morse_index == 1
    assert rep.per_mode_negative_counts[0] == 1
    assert set(rep.per_mode_negative_counts) == set(range(-5, 6))


@pytest.mark.parametrize("ratio", [1e4, 1e6, 1e7])
def test_morse_index_one_at_far_truncations(m2, ratio):
    """The index claim holds out where it is made, not just at 1e3 m."""
    rep = morse_index(m2, R=ratio * m2.mass, kmax=5)
    assert rep.morse_index == 1
    assert rep.per_mode_negative_counts[0] == 1
    assert all(c == 0 for k, c in rep.per_mode_negative_counts.items() if k != 0)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    mass=st.floats(0.3, 5.0),
    log_ratio=st.floats(math.log(0.51), math.log(3000.0), exclude_min=True, exclude_max=True),
)
def test_index_is_one_exactly_beyond_the_stability_radius(mass, log_ratio):
    """The index dichotomy: 1 for R > R*, 0 below, with a negative count
    that does not increase with |k|.  Draws within a relative 1e-4 of R*
    are left out, so that no draw rests on the sign of a nearly zero lam_1."""
    ratio = math.exp(log_ratio)
    r_star_over_m = 0.5 * R_STAR_M2
    assume(abs(ratio / r_star_over_m - 1.0) >= 1e-4)
    rep = morse_index(SchwarzschildModel(mass), R=ratio * mass, kmax=3)
    assert rep.morse_index == (1 if ratio > r_star_over_m else 0)
    counts = [rep.per_mode_negative_counts[k] for k in range(4)]
    assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_morse_index_rejects_count_growing_with_k(m2, monkeypatch):
    """Sturm comparison: a count that grows with |k| is a numerical failure."""
    monkeypatch.setattr(spectral, "negative_count", lambda model, k, R, tol: int(k == 2))
    with pytest.raises(SearchError) as info:
        morse_index(m2, R=20.0, kmax=3)
    assert info.value.diagnostics["counts"] == {0: 0, 1: 0, 2: 1, 3: 0}


def test_morse_index_threaded_matches_serial(m2):
    serial = morse_index(m2, R=12.0, kmax=3, workers=1)
    threaded = morse_index(m2, R=12.0, kmax=3, workers=2)
    assert serial.per_mode_negative_counts == threaded.per_mode_negative_counts
    assert serial.morse_index == threaded.morse_index


def test_morse_index_validation(m2):
    with pytest.raises(DomainError):
        morse_index(m2, R=20.0, kmax=-1)
