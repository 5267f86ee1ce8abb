"""Radial mode ODE: shooting, closed forms, barriers, blow-up radii.

The closed forms are the anti-bug oracles for the integrator and vice
versa; the finite-difference residual grids check both against the
defining equations rather than against each other.
"""

import math

import numpy as np
import pytest

from schwsurf import (
    ModeParams,
    SchwarzschildModel,
    barrier_envelope,
    barrier_psi_k,
    cbar,
    closed_form_v0,
    integrate_v,
    log_barrier_envelope,
    psi_c,
    singularity_radius,
    stability_radius,
)
from conftest import R_STAR_M2
from schwsurf.errors import DomainError, NoSingularityError, SingularityError
from schwsurf.mode_odes import (
    ode_residual_grid,
    radial_q,
    riccati_residual_grid,
    v_coefficient,
)

# Independently computed reference values (30-digit evaluation of the
# defining relations, rounded to double).
CBAR_M1 = -5.2274112777602188  # -8 + 4 log 2
PSI_C_AT_2_M2 = 0.068706462548020818  # psi_c(r=2), c = -8, m = 2
R_C_MINUS9_M2 = 13.177148230967081  # blow-up radius for c = -9, m = 2
R_C_MINUS7_M2 = 9.3115647817267236  # blow-up radius for c = -7, m = 2


# ----------------------------------------------------------------- coefficient


def test_v_coefficient_horizon_values(m2):
    # at r = m/2 the (1 + m/2r)^-2 factor is 1/4 and m/r^3 = 2
    p0 = ModeParams(m2, 0, 0.0, 50.0)
    assert v_coefficient(p0, 1.0) == pytest.approx(0.75, abs=1e-15)
    p1 = ModeParams(m2, 1, 0.0, 50.0)
    assert v_coefficient(p1, 1.0) == pytest.approx(-0.25, abs=1e-15)
    # the eigenvalue enters with weight (1 + 1)^4 = 16 on the horizon
    p2 = ModeParams(m2, 0, -0.1, 50.0)
    assert v_coefficient(p2, 1.0) == pytest.approx(-0.85, abs=1e-15)


def test_mode_params_validation(m2):
    with pytest.raises(DomainError):
        ModeParams(m2, 0, 0.0, 0.9)  # R below the horizon radius


# -------------------------------------------------------------------- shooting


def test_shot_matches_closed_form(m2):
    """The integrated radial mode tracks the closed form at 1e-8 sup."""
    sol = integrate_v(ModeParams(m2, 0, 0.0, 50.0), tol=1e-10)
    grid = np.linspace(1.0, 50.0, 400)
    v_num = np.array([sol.v(r) for r in grid])
    v_ref = np.array([closed_form_v0(m2, r) for r in grid])
    sup = np.max(np.abs(v_ref))
    assert np.max(np.abs(v_num - v_ref)) <= 1e-8 * sup


def test_shot_initial_data_and_node_order(m2):
    sol = integrate_v(ModeParams(m2, 0, 0.0, 20.0))
    assert sol.nodes_r[0] == 1.0
    assert sol.nodes_v[0] == 1.0
    assert sol.nodes_v_prime[0] == 0.5  # 1/m
    assert np.all(np.diff(sol.nodes_r) > 0.0)


@pytest.mark.parametrize("mass", [0.7, 2.0, 3.0])
def test_horizon_reads_are_exact(mass):
    """Node 0 and every read at r = m/2 carry the horizon data exactly."""
    model = SchwarzschildModel(mass)
    for k, lam in ((0, 0.0), (2, 0.0), (0, -1.5), (1, 3.0)):
        sol = integrate_v(ModeParams(model, k, lam, 30.0 * mass))
        h = 0.5 * mass
        assert sol.nodes_r[0] == h
        assert sol.nodes_v[0] == 1.0 and sol.nodes_v_prime[0] == 1.0 / mass
        assert sol.v(h) == 1.0 and sol.v_prime(h) == 1.0 / mass
        assert sol.gamma(h) == 1.0 / mass
        assert sol.log_abs_v(h) == (0.0, 1.0)
        assert sol.phase(h) == 0.5 * math.pi


# (k, lam m^2, R, ode tol) at m = 2: radial, nonradial and oscillating shots,
# and a nonradial one whose v leaves the double range near r = 450
SCALAR_SHOTS = [(0, 0.0, 50.0, 1e-10), (1, -0.1, 300.0, 1e-10), (0, 1.2, 40.0, 1e-10), (2, -10.0, 1900.0, 1e-6)]


@pytest.fixture(scope="module", params=SCALAR_SHOTS, ids=lambda p: "k{}-lam{}-R{}".format(*p))
def scalar_shot(request, m2):
    k, lam, R, tol = request.param
    sol = integrate_v(ModeParams(m2, k, lam / 4.0, R), tol=tol)
    rng = np.random.default_rng(7)
    random_r = np.concatenate([rng.uniform(1.0, R, 100), np.exp(rng.uniform(0.0, math.log(R), 100))])
    return sol, np.concatenate([sol.nodes_r, [1.0, R], np.clip(random_r, 1.0, R)])


def test_scalar_reads_match_array_reads(scalar_shot):
    """v, v', phase, log|v| and gamma read one radius at a time agree with
    the array reader at the nodes, both ends and random radii."""
    sol, radii = scalar_shot
    with np.errstate(over="ignore"):
        v_arr, vp_arr = sol.values(radii)
    r, theta, log_rho, log_s = sol._read(radii)
    sn = np.sin(theta)
    horizon = r == 1.0
    log_v_arr = np.where(horizon, 0.0, 0.5 * np.log(r) + log_rho - 0.5 * log_s + np.log(np.abs(sn)))
    gamma_arr = np.where(horizon, 0.5, (0.5 + np.exp(log_s) * np.cos(theta) / sn) / r)
    finite = np.isfinite(v_arr)
    for x, fin, v, vp, th, lv, sign, ga in zip(
        radii.tolist(), finite, v_arr, vp_arr, theta, log_v_arr, np.sign(sn), gamma_arr
    ):
        if fin:
            assert sol.v(x) == pytest.approx(v, rel=1e-13, abs=0.0)
            assert sol.v_prime(x) == pytest.approx(vp, rel=1e-13, abs=0.0)
        assert sol.phase(x) == pytest.approx(th, rel=1e-13, abs=0.0)
        # an absolute error in log |v| is a relative error in |v|
        log_v, s = sol.log_abs_v(x)
        assert log_v == pytest.approx(lv, rel=1e-13, abs=1e-13)
        assert s == (1.0 if x == 1.0 else sign)
        assert sol.gamma(x) == pytest.approx(ga, rel=1e-13, abs=0.0)


def test_scalar_v_overflows_to_inf_like_array_reads(scalar_shot):
    """Where v leaves the double range, v and v' read +-inf, not OverflowError."""
    sol, radii = scalar_shot
    with np.errstate(over="ignore"):
        v_arr, vp_arr = sol.values(radii)
    over = np.isinf(v_arr)
    if sol.params.k == 2:  # the lam = -10/m^2 shot grows like exp(1.58 r)
        assert over.sum() > 100 and np.isinf(sol.terminal_value())
    for x, v, vp in zip(radii[over].tolist(), v_arr[over], vp_arr[over]):
        assert sol.v(x) == v and sol.v_prime(x) == vp


def test_scalar_reads_reject_points_off_the_shot(scalar_shot):
    sol, _ = scalar_shot
    for bad in (np.nextafter(1.0, 0.0), np.nextafter(sol.r_max, math.inf), math.nan):
        for read in (sol.v, sol.v_prime, sol.phase, sol.log_abs_v, sol.gamma):
            with pytest.raises(DomainError):
                read(bad)
        with pytest.raises(DomainError):
            sol.values(np.array([2.0, bad]))


def test_shot_reaches_far_radii_in_few_steps(m2):
    """No step budget ties R: the radial shot to 1e7 m takes a few hundred steps."""
    sol = integrate_v(ModeParams(m2, 0, 0.0, 2e7), tol=1e-10)
    assert len(sol.nodes_r) < 1000
    assert sol.nodes_r[-1] == 2e7
    assert len(sol.zero_crossings) == 1
    assert sol.zero_crossings[0] == pytest.approx(R_STAR_M2, abs=1.5e-9)


def test_radial_shot_crosses_once_at_stability_radius(m2):
    sol = integrate_v(ModeParams(m2, 0, 0.0, 50.0), tol=1e-10)
    assert len(sol.zero_crossings) == 1
    # the shot reaches 1.5e-10 at ode tol 1e-10
    assert sol.zero_crossings[0] == pytest.approx(R_STAR_M2, abs=1.5e-9)


def test_nonradial_negative_mode_never_crosses(m2):
    sol = integrate_v(ModeParams(m2, 1, -1.0, 1e3), tol=1e-8)
    assert sol.zero_crossings == ()


def test_zero_transversality(m2):
    """|v'| stays well off zero on a bracket around the refined crossing."""
    sol = integrate_v(ModeParams(m2, 0, 0.0, 50.0), tol=1e-10)
    z = sol.zero_crossings[0]
    bracket = np.linspace(z - 0.5, z + 0.5, 101)
    vp = np.array([sol.v_prime(r) for r in bracket])
    assert abs(sol.v_prime(z)) >= 1e-3 * np.max(np.abs(vp))


def test_single_crossing_for_small_negative_lambda(m2):
    # slightly unstable radial modes have at most one interior zero
    for lam in (-0.01, -0.05):
        sol = integrate_v(ModeParams(m2, 0, lam, 2e3), tol=1e-8)
        assert len(sol.zero_crossings) <= 1


def test_integrate_v_validation(m2):
    with pytest.raises(DomainError):
        integrate_v(ModeParams(m2, 0, 0.0, 20.0), r_max=0.5)
    with pytest.raises(DomainError):
        integrate_v(ModeParams(m2, 0, 0.0, 20.0), tol=-1.0)


# ---------------------------------------------------------------- closed forms


def test_closed_form_v0_values(m2):
    assert closed_form_v0(m2, 1.0) == 1.0  # log sqrt(1) = 0
    assert closed_form_v0(m2, 50.0) < 0.0
    assert abs(closed_form_v0(m2, R_STAR_M2)) < 1e-13


def test_closed_form_v0_solves_its_equation(m2):
    grid = np.linspace(1.1, 50.0, 300)
    res = ode_residual_grid(
        lambda r: closed_form_v0(m2, r), radial_q(m2), grid, step=2e-4
    )
    assert np.max(np.abs(res)) <= 1e-6


def test_barrier_horizon_value_collapses_for_every_k(m2):
    for k in (1, 2, 3, -2):
        assert barrier_psi_k(m2, k, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_barrier_far_field_limit(m2):
    # 2 r psi -> 1 + sqrt(4 k^2 - 2) as r grows
    for k in (1, 2):
        b = math.sqrt(4.0 * k * k - 2.0)
        val = 2.0 * 1e8 * barrier_psi_k(m2, k, 1e8)
        assert val == pytest.approx(1.0 + b, rel=1e-9)


def test_barrier_rejects_k_zero(m2):
    with pytest.raises(DomainError):
        barrier_psi_k(m2, 0, 2.0)
    with pytest.raises(DomainError):
        log_barrier_envelope(m2, 0, 2.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_barrier_solves_riccati_identity(m2, k):
    grid = np.linspace(1.05, 50.0, 250)
    res = riccati_residual_grid(
        lambda r: barrier_psi_k(m2, k, r),
        lambda r: (k * k - 0.75) / (r * r),
        grid,
        step=2e-4,
    )
    assert np.max(np.abs(res)) <= 1e-6


def test_envelope_is_exponential_of_barrier_integral(m2):
    # d/dr log envelope = psi, and the envelope is 1 on the horizon
    assert barrier_envelope(m2, 1, 1.0) == pytest.approx(1.0, rel=1e-14)
    step = 1e-5
    for r in (1.5, 3.0, 10.0):
        d = (
            log_barrier_envelope(m2, 2, r + step)
            - log_barrier_envelope(m2, 2, r - step)
        ) / (2.0 * step)
        assert d == pytest.approx(barrier_psi_k(m2, 2, r), rel=1e-8)


def test_envelope_bounds_nonpositive_shots(m2):
    """Shots with k != 0, lam <= 0 stay above the barrier envelope."""
    m = m2.mass
    radii = np.geomspace(1.2, 90.0, 40)
    for k in (1, 2, 3):
        for lam_units in (0.0, -0.1, -1.0, -10.0):
            lam_raw = lam_units / (m * m)
            sol = integrate_v(ModeParams(m2, k, lam_raw, 100.0), tol=1e-8)
            assert sol.zero_crossings == ()
            for r in radii:
                log_v, sign = sol.log_abs_v(r)
                assert sign > 0
                assert log_v >= log_barrier_envelope(m2, k, r) - 1e-4


# ------------------------------------------------------------- Riccati family


def test_cbar_values(m2, m1):
    assert cbar(m2) == -8.0
    assert cbar(m1) == pytest.approx(CBAR_M1, rel=1e-15)
    assert cbar(SchwarzschildModel(2.0 * math.e)) == pytest.approx(-12.0, rel=1e-15)
    with pytest.raises(DomainError):
        cbar(SchwarzschildModel(0.0))


def test_psi_c_horizon_value_at_cbar(m2):
    assert psi_c(m2, cbar(m2), 1.0) == 0.5  # exactly 1/m


def test_psi_c_interior_value(m2):
    assert psi_c(m2, -8.0, 2.0) == pytest.approx(PSI_C_AT_2_M2, rel=1e-13)


def test_psi_c_solves_radial_riccati(m2):
    """psi' + psi^2 = -(1/4r^2) - (m/r^3)(1 + m/2r)^-2, away from blow-up."""

    def rhs(r):
        return -0.25 / (r * r) - (2.0 / r**3) / (1.0 + 1.0 / r) ** 2

    grid = np.concatenate(
        [np.linspace(1.05, 0.9 * R_STAR_M2, 150), np.linspace(1.1 * R_STAR_M2, 50.0, 150)]
    )
    res = riccati_residual_grid(lambda r: psi_c(m2, -8.0, r), rhs, grid, step=2e-4)
    assert np.max(np.abs(res)) <= 1e-6


def test_psi_c_blow_up_raises_with_location(m2):
    R_c = singularity_radius(m2, -8.0)
    with pytest.raises(SingularityError) as info:
        psi_c(m2, -8.0, R_c)
    assert info.value.r_singularity == pytest.approx(R_STAR_M2, rel=1e-10)


def test_riccati_reconstruction_from_shot(m2):
    """v'/v of the radial shot is the c-bar profile, to 1e-6 relative."""
    sol = integrate_v(ModeParams(m2, 0, 0.0, 12.0), tol=1e-10)
    assert sol.gamma(1.0) == 0.5  # exact horizon data 1/m
    for r in (1.5, 2.0, 3.0, 5.0, 8.0, 9.5):
        assert sol.gamma(r) == pytest.approx(psi_c(m2, cbar(m2), r), rel=1e-6)


def test_singularity_radius_matches_stability_radius(m2):
    R_c = singularity_radius(m2, cbar(m2))
    assert R_c == pytest.approx(stability_radius(m2), rel=1e-12)
    assert R_c == pytest.approx(R_STAR_M2, rel=1e-13)


def test_singularity_radius_frozen_values(m2):
    assert singularity_radius(m2, -9.0) == pytest.approx(R_C_MINUS9_M2, rel=1e-13)
    assert singularity_radius(m2, -7.0) == pytest.approx(R_C_MINUS7_M2, rel=1e-13)


def test_singularity_radius_decreasing_in_c(m2):
    values = [singularity_radius(m2, c) for c in (-20.0, -9.0, -8.0, -7.0, 0.0, 5.0)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_singularity_radius_residual_contract(m2):
    c = -8.0
    R_c = singularity_radius(m2, c, tol=1e-12)
    resid = (2.0 * R_c - 2.0) * (4.0 * math.log(R_c) + 8.0 + c) - 8.0 * (2.0 * R_c + 2.0)
    assert abs(resid) <= 1e-12 * 8.0 * (2.0 * R_c + 2.0)


def test_singularity_radius_unreachable_raises(m2):
    # c so negative the bracket expansion gives up long before a root
    with pytest.raises(NoSingularityError):
        singularity_radius(m2, -1e6)


def test_psi_c_scale_dependence_of_c():
    """Rescaling lengths by mu shifts every c by -4 log mu."""
    a = SchwarzschildModel(1.0)
    b = SchwarzschildModel(3.0)
    shift = -4.0 * math.log(3.0)
    for c in (-8.0, -5.0):
        assert singularity_radius(b, c + shift) == pytest.approx(
            3.0 * singularity_radius(a, c), rel=1e-12
        )
    assert cbar(b) - cbar(a) == pytest.approx(shift, rel=1e-14)
