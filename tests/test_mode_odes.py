"""Radial mode ODE: shooting, closed forms, barriers, blow-up radii.

The closed forms are the anti-bug oracles for the integrator and vice
versa; the finite-difference residual grids check both against the
defining equations rather than against each other.
"""

import bisect
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schwsurf import (
    ModeParams,
    SchwarzschildModel,
    barrier_envelope,
    barrier_psi_k,
    cbar,
    closed_form_v0,
    closed_form_v1,
    integrate_v,
    log_barrier_envelope,
    psi_c,
    singularity_radius,
    stability_radius,
)
from conftest import R_STAR_M2, float_path_outcome
from schwsurf.errors import DomainError, IntegrationError, NoSingularityError, SingularityError
from schwsurf import _steps, mode_odes, ode
from schwsurf.mode_odes import (
    _prufer_closure,
    miss_distance,
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
    nodes_v, nodes_v_prime = sol.values(sol.nodes_r)
    assert nodes_v[0] == 1.0
    assert nodes_v_prime[0] == 0.5  # 1/m
    assert np.all(np.diff(sol.nodes_r) > 0.0)


@pytest.mark.parametrize("mass", [0.7, 2.0, 3.0])
def test_horizon_reads_are_exact(mass):
    """Node 0 and every read at r = m/2 carry the horizon data exactly."""
    model = SchwarzschildModel(mass)
    for k, lam in ((0, 0.0), (2, 0.0), (0, -1.5), (1, 3.0)):
        sol = integrate_v(ModeParams(model, k, lam, 30.0 * mass))
        h = 0.5 * mass
        assert sol.nodes_r[0] == h
        nodes_v, nodes_v_prime = sol.values(sol.nodes_r)
        assert nodes_v[0] == 1.0 and nodes_v_prime[0] == 1.0 / mass
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


def _in_stage_order(weights, stages):
    """``sum_j weights[j] stages[..., j]`` over the last axis, one stage at
    a time: the order, and so the rounding, of the package's sums."""
    acc = weights[0] * stages[..., 0]
    for j in range(1, len(weights)):
        acc = acc + weights[j] * stages[..., j]
    return acc


def test_lazy_dense_coefficients_match_the_array_path(scalar_shot):
    """Each step's dense-output coefficients, formed on first scalar read,
    equal to the bit those the array reader builds for all steps at once,
    and those rebuilt here from scipy's copy of Hairer's DOP853 tableau:
    the seventh-order extension from an 18-float record of stages 1 and 6
    to 13 and three extra stages, the Radau collocation cubic from an
    8-float record of three increments."""
    from scipy.integrate._ivp import dop853_coefficients as dop853

    traj = scalar_shot[0]._traj
    size = np.array([len(k) for k in traj.stages])
    dp, ra = size == 18, size == 8
    assert np.all(dp | ra)
    assert (dp.sum(), ra.sum()) == (traj.dop853_steps, traj.radau_steps)
    if scalar_shot[0].params.k == 2:  # the stiff shot takes both kinds of step
        assert traj.dop853_steps > 0 and traj.radau_steps > 0
    x, theta, log_rho = (np.asarray(v) for v in (traj.x, traj.theta, traj.log_rho))
    h = np.diff(x)
    d = np.stack((np.diff(theta), np.diff(log_rho)), axis=1)  # (n, 2)
    dense = np.zeros((len(size), 2, 7))
    dense[:, :, 0] = d
    if dp.any():
        # (step, component, stage - 1), stages 2 to 5 left at zero
        k = np.zeros((dp.sum(), 2, 16))
        record = np.asarray([r for r in traj.stages if len(r) == 18]).reshape(-1, 9, 2)
        k[:, :, [0, *range(5, 13)]] = record.transpose(0, 2, 1)
        hd, x0, th0 = h[dp], x[:-1][dp], theta[:-1][dp]
        for row in (13, 14, 15):  # the extra stages 14 to 16
            cols = np.flatnonzero(dop853.A[row])
            arg = th0 + hd * _in_stage_order(dop853.A[row, cols], k[:, 0, cols])
            at = zip(x0 + dop853.C[row] * hd, arg)
            k[:, :, row] = [_steps._rhs(traj.coefficients(xi), ai) for xi, ai in at]
        f1 = hd[:, None] * k[:, :, 0] - d[dp]
        dense[dp, :, 1] = f1
        dense[dp, :, 2] = d[dp] - hd[:, None] * k[:, :, 12] - f1
        for p in range(4):
            cols = np.flatnonzero(dop853.D[p])
            dense[dp, :, 3 + p] = hd[:, None] * _in_stage_order(dop853.D[p, cols], k[:, :, cols])
    if ra.any():
        z = np.asarray([r[:6] for r in traj.stages if len(r) == 8]).reshape(-1, 3, 2).transpose(0, 2, 1)
        p = np.asarray(_steps._RADAU_P)
        dense[ra, :, 1] = _in_stage_order(p[:, 0], z) - d[ra]
        dense[ra, :, 2] = -_in_stage_order(p[:, 2], z)
    assert traj._arrays[2].tobytes() == dense.tobytes()
    assert np.asarray([traj.dense(i) for i in range(len(traj.stages))]).tobytes() == dense.tobytes()


def _dop853_dense_reference(traj, i: int) -> tuple:
    """Step ``i``'s dense coefficients in plain floats, each sum running
    over the stages in order: the extra stages 14 to 16 from scipy's copy of
    Hairer's tableau, the coefficients 4 to 7 from ``_steps._DENSE_D``."""
    from scipy.integrate._ivp import dop853_coefficients as dop853

    x0, h, th0 = traj.x[i], traj.x[i + 1] - traj.x[i], traj.theta[i]
    record = traj.stages[i]
    # stage (0-based) -> (theta', log rho'), the record's stages 1, 6 to 13
    stage = dict(zip([0, *range(5, 13)], zip(record[0::2], record[1::2])))
    for row in (13, 14, 15):
        cols = np.flatnonzero(dop853.A[row]).tolist()
        arg = th0 + h * float(_in_stage_order(dop853.A[row, cols], np.array([stage[c][0] for c in cols])))
        stage[row] = _steps._rhs(traj.coefficients(x0 + float(dop853.C[row]) * h), arg)
    order = [0, *range(5, 16)]
    out = []
    for part, d in enumerate((traj.theta[i + 1] - th0, traj.log_rho[i + 1] - traj.log_rho[i])):
        ks = [stage[j][part] for j in order]
        f1 = h * ks[0] - d
        sums = (float(_in_stage_order(np.array(row), np.array(ks))) for row in _steps._DENSE_D)
        out.append((d, f1, d - h * ks[8] - f1, *(h * x for x in sums)))
    return tuple(out)


@pytest.mark.parametrize("tol", [1e-10, 1e-6])
@pytest.mark.parametrize("k, lam", [(0, -0.2), (0, 0.0), (1, -0.1), (2, -2.5)])
def test_dop853_dense_output_is_its_sums_in_stage_order(m2, k, lam, tol):
    """The written-out continuous extension equals, in ``repr``, the
    coefficients summed term by term in stage order from ``_DENSE_D``, on
    every DOP853 step of the shot."""
    traj = integrate_v(ModeParams(m2, k, lam, 400.0), tol=tol)._traj
    steps = [i for i, rec in enumerate(traj.stages) if len(rec) == 18]
    assert len(steps) >= 5
    for i in steps:
        assert repr(traj.dense(i)) == repr(_dop853_dense_reference(traj, i))


_THETA = st.one_of(
    st.floats(-1e4, 1e4),
    st.integers(-64, 64).map(lambda j: j * math.pi / 4.0),
)
_COEFFICIENT = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(a=_COEFFICIENT, b=_COEFFICIENT, d=_COEFFICIENT, th=_THETA)
def test_theta_only_slope_is_the_first_half_of_the_pair(a, b, d, th):
    """Stages 2 to 5 and the Newton iterations take ``theta'`` alone; it
    is the first entry of ``_rhs`` to the bit, at phases on multiples of
    pi/4 (where cos 2 theta or sin 2 theta is zero or +-1) and at
    coefficients up to the largest doubles."""
    assert repr(_steps._rhs_theta((a, b, d), th)) == repr(_steps._rhs((a, b, d), th)[0])


def test_scalar_v_overflows_to_inf_like_array_reads(scalar_shot):
    """Where v leaves the double range, v and v' read +-inf, not OverflowError."""
    sol, radii = scalar_shot
    with np.errstate(over="ignore"):
        v_arr, vp_arr = sol.values(radii)
    over = np.isinf(v_arr)
    if sol.params.k == 2:  # the lam = -10/m^2 shot grows like exp(1.58 r)
        assert over.sum() > 100 and np.isinf(sol.v(sol.r_max))
    for x, v, vp in zip(radii[over].tolist(), v_arr[over], vp_arr[over]):
        assert sol.v(x) == v and sol.v_prime(x) == vp


def test_array_reads_overflow_quietly(m2):
    """The array reader saturates to +-inf without a RuntimeWarning, as the
    scalar reads do."""
    sol = integrate_v(ModeParams(m2, 2, -10.0 / 4.0, 1900.0), tol=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.max(np.abs(sol.values(sol.nodes_r)[0])) == math.inf
        assert abs(float(sol.values(1900.0)[0])) == math.inf
        assert abs(sol.v(sol.r_max)) == math.inf


def test_scalar_reads_reject_points_off_the_shot(scalar_shot):
    sol, _ = scalar_shot
    for bad in (np.nextafter(1.0, 0.0), np.nextafter(sol.r_max, math.inf), math.nan):
        for read in (sol.v, sol.v_prime, sol.phase, sol.log_abs_v, sol.gamma):
            with pytest.raises(DomainError):
                read(bad)
        with pytest.raises(DomainError):
            sol.values(np.array([2.0, bad]))


def test_shot_reaches_far_radii_in_few_steps(m2):
    """No step budget ties R: the radial shot to 1e7 m takes a few dozen steps."""
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
        integrate_v(ModeParams(m2, 0, 0.0, 20.0), tol=-1.0)


# ---------------------------------------------------------------- closed forms


def test_closed_form_v0_values(m2):
    assert closed_form_v0(m2, 1.0) == 1.0  # log sqrt(1) = 0
    assert closed_form_v0(m2, 50.0) < 0.0
    assert abs(closed_form_v0(m2, R_STAR_M2)) < 1e-13


@pytest.mark.parametrize(
    "form, at_infinity",
    [
        (lambda model, r: closed_form_v0(model, r), None),
        (lambda model, r: closed_form_v1(model, r), math.inf),
        (lambda model, r: barrier_psi_k(model, 2, r), 0.0),
        (lambda model, r: log_barrier_envelope(model, 2, r), math.inf),
        (lambda model, r: barrier_envelope(model, 2, r), math.inf),
        (lambda model, r: psi_c(model, 3.0, r), None),
        (lambda model, r: v_coefficient(ModeParams(model, 1, -0.01, 10.0), r), -0.01),
    ],
    ids=[
        "closed_form_v0",
        "closed_form_v1",
        "barrier_psi_k",
        "log_barrier_envelope",
        "barrier_envelope",
        "psi_c",
        "v_coefficient",
    ],
)
def test_closed_forms_reject_a_nan_radius(m2, form, at_infinity):
    """A NaN radius passed ``r < m/2`` and came back as a NaN value; it is a
    DomainError, as in ``geometry.areal_from_distance``.  At ``r = inf`` a
    form with a limit returns it, and one without (``v0`` is ``inf * (1 -
    inf/inf ...)``, ``psi_c``'s denominator ``inf - inf``) raises."""
    assert math.isfinite(form(m2, 3.0))
    with pytest.raises(DomainError, match="r must be"):
        form(m2, math.nan)
    if at_infinity is None:
        with pytest.raises(DomainError, match="r must be finite"):
            form(m2, math.inf)
    else:
        assert form(m2, math.inf) == at_infinity


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_psi_c_rejects_a_parameter_that_is_not_finite(m2, c):
    """As :func:`singularity_radius` does; a NaN ``c`` gave a NaN value."""
    with pytest.raises(DomainError, match="c must be finite"):
        psi_c(m2, c, 3.0)


@pytest.mark.parametrize("mass", [0.7, 2.0])
def test_k1_shot_matches_closed_form_v1(mass):
    """At lam = 0 the k = 1 shot is the rotation Jacobi field v1 scaled to
    the horizon data, v1 / v1(m/2), out to 50 m."""
    model = SchwarzschildModel(mass)
    sol = integrate_v(ModeParams(model, 1, 0.0, 50.0 * mass), tol=1e-10)
    scale = closed_form_v1(model, 0.5 * mass)
    for r in np.linspace(0.5 * mass, 50.0 * mass, 400).tolist():
        ref = closed_form_v1(model, r) / scale
        assert abs(sol.v(r) - ref) <= 1e-9 * ref


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_lambda_zero_shots_track_the_closed_forms_within_a_multiple_of_tol(m2, tol):
    """At lam = 0 the k = 0 shot is v0 and the k = 1 shot v1 / v1(m/2).  Out
    to 50 m, read at 1000 radii, the first stays within 20 tol of v0
    relative to its largest value and the second within 20 tol relative
    to v1 at each radius (at most 0.9 and 6.1 tol reached)."""
    grid = np.linspace(1.0, 100.0, 1000).tolist()
    sol = integrate_v(ModeParams(m2, 0, 0.0, 100.0), tol=tol)
    ref = [closed_form_v0(m2, r) for r in grid]
    assert max(abs(sol.v(r) - v) for r, v in zip(grid, ref)) <= 20.0 * tol * max(map(abs, ref))
    sol = integrate_v(ModeParams(m2, 1, 0.0, 100.0), tol=tol)
    scale = closed_form_v1(m2, 1.0)
    for r in grid:
        ref = closed_form_v1(m2, r) / scale
        assert abs(sol.v(r) - ref) <= 20.0 * tol * ref


def test_closed_form_v1_validation(m2, flat):
    assert closed_form_v1(m2, 1.0) == 4.0  # r = m/2: 1 * (1 + 1)^2
    with pytest.raises(DomainError):
        closed_form_v1(m2, 0.9)
    with pytest.raises(DomainError):
        closed_form_v1(flat, 1.0)


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


def _log_envelope_50_digits(m, k, r):
    with mpmath.workdps(50):
        b = mpmath.sqrt(4 * k * k - 2)
        lx = mpmath.log(2 * mpmath.mpf(r) / mpmath.mpf(m))
        return (1 + b) / 2 * lx - mpmath.log(2) + mpmath.log1p(mpmath.exp(-b * lx))


def test_log_barrier_envelope_stays_finite_where_2r_over_m_overflows():
    """At m = 1e-10, r = 1e300 the ratio 2r/m overflows, but its log is
    formed from sqrt(r)/sqrt(m/2): the envelope's log is 1693.25 to the
    last digit, and only the envelope itself is past the double range."""
    model = SchwarzschildModel(1e-10)
    want = _log_envelope_50_digits(1e-10, 2, 1e300)
    assert float(want) == pytest.approx(1693.2509763488227, rel=1e-15)
    got = log_barrier_envelope(model, 2, 1e300)
    assert abs(got - want) <= 2e-15 * want
    assert barrier_envelope(model, 2, 1e300) == math.inf


def test_log_barrier_envelope_matches_50_digits_on_a_random_sample():
    """Masses log-uniform over 1e-5 to 1e5, radii uniform up to 1e6 times
    m/2, k of either sign up to 7: within 2e-15 of the 50-digit value."""
    rng = np.random.default_rng(95)
    for _ in range(300):
        m = float(10.0 ** rng.uniform(-5.0, 5.0))
        k = int(rng.choice([1, -1, 2, 3, -4, 7]))
        r = 0.5 * m * float(rng.uniform(1.0, 1e6))
        want = _log_envelope_50_digits(m, k, r)
        got = log_barrier_envelope(SchwarzschildModel(m), k, r)
        assert abs(got - want) <= 2e-15 * abs(want), (m, k, r)


def test_barrier_rejects_k_zero(m2):
    with pytest.raises(DomainError):
        barrier_psi_k(m2, 0, 2.0)
    with pytest.raises(DomainError):
        log_barrier_envelope(m2, 0, 2.0)


@pytest.mark.parametrize("k", [0.5, 2.5, -1.5, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("barrier", [barrier_psi_k, log_barrier_envelope, barrier_envelope])
def test_barrier_rejects_k_that_is_not_an_integer(m2, barrier, k):
    """As ``ModeParams`` does: a fractional k raised a bare ValueError
    (math domain error) at k = 0.5, and k = nan returned nan."""
    with pytest.raises(DomainError, match="integer k != 0"):
        barrier(m2, k, 3.0)


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


# ------------------------------------------------------------ stiff stretches


def _reference(coefficients, x0, x1, y0):
    """scipy's DOP853 at rtol = atol = 1e-12 on the same Prüfer pair: an
    integrator that shares no code with :mod:`schwsurf.ode`."""
    from scipy.integrate import solve_ivp

    def rhs(x, y):
        a, b, d = coefficients(x)
        c2, s2 = math.cos(2.0 * y[0]), math.sin(2.0 * y[0])
        return [0.5 * (a + b * c2 + d * s2), 0.5 * (b * s2 - d * c2)]

    return solve_ivp(rhs, (x0, x1), y0, method="DOP853", rtol=1e-12, atol=1e-12, dense_output=True).sol


def _reference_shot(sol):
    p = sol.params
    coefficients = _prufer_closure(p.model.mass, p.k, p.lam)
    return _reference(coefficients, sol._traj.x[0], math.log(p.R), [sol._traj.theta[0], sol._traj.log_rho[0]])


@pytest.mark.parametrize("k, lam_units", [(1, -0.1), (2, -1.0), (3, -10.0)])
def test_stiff_shots_match_an_independent_reference(m2, k, lam_units):
    """The envelope check's shots (R = 2000, tol 1e-6) take Radau steps on
    their stiff stretch; log|v| at the check's 160 radii stays within 1e-5
    of DOP853 at 1e-12 (1.3e-6 reached over all nine (k, lam) shots)."""
    sol = integrate_v(ModeParams(m2, k, lam_units / 4.0, 2000.0), tol=1e-6)
    assert sol._traj.radau_steps > 0
    ref = _reference_shot(sol)
    for r in np.geomspace(1.1, 0.995 * 2000.0, 160):
        theta, log_rho = ref(math.log(r))
        p = r * r * v_coefficient(sol.params, r) - 0.25
        expect = 0.5 * math.log(r) + log_rho - 0.125 * math.log1p(p * p) + math.log(abs(math.sin(theta)))
        assert sol.log_abs_v(r)[0] == pytest.approx(expect, abs=1e-5)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stiffest_envelope_shot_takes_few_steps(m2, k):
    """At lam = -10/m^2 DOP853 alone, held to 2 h (log rho)' <= 3, takes
    about 2360 steps; with Radau steps on the stiff stretch the shot takes
    about 210."""
    traj = integrate_v(ModeParams(m2, k, -10.0 / 4.0, 2000.0), tol=1e-6)._traj
    assert traj.dop853_steps + traj.radau_steps <= 400
    assert traj.radau_steps > traj.dop853_steps


def test_shot_held_at_the_explicit_limit_retakes_few_steps():
    """The inward shot of k = 1 at lam = -10.25/m^2 from R = 51.4 m (m = 2,
    tol 1e-10) is held at 2 h (log rho)' = 3 over most of its length and
    never strict enough for Radau.  Its proposed steps are cut to end
    inside the limit, so few are taken again (3 reached; 643 retakes
    against 126 accepted steps when each retake aimed at the limit
    itself)."""
    coefficients = _prufer_closure(2.0, 1, -10.25 / 4.0)
    traj = ode.integrate_prufer(coefficients, math.log(102.87), math.log(10.14), 0.5 * math.pi, 0.0, 1e-10)
    assert traj.radau_steps == 0 and len(traj.stages) > 100
    assert traj.rejected_steps <= 10


def test_zero_after_the_unstable_stretch(m2):
    """Just above lam_1(inf) = -0.019995/m^2 the radial shot's one zero lies
    where P < 0, past a stretch near the unstable phase 3 pi/4 and before
    the stiff approach to 5 pi/4, where the shot switches to Radau steps.
    The zero matches the reference (3.2e-6 relative reached: the unstable
    stretch amplifies the phase error), and the fresh step that locates it
    lands on pi to within its local error."""
    from scipy.optimize import brentq

    sol = integrate_v(ModeParams(m2, 0, -0.0198 / 4.0, 2000.0), tol=1e-6)
    traj = sol._traj
    assert traj.radau_steps > 0
    ref = _reference_shot(sol)
    (zero,) = sol.zero_crossings
    x_ref = brentq(lambda x: ref(x)[0] - math.pi, math.log(20.0), math.log(60.0), xtol=1e-14)
    assert zero == pytest.approx(math.exp(x_ref), rel=1e-4)
    i = bisect.bisect_right(traj.x, math.log(zero)) - 1
    coefficients = _prufer_closure(2.0, 0, -0.0198 / 4.0)
    local = _reference(coefficients, traj.x[i], math.log(zero), [traj.theta[i], 0.0])
    assert local(math.log(zero))[0] == pytest.approx(math.pi, abs=1e-6)


def test_phase_crossing_inside_a_radau_step():
    """No mode shot crosses a multiple of pi inside a Radau step: there
    (log rho)' > 0 holds the phase near a stable point, and at theta = j pi
    it is -D/2 < 0.  A stiff phase drawn to a fixed point that moves up
    across pi does: theta' = (beta/2) cos(2 theta - phi(x)) with beta = 1e3
    and the fixed point pi - 1/2 + sin x.  The crossing is then found by a
    fresh Radau step, which lands on pi to within its local error (1.4e-8
    reached; a DOP853 step there misses by 6e2)."""
    beta = 1e3

    def coefficients(x):
        phi = 2.0 * (math.pi - 0.5 + math.sin(x)) - 0.5 * math.pi
        return 0.0, beta * math.cos(phi), beta * math.sin(phi)

    traj = ode.integrate_prufer(coefficients, 0.0, 1.0, math.pi - 0.5, 0.0, 1e-6)
    x_cross = traj.phase_crossing(math.pi)
    i = bisect.bisect_right(traj.x, x_cross) - 1
    assert len(traj.stages[i]) == 8  # a Radau step
    local = _reference(coefficients, traj.x[i], x_cross, [traj.theta[i], 0.0])
    assert local(x_cross)[0] == pytest.approx(math.pi, abs=1e-6)
    assert x_cross == pytest.approx(math.pi / 6.0 + 1e-3, abs=1e-5)  # sin x = 1/2, lagged by 1/beta


def test_integrate_prufer_validation():
    def coefficients(x):
        return 1.0, 0.0, 0.0

    cases = ((1.0, 1.0, 1e-8), (math.nan, 1.0, 1e-8), (0.0, math.nan, 1e-8), (0.0, 1.0, 0.0), (0.0, 1.0, -1e-8))
    for x0, x1, tol in cases:
        with pytest.raises(DomainError):
            ode.integrate_prufer(coefficients, x0, x1, 0.0, 0.0, tol)
    # an infinite endpoint, either way, is rejected before the first step
    for x0, x1 in ((0.0, math.inf), (0.0, -math.inf), (math.inf, 0.0)):
        with pytest.raises(DomainError, match="finite endpoints"):
            ode.integrate_prufer(coefficients, x0, x1, 0.0, 0.0, 1e-8)
    # x1 < x0 is a backward shot: theta' = 1/2 takes theta down by 1/4
    back = ode.integrate_prufer(coefficients, 1.0, 0.5, 0.0, 0.0, 1e-8)
    assert back.x[-1] == 0.5 and back.theta[-1] == pytest.approx(-0.25, abs=1e-12)


def test_nan_coefficients_underflow_the_step():
    """A right-hand side that is NaN fails every error test, so the step
    shrinks until it underflows; the error carries the last good radius."""
    with pytest.raises(IntegrationError, match="step size underflow") as info:
        ode.integrate_prufer(lambda x: (math.nan,) * 3, 0.5, 1.0, 0.0, 0.0, 1e-8)
    assert info.value.last_r == math.exp(0.5)


def test_miss_distance_reports_an_inward_underflow_at_the_radius(m2, monkeypatch):
    """The inward half runs backward in x = log r, so the integrator's last
    good exp(x) is the radius itself.  Coefficients that are NaN beyond
    the matching radius make the inward half underflow on its first step,
    at R."""
    R, r_c = 40.0, 8.0
    closure = mode_odes._prufer_closure

    def nan_beyond_r_c(m, k, lam):
        coefficients = closure(m, k, lam)
        edge = math.log(r_c) + 1e-9
        return lambda x: coefficients(x) if x <= edge else (math.nan,) * 3

    monkeypatch.setattr(mode_odes, "_prufer_closure", nan_beyond_r_c)
    with pytest.raises(IntegrationError, match="step size underflow at r = ") as info:
        miss_distance(ModeParams(m2, 0, 0.0, R), r_c)
    assert info.value.last_r == pytest.approx(R, rel=1e-14)


def test_end_node_reads_form_no_dense_coefficients(m2, monkeypatch):
    """A read at a trajectory's last node returns its stored end state: a
    miss-distance probe (the horizon half's phase at r_c) and a zero count
    (the phase at R) form no step's dense coefficients."""
    from schwsurf.spectral import negative_count

    formed = []
    for name in ("_dop853_dense", "_radau_dense"):
        monkeypatch.setattr(ode, name, lambda *args, name=name: formed.append(name))
    miss_distance(ModeParams(m2, 0, 0.01, 40.0), 8.0)
    negative_count(m2, 0, 40.0)
    sol = integrate_v(ModeParams(m2, 0, 0.0, 40.0))
    assert sol.phase(40.0) == sol._traj.theta[-1]
    assert sol._traj.eval_scalar(sol._traj.x[-1]) == (sol._traj.theta[-1], sol._traj.log_rho[-1])
    assert formed == []


def test_default_tolerance_shots_take_no_radau_step(m2, monkeypatch):
    """At the default ode_tol no eigenvalue, Morse or profile shot is stiff
    enough to switch, so they take DOP853 steps only: every shot of a
    three-eigenvalue search (both halves of each miss-distance probe), of
    a Morse sweep at 2000 m, and of the mode-profile checks (spectra and
    eigenfunctions at 16-24 m, the v0 shot)."""
    from schwsurf import eigenfunction, eigenvalues_shooting, morse_index

    shots = []
    integrate = ode.integrate_prufer

    def recorded(*args):
        traj = integrate(*args)
        shots.append(traj)
        return traj

    monkeypatch.setattr(ode, "integrate_prufer", recorded)
    eigenvalues_shooting(m2, 0, 40.0, 3)
    assert any(traj.x[-1] < traj.x[0] for traj in shots)  # inward halves
    morse_index(m2, R=2000.0, kmax=5)
    for R in (32.0, 40.0, 48.0):
        for lam in eigenvalues_shooting(m2, 0, R, 3).lambdas():
            eigenfunction(m2, 0, R, lam)
    integrate_v(ModeParams(m2, 0, 0.0, 50.0), tol=1e-10)
    assert len(shots) > 100
    for traj in shots:
        assert traj.radau_steps == 0
        assert traj.dop853_steps == len(traj.stages) and traj.rejected_steps >= 0
        assert [type(n) for n in (traj.dop853_steps, traj.radau_steps, traj.rejected_steps)] == [int] * 3


@pytest.mark.parametrize(
    "k, lam, R, tol, radau",
    [(0, 0.05, 40.0, 1e-10, False), (1, -0.005, 2000.0, 1e-6, True)],
    ids=["dop853", "radau"],
)
def test_backward_shot_is_the_reflected_forward_shot(k, lam, R, tol, radau):
    """Negation rounds exactly, so the inward half shot down from log R on
    the mode's own coefficients is, bit for bit, the shot up in y = -log r
    on (-A, -B, -D) taken at -y: negated nodes, the same phase and
    log-amplitude, the same step counts, and records whose slopes are
    negated (every entry of a DOP853 record; the closing right-hand side
    of a Radau record, whose increments stay)."""
    coefficients = _prufer_closure(2.0, k, lam)

    def reflected(y):
        a, b, d = coefficients(-y)
        return -a, -b, -d

    back = ode.integrate_prufer(coefficients, math.log(R), math.log(8.0), 0.0, 0.0, tol)
    fwd = ode.integrate_prufer(reflected, -math.log(R), -math.log(8.0), 0.0, 0.0, tol)
    assert (back.radau_steps > 0) == radau and back.rejected_steps > 0
    assert [x.hex() for x in back.x] == [(-y).hex() for y in fwd.x]
    assert [t.hex() for t in back.theta] == [t.hex() for t in fwd.theta]
    assert [v.hex() for v in back.log_rho] == [v.hex() for v in fwd.log_rho]
    assert (back.rejected_steps, back.radau_steps) == (fwd.rejected_steps, fwd.radau_steps)
    assert len(back.stages) == len(fwd.stages)
    for kb, kf in zip(back.stages, fwd.stages):
        kept = 0 if len(kf) == 18 else 6
        assert [v.hex() for v in kb] == [v.hex() for v in kf[:kept]] + [(-v).hex() for v in kf[kept:]]


def test_backward_shot_has_no_dense_reads():
    """Dense output and phase crossings are defined on forward shots; on a
    backward one each read raises instead of returning a wrong value."""
    back = ode.integrate_prufer(lambda x: (1.0, 0.0, 0.0), 1.0, 0.5, 0.0, 0.0, 1e-8)
    reads = (lambda: back.eval(np.array([0.7])), lambda: back.eval_scalar(0.7), lambda: back.phase_crossing(-0.1))
    for read in reads:
        with pytest.raises(DomainError, match="forward shot"):
            read()


def test_radau_newton_stops_on_a_non_finite_stage():
    """Coefficients finite at the step's start but NaN at its collocation
    points end Newton at its first iteration: the step returns its start
    state, NaN error estimates and no record, which the control rejects."""
    th, d_lr, err_t, err_l, record = ode._radau_step(
        lambda x: (1.0, 0.5, 0.5) if x == 0.0 else (math.nan,) * 3, 0.0, 0.1, 0.3, 1e-8
    )
    assert (th, d_lr, record) == (0.3, 0.0, ())
    assert math.isnan(err_t) and math.isnan(err_l)


def test_phase_crossing_keeps_its_first_guess_when_the_radau_retake_fails():
    """The stiff phase of test_phase_crossing_inside_a_radau_step crosses
    pi inside a Radau step; with coefficients that are NaN on the retake,
    its Newton fails and the crossing stays at the linear interpolation
    of the step's end phases."""
    beta = 1e3

    def coefficients(x):
        phi = 2.0 * (math.pi - 0.5 + math.sin(x)) - 0.5 * math.pi
        return 0.0, beta * math.cos(phi), beta * math.sin(phi)

    traj = ode.integrate_prufer(coefficients, 0.0, 1.0, math.pi - 0.5, 0.0, 1e-6)
    i = next(j for j, th in enumerate(traj.theta) if th >= math.pi) - 1
    assert len(traj.stages[i]) == 8  # a Radau step
    x0, th0 = traj.x[i], traj.theta[i]
    guess = x0 + (traj.x[i + 1] - x0) * (math.pi - th0) / (traj.theta[i + 1] - th0)
    broken = ode.Trajectory(
        lambda x: (math.nan,) * 3, traj.tol, traj.x, traj.theta, traj.log_rho, traj.stages, traj.rejected_steps
    )
    assert broken.phase_crossing(math.pi) == guess
    assert traj.phase_crossing(math.pi) != guess


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


_FAR_RADII = (1.0000000000000002e100, 1e101, 1e102, 1e103, 7e153, 1e200, 1e300, 1e307, 9e307, sys.float_info.max)


def _psi_c_exact(m, c, r):
    m, c, r = (mpmath.mpf(x) for x in (m, c, r))
    A = 4 * mpmath.log(r) + c + 8
    num = 4 * r * m * A + 16 * r * r - 4 * m * m
    return 1 / (2 * r) + num / (r * (4 * r * r - m * m) * A - 8 * r * (2 * r + m) ** 2)


@pytest.mark.parametrize("c", [3.0, 0.0, -500.0, 1e6])
def test_psi_c_past_1e100_matches_mpmath(m2, c):
    """Past r = 1e100, where r^3 in the plain quotient's denominator
    overflows (at c = 3 psi_c read exactly 0.5/r at 1e102, NaN from 1e103
    and raised a bare OverflowError at 7e153), and at the horizon and the
    radii below: within 1e-13 of 50 digits up to the largest double."""
    with mpmath.workdps(50):
        for r in (1.0, 7.0, 1e30, 1e99, 1e100) + _FAR_RADII:
            ref = _psi_c_exact(2.0, c, r)
            assert abs(psi_c(m2, c, r) - ref) <= 1e-13 * abs(ref), r


def test_psi_c_blow_up_past_1e100_raises_with_location():
    """The blow-up test holds far out: at m = 1e60 the blow-up of
    c = -1105.24... lies at about 1e120."""
    model = SchwarzschildModel(1e60)
    R = 1e120
    c = 8.0 * (2.0 * R + 1e60) / (2.0 * R - 1e60) - 4.0 * math.log(R) - 8.0
    R_c = singularity_radius(model, c)
    with pytest.raises(SingularityError) as info:
        psi_c(model, c, R_c)
    assert info.value.r_singularity == pytest.approx(R, rel=1e-12)
    assert psi_c(model, c, 1.01 * R_c) > 0.0 > psi_c(model, c, 0.99 * R_c)


@pytest.mark.parametrize("m", [2.0, 0.7, 1e-10])
def test_closed_forms_at_the_top_of_the_double_range(m):
    """closed_form_v0 returned NaN from r of about 9e307, where 2r
    overflows; barrier_envelope raised a bare OverflowError past its
    log's 709.78 (r of about 1.4e130 at k = 2, m = 2) and now saturates
    to inf, as at r = inf.  Against 50-digit values, from the horizon
    on; v0 is exactly 1 there."""
    model = SchwarzschildModel(m)
    with mpmath.workdps(50):
        for r in (0.5 * m, 3.0 * m, 1e100, 1e200, 1e297, 1e307, 9e307, 1.7e308):
            M, R = mpmath.mpf(m), mpmath.mpf(r)
            x = 2 * R / M
            ref = mpmath.sqrt(x) * (1 - (2 * R - M) / (2 * R + M) * mpmath.log(x) / 2)
            assert abs(closed_form_v0(model, r) - ref) <= 1e-14 * abs(ref), r
            for k in (1, 2):
                b = mpmath.sqrt(4 * k * k - 2)
                env = mpmath.exp((1 + b) / 2 * mpmath.log(x) - mpmath.log(2) + mpmath.log(1 + x**-b))
                got = barrier_envelope(model, k, r)
                if env > sys.float_info.max:
                    assert got == math.inf, (k, r)
                else:
                    assert abs(got - env) <= 1e-12 * env, (k, r)
    assert closed_form_v0(model, 0.5 * m) == 1.0


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
    # c so negative that the blow-up lies far past the double range
    with pytest.raises(NoSingularityError):
        singularity_radius(m2, -1e6)


def _blow_up_radius_exact(m, c):
    """The root of ``F(R) = (2R - m)(4 log R + 8 + c) - 8 (2R + m)`` above
    ``m/2``, to 50 digits: 200 bisections in ``log R`` of the bracket where
    ``F/R`` goes from -32 to at least 1."""
    with mpmath.workdps(50):
        m, c = mpmath.mpf(m), mpmath.mpf(c)
        F = lambda R: (2 * R - m) * (4 * mpmath.log(R) + 8 + c) - 8 * (2 * R + m)
        lo, hi = mpmath.log(m / 2), max(mpmath.log(m), (17 - c) / 4)
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if F(mpmath.exp(mid)) > 0 else (mid, hi)
        return mpmath.exp(lo)


@pytest.mark.parametrize("m", [2.0, 0.7, 1e-9, 1e100, 1e-100])
def test_singularity_radius_within_8_ulps_at_every_scale(m):
    """Brent's stopping width is a multiple of ulp(m/2), where 1e-15
    max(1, top) swamped roots far below 1 (``--mass 3.67e-98 --c 5487.79``
    failed the residual test).  At these c, ``4 log R + c + 8`` loses no
    more than a few ulps to cancellation; where ``|c|`` is in the
    thousands the root is as sensitive to the last bit of ``c``."""
    model = SchwarzschildModel(m)
    for c in (-50.0, -9.0, -8.0, 0.0, 5.0, 30.0):
        ref = _blow_up_radius_exact(m, c)
        got = singularity_radius(model, c)
        assert abs(got - ref) <= 8 * math.ulp(float(ref)), (c, got, ref)


def test_singularity_radius_near_1e120():
    """The doubling from max(2m, 1) stopped after 200 steps, about 1.3e61
    at m = 2, and raised NoSingularityError for a blow-up near 1e120; the
    bracket's top now lies past every root in the double range."""
    ref = _blow_up_radius_exact(2.0, -1105.24)
    assert 1e119 < ref < 1e121
    got = singularity_radius(SchwarzschildModel(2.0), -1105.24)
    assert abs(got - ref) <= 1e-12 * ref


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


# ------------------------------------------------------------ float paths


def _as_numpy(args):
    return [np.float64(a) if type(a) is float else a for a in args]


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(
    m=st.floats(0.1, 10.0),
    stretch=st.floats(0.0, 1e3),
    k=st.integers(1, 3),
    lam=st.floats(-10.0, 10.0),
    c=st.floats(-20.0, 20.0),
)
def test_closed_forms_compute_on_floats(m, stretch, k, lam, c):
    """Numpy scalar arguments give a Python float with the bits of the
    float arguments' value (and a rejected point the same error)."""
    model = SchwarzschildModel(m)
    for r in (0.5 * m * (1.0 + stretch), 0.25 * m):
        for f, *args in (
            (v_coefficient, ModeParams(model, k, lam, m * (1.0 + stretch)), r),
            (closed_form_v0, model, r),
            (closed_form_v1, model, r),
            (barrier_psi_k, model, k, r),
            (log_barrier_envelope, model, k, r),
            (barrier_envelope, model, k, r),
            (psi_c, model, c, r),
        ):
            want, got = float_path_outcome(f, *args), float_path_outcome(f, *_as_numpy(args))
            assert type(got) is type(want) and repr(got) == repr(want), (f.__name__, args)
            assert type(want) is float or want[0] in (DomainError, SingularityError)


def test_residual_grids_call_their_functions_with_floats():
    """The stencils run on the grid's Python floats, numpy grid and step
    or not: a probe that refuses anything else sees only floats."""
    def probe(x):
        assert type(x) is float
        return x * x

    r = np.linspace(1.0, 2.0, 7)
    for grid, ref in ((ode_residual_grid, 2.0 + r**4), (riccati_residual_grid, 2.0 * r + r**4 - r * r)):
        out = grid(probe, probe, r, np.float64(1e-3))
        assert out.dtype == float and np.allclose(out, ref, rtol=1e-8, atol=1e-8)


def test_numpy_mass_shoots_the_float_mass_shot():
    """A numpy mass is stored as a float, so its shot is the float-mass
    shot to the bit: nodes, pair and stages."""
    shots = [
        integrate_v(ModeParams(SchwarzschildModel(mass), 1, -0.05, 40.0))._traj
        for mass in (np.float64(2.0), 2.0)
    ]
    fields = [(t.x, t.theta, t.log_rho, t.stages, t.rejected_steps) for t in shots]
    assert repr(fields[0]) == repr(fields[1])
