"""The mode equation's coefficients, derived from the metric with sympy.

The potential and the mass density of the plane's Jacobi operator are
typed out by hand in four places: ``fd_oracle._coefficients``,
``mode_odes._q_closure``, the Prüfer closure's ``P`` and ``P_x``, and
``spectral.rayleigh_quotient``.  (``fd_oracle.assemble`` writes the
operations of ``_coefficients`` out in place on its arrays; the FD tests
hold it to the plain rows, which call ``_coefficients``, bit for bit.)
The cross-checks between the routes
compare these with each other, so a typo shared by all of them would pass
every one.  Here sympy derives both from ``g = u^4 delta``,
``u = 1 + m/2|x|``, and each typed form is checked against them.
"""

import math

import mpmath
import numpy as np
import pytest
import sympy as sp

from schwsurf import SchwarzschildModel, fd_oracle, mode_odes, spectral

M, R_ = sp.symbols("m r", positive=True)

# (m, k, lam, r): masses with and without a horizon, radii from next to
# the horizon to 1e3 m, eigenvalues of either sign (raw units)
RADII = {
    0.0: (0.1, 1.0, 10.0),
    0.7: (0.3501, 0.42, 0.91, 3.85, 28.0, 700.0),
    2.0: (1.0002, 2.6, 11.0, 2000.0),
}
SAMPLES = [
    (m, k, lam, r)
    for m, radii in RADII.items()
    for k in (0, 1, 3)
    for lam in (-0.3, 0.0, 0.02, 5.0)
    for r in radii
]


@pytest.fixture(scope="module")
def plane():
    """``(potential, density)`` of the plane z = 0 as sympy expressions in
    ``m`` and ``r``: ``r u^4 Ric_g(nu, nu)`` with the unit normal
    ``nu = u^-2 e_z``, and ``r u^4``.

    The plane is totally geodesic (``|A|^2 = 0``) and its induced metric is
    ``u^4 (dr^2 + r^2 dtheta^2)``, whose Laplacian is ``u^-4`` times the flat
    one, so on a mode ``phi(r) e^{ik theta}`` the Jacobi equation
    ``Delta phi + Ric(nu, nu) phi = -lam phi`` times ``r u^4`` reads
    ``(r phi')' - (k^2/r) phi + r u^4 Ric(nu, nu) phi = -lam r u^4 phi``."""
    x = sp.symbols("x0:3", real=True)
    u = 1 + M / (2 * sp.sqrt(sum(c * c for c in x)))
    g = sp.diag(u**4, u**4, u**4)
    ginv = g.inv()

    def christoffel(a, i, j):
        return sum(
            ginv[a, l] * (sp.diff(g[l, i], x[j]) + sp.diff(g[l, j], x[i]) - sp.diff(g[i, j], x[l]))
            for l in range(3)
        ) / 2

    gam = [[[christoffel(a, i, j) for j in range(3)] for i in range(3)] for a in range(3)]
    z = 2
    ricci_zz = sum(
        sp.diff(gam[a][z][z], x[a])
        - sp.diff(gam[a][z][a], x[z])
        + sum(gam[a][a][b] * gam[b][z][z] - gam[a][z][b] * gam[b][z][a] for b in range(3))
        for a in range(3)
    )
    # any point of the plane at |x| = r, by the rotations about the z axis
    on_plane = ricci_zz.subs({x[2]: 0, x[1]: 0}).subs(x[0], R_)
    U = 1 + M / (2 * R_)
    # Ric(nu, nu) = u^-4 Ric_zz
    potential = sp.simplify(R_ * U**4 * (U**-4 * on_plane))
    return potential, R_ * U**4


def _mp(expr):
    return sp.lambdify((M, R_), expr, "mpmath")


def test_the_potential_is_the_ricci_curvature_of_the_normal(plane):
    """``r u^4 Ric_g(nu, nu) = (m/r^2)(1 + m/2r)^-2`` exactly."""
    potential, _ = plane
    assert sp.simplify(potential - (M / R_**2) / (1 + M / (2 * R_)) ** 2) == 0


def test_fd_coefficients_are_the_derived_ones(plane):
    """``fd_oracle._coefficients`` gives ``-k^2/r`` plus the derived
    potential, and the derived density, to a few ulps of their terms."""
    potential, density = (_mp(e) for e in plane)
    eps = np.finfo(float).eps
    with mpmath.workdps(30):
        for m, k, _, r in SAMPLES:
            V, w = fd_oracle._coefficients(m, k, r)
            pot = potential(m, r)
            assert abs(V - (-(k * k) / mpmath.mpf(r) + pot)) <= 8 * eps * (k * k / r + pot)
            assert abs(w - density(m, r)) <= 8 * eps * density(m, r)


def test_liouville_q_is_the_derived_equation(plane):
    """``mode_odes._q_closure`` is ``y'' + Q y = 0`` for ``y = sqrt(r) phi``:
    ``Q = 1/4r^2 + (V + lam w)/r`` with the derived potential and density."""
    potential, density = (_mp(e) for e in plane)
    eps = np.finfo(float).eps
    with mpmath.workdps(30):
        for m, k, lam, r in SAMPLES:
            r_ = mpmath.mpf(r)
            terms = (1 / (4 * r_**2), -(k * k) / r_**2, potential(m, r) / r_, lam * density(m, r) / r_)
            got = mode_odes._q_closure(m, k, lam)(r)
            assert abs(got - sum(terms)) <= 16 * eps * sum(abs(t) for t in terms)


def test_prufer_p_and_its_slope_are_the_derived_ones(plane):
    """At ``x = log r`` the Prüfer closure's ``(A, B, D)`` hold
    ``P = (A - B)/(2 sqrt(AB))`` and ``D = P P_x/(2(P^2 + 1))``, where
    ``P = r (V + lam w) = r^2 Q - 1/4`` and ``P_x = r dP/dr``, both from
    the derived potential and density."""
    potential, density = plane
    lam_, k_ = sp.symbols("lam k", real=True)
    P = -(k_**2) + R_ * potential + lam_ * R_ * density
    P_of = sp.lambdify((M, k_, lam_, R_), P, "mpmath")
    Px_of = sp.lambdify((M, k_, lam_, R_), R_ * sp.diff(P, R_), "mpmath")
    scale_of = sp.lambdify((M, k_, lam_, R_), k_**2 + R_ * potential + abs(lam_) * R_ * density, "mpmath")
    eps = np.finfo(float).eps
    with mpmath.workdps(30):
        for m, k, lam, r in SAMPLES:
            A, B, D = mode_odes._prufer_closure(m, k, lam)(math.log(r))
            p, px, scale = P_of(m, k, lam, r), Px_of(m, k, lam, r), 1 + scale_of(m, k, lam, r)
            # log r and exp(log r) shift r by an ulp or so, which moves P by
            # about its slope times eps
            tol = 16 * eps * (scale + abs(px))
            assert abs((A - B) / (2 * math.sqrt(A * B)) - p) <= tol
            assert abs(D - p * px / (2 * (p * p + 1))) <= tol * (abs(px) + scale) / (p * p + 1)


def test_rayleigh_quotient_weights_are_the_derived_ones(plane):
    """On a smooth ``u`` with ``u(R) = 0`` the quotient equals the derived
    form ``[int (r u'^2 - V u^2) dr] / [int w u^2 dr]`` (mass-squared
    units), its integrals taken by mpmath."""
    potential, density = (_mp(e) for e in plane)
    for m, R in ((2.0, 10.0), (0.7, 3.0)):
        r = np.linspace(0.5 * m, R, 2001)
        u = (R - r) * (1.0 + r)
        u_prime = R - 1.0 - 2.0 * r
        got = spectral.rayleigh_quotient(SchwarzschildModel(m), R, r, u, u_prime)
        with mpmath.workdps(30):
            U = lambda x: (R - x) * (1 + x)
            num = mpmath.quad(lambda x: x * (R - 1 - 2 * x) ** 2 - potential(m, x) * U(x) ** 2, [0.5 * m, R])
            den = mpmath.quad(lambda x: density(m, x) * U(x) ** 2, [0.5 * m, R])
        assert got == pytest.approx(float(num / den) * m * m, rel=1e-9)
