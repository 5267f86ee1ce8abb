"""Finite-difference discretization: Bessel oracle, cross-checks, inertia.

The flat ``m = 0`` problems have classical special-function spectra, so
they validate the assembly and solver with no reference to the shooting
side; the cross-solver tests then validate both against each other.
"""

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.special import jn_zeros

from schwsurf import (
    SchwarzschildModel,
    assemble,
    eigenvalues_shooting,
    lowest_eigenvalues,
    negative_count,
    negative_count_fd,
    richardson_lowest,
    stability_radius,
)
from schwsurf.errors import DomainError


# ------------------------------------------------------------ flat-space oracle


def test_flat_disc_radial_bessel_spectrum(flat):
    """Dirichlet disc eigenvalues are squared Bessel zeros over R."""
    R = 5.0
    expected = (jn_zeros(0, 3) / R) ** 2
    lams = lowest_eigenvalues(assemble(flat, 0, R, 2048), 3).lambdas()
    assert np.max(np.abs(lams - expected) / expected) <= 1e-3


def test_flat_disc_first_harmonic_bessel(flat):
    # the k = 1 mode feels the 1/r potential right down to the origin
    R = 5.0
    expected = (jn_zeros(1, 1)[0] / R) ** 2
    lam = richardson_lowest(flat, 1, R, n=1024)[0]
    assert lam == pytest.approx(expected, rel=1e-6)


def test_richardson_sharpens_flat_values(flat):
    R = 5.0
    expected = (jn_zeros(0, 1)[0] / R) ** 2
    plain = lowest_eigenvalues(assemble(flat, 0, R, 1024), 1).lambdas()[0]
    sharp = richardson_lowest(flat, 0, R, n=1024)[0]
    assert abs(sharp - expected) < abs(plain - expected)
    assert sharp == pytest.approx(expected, rel=1e-6)


# ------------------------------------------------------------------- assembly


def test_assembled_pencil_is_symmetric_definite(m2):
    prob = assemble(m2, 0, 20.0, 64)
    A, B = prob.dense_matrices()
    assert np.array_equal(A, A.T)
    assert np.all(prob.mass_weights > 0.0)
    assert np.all(prob.stiffness_off < 0.0)
    assert prob.grid[0] == 1.0 and prob.grid[-1] == 20.0


def test_dense_reference_matches_tridiagonal_path(m2):
    prob = assemble(m2, 0, 8.0, 64)
    A, B = prob.dense_matrices()
    dense = np.sort(eigh(A, B, eigvals_only=True))[:4] * m2.mass**2
    fast = lowest_eigenvalues(prob, 4).lambdas()
    assert fast == pytest.approx(dense, rel=1e-10)


def test_assembly_validation(m2):
    with pytest.raises(DomainError):
        assemble(m2, 0, 20.0, 8)
    with pytest.raises(DomainError):
        assemble(m2, 0, 0.5, 64)
    with pytest.raises(DomainError):
        lowest_eigenvalues(assemble(m2, 0, 20.0, 32), 0)
    with pytest.raises(DomainError):
        lowest_eigenvalues(assemble(m2, 0, 20.0, 32), 32)


def test_spectrum_units_and_metadata(m2):
    spec = lowest_eigenvalues(assemble(m2, 0, 20.0, 256), 2)
    assert spec.method == "finite-difference"
    assert spec.probes == 0
    assert [e.n for e in spec.entries] == [1, 2]
    assert np.all(np.diff(spec.lambdas()) > 0.0)


# ----------------------------------------------------------------- convergence


def test_second_order_convergence(m2):
    """Halving the grid spacing cuts the eigenvalue error by about 4."""
    R = 20.0
    ref = richardson_lowest(m2, 0, R, n=4096)[0]
    errs = [
        abs(lowest_eigenvalues(assemble(m2, 0, R, n), 1).lambdas()[0] - ref)
        for n in (512, 1024, 2048)
    ]
    assert 3.0 <= errs[0] / errs[1] <= 5.0
    assert 3.0 <= errs[1] / errs[2] <= 5.0


def test_critical_radius_eigenvalue_refines_to_zero(m2):
    """At the critical truncation the lowest eigenvalue is a grid artifact."""
    R = stability_radius(m2)
    lam_coarse = abs(lowest_eigenvalues(assemble(m2, 0, R, 512), 1).lambdas()[0])
    lam_fine = abs(lowest_eigenvalues(assemble(m2, 0, R, 2048), 1).lambdas()[0])
    assert lam_fine <= 1e-6
    assert 8.0 <= lam_coarse / lam_fine <= 32.0  # about 16 for an O(h^2) scheme


# --------------------------------------------------------------- cross checks


@pytest.mark.parametrize("R", [6.0, 40.0])
def test_cross_solver_agreement(m2, R):
    shoot = eigenvalues_shooting(m2, 0, R, 1).lambdas()[0]
    fd = richardson_lowest(m2, 0, R, n=1024)[0]
    assert fd == pytest.approx(shoot, rel=1e-5, abs=1e-9)
    assert negative_count_fd(assemble(m2, 0, R, 2048)) == negative_count(m2, 0, R)


@pytest.mark.parametrize("k, expect", [(0, 1), (1, 0)])
def test_cross_solver_counts_at_claim_radius(m2, k, expect):
    """Shooting and a fine FD grid agree on the counts at R = 1e3 m."""
    R = 1e3 * m2.mass
    assert negative_count(m2, k, R) == negative_count_fd(assemble(m2, k, R, 65536)) == expect


def test_nonradial_mode_positive(m2):
    assert richardson_lowest(m2, 1, 20.0, n=1024)[0] > 0.0


def test_unstable_truncation_has_one_negative_eigenvalue(m2):
    spec = lowest_eigenvalues(assemble(m2, 0, 20.0, 1024), 5)
    lams = spec.lambdas()
    assert np.sum(lams < 0.0) == 1
    assert negative_count_fd(assemble(m2, 0, 20.0, 1024)) == 1


def test_sturm_count_matches_solved_spectrum(m2):
    for R, expected in ((6.0, 0), (12.0, 1), (40.0, 1)):
        prob = assemble(m2, 0, R, 1024)
        assert negative_count_fd(prob) == expected
        lams = lowest_eigenvalues(prob, 4).lambdas()
        assert int(np.sum(lams < 0.0)) == expected


def test_scale_covariance_of_fd_spectrum():
    a = richardson_lowest(SchwarzschildModel(1.0), 0, 10.0, n=512)[0]
    b = richardson_lowest(SchwarzschildModel(2.0), 0, 20.0, n=512)[0]
    assert b == pytest.approx(a, rel=1e-10)
