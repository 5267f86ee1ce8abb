"""Finite-difference discretization: Bessel oracle, cross-checks, inertia.

The flat ``m = 0`` problems have classical special-function spectra, so
they validate the assembly and solver with no reference to the shooting
side; the cross-solver tests then validate both against each other.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
from schwsurf import fd_oracle
from schwsurf.errors import DomainError, SearchError
from schwsurf.fd_oracle import _standard_form
from schwsurf.mode_odes import closed_form_v1

from conftest import stebz_lowest


# ------------------------------------------------------------ closed forms


def test_k1_stencil_is_second_order_on_closed_form_v1(m1, m2):
    """The interior rows of the k = 1 matrix applied to the lam = 0 mode
    u1 = v1 / sqrt(r) leave a residual that falls about 4x per halving of
    the cell, from 4.2e-3 at n = 256 (R = 20, m = 2).  The horizon row
    (first order) and the last row (u1(R) is not 0) are left out.  The
    grid and the matrix are those of the m = 1 mode on r/m, so u1 is the
    m = 1 one."""
    residuals = []
    for n in (256, 512, 1024):
        problem = assemble(m2, 1, 20.0, n)
        r = problem.grid[:-1]
        u = np.array([closed_form_v1(m1, x) for x in r.tolist()]) / np.sqrt(r)
        rows = problem.stiffness_diag * u
        rows[:-1] += problem.stiffness_off * u[1:]
        rows[1:] += problem.stiffness_off * u[:-1]
        residuals.append(float(np.max(np.abs(rows[1:-1]))))
    assert residuals[0] <= 5e-3
    for coarse, fine in zip(residuals, residuals[1:]):
        assert 3.4 <= coarse / fine <= 4.4


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
    # the grid is in units of m
    assert m2.mass * prob.grid[0] == 1.0 and m2.mass * prob.grid[-1] == 20.0


def _assembled_by_expressions(model, k, R, n) -> tuple:
    """``assemble``'s four arrays from whole-array expressions, a temporary
    per operation, in the order of operations of ``_coefficients`` and the
    stencil."""
    m, X = (1.0, R / model.mass) if model.mass > 0.0 else (0.0, R)
    r0 = 0.5 * m
    dx = (X - r0) / n
    grid = r0 + dx * np.arange(n + 1)
    half = grid[:-1] + 0.5 * dx
    r = grid[1:-1]
    q = 1.0 + 0.5 * m / r
    q = q * q
    potential = -(k * k) / r + (m / (r * r)) / q
    diag = np.r_[0.0, (half[:-1] + half[1:]) / dx**2 - potential]
    mass = np.r_[0.0, r * (q * q)]
    r = r0 + 0.25 * dx
    q = 1.0 + 0.5 * m / r
    q = q * q
    diag[0] = half[0] / dx**2 - 0.5 * (-(k * k) / r + (m / (r * r)) / q)
    mass[0] = 0.5 * (r * (q * q))
    return grid, diag, -half[:-1] / dx**2, mass


@pytest.mark.parametrize("n", [16, 33, 1024, 65536])
@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("m", [0.0, 0.7, 2.0])
def test_assemble_in_place_is_the_expressions_bit_for_bit(m, k, n):
    """``assemble`` forms each array in its own output, and the floats
    are those of the expressions, byte for byte (so in ``repr`` too, at a
    hundredth of the cost on 65536 cells); no two arrays share memory."""
    model = SchwarzschildModel(m)
    R = 0.5 * m + 19.0 * (m if m > 0.0 else 1.0)
    prob = assemble(model, k, R, n)
    arrays = (prob.grid, prob.stiffness_diag, prob.stiffness_off, prob.mass_weights)
    assert [a.shape for a in arrays] == [(n + 1,), (n,), (n - 1,), (n,)]
    for got, want in zip(arrays, _assembled_by_expressions(model, k, R, n)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_dense_reference_matches_tridiagonal_path(m2):
    prob = assemble(m2, 0, 8.0, 64)
    A, B = prob.dense_matrices()
    dense = np.sort(eigh(A, B, eigvals_only=True))[:4]
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


def test_unbracketed_eigenvalues_after_the_sweep_cap_raise(m2, monkeypatch):
    """One sweep cannot bracket three eigenvalues to 4 tol: the search
    names the ones left open."""
    monkeypatch.setattr(fd_oracle, "_MAX_SWEEPS", 1)
    with pytest.raises(SearchError, match="not bracketed") as info:
        lowest_eigenvalues(assemble(m2, 0, 20.0, 256), 3)
    assert info.value.diagnostics["unbracketed"]


def test_spectrum_units_and_metadata(m2, monkeypatch):
    shifts = []
    sweep = fd_oracle._sweep

    def counted(d, e, x, slope=False):
        shifts.append(np.size(x))
        return sweep(d, e, x, slope)

    monkeypatch.setattr(fd_oracle, "_sweep", counted)
    spec = lowest_eigenvalues(assemble(m2, 0, 20.0, 256), 2)
    assert spec.method == "finite-difference"
    # every shift of the derivative and the closing count sweeps
    assert spec.probes == sum(shifts) > 0
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


def _sequential_negative_count(problem):
    """The pivots of A's LDL factorization in natural order, counted one
    row at a time (zero pivots taken as 1e-300): the reference for the
    cyclic reduction of ``negative_count_fd``."""
    d = problem.stiffness_diag.tolist()
    e = problem.stiffness_off.tolist()
    count = 0
    piv = d[0]
    if piv < 0.0:
        count += 1
    for dj, ej in zip(d[1:], e):
        if piv == 0.0:
            piv = 1e-300
        piv = dj - ej * ej / piv
        if piv < 0.0:
            count += 1
    return count


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    m=st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.3]),
    k=st.integers(0, 5),
    n=st.integers(16, 4097),
    R_over_m=st.floats(0.6, 300.0),
)
def test_cyclic_reduction_count_matches_sequential_pivots(m, k, n, R_over_m):
    problem = assemble(SchwarzschildModel(m), k, R_over_m * (m if m > 0.0 else 1.0), n)
    assert negative_count_fd(problem) == _sequential_negative_count(problem)


def test_scale_covariance_of_fd_spectrum():
    a = richardson_lowest(SchwarzschildModel(1.0), 0, 10.0, n=512)[0]
    b = richardson_lowest(SchwarzschildModel(2.0), 0, 20.0, n=512)[0]
    assert b == pytest.approx(a, rel=1e-10)


# ------------------------------------------------- the numpy eigenvalue solver


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    m=st.sampled_from([0.0, 0.7, 2.0]),
    k=st.integers(0, 3),
    n=st.integers(16, 256),
    how_many=st.integers(1, 5),
    above=st.floats(1e-6, 999.5),
)
@example(m=2.0, k=0, n=32, how_many=5, above=19.0)  # n equal to a coarse grid
@example(m=0.7, k=1, n=64, how_many=5, above=3.0)
def test_lowest_eigenvalues_match_dense_solver(m, k, n, how_many, above):
    """Sturm counts and Newton steps give the dense spectrum of the
    standard form to 8 eps ||T||_inf, from R just above the horizon to
    about 1e3 m (1e3 for the flat m = 0 problems)."""
    scale = m if m > 0.0 else 1.0
    problem = assemble(SchwarzschildModel(m), k, 0.5 * m + above * scale, n)
    d, e = _standard_form(problem)
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    dense = np.linalg.eigvalsh(T)[:how_many]
    got = lowest_eigenvalues(problem, how_many).lambdas()
    bound = 8.0 * np.finfo(float).eps * np.max(np.sum(np.abs(T), axis=1))
    assert np.max(np.abs(got - dense)) <= bound


@pytest.mark.parametrize("n", [1024, 2048, 8192, 16384])
@pytest.mark.parametrize("R", [40.0, 200.0, "R*", 2000.0])
def test_lowest_eigenvalues_match_stebz(m2, R, n):
    """At the benchmark's grid sizes, and at R* (where lam_1 is about 0)
    and R = 1000 m (a clustered spectrum), within 8 eps ||T||_inf of
    LAPACK's bisection."""
    R = stability_radius(m2) if R == "R*" else R
    problem = assemble(m2, 0, R, n)
    reference, bound = stebz_lowest(problem, 3)
    got = lowest_eigenvalues(problem, 3).lambdas()
    assert np.max(np.abs(got - reference)) <= bound
    # the warm start from the half grid (its eigenvalues plus the change
    # the coarse starts extrapolate) reaches the same values
    starts = fd_oracle._coarse_estimates(m2, 0, R, 3)
    half = lowest_eigenvalues(assemble(m2, 0, R, n // 2), 3).lambdas()
    start = [v + (a - b) for v, a, b in zip(half.tolist(), starts(n), starts(n // 2))]
    warm = lowest_eigenvalues(problem, 3, start).lambdas()
    assert np.max(np.abs(warm - reference)) <= bound


def test_counts_survive_a_near_zero_pivot_of_the_reduction(m2):
    """At R = 55.9833 m2 on 25 cells, shifts near lam_5 meet a pivot of
    1.6e-5 on the second level of the odd-even reduction, where the
    entries are about 0.1.  Reduced regardless, counts at shifts as far as
    35 eps ||T||_inf from lam_5 come out wrong, lam_5 + 8 eps ||T||_inf
    among them; handed to the Sturm sequence, every count 8 eps ||T||_inf
    from the six lowest eigenvalues is right."""
    from schwsurf.fd_oracle import _sweep

    d, e = _standard_form(assemble(m2, 0, 55.9833, 25))
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    lams = np.linalg.eigvalsh(T)[:6]
    margin = 8.0 * np.finfo(float).eps * np.max(np.sum(np.abs(T), axis=1))
    below, _ = _sweep(d, e, lams - margin)
    above, _ = _sweep(d, e, lams + margin)
    assert below.tolist() == list(range(6))
    assert above.tolist() == list(range(1, 7))


@pytest.mark.parametrize("starts", ["reversed", "all at the second", "far off"])
def test_starts_do_not_decide_which_eigenvalue(m2, starts):
    """Warm starts in the wrong order, or all at one eigenvalue, cost sweeps
    but not accuracy: the counts bracket each eigenvalue before it is
    accepted.  Accepted on Newton's error estimate alone, lam_3 comes out
    near 2e4 from the first two kinds of start."""
    problem = assemble(m2, 0, 40.0, 2048)
    reference, bound = stebz_lowest(problem, 3)
    start = {
        "reversed": reference[::-1].tolist(),
        "all at the second": [float(reference[1])] * 3,
        "far off": [-10.0, 0.0, 10.0],
    }
    got = lowest_eigenvalues(problem, 3, start[starts]).lambdas()
    assert np.max(np.abs(got - reference)) <= bound


# ------------------------------------------- the plain-float path (<= 2048 cells)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    m=st.sampled_from([0.0, 0.7, 2.0]),
    k=st.sampled_from([0, 1, 3]),
    n=st.integers(16, 2048),
    above=st.floats(1e-3, 999.5),
)
@example(m=2.0, k=0, n=2048, above=19.0)  # the command line's finer grid
@example(m=0.0, k=0, n=1024, above=5.0)  # the flat disc of the Bessel tests
def test_plain_rows_match_the_assembled_standard_form(m, k, n, above):
    """The rows the plain path forms are the floats of ``assemble`` plus
    ``_standard_form``, bit for bit, so both kernels solve one matrix."""
    model = SchwarzschildModel(m)
    R = 0.5 * m + above * (m if m > 0.0 else 1.0)
    d, e = _standard_form(assemble(model, k, R, n))
    plain_d, plain_e = fd_oracle._plain_rows(model, k, R, n)
    assert plain_d == d.tolist() and plain_e == e.tolist()


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(
    m=st.sampled_from([0.0, 0.7, 2.0]),
    k=st.sampled_from([0, 1, 3]),
    n=st.integers(16, 2048),
    above=st.floats(1e-3, 999.5),
    how_many=st.integers(1, 3),
    fractions=st.lists(st.floats(0.01, 0.99), min_size=3, max_size=3),
)
@example(m=2.0, k=0, n=2048, above=19.0, how_many=3, fractions=[0.5, 0.5, 0.5])
@example(m=0.0, k=1, n=16, above=1.0, how_many=3, fractions=[0.1, 0.9, 0.5])
def test_plain_and_numpy_kernels_agree_on_the_same_rows(m, k, n, above, how_many, fractions):
    """On one set of rows the plain Sturm sequence and numpy's odd-even
    reduction count alike: at shifts between the lowest eigenvalues, and
    at the diagonal entries ``d_0`` and ``d_1``, where the first pivot of
    each kernel is exactly 0.  The one driver then gives, on either
    kernel, values within 8 eps ||T||_inf of LAPACK's bisection, and each
    value lies in a bracket of that width whose ends the other kernel
    counts on either side of the same eigenvalue."""
    model = SchwarzschildModel(m)
    R = 0.5 * m + above * (m if m > 0.0 else 1.0)
    problem = assemble(model, k, R, n)
    d, e = _standard_form(problem)
    plain = fd_oracle._plain_solver(d.tolist(), e.tolist())
    dense = fd_oracle._numpy_solver(d, e)
    reference, bound = stebz_lowest(problem, how_many + 1)
    reference = reference.tolist()

    shifts = [float(d[0]), float(d[1])]
    shifts += [a + f * (b - a) for a, b, f in zip(reference, reference[1:], fractions)]
    shifts.append(reference[0] - 1.0)
    assert plain[0](shifts, False)[0] == dense[0](shifts, False)[0]
    counts, slopes = plain[0](shifts, True)
    dense_counts, dense_slopes = dense[0](shifts, True)
    assert counts == dense_counts
    # d/dx log|det(T - x)| away from the zero pivots of d_0 and d_1; its
    # terms p'/p cancel, so the two elimination orders round apart: by up
    # to 3e-7 relative at m = 0, R = 0.003 on 2000 cells (||T|| near 1e12)
    assert slopes[2:] == pytest.approx(dense_slopes[2:], rel=1e-5)

    starts = fd_oracle._coarse_estimates(model, k, R, how_many)(n)
    found = {}
    for name, (sweep, bounds) in (("plain", plain), ("numpy", dense)):
        vals, _ = fd_oracle._lowest(sweep, bounds, list(starts), how_many)
        assert all(type(v) is float for v in vals)
        assert max(abs(v - w) for v, w in zip(vals, reference)) <= bound
        found[name] = vals
    for name, other in (("plain", dense), ("numpy", plain)):
        below = [v - bound for v in found[name]]
        above_ = [v + bound for v in found[name]]
        low, _ = other[0](below, False)
        high, _ = other[0](above_, False)
        for i, (lo_count, hi_count) in enumerate(zip(low, high)):
            assert lo_count <= i < hi_count, (name, i, lo_count, hi_count)


@pytest.mark.parametrize("n", [16, 30, 31, 1024, 2047])
def test_kernels_count_through_exactly_zero_pivots(n):
    """T with 1 on the diagonal and off it has eigenvalues
    1 + 2 cos(j pi/(n + 1)); at x = 0 every third pivot of the Sturm
    sequence is exactly 0 (1 - 1/1), and taken as 1e-300 it still counts
    the eigenvalues below 0 (n = 2 mod 3 would put one at 0)."""
    exact = sum(1 + 2 * math.cos(j * math.pi / (n + 1)) < 0.0 for j in range(1, n + 1))
    ones = [1.0] * n
    plain, _ = fd_oracle._plain_solver(ones, ones[1:])[0]([0.0, 0.5], False)
    dense, _ = fd_oracle._numpy_solver(np.ones(n), np.ones(n - 1))[0]([0.0, 0.5], False)
    assert plain[0] == dense[0] == exact
    assert plain[1] == dense[1]


def test_plain_path_raises_after_the_sweep_cap(m2, monkeypatch):
    """As on the numpy path, a plain solve that cannot bracket its
    eigenvalues within the sweep cap names the ones left open."""
    start = fd_oracle._coarse_estimates(m2, 0, 20.0, 3)(256)
    solver = fd_oracle._plain_solver(*fd_oracle._plain_rows(m2, 0, 20.0, 256))
    monkeypatch.setattr(fd_oracle, "_MAX_SWEEPS", 1)
    with pytest.raises(SearchError, match="not bracketed") as info:
        fd_oracle._lowest(*solver, start, 3)
    assert info.value.diagnostics["unbracketed"]
    with pytest.raises(SearchError, match="not bracketed"):
        richardson_lowest(m2, 0, 20.0, n=256, how_many=3)


_NO_NUMPY_PROBE = """
import json, sys
sys.modules["numpy"] = None  # any numpy import now raises ImportError
from schwsurf import SchwarzschildModel
from schwsurf.errors import DomainError
from schwsurf.fd_oracle import richardson_lowest
out = {"vals": richardson_lowest(SchwarzschildModel(2.0), 0, 40.0, 1024, 3)}
out["flat"] = richardson_lowest(SchwarzschildModel(0.0), 0, 5.0, 1024, 1)
out["errors"] = []
for args in ((2.0, 0.5, 1024, 1), (2.0, 40.0, 8, 1), (2.0, 40.0, 8192, 8192), (2.0, 40.0, 8192, 0)):
    try:
        richardson_lowest(SchwarzschildModel(args[0]), 0, *args[1:])
    except DomainError as exc:
        out["errors"].append(str(exc))
try:
    richardson_lowest(SchwarzschildModel(2.0), 0, 40.0, 2048, 1)
except ImportError:
    out["numpy_path"] = "needs numpy"
print(json.dumps(out))
"""


def test_plain_path_and_domain_errors_need_no_numpy(m2, flat):
    """Up to 2048 cells the Richardson pair is solved, and at any size the
    argument checks are made, with numpy unimportable; a 2048-cell pair
    (its finer grid 4096) takes the numpy path.  The values are the ones
    this process computes, and tuples of floats."""
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_PROBE], capture_output=True, text=True, check=True
    )
    probe = json.loads(proc.stdout)
    vals = richardson_lowest(m2, 0, 40.0, n=1024, how_many=3)
    assert type(vals) is tuple and all(type(v) is float for v in vals)
    assert probe["vals"] == list(vals)
    assert probe["flat"] == list(richardson_lowest(flat, 0, 5.0, n=1024))
    assert probe["errors"] == [
        "R must exceed m/2 = 1.0, with R/m finite, got 0.5",
        "grid size must be >= 16, got 8",
        "how_many = 8192 must be < matrix size 8192",
        "how_many must be >= 1, got 0",
    ]
    assert probe["numpy_path"] == "needs numpy"
    wide = richardson_lowest(m2, 0, 40.0, n=2048, how_many=3)
    assert type(wide) is tuple and all(type(v) is float for v in wide)
