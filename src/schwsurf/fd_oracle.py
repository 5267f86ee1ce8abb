"""Finite-difference cross-check for the mode eigenvalue problems.

Everything here is deliberately independent of the shooting machinery:
the mode equation is discretized in divergence form

    (r u')' - (k^2/r) u + (m/r^2)(1 + m/2r)^-2 u = -lam r (1 + m/2r)^4 u

on a uniform grid over [m/2, R] with a flux-mirrored Neumann row at the
horizon and Dirichlet elimination at R, and the symmetric tridiagonal
generalized problem is solved by Sturm-sequence bisection (LAPACK
``stebz`` through ``scipy.linalg.eigvalsh_tridiagonal``).  scipy is
imported on the first solve, not with the package, so everything else
starts without it.  Agreement with the shooting spectra is the anti-bug
oracle for both sides.

With ``m = 0`` the same assembly covers the flat disc (``k = 0``) and
annulus-degenerate Bessel problems used to validate the scheme against
classical special-function values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import SchwarzschildModel
from .spectral import Spectrum, SpectrumEntry


@dataclass(frozen=True)
class DiscreteModeProblem:
    """Symmetric tridiagonal generalized discretization of one mode.

    ``stiffness_diag``/``stiffness_off`` hold A with ``A u = lam B u``
    (raw units), ``mass_weights`` the positive diagonal of B.  Unknowns
    are the nodes ``grid[:-1]``; the Dirichlet node ``grid[-1] = R`` is
    eliminated.
    """

    model: SchwarzschildModel
    k: int
    R: float
    n: int
    grid: np.ndarray
    stiffness_diag: np.ndarray
    stiffness_off: np.ndarray
    mass_weights: np.ndarray

    def dense_matrices(self) -> tuple:
        """(A, B) as dense arrays, for small-n reference computations."""
        A = (
            np.diag(self.stiffness_diag)
            + np.diag(self.stiffness_off, 1)
            + np.diag(self.stiffness_off, -1)
        )
        B = np.diag(self.mass_weights)
        return A, B


def _potential(m: float, k: int, r: np.ndarray) -> np.ndarray:
    # V(r) = -k^2/r + (m/r^2)(1 + m/2r)^-2; sign convention: A = -(flux + V)
    return -(k * k) / r + (m / r**2) / (1.0 + 0.5 * m / r) ** 2


def _mass_density(m: float, r: np.ndarray) -> np.ndarray:
    return r * (1.0 + 0.5 * m / r) ** 4


def assemble(model: SchwarzschildModel, k: int, R: float, n: int = 1024) -> DiscreteModeProblem:
    """Discretize mode ``k`` on ``[m/2, R]`` with ``n`` uniform cells.

    Interior rows are the standard conservative flux stencil; the horizon
    row integrates over the half cell ``[r0, r0 + dx/2]`` with the outer
    flux mirrored to zero, evaluating potential and mass density at the
    half-cell midpoint (which keeps the mass weight positive even when
    the left endpoint degenerates to ``r = 0`` for ``m = 0``).
    """
    m = model.mass
    if n < 16:
        raise DomainError(f"grid size must be >= 16, got {n}")
    if not (0.5 * m < R < math.inf):
        raise DomainError(f"R must be finite and exceed m/2 = {0.5 * m}, got {R}")

    r0 = 0.5 * m
    dx = (R - r0) / n
    grid = r0 + dx * np.arange(n + 1)
    nodes = grid[:-1]  # unknowns
    half = grid[:-1] + 0.5 * dx  # r_{j+1/2}, j = 0..n-1

    diag = np.empty(n)
    mass = np.empty(n)

    # interior rows j = 1..n-1 (node 0 is the half-cell row below, node n
    # is eliminated by the Dirichlet condition)
    diag[1:] = (half[:-1] + half[1:]) / dx**2 - _potential(m, k, nodes[1:])
    mass[1:] = _mass_density(m, nodes[1:])

    # horizon half cell
    rq = np.array([r0 + 0.25 * dx])
    diag[0] = half[0] / dx**2 - 0.5 * _potential(m, k, rq)[0]
    mass[0] = 0.5 * _mass_density(m, rq)[0]

    full_off = -half[:-1] / dx**2  # couples u_j, u_{j+1}, j = 0..n-2

    return DiscreteModeProblem(
        model=model,
        k=k,
        R=R,
        n=n,
        grid=grid,
        stiffness_diag=diag,
        stiffness_off=full_off,
        mass_weights=mass,
    )


def _standard_form(problem: DiscreteModeProblem) -> tuple:
    # diagonal congruence by 1/sqrt(B): preserves symmetry, tridiagonality,
    # and (Sylvester) the eigenvalue signs
    b = problem.mass_weights
    s = 1.0 / np.sqrt(b)
    d = problem.stiffness_diag * s * s
    e = problem.stiffness_off * s[:-1] * s[1:]
    return d, e


def lowest_eigenvalues(problem: DiscreteModeProblem, how_many: int) -> Spectrum:
    """Lowest eigenvalues by Sturm-sequence bisection on the congruence-
    transformed standard problem.

    Entries are in mass-squared units for ``m > 0`` and raw inverse-length-
    squared units for the flat ``m = 0`` oracle problems.
    """
    if how_many < 1:
        raise DomainError(f"how_many must be >= 1, got {how_many}")
    if how_many >= problem.n:
        raise DomainError(
            f"how_many = {how_many} must be < matrix size {problem.n}"
        )
    # scipy.linalg costs about 0.3 s to import: load it on the first solve
    from scipy.linalg import eigvalsh_tridiagonal

    d, e = _standard_form(problem)
    vals = eigvalsh_tridiagonal(
        d, e, select="i", select_range=(0, how_many - 1), lapack_driver="stebz"
    )
    m = problem.model.mass
    unit = m * m if m > 0.0 else 1.0
    entries = tuple(
        SpectrumEntry(k=problem.k, n=i + 1, lam=float(v) * unit)
        for i, v in enumerate(vals)
    )
    return Spectrum(
        model=problem.model,
        R=problem.R,
        entries=entries,
        method="finite-difference",
        probes=0,
    )


def negative_count_fd(problem: DiscreteModeProblem) -> int:
    """Negative generalized eigenvalues, counted without solving.

    LDL factorization of A: since B is positive, the inertia of A equals
    the signature of the generalized spectrum (Sylvester's law), and the
    inertia of A is the number of negative pivots in any elimination
    order.  The order here is odd-even (cyclic) reduction: the odd nodes
    of a tridiagonal matrix couple only to even ones, so their pivots are
    their diagonal entries, and eliminating them all at once leaves a
    tridiagonal Schur complement on the even nodes, reduced again until
    one node is left.  A zero pivot is taken as ``1e-300``.
    """
    d = problem.stiffness_diag
    e = problem.stiffness_off
    count = 0
    while d.size > 1:
        piv = d[1::2]
        piv = np.where(piv == 0.0, 1e-300, piv)
        count += int(np.count_nonzero(piv < 0.0))
        left = e[0::2]  # node 2i to the pivot 2i + 1
        right = e[1::2]  # the pivot 2i + 1 to node 2i + 2
        inner = piv[: right.size]
        reduced = d[0::2].copy()
        reduced[: piv.size] -= left * left / piv
        reduced[1:] -= right * right / inner
        e = -left[: right.size] * right / inner
        d = reduced
    return count + int(d[0] < 0.0)


def richardson_lowest(
    model: SchwarzschildModel, k: int, R: float, n: int = 1024, how_many: int = 1
) -> np.ndarray:
    """Grid-refined lowest eigenvalues: ``(4 lam(2n) - lam(n)) / 3``.

    One Richardson step on the second-order scheme; same units as
    :func:`lowest_eigenvalues`.
    """
    lam_n = lowest_eigenvalues(assemble(model, k, R, n), how_many).lambdas()
    lam_2n = lowest_eigenvalues(assemble(model, k, R, 2 * n), how_many).lambdas()
    return (4.0 * lam_2n - lam_n) / 3.0
