"""Finite-difference cross-check for the mode eigenvalue problems.

Everything here is deliberately independent of the shooting machinery:
the mode equation is discretized in divergence form

    (r u')' - (k^2/r) u + (m/r^2)(1 + m/2r)^-2 u = -lam r (1 + m/2r)^4 u

on a uniform grid over [m/2, R] with a flux-mirrored Neumann row at the
horizon and Dirichlet elimination at R.  The symmetric tridiagonal
generalized problem is solved in numpy alone: Sturm counts by odd-even
reduction say which eigenvalue a bracket holds, and Newton steps on the
determinant, computed in the same sweep, polish it (Wilkinson, *The
Algebraic Eigenvalue Problem*, 1965, ch. 5; Barth, Martin & Wilkinson,
*Numer. Math.* 9, 1967).  No scipy module is loaded.  Agreement with the
shooting spectra is the anti-bug oracle for both sides.

With ``m = 0`` the same assembly covers the flat disc (``k = 0``) and
annulus-degenerate Bessel problems used to validate the scheme against
classical special-function values.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .errors import DomainError, SearchError
from .geometry import SchwarzschildModel
from .spectral import Spectrum, SpectrumEntry


class DiscreteModeProblem(Record):
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


# cells of the smaller of the two coarse grids whose dense spectra give the
# Newton starts; numpy's dense solver stays single-threaded at these sizes
_COARSE_CELLS = 32
# the sweeps a solve may take before it gives up with SearchError; bisection
# alone closes a Gershgorin bracket to 4 eps ||T|| in about 51
_MAX_SWEEPS = 200


def _sweep(d: np.ndarray, e: np.ndarray, shifts, slope: bool = False) -> tuple:
    """Inertia of ``T - x`` at each shift ``x`` (a float or an array), for
    ``T`` with diagonal ``d`` and off-diagonal ``e``: the negative pivots of
    an LDL factorization count the eigenvalues of ``T`` below ``x``
    (Sylvester's law).

    The order is odd-even (cyclic) reduction: the odd nodes of a tridiagonal
    matrix couple only to even ones, so their pivots are their diagonal
    entries, and eliminating them all at once leaves a tridiagonal Schur
    complement on the even nodes, reduced again until one node is left.
    A level whose multipliers ``e/pivot`` exceed 1 in size would let the
    entries grow until rounding swamps the count; from there on the nodes
    are eliminated one by one in natural order (the Sturm sequence, whose
    count is stable at any shift), with a zero pivot taken as ``1e-300``.

    Returns the counts and, with ``slope``, the derivatives
    ``d/dx log|det(T - x)| = sum(p'/p)`` over the pivots ``p``, carried
    through the elimination with the entries' derivatives (else ``None``).
    """
    if np.shape(shifts) == (1,):  # one shift runs faster on 1-D arrays
        count, S = _sweep(d, e, shifts[0], slope)
        return np.reshape(count, 1), None if S is None else np.reshape(S, 1)
    shift = np.asarray(shifts)[..., None]
    lead = shift.shape[:-1]
    # each eliminated pivot's sign (and p'/p), in elimination order, and the
    # multipliers of the level at hand
    negative = np.empty(lead + d.shape, dtype=bool)
    ratio = np.empty(lead + d.shape) if slope else None
    mult = np.empty(lead + d.shape)
    done = 0
    Dp = Ep = None  # d/dx of D and E; -1 and 0 before the first reduction
    # a pivot near 0 may overflow a multiplier; the check below then hands
    # the level to the Sturm sequence
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        D, E = d - shift, e  # T - x, reduced level by level
        while D.shape[-1] > 1:
            piv = D[..., 1::2]
            left = E[..., 0::2]  # node 2i to the pivot 2i + 1
            right = E[..., 1::2]  # the pivot 2i + 1 to node 2i + 2
            p, r = piv.shape[-1], right.shape[-1]
            a = np.divide(left, piv, out=mult[..., :p])
            b = np.divide(right, piv[..., :r], out=mult[..., p : p + r])
            level = mult[..., : p + r]
            if not (level.max() <= 1.0 and level.min() >= -1.0):
                break
            np.less(piv, 0.0, out=negative[..., done : done + p])
            reduced = D[..., 0::2].copy()
            reduced[..., :p] -= left * a
            reduced[..., 1:] -= right * b
            if slope:
                if Dp is None:
                    inv = 1.0 / piv
                    np.negative(inv, out=ratio[..., done : done + p])
                    Dp = np.full(reduced.shape, -1.0)
                    Dp[..., :p] -= a * a
                    Dp[..., 1:] -= b * b
                    Ep = (a * inv)[..., :r] * right
                else:
                    pp = Dp[..., 1::2]
                    np.divide(pp, piv, out=ratio[..., done : done + p])
                    lp, rp = Ep[..., 0::2], Ep[..., 1::2]
                    a_pp = a * pp
                    red_p = Dp[..., 0::2].copy()
                    red_p[..., :p] -= a * (lp + lp - a_pp)
                    red_p[..., 1:] -= b * (rp + rp - b * pp[..., :r])
                    Ep = ((lp - a_pp) / piv)[..., :r] * right + a[..., :r] * rp
                    Dp = red_p
            # the Schur complement's off-diagonal is -a * right; dropping the
            # sign flips every off-diagonal of the level, which leaves the
            # pivots (and so counts and determinants) unchanged
            E = a[..., :r] * right
            D = reduced
            done += p
        count = np.add.reduce(negative[..., :done], axis=-1)
        S = np.add.reduce(ratio[..., :done], axis=-1) if slope else None
        if slope and Dp is None:
            Dp, Ep = np.full(D.shape, -1.0), np.zeros(np.shape(E))
        piv = D[..., 0]
        pp = Dp[..., 0] if slope else None
        for j in range(1, D.shape[-1]):
            piv = np.where(piv == 0.0, 1e-300, piv)
            count += piv < 0.0
            a = E[..., j - 1] / piv
            if slope:
                S += pp / piv
                pp = Dp[..., j] - a * (2.0 * Ep[..., j - 1] - a * pp)
            piv = D[..., j] - E[..., j - 1] * a
        piv = np.where(piv == 0.0, 1e-300, piv)
        count += piv < 0.0
        if slope:
            S += pp / piv
    return count, S


def _coarse_estimates(problem: DiscreteModeProblem, how_many: int):
    """``n -> `` estimates of the standard-form spectrum on ``n`` cells.

    The dense spectra of the same mode on ``c`` and ``2c`` cells,
    extrapolated in ``h^2`` (``lam(n) = lam_inf + C/n^2``).
    """
    c = max(_COARSE_CELLS, 2 * how_many)
    spectra = []
    for cells in (c, 2 * c):
        d, e = _standard_form(assemble(problem.model, problem.k, problem.R, cells))
        dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        spectra.append(np.linalg.eigvalsh(dense)[:c])
    lam_c, lam_2c = spectra
    slope = (lam_c - lam_2c) / (c**-2 - (2 * c) ** -2)
    return lambda n: lam_2c + slope * (n**-2 - (2 * c) ** -2)


def _lowest(d: np.ndarray, e: np.ndarray, start: np.ndarray, how_many: int) -> tuple:
    """The ``how_many`` lowest eigenvalues of ``T``, each bracketed by
    counts within a width of ``4 eps ||T||_inf``, and the number of shifts
    ``x`` at which :func:`_sweep` factored ``T - x``.

    ``start`` estimates the lowest eigenvalues, at least ``how_many`` of
    them; entries past ``how_many`` say where the eigenvalues above lie.
    Every sweep narrows each eigenvalue's bracket: a shift with count
    ``c`` is an upper bound for eigenvalues ``0..c-1`` and a lower bound
    for the rest.  Inside its bracket each estimate takes Newton steps on
    ``det(T - x)``, and bisects the bracket when a step leaves it or fails
    to halve.  When the quadratic error predicted after a Newton step is
    below ``eps ||T||_inf``, one count sweep at ``x -+ 1.5 eps ||T||_inf``
    closes the bracket.
    """
    off = np.zeros_like(d)
    off[:-1] += np.abs(e)
    off[1:] += np.abs(e)
    tol = np.finfo(float).eps * float(np.max(np.abs(d) + off))
    # Gershgorin: every eigenvalue lies in [min(d - off), max(d + off)]
    lo = np.full(how_many, np.min(d - off))
    hi = np.full(how_many, np.max(d + off))
    x = np.clip(start[:how_many], lo, hi)
    neighbours = start.copy()
    last_step = np.full(how_many, np.inf)

    def narrow(shifts, counts):
        for shift, c in zip(shifts, counts):
            hi[:c] = np.minimum(hi[:c], shift)
            lo[c:] = np.maximum(lo[c:], shift)

    todo = np.arange(how_many)
    probes = 0
    for _ in range(_MAX_SWEEPS):
        probes += todo.size
        counts, slope = _sweep(d, e, x[todo], slope=True)
        narrow(x[todo], counts)
        # a zero or non-finite slope, or two estimates that meet, give a
        # step or an error prediction that is not finite: that bisects
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -1.0 / slope
            new = x[todo] + step
            newton = (lo[todo] < new) & (new < hi[todo]) & (np.abs(step) <= 0.5 * last_step[todo])
            x[todo] = np.where(newton, new, 0.5 * (lo[todo] + hi[todo]))
            last_step[todo] = np.where(newton, np.abs(step), np.inf)
            # after a step s the Newton error is about s^2 sum_j 1/|x - lam_j|
            # over the other eigenvalues j
            neighbours[:how_many] = x
            gaps = np.abs(x[todo, None] - neighbours[None, :])
            gaps[np.arange(todo.size), todo] = np.inf
            near = newton & (step * step * np.sum(1.0 / gaps, axis=1) <= tol)
        check = todo[near]
        if check.size:
            shifts = np.concatenate([x[check] - 1.5 * tol, x[check] + 1.5 * tol])
            probes += shifts.size
            counts, _ = _sweep(d, e, shifts)
            narrow(shifts, counts)
        todo = todo[hi[todo] - lo[todo] > 4.0 * tol]
        if todo.size == 0:
            # a value outside its closed bracket is the bracket's midpoint
            inside = (lo <= x) & (x <= hi)
            return np.where(inside, x, 0.5 * (lo + hi)), probes
    raise SearchError(
        f"FD eigenvalues not bracketed within {4.0 * tol:.3g} after {_MAX_SWEEPS} sweeps",
        {"unbracketed": todo.tolist()},
    )


def lowest_eigenvalues(
    problem: DiscreteModeProblem, how_many: int, half: np.ndarray | None = None
) -> Spectrum:
    """Lowest eigenvalues of the congruence-transformed standard problem
    ``T``, each within ``2 eps ||T||_inf``: Sturm counts bracket them and
    Newton steps on ``det(T - lam)`` polish them (see :func:`_lowest`),
    in numpy alone.

    Newton starts from the dense spectra of the same mode on 32 and 64
    cells, extrapolated in ``h^2`` to ``n``.  ``half``, this mode's lowest
    eigenvalues on ``n/2`` cells (as :func:`richardson_lowest` has them),
    moves the starts to those values plus the extrapolated change from
    ``n/2`` to ``n`` cells.  Starts only set the cost: the counts decide
    which eigenvalue each value is.  :attr:`Spectrum.probes` counts the
    shifts ``x`` at which a sweep factored ``T - x``, the derivative
    sweeps' and the closing count sweeps' alike.

    Entries are in mass-squared units for ``m > 0`` and raw inverse-length-
    squared units for the flat ``m = 0`` oracle problems.
    """
    if how_many < 1:
        raise DomainError(f"how_many must be >= 1, got {how_many}")
    if how_many >= problem.n:
        raise DomainError(
            f"how_many = {how_many} must be < matrix size {problem.n}"
        )
    m = problem.model.mass
    unit = m * m if m > 0.0 else 1.0
    estimate = _coarse_estimates(problem, how_many)
    start = estimate(problem.n)[: problem.n]
    if half is not None:
        shift = start[:how_many] - estimate(problem.n / 2)[:how_many]
        start[:how_many] = np.asarray(half) / unit + shift
    d, e = _standard_form(problem)
    vals, probes = _lowest(d, e, start, how_many)
    entries = tuple(
        SpectrumEntry(k=problem.k, n=i + 1, lam=float(v) * unit)
        for i, v in enumerate(vals)
    )
    return Spectrum(
        model=problem.model,
        R=problem.R,
        entries=entries,
        method="finite-difference",
        probes=probes,
    )


def negative_count_fd(problem: DiscreteModeProblem) -> int:
    """Negative generalized eigenvalues, counted without solving.

    Since B is positive, the inertia of A equals the signature of the
    generalized spectrum (Sylvester's law): the count of :func:`_sweep`
    on A at shift 0.
    """
    count, _ = _sweep(problem.stiffness_diag, problem.stiffness_off, 0.0)
    return int(count)


def richardson_lowest(
    model: SchwarzschildModel, k: int, R: float, n: int = 1024, how_many: int = 1
) -> np.ndarray:
    """Grid-refined lowest eigenvalues: ``(4 lam(2n) - lam(n)) / 3``.

    One Richardson step on the second-order scheme; same units as
    :func:`lowest_eigenvalues`.
    """
    lam_n = lowest_eigenvalues(assemble(model, k, R, n), how_many).lambdas()
    lam_2n = lowest_eigenvalues(assemble(model, k, R, 2 * n), how_many, half=lam_n).lambdas()
    return (4.0 * lam_2n - lam_n) / 3.0
