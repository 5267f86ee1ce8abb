"""Finite-difference cross-check for the mode eigenvalue problems.

Everything here is deliberately independent of the shooting machinery:
the mode equation is discretized in divergence form

    (r u')' - (k^2/r) u + (m/r^2)(1 + m/2r)^-2 u = -lam r (1 + m/2r)^4 u

on a uniform grid over [m/2, R] with a flux-mirrored Neumann row at the
horizon and Dirichlet elimination at R, formed in units of ``m`` (the
``m = 1`` problem on ``r/m``, whose eigenvalues are ``lam m^2``) and raw
at ``m = 0``.  Sturm counts of the symmetric tridiagonal standard form
say which eigenvalue a bracket holds, and Newton steps on the
determinant, computed in the same sweep, polish it
(Wilkinson, *The Algebraic Eigenvalue Problem*, 1965, ch. 5; Barth,
Martin & Wilkinson, *Numer. Math.* 9, 1967), driven by one routine,
:func:`_lowest`.  No scipy module is loaded.  Agreement with the
shooting spectra is the anti-bug oracle for both sides.

Both paths of a solve start Newton from one plain-float solve of the
same mode on 32 and 64 cells (:func:`_coarse_estimates`); which kernel
solves the fine grids :func:`richardson_lowest` chooses from the cell
count of its finer grid:

- up to ``_PLAIN_CELLS = 2048`` cells, plain floats: rows formed one by
  one (:func:`_plain_rows`), counted by the natural-order Sturm sequence
  one shift at a time (:func:`_sturm`), so no numpy is imported;
- above it, numpy: :func:`assemble`, and counts by odd-even reduction at
  all shifts of a sweep at once (:func:`_sweep`).

Both kernels solve one matrix: the plain rows are the floats of
:func:`assemble`'s standard form, bit for bit.

2048 is the finer grid of the command line's 1024-cell Richardson pair.
Measured on a 2-CPU machine (Python 3.11, numpy 2.4; medians of 15,
m = 2): a plain Richardson pair at ``n = 1024`` takes 5.8 ms against
numpy's 4.0 (R = 40, three eigenvalues) and 3.9 against 3.0 ms (R = 200,
one), while a fresh interpreter takes 0.18 s to import numpy against
0.04 s to start, so ``spectrum --method both`` runs in 0.09 s instead of
0.22 s.  At ``n = 2048`` the plain pair takes 11.2 ms against 5.5, and
one plain slope sweep costs 0.40 ms at 4096 rows against numpy's 0.31:
the plain sweep grows with the rows, numpy's hardly, so the cutoff should
move only on a new measurement of both sides.

With ``m = 0`` the same assembly covers the flat disc (``k = 0``) and
annulus-degenerate Bessel problems used to validate the scheme against
classical special-function values.
"""

from __future__ import annotations

import bisect
import math
import sys

from ._record import Record
from .errors import DomainError, SearchError
from .geometry import SchwarzschildModel
from .spectral import Spectrum, SpectrumEntry


class DiscreteModeProblem(Record):
    """Symmetric tridiagonal generalized discretization of one mode.

    ``stiffness_diag``/``stiffness_off`` hold A with ``A u = lam B u``,
    ``mass_weights`` the positive diagonal of B.  Unknowns are the nodes
    ``grid[:-1]``; the Dirichlet node ``grid[-1] = R`` is eliminated.
    ``grid``, A and B are in units of ``m`` (``lam`` in mass-squared
    units), raw at ``m = 0``; ``model`` and ``R`` are raw.
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
        import numpy as np

        A = (
            np.diag(self.stiffness_diag)
            + np.diag(self.stiffness_off, 1)
            + np.diag(self.stiffness_off, -1)
        )
        B = np.diag(self.mass_weights)
        return A, B


def _coefficients(m: float, k: int, r) -> tuple:
    """The potential ``V(r) = -k^2/r + (m/r^2)(1 + m/2r)^-2`` and the mass
    density ``r (1 + m/2r)^4`` of the mode equation (sign convention:
    ``A = -(flux + V)``), at a float ``r``: the plain rows call it, and
    :func:`assemble` forms the same operations, in the same order, in place
    on its arrays.  The fourth power is two squarings, which round alike on
    floats and arrays (``**`` calls libm's ``pow`` on one and numpy's
    vectorized power on the other, up to 2 ulps apart)."""
    q = 1.0 + 0.5 * m / r
    q = q * q
    return -(k * k) / r + (m / (r * r)) / q, r * (q * q)


def _in_units_of_m(model: SchwarzschildModel, R: float, n: int) -> tuple:
    """``(m, R)`` in units of ``m``, checked: the ``m = 1`` problem on
    ``R/m``, whose eigenvalues are ``lam m^2``, or the flat one raw."""
    if n < 16:
        raise DomainError(f"grid size must be >= 16, got {n}")
    m, X = (1.0, R / model.mass) if model.mass > 0.0 else (0.0, R)
    if not (0.5 * m < X < math.inf):
        raise DomainError(f"R must exceed m/2 = {0.5 * model.mass}, with R/m finite, got {R}")
    return m, X


def _check_count(how_many: int, n: int) -> None:
    if how_many < 1:
        raise DomainError(f"how_many must be >= 1, got {how_many}")
    if how_many >= n:
        raise DomainError(f"how_many = {how_many} must be < matrix size {n}")


def assemble(model: SchwarzschildModel, k: int, R: float, n: int = 1024) -> DiscreteModeProblem:
    """Discretize mode ``k`` on ``[m/2, R]`` with ``n`` uniform cells.

    Interior rows are the standard conservative flux stencil; the horizon
    row integrates over the half cell ``[r0, r0 + dx/2]`` with the outer
    flux mirrored to zero, evaluating potential and mass density at the
    half-cell midpoint (which keeps the mass weight positive even when
    the left endpoint degenerates to ``r = 0`` for ``m = 0``).
    """
    m, X = _in_units_of_m(model, R, n)
    import numpy as np

    r0 = 0.5 * m
    dx = (X - r0) / n
    dx2 = dx**2
    step = 0.5 * dx
    # each array is formed in place in its own output, by the operations of
    # _coefficients and the stencil in their order: a fresh temporary per
    # operation cost 18 arrays of n floats per call
    grid = np.arange(n + 1, dtype=float)
    np.multiply(grid, dx, out=grid)
    np.add(grid, r0, out=grid)
    r = grid[1:-1]  # the interior nodes j = 1..n-1
    diag = np.empty(n)
    mass = np.empty(n)
    off = np.empty(n - 1)
    work = np.empty(n - 1)

    # interior rows j = 1..n-1 (node 0 is the half-cell row below, node n
    # is eliminated by the Dirichlet condition): the flux through the cell
    # faces r_{j -+ 1/2} over dx^2, minus the potential
    flux = diag[1:]
    np.add(grid[:-2], step, out=flux)
    np.add(flux, np.add(r, step, out=work), out=flux)
    np.divide(flux, dx2, out=flux)
    # _coefficients at r: q = (1 + m/2r)^2 in work, the mass density
    # r q^2, and the potential -k^2/r + (m/r^2)/q, its second term in off
    q = work
    np.divide(0.5 * m, r, out=q)
    np.add(q, 1.0, out=q)
    np.multiply(q, q, out=q)
    np.multiply(r, r, out=off)
    np.divide(m, off, out=off)
    np.divide(off, q, out=off)
    density = mass[1:]
    np.multiply(q, q, out=density)
    np.multiply(density, r, out=density)
    potential = work
    np.divide(-(k * k), r, out=potential)
    np.add(potential, off, out=potential)
    np.subtract(flux, potential, out=flux)

    # horizon half cell, its coefficients at the midpoint
    potential, density = _coefficients(m, k, r0 + 0.25 * dx)
    diag[0] = (r0 + step) / dx2 - 0.5 * potential
    mass[0] = 0.5 * density

    # couples u_j, u_{j+1}, j = 0..n-2: -r_{j+1/2} / dx^2
    np.add(grid[:-2], step, out=off)
    np.negative(off, out=off)
    np.divide(off, dx2, out=off)

    return DiscreteModeProblem(
        model=model,
        k=k,
        R=R,
        n=n,
        grid=grid,
        stiffness_diag=diag,
        stiffness_off=off,
        mass_weights=mass,
    )


def _standard_form(problem: DiscreteModeProblem) -> tuple:
    # diagonal congruence by 1/sqrt(B): preserves symmetry, tridiagonality,
    # and (Sylvester) the eigenvalue signs
    import numpy as np

    b = problem.mass_weights
    s = 1.0 / np.sqrt(b)
    d = problem.stiffness_diag * s * s
    e = problem.stiffness_off * s[:-1] * s[1:]
    return d, e


def _plain_rows(model: SchwarzschildModel, k: int, R: float, n: int) -> tuple:
    """The standard form ``(d, e)`` of ``assemble(model, k, R, n)`` as
    lists of floats, equal to it entry for entry: the same stencil, formed
    row by row in the order of operations of :func:`assemble` and
    :func:`_standard_form`."""
    m, X = _in_units_of_m(model, R, n)
    r0 = 0.5 * m
    dx = (X - r0) / n
    dx2 = dx**2
    step = 0.5 * dx
    sqrt = math.sqrt
    # horizon half cell
    potential, density = _coefficients(m, k, r0 + 0.25 * dx)
    h = r0 + step  # r_{1/2}
    s = 1.0 / sqrt(0.5 * density)
    d = [(h / dx2 - 0.5 * potential) * s * s]
    e = []
    for j in range(1, n):
        r = r0 + dx * j
        h_next = r + step
        potential, density = _coefficients(m, k, r)
        s_next = 1.0 / sqrt(density)
        d.append(((h + h_next) / dx2 - potential) * s_next * s_next)
        e.append(-h / dx2 * s * s_next)
        h, s = h_next, s_next
    return d, e


# problems of at most this many cells are solved in plain floats, larger ones
# in numpy; richardson_lowest picks the path by its finer grid
_PLAIN_CELLS = 2048
# cells of the smaller of the two coarse grids whose eigenvalues give the
# Newton starts
_COARSE_CELLS = 32
# the coarse grids are solved with this multiple of eps ||T||_inf in place
# of eps ||T||_inf: brackets of 2^30 eps (about 2.4e-7) times ||T||_inf, far
# below the error of the extrapolation to the fine grid, which is what a
# Newton start carries
_COARSE_TOL = 2.0**28
# the sweeps a solve may take before it gives up with SearchError; bisection
# alone closes a Gershgorin bracket to 4 eps ||T|| in about 51
_MAX_SWEEPS = 200


def _sweep(d, e, shifts, slope: bool = False) -> tuple:
    """Inertia of ``T - x`` at each shift ``x`` (a float or an array), for
    ``T`` with diagonal ``d`` and off-diagonal ``e`` (arrays): the negative
    pivots of an LDL factorization count the eigenvalues of ``T`` below
    ``x`` (Sylvester's law).

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
    import numpy as np

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


def _sturm(d0: float, rows, x: float, slope: bool) -> tuple:
    """The count of eigenvalues of ``T`` below ``x`` and, with ``slope``,
    ``d/dx log|det(T - x)|`` (else ``None``), in plain floats: the
    natural-order Sturm sequence that :func:`_sweep` falls back to, which
    is stable at any shift.  ``T`` has diagonal ``d0, d_1, ...`` and
    ``rows`` yields the pairs ``(d_j, e_{j-1}^2)``.  The pivots are
    ``p_0 = d0 - x`` and ``p_j = d_j - x - e_{j-1}^2 / p_{j-1}``, a zero
    pivot taken as ``1e-300``; the slope sums ``w_j = p_j'/p_j``, with
    ``p_j' = -1 + (e_{j-1}^2 / p_{j-1}) w_{j-1}``.
    """
    piv = (d0 - x) or 1e-300
    count = 1 if piv < 0.0 else 0
    if not slope:
        for dj, ej2 in rows:
            piv = (dj - x - ej2 / piv) or 1e-300
            if piv < 0.0:
                count += 1
        return count, None
    w = -1.0 / piv
    S = w
    for dj, ej2 in rows:
        t = ej2 / piv
        piv = (dj - x - t) or 1e-300
        w = (t * w - 1.0) / piv
        S += w
        if piv < 0.0:
            count += 1
    return count, S


# A solver is the pair (sweep, bounds) of one standard form T:
# sweep(shifts, slope) gives the lists of counts and of slopes (or None) at
# the shifts, and bounds is the Gershgorin interval of T with eps ||T||_inf.


def _plain_solver(d: list, e: list) -> tuple:
    """The solver of ``T`` given as lists, swept one shift at a time by
    :func:`_sturm`."""
    # one pass forms the squares e_j^2 and the Gershgorin interval
    # (comparisons, not min and max, keep it at a third of a sweep's cost);
    # each sweep zips the squares with d afresh, which holds no row tuples
    squares = []
    lower = upper = d[0]
    norm = left = 0.0
    for dj, ej in zip(d, [*e, 0.0]):
        right = -ej if ej < 0.0 else ej
        off = left + right
        if dj - off < lower:
            lower = dj - off
        if dj + off > upper:
            upper = dj + off
        row = (-dj if dj < 0.0 else dj) + off
        if row > norm:
            norm = row
        squares.append(ej * ej)
        left = right
    d0, rest = d[0], d[1:]

    def sweep(shifts, slope):
        swept = [_sturm(d0, zip(rest, squares), x, slope) for x in shifts]
        return [c for c, _ in swept], [s for _, s in swept] if slope else None

    return sweep, (lower, upper, sys.float_info.epsilon * norm)


def _numpy_solver(d, e) -> tuple:
    """The solver of ``T`` given as arrays, swept at all shifts at once by
    :func:`_sweep`."""
    import numpy as np

    def sweep(shifts, slope):
        counts, S = _sweep(d, e, np.array(shifts), slope)
        return counts.tolist(), None if S is None else S.tolist()

    off = np.zeros_like(d)
    off[:-1] += np.abs(e)
    off[1:] += np.abs(e)
    norm = float(np.max(np.abs(d) + off))
    lower, upper = float(np.min(d - off)), float(np.max(d + off))
    return sweep, (lower, upper, sys.float_info.epsilon * norm)


def _narrow(lo: list, hi: list, shifts, counts) -> None:
    # a shift with count c is an upper bound for eigenvalues 0..c-1 and a
    # lower bound for the rest; both bounds rise with the index, so a shift
    # moves one run of each, found by bisection
    for x, c in zip(shifts, counts):
        c = min(c, len(hi))
        j = bisect.bisect_right(hi, x, 0, c)
        hi[j:c] = [x] * (c - j)
        j = bisect.bisect_left(lo, x, c)
        lo[c:j] = [x] * (j - c)


def _bisect_lowest(solver: tuple, how_many: int) -> list:
    """The ``how_many`` lowest eigenvalues, each the midpoint of a count
    bracket no wider than ``4 tol``, from the Gershgorin interval."""
    sweep, (lower, upper, tol) = solver
    lo, hi = [lower] * how_many, [upper] * how_many
    for i in range(how_many):
        while hi[i] - lo[i] > 4.0 * tol:
            x = 0.5 * (lo[i] + hi[i])
            _narrow(lo, hi, (x,), sweep((x,), False)[0])
    return [0.5 * (a + b) for a, b in zip(lo, hi)]


def _coarse_estimates(model: SchwarzschildModel, k: int, R: float, how_many: int):
    """``n -> `` estimates of the ``how_many + 1`` lowest standard-form
    eigenvalues on ``n`` cells, the last of them saying where the
    eigenvalues above the wanted ones lie.

    The eigenvalues of the same mode on ``c`` and ``2c`` cells,
    extrapolated in ``h^2`` (``lam(n) = lam_inf + C/n^2``), each bracketed
    to ``4 _COARSE_TOL eps ||T||_inf`` in plain floats: by count bisection
    on ``c`` cells, and by Newton steps from those values on ``2c`` cells.
    Both kernels of the fine grids start from them.
    """
    c = max(_COARSE_CELLS, 2 * how_many)
    loose = []
    for cells in (c, 2 * c):
        sweep, (lower, upper, tol) = _plain_solver(*_plain_rows(model, k, R, cells))
        loose.append((sweep, (lower, upper, _COARSE_TOL * tol)))
    lam_c = _bisect_lowest(loose[0], how_many + 1)
    lam_2c, _ = _lowest(*loose[1], lam_c, how_many + 1)
    scale = c**-2 - (2 * c) ** -2
    slope = [(a - b) / scale for a, b in zip(lam_c, lam_2c)]
    return lambda n: [b + s * (n**-2 - (2 * c) ** -2) for b, s in zip(lam_2c, slope)]


def _lowest(sweep, bounds: tuple, start: list, how_many: int) -> tuple:
    """The ``how_many`` lowest eigenvalues of ``T``, each bracketed by
    counts within a width of ``4 tol``, and the number of shifts ``x`` at
    which ``sweep`` factored ``T - x``; ``bounds`` is the Gershgorin
    interval and ``tol``, which is ``eps ||T||_inf`` but for the coarse
    grids of :func:`_coarse_estimates`.

    ``start`` estimates the lowest eigenvalues, at least ``how_many`` of
    them; entries past ``how_many`` say where the eigenvalues above lie.
    Every sweep narrows each eigenvalue's bracket (see :func:`_narrow`),
    starting from the Gershgorin interval.  Inside its bracket each
    estimate takes Newton steps on ``det(T - x)``, and bisects the bracket
    when a step leaves it or fails to halve.  When the quadratic error
    predicted after a Newton step is below ``tol``, one count sweep at
    ``x -+ 1.5 tol`` closes the bracket.
    """
    lower, upper, tol = bounds
    lo, hi = [lower] * how_many, [upper] * how_many
    x = [min(max(s, lower), upper) for s in start[:how_many]]
    neighbours = list(start)
    last_step = [math.inf] * how_many
    todo = list(range(how_many))
    probes = 0
    for _ in range(_MAX_SWEEPS):
        shifts = [x[i] for i in todo]
        probes += len(shifts)
        counts, slopes = sweep(shifts, True)
        _narrow(lo, hi, shifts, counts)
        newton = {}
        for i, slope in zip(todo, slopes):
            # a zero or non-finite slope gives a step that is not finite:
            # that bisects
            step = -1.0 / slope if slope else -math.inf
            new = x[i] + step
            if lo[i] < new < hi[i] and abs(step) <= 0.5 * last_step[i]:
                x[i], last_step[i], newton[i] = new, abs(step), step
            else:
                x[i], last_step[i] = 0.5 * (lo[i] + hi[i]), math.inf
        # after a step s the Newton error is about s^2 sum_j 1/|x - lam_j|
        # over the other eigenvalues j; estimates that meet predict inf
        neighbours[:how_many] = x
        near = []
        for i, step in newton.items():
            gaps = [abs(x[i] - y) for j, y in enumerate(neighbours) if j != i]
            error = step * step * sum(1.0 / g for g in gaps) if all(gaps) else math.inf
            if error <= tol:
                near.append(i)
        if near:
            shifts = [x[i] - 1.5 * tol for i in near] + [x[i] + 1.5 * tol for i in near]
            probes += len(shifts)
            _narrow(lo, hi, shifts, sweep(shifts, False)[0])
        todo = [i for i in todo if hi[i] - lo[i] > 4.0 * tol]
        if not todo:
            # a value outside its closed bracket is the bracket's midpoint
            return [v if a <= v <= b else 0.5 * (a + b) for v, a, b in zip(x, lo, hi)], probes
    raise SearchError(
        f"FD eigenvalues not bracketed within {4.0 * tol:.3g} after {_MAX_SWEEPS} sweeps",
        {"unbracketed": todo},
    )


def lowest_eigenvalues(problem: DiscreteModeProblem, how_many: int, start=None) -> Spectrum:
    """Lowest eigenvalues of the congruence-transformed standard problem
    ``T``, each within ``2 eps ||T||_inf``: Sturm counts by odd-even
    reduction bracket them and Newton steps on ``det(T - lam)`` polish them
    (see :func:`_lowest`), in numpy.

    Newton starts from ``start``, estimates of the lowest eigenvalues of
    ``T`` (at least ``how_many`` of them; one more says where the
    eigenvalues above lie).  By default they are the lowest
    eigenvalues of the same mode on 32 and 64 cells, found in plain floats
    and extrapolated in ``h^2`` to ``n`` (:func:`_coarse_estimates`).
    Starts only set the cost: the counts decide which eigenvalue each value
    is.  :attr:`Spectrum.probes` counts the shifts ``x`` at which a sweep
    factored ``T - x``, the derivative sweeps' and the closing count
    sweeps' alike.

    Entries are in mass-squared units for ``m > 0`` and raw inverse-length-
    squared units for the flat ``m = 0`` oracle problems.
    """
    _check_count(how_many, problem.n)
    if start is None:
        start = _coarse_estimates(problem.model, problem.k, problem.R, how_many)(problem.n)
    vals, probes = _lowest(*_numpy_solver(*_standard_form(problem)), start, how_many)
    entries = tuple(SpectrumEntry(k=problem.k, n=i + 1, lam=v) for i, v in enumerate(vals))
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
) -> tuple:
    """Grid-refined lowest eigenvalues ``(4 lam(2n) - lam(n)) / 3``, as a
    tuple of floats in the units of :func:`lowest_eigenvalues`.

    One Richardson step on the second-order scheme.  The coarse starts are
    formed once for both grids; the finer grid starts from the coarser
    grid's eigenvalues plus the change from ``n`` to ``2n`` cells that they
    extrapolate.  A pair whose finer grid has at most ``_PLAIN_CELLS``
    cells is solved in plain floats (:func:`_plain_rows`, :func:`_sturm`),
    and loads no numpy; a larger one through :func:`assemble` and
    :func:`lowest_eigenvalues`.
    """
    _in_units_of_m(model, R, n)
    _check_count(how_many, n)
    starts = _coarse_estimates(model, k, R, how_many)

    def solve(cells: int, start: list) -> list:
        if 2 * n <= _PLAIN_CELLS:
            return _lowest(*_plain_solver(*_plain_rows(model, k, R, cells)), start, how_many)[0]
        return lowest_eigenvalues(assemble(model, k, R, cells), how_many, start).lambdas().tolist()

    start = starts(n)
    lam_n = solve(n, start)
    fine = starts(2 * n)
    fine[:how_many] = [lam + (a - b) for lam, a, b in zip(lam_n, fine, start)]
    lam_2n = solve(2 * n, fine)
    return tuple((4.0 * b - a) / 3.0 for a, b in zip(lam_n, lam_2n))
