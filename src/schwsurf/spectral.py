"""Spectral quantities of the truncated plane: counts, eigenvalues, index.

The truncated problem on ``m/2 <= r <= R`` carries the Neumann condition
on the horizon and a Dirichlet condition at ``R``.  Its spectrum per
Fourier mode ``k`` is simple, and classical oscillation theory ties the
position of the ``n``-th eigenvalue to the number of interior zeros of
the horizon shot: the ``lam = 0`` shot has as many interior zeros as the
mode has negative eigenvalues.  Shots run in ``log r`` as a scaled Prüfer
phase (:mod:`schwsurf.mode_odes`), so counts are read off the phase at
``R``.  No step cap or step budget ties the cost of a shot to ``R``.

Eigenvalues come from two-sided shooting (Pryce, *Numerical Solution of
Sturm-Liouville Problems*, OUP 1993): the horizon shot and the shot inward
from ``v(R) = 0`` meet at the matching radius ``r_c = min(4m, sqrt(m R/2))``,
and the ``n``-th eigenvalue is the root of the miss-distance
``D(lam) = theta_L(r_c) - theta_R(r_c) = n pi``.  Past ``R`` of about
``50 m`` the one-sided ``theta(R; lam)`` jumps by ``pi`` across an
exponentially narrow window in ``lam``, where a root search can only
bisect; ``D`` stays smooth there.

The mode problems depend on ``R/m`` and ``lam m^2`` alone: each shot is of
the ``m = 1`` mode on ``R/m`` (:func:`_shoot`), in mass-squared units.
"""

from __future__ import annotations

import math
import sys

from ._record import Record
from .errors import DomainError, IntegrationError, PreconditionError, SearchError
from .geometry import DEFAULT_ROOT_TOL, SchwarzschildModel
from .mode_odes import (
    DEFAULT_ODE_TOL,
    ModeParams,
    RadialSolution,
    integrate_v,
    miss_distance,
)
from .roots import brentq

# the final width of each eigenvalue's Brent bracket, in mass-squared units;
# nothing ties it to the ODE tol: at m = 2, R = 2000, ode_tol = 1e-6 it gives
# lam_2 = 7.39428336e-06 (7.39428186e-06 at the default ode_tol), where a
# width of 1e-5, ten times that ode_tol, gives 9.88e-06
DEFAULT_LAMBDA_TOL = 1e-9
_SPECTRUM_FLOOR = -0.125  # mass-squared units: lam_1 > -1/(8 m^2) for every k and R
_MAX_DOUBLINGS = 60
_UNIT_MASS = SchwarzschildModel(1.0)


class SpectrumEntry(Record):
    k: int
    n: int
    lam: float  # mass-squared units


class Spectrum(Record):
    """Sorted eigenvalues of one truncated mode problem."""

    model: SchwarzschildModel
    R: float
    entries: tuple
    method: str
    probes: int  # values of lam shot; for FD, shifts at which T - lam was factored

    def lambdas(self) -> np.ndarray:
        import numpy as np

        return np.asarray([e.lam for e in self.entries])


class IndexReport(Record):
    """Negative-count bookkeeping behind a Morse index value."""

    model: SchwarzschildModel
    R: float
    kmax: int
    per_mode_negative_counts: dict
    morse_index: int


def interior_zero_count(solution: RadialSolution, R: float, tol: float) -> int:
    """Zeros of the shot strictly inside ``(m/2, R)``, read off the phase.

    The ``j``-th zero is where the Prüfer phase passes ``j pi``.  A phase
    within ``10 tol`` below or above ``j pi`` at ``R`` is treated as the
    boundary zero of an eigenfunction, not an interior one; that makes the
    count insensitive to roundoff when an eigenvalue sits at exactly zero.
    """
    theta = solution.phase(R)
    return max(0, math.ceil((theta - 10.0 * tol) / math.pi) - 1)


def _shoot(solve, model: SchwarzschildModel, k: int, lam: float, R: float, *args):
    """``solve(params, *args)`` on the ``m = 1`` mode ``k`` on ``R/m``, ``lam``
    in mass-squared units; ``R`` and a failed shot's radius are raw."""
    model.require_horizon("ModeParams")
    m = model.mass
    if not (0.5 < R / m < math.inf):
        raise DomainError(f"R must exceed m/2 = {0.5 * m}, with R/m finite, got {R}")
    try:
        return solve(ModeParams(_UNIT_MASS, k, lam, R / m), *args)
    except IntegrationError as exc:
        raise IntegrationError(f"step size underflow at r = {exc.last_r * m}", last_r=exc.last_r * m) from exc


def negative_count(
    model: SchwarzschildModel,
    k: int,
    R: float,
    ode_tol: float = DEFAULT_ODE_TOL,
) -> int:
    """Number of negative eigenvalues of mode ``k`` truncated at ``R``.

    Equals the number of interior zeros of the ``lam = 0`` shot.
    """
    sol = _shoot(integrate_v, model, k, 0.0, R, ode_tol)
    return interior_zero_count(sol, sol.r_max, ode_tol)


def eigenvalues_shooting(
    model: SchwarzschildModel,
    k: int,
    R: float,
    how_many: int,
    tol: float = DEFAULT_LAMBDA_TOL,
    ode_tol: float = DEFAULT_ODE_TOL,
) -> Spectrum:
    """Lowest ``how_many`` eigenvalues of mode ``k`` by two-sided shooting.

    The ``n``-th eigenvalue is the root of Pryce's miss-distance
    ``D(lam) = theta_L(r_c; lam) - theta_R(r_c; lam) = n pi``
    (:func:`schwsurf.mode_odes.miss_distance`): the horizon shot and the
    shot inward from ``v(R) = 0`` meet at the matching radius
    ``r_c = min(4m, sqrt(m R/2))``, the midpoint of ``[m/2, R]`` in
    ``log r``, capped near the horizon where the lowest mode lives.  ``D``
    increases strictly and smoothly with ``lam``, also where the one-sided
    ``theta(R; lam)`` jumps by ``pi`` across an exponentially narrow
    window, so the root search does not degrade to bisection.

    One pair of half-shots per ``lam`` serves every ``n``, so each probe is
    kept and every bracket is the tightest the probes made so far allow.
    The probes start at ``lam = 0`` and, when ``D(0) > pi``, at the lower
    bound ``-1/(8 m^2)`` of the spectrum (the largest ratio of the
    potential ``(m/r^3)(1 + m/2r)^-2`` to the weight ``(1 + m/2r)^4``,
    reached on the horizon).  Above the highest probe, brackets grow by
    doubling a step of ``(pi/(R - m/2))^2``, the lowest Dirichlet
    eigenvalue of ``-u''`` on ``[m/2, R]``, or the smallest normal double
    where that underflows.  Each bracket is polished by
    Brent's method; ``tol`` bounds its final width in mass-squared units.
    :attr:`Spectrum.probes` counts the values of ``lam`` shot.

    Raises :class:`SearchError` with diagnostics if no probe falls below
    an eigenvalue, bracket expansion fails to enclose it, or the root
    search fails.
    """
    model.require_horizon("eigenvalues_shooting")
    m = model.mass
    if how_many < 1:
        raise DomainError(f"how_many must be >= 1, got {how_many}")
    if not (R > 0.5 * m):
        raise DomainError(f"R must exceed m/2 = {0.5 * m}, got {R}")
    if not (tol > 0.0):
        raise DomainError(f"tol must be > 0, got {tol}")

    X = R / m
    r_c = min(4.0, math.sqrt(0.5 * X))
    # past R/m of about 2e154 the step underflows, and doubling 0 stays at 0
    step = max((math.pi / (X - 0.5)) ** 2, sys.float_info.min)
    cache: dict = {}

    def miss(lam: float) -> float:
        if lam not in cache:
            cache[lam] = _shoot(miss_distance, model, k, lam, R, r_c, ode_tol)
        return cache[lam]

    def bracket(n: int) -> tuple:
        target = n * math.pi
        lam = max(max(cache), 0.0) + step
        for _ in range(_MAX_DOUBLINGS):
            if max(cache.values()) > target:
                break
            miss(lam)
            lam *= 2.0
        if max(cache.values()) <= target:
            raise SearchError(
                "upper bracket expansion failed",
                diagnostics={"k": k, "n": n, "lam": lam, "miss": max(cache.values())},
            )
        below = [x for x, d in cache.items() if d <= target]
        if not below:
            lowest = min(cache)
            raise SearchError(
                "no probe below the eigenvalue",
                diagnostics={"k": k, "n": n, "lam": lowest, "miss": cache[lowest]},
            )
        return max(below), min(x for x, d in cache.items() if d > target)

    if miss(0.0) > math.pi:
        miss(_SPECTRUM_FLOOR)
    entries = []
    for n in range(1, how_many + 1):
        lam_lo, lam_hi = bracket(n)
        lam_n = brentq(
            lambda lam: miss(lam) - n * math.pi,
            lam_lo,
            lam_hi,
            xtol=tol,
            rtol=8.0 * sys.float_info.epsilon,
        )
        entries.append(SpectrumEntry(k=k, n=n, lam=lam_n))

    return Spectrum(
        model=model,
        R=R,
        entries=tuple(entries),
        method="shooting",
        probes=len(cache),
    )


def eigenfunction(
    model: SchwarzschildModel,
    k: int,
    R: float,
    lam: float,
    n_samples: int = 2001,
    ode_tol: float = DEFAULT_ODE_TOL,
) -> tuple:
    """Sampled eigenfunction ``u = v/sqrt(r)`` for a converged eigenvalue.

    ``lam`` is in mass-squared units.  Returns ``(r, u, u_prime)`` on a
    uniform grid over ``[m/2, R]``, normalized to weighted norm one in
    ``integral of u^2 (1 + m/2r)^4 r dr`` (the angular factor ``2 pi`` is
    left out) with ``u(m/2) > 0``.
    """
    import numpy as np

    m = model.mass
    sol = _shoot(integrate_v, model, k, lam, R, ode_tol)
    r = np.linspace(0.5 * m, R, n_samples)
    v, vp = sol.values(r / m)
    sq = np.sqrt(r)
    u = v / sq
    up = vp / m / sq - 0.5 * v / (r * sq)
    w = (1.0 + 0.5 * m / r) ** 4 * r
    norm2 = _panel_integral_hermite(r, u * u * w, _slope_operator(r))
    u /= math.sqrt(norm2)
    up /= math.sqrt(norm2)
    return r, u, up


# -------------------------------------------------------------------------
# Rayleigh quotient
# -------------------------------------------------------------------------

def _panel_integral_hermite(r, g, slope) -> float:
    """Integral of sampled data: the cubic Hermite through the samples, with
    the 4th-order slopes ``slope(g)`` (see :func:`_slope_operator`),
    integrated exactly per interval as ``h (g0 + g1)/2 + h^2 (g0' - g1')/12``."""
    import numpy as np

    gp = slope(g)
    h = np.diff(r)
    return float(np.sum(h * (g[:-1] + g[1:]) / 2.0 + h * h * (gp[:-1] - gp[1:]) / 12.0))


def _slope_operator(r: np.ndarray):
    """4th-order derivatives of data sampled at ``r``, as a map ``g -> g'``.

    At each sample, the slope of the quartic through the 5 nearest samples
    (a centred stencil, shifted inward at the ends), from the closed-form
    weights of Lagrange interpolation differentiated at a node (Fornberg,
    *Math. Comp.* 51 (1988) 699-706): with ``c`` the sample's position in
    its stencil ``x_0 < ... < x_4``,

        w_c = sum_{l != c} 1/(x_c - x_l),
        w_j = prod_{l != j, c} (x_c - x_l) / prod_{l != j} (x_j - x_l)   (j != c),

    and ``g'(x_c) = sum_j w_j g(x_j)``.  The weights depend on ``r`` only,
    so they are formed once and shared by every ``g`` on the grid.
    """
    import numpy as np

    n = len(r)
    if n < 5:
        raise PreconditionError("need at least 5 samples for the derivative stencil")
    idx = np.clip(np.arange(n) - 2, 0, n - 5) + np.arange(5)[:, None]  # (5, n)
    x = r[idx]
    own = idx == np.arange(n)  # row c of each column
    d = np.where(own, 1.0, r - x)  # x_c - x_l, with 1 in row c
    w = np.empty_like(x)
    for j in range(5):
        num = den = 1.0
        for l in range(5):
            if l != j:
                num = num * d[l]
                den = den * (x[j] - x[l])
        w[j] = num / den
    w[own] = np.sum(np.where(own, 0.0, 1.0 / d), axis=0)

    def slope(g: np.ndarray) -> np.ndarray:
        return np.einsum("jn,jn->n", w, g[idx])

    return slope


def rayleigh_quotient(
    model: SchwarzschildModel,
    R: float,
    r: np.ndarray,
    u: np.ndarray,
    u_prime: np.ndarray | None = None,
) -> float:
    """Quadratic-form quotient of a radial test function on ``[m/2, R]``.

        [integral (u'^2 - (m/r^3)(1 + m/2r)^-2 u^2) r dr]
        / [integral u^2 (1 + m/2r)^4 r dr]

    ``u`` must be sampled over the full interval and vanish at ``R``
    (within ``1e-6`` of its sup); its sign gives the sign of the quadratic
    form, and on an eigenfunction it reproduces the eigenvalue (returned
    in mass-squared units).
    """
    import numpy as np

    model.require_horizon("rayleigh_quotient")
    m = model.mass
    r = np.asarray(r, dtype=float)
    u = np.asarray(u, dtype=float)
    if r.ndim != 1 or r.shape != u.shape or len(r) < 5:
        raise PreconditionError("need matching 1-d samples, at least 5 points")
    if np.any(np.diff(r) <= 0.0):
        raise PreconditionError("sample grid must be strictly increasing")
    if abs(r[0] - 0.5 * m) > 1e-9 * max(1.0, m) or abs(r[-1] - R) > 1e-9 * max(1.0, R):
        raise PreconditionError(f"samples must span [m/2, R] = [{0.5 * m}, {R}]")
    sup = float(np.max(np.abs(u)))
    if sup == 0.0:
        raise PreconditionError("u vanishes identically")
    if abs(u[-1]) > 1e-6 * sup:
        raise PreconditionError(
            f"u(R) = {u[-1]} does not vanish within 1e-6 of sup |u| = {sup}"
        )
    slope = _slope_operator(r)
    if u_prime is None:
        u_prime = slope(u)
    else:
        u_prime = np.asarray(u_prime, dtype=float)

    pot = (m / r**3) / (1.0 + 0.5 * m / r) ** 2
    weight = (1.0 + 0.5 * m / r) ** 4

    num_g = (u_prime**2 - pot * u**2) * r
    den_g = u**2 * weight * r
    num = _panel_integral_hermite(r, num_g, slope)
    den = _panel_integral_hermite(r, den_g, slope)
    return (num / den) * m * m


# -------------------------------------------------------------------------
# Morse index and the stability radius
# -------------------------------------------------------------------------


def morse_index(
    model: SchwarzschildModel,
    R: float | None = None,
    kmax: int = 5,
    ode_tol: float = DEFAULT_ODE_TOL,
    workers: int = 1,
) -> IndexReport:
    """Morse index of the plane truncated at ``R``: sum of negative counts
    over the modes ``k = 0, +-1, ..., +-kmax``.

    ``R`` defaults to ``1e3 m`` (the truncation at which the index of the
    full plane is reported).  ``workers`` is accepted for compatibility
    and has no effect: the modes run one after another, since the stepper
    holds the GIL and threads did not shorten the sweep.  Raises
    :class:`SearchError` if a count grows with ``|k|``, which Sturm
    comparison rules out.
    """
    model.require_horizon("morse_index")
    m = model.mass
    if R is None:
        R = 1e3 * m
    if kmax < 0:
        raise DomainError(f"kmax must be >= 0, got {kmax}")

    ks = list(range(0, kmax + 1))
    counts = [negative_count(model, k, R, ode_tol) for k in ks]

    # Q decreases as k^2 grows while the horizon data stay the same, so by
    # Sturm comparison the count cannot grow with |k|
    if any(b > a for a, b in zip(counts, counts[1:])):
        raise SearchError(
            "negative count grows with |k|, against Sturm comparison",
            diagnostics={"R": R, "counts": dict(zip(ks, counts))},
        )
    per_mode = {k: counts[abs(k)] for k in range(-kmax, kmax + 1)}
    return IndexReport(
        model=model, R=R, kmax=kmax, per_mode_negative_counts=per_mode, morse_index=sum(per_mode.values())
    )


def stability_residual(model: SchwarzschildModel, R: float) -> float:
    """Residual ``G(R/m)``, ``G(X) = (1/2) log 2X - (2X + 1)/(2X - 1)``, of
    the equation whose root on ``(m/2, infinity)`` is :func:`stability_radius`."""
    X = R / model.mass
    return 0.5 * math.log(2.0 * X) - (2.0 * X + 1.0) / (2.0 * X - 1.0)


def stability_radius(model: SchwarzschildModel, tol: float = DEFAULT_ROOT_TOL) -> float:
    """Largest truncation radius with a nonnegative radial mode.

    ``m X``, with ``X`` the root of ``G`` (:func:`stability_residual`) in
    ``[2, 100]``; a root whose residual exceeds ``tol`` (as where ``m X``
    overflows) raises :class:`SearchError`.  Numerically ``5.508 m``; the
    explicit radial solution :func:`closed_form_v0` vanishes there.
    """
    model.require_horizon("stability_radius")
    if not (tol > 0.0):
        raise DomainError(f"tol must be > 0, got {tol}")

    X = brentq(
        lambda X: stability_residual(_UNIT_MASS, X), 2.0, 100.0, xtol=1e-15, rtol=8.0 * sys.float_info.epsilon
    )
    root = model.mass * X
    residual = stability_residual(model, root)
    if not abs(residual) <= tol:
        raise SearchError(
            f"stability radius residual above tolerance: R* = {root}, residual {residual}",
            diagnostics={"root": root, "residual": residual, "tol": tol},
        )
    return float(root)
