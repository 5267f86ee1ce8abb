"""Radial mode equations for the stability operator of the horizon-crossing plane.

Separating the stability eigenproblem of the totally geodesic plane into
Fourier modes ``u(r, theta) = u_k(r) exp(i k theta)`` and substituting
``v = sqrt(r) u_k`` turns each mode into the normal form

    v'' + Q(r) v = 0,
    Q(r) = 1/(4 r^2) - k^2/r^2 + (m/r^3)(1 + m/2r)^-2 + lam (1 + m/2r)^4,

posed on ``r >= m/2`` (isotropic radius along the plane) with horizon data
``v(m/2) = 1``, ``v'(m/2) = 1/m`` expressing the reflection (Neumann)
condition of the original mode.  ``lam`` here is raw, in units of inverse
length squared.

Shots run in ``x = log r`` on the mode itself, ``u_xx + P(x) u = 0`` with
``P = r^2 Q - 1/4`` and horizon data ``u = sqrt(2/m)``, ``u_x = 0``, written
as a scaled Prüfer pair ``u = rho S^-1/2 sin theta``, ``u_x = rho S^1/2
cos theta`` with scale ``S = (P^2 + 1)^1/4`` (see :mod:`schwsurf.ode`).
The zeros of ``v`` are where the phase passes a multiple of ``pi``, which
it only ever does upward, so the zero count is read off ``theta(R)``.
Nothing overflows and no step cap applies, so the cost of a shot does not
grow with ``R`` where ``v`` neither oscillates nor grows fast.

The module also carries the closed forms this problem admits: the explicit
``lam = 0`` solutions ``v0`` (``k = 0``) and ``v1`` (``k = +-1``), the
lower barriers ``psi_k`` for the logarithmic derivative of nonradial
modes, and the one-parameter Riccati family ``psi_c`` whose blow-up radius
encodes where radial stability ends.

The scalar entry points (``v_coefficient``, the closed forms, ``psi_c``
and the two residual grids' stencils) compute on Python floats: each
coerces its real arguments with ``float`` once, at entry, so a numpy
scalar (an entry of a ``linspace`` grid) turns no step of the arithmetic
into a numpy scalar operation and gives the value of the float it holds.
"""

from __future__ import annotations

import functools
import math
import sys

from ._record import Record
from .errors import DomainError, NoSingularityError, SingularityError
from .geometry import DEFAULT_ODE_TOL, DEFAULT_ROOT_TOL, SchwarzschildModel, _exp
from .roots import brentq


class ModeParams(Record):
    """One Fourier mode of the plane's stability operator.

    ``lam`` is the spectral parameter in raw inverse-length-squared units;
    ``R`` is the outer truncation radius where the Dirichlet condition of
    the truncated problem lives.
    """

    model: SchwarzschildModel
    k: int
    lam: float
    R: float

    def __post_init__(self):
        self.model.require_horizon("ModeParams")
        if int(self.k) != self.k:
            raise DomainError(f"k must be an integer, got {self.k}")
        if not (self.model.horizon_rho < self.R < math.inf):
            raise DomainError(f"R must be finite and exceed m/2 = {self.model.horizon_rho}, got {self.R}")
        if not math.isfinite(self.lam):
            raise DomainError(f"lam must be finite, got {self.lam}")
        # a numpy scalar (an entry of Spectrum.lambdas()) would make every
        # coefficient and step of the shot a numpy scalar operation
        object.__setattr__(self, "lam", float(self.lam))


def v_coefficient(params: ModeParams, r: float) -> float:
    """Coefficient ``Q(r)`` of the normal form ``v'' + Q v = 0``."""
    m = params.model.mass
    r = float(r)
    if not (r >= 0.5 * m and r > 0.0):
        raise DomainError(f"r must be >= m/2 and > 0, got {r}")
    return _q_closure(params.model.mass, params.k, params.lam)(r)


def _q_closure(m: float, k: int, lam: float):
    k2 = float(k * k)
    hm = 0.5 * m

    def q(r: float) -> float:
        a = 1.0 + hm / r
        a2 = a * a
        rr = r * r
        return (0.25 - k2) / rr + (m / (rr * r)) / a2 + lam * a2 * a2

    return q


def _prufer_closure(m: float, k: int, lam: float):
    """Coefficients ``(A, B, D) = (S + P/S, S - P/S, S_x/S)`` of the scaled
    Prüfer pair at ``x = log r``, with ``S = (P^2 + 1)^1/4`` and

        P = (m/r)(1 + m/2r)^-2 + lam r^2 (1 + m/2r)^4 - k^2,
        P_x = (r - m/2)(2 lam r^2 (1 + m/2r)^4 - (m/r)(1 + m/2r)^-2)/(r + m/2).
    """
    k2 = float(k * k)
    hm = 0.5 * m
    exp, sqrt = math.exp, math.sqrt

    def coefficients(x: float) -> tuple:
        r = exp(x)
        s = r + hm
        # t = s^2/r, finite to the end of the double range
        t = s * (s / r)
        g = m / t
        w = lam * t * t
        p = g + w - k2
        s2 = sqrt(p * p + 1.0)
        sc = sqrt(s2)
        # S^2 + P and S^2 - P multiply to one: form the one free of cancellation
        if p >= 0.0:
            t = s2 + p
            a, b = t / sc, 1.0 / (t * sc)
        else:
            t = s2 - p
            a, b = 1.0 / (t * sc), t / sc
        return a, b, 0.5 * p * (r - hm) * (2.0 * w - g) / (s * s2 * s2)

    return coefficients


class RadialSolution:
    """Shot of one mode from the horizon, read through its Prüfer pair.

    ``nodes_r`` (an array, formed on first use) holds one node per
    accepted step, from ``m/2`` to ``r_max = params.R``.
    Reads at ``r = m/2`` return the horizon data ``v = 1``, ``v' = 1/m``
    and ``gamma = 1/m`` exactly; elsewhere ``v`` and ``v'`` come from the
    dense phase and log-amplitude, so ``log_abs_v`` never overflows.
    :meth:`values` reads an array of radii in numpy; the scalar methods
    (``v``, ``v_prime``, ``phase``, ``log_abs_v``, ``gamma``) read one
    radius in plain floats through one dense reader and load no numpy.
    Both raise :class:`DomainError` for radii outside ``[m/2, r_max]`` or
    NaN, and both give ``+-inf`` where ``v`` leaves the double range.
    """

    def __init__(self, params: ModeParams, trajectory: ode.Trajectory):
        self.params = params
        self.r_max = float(params.R)
        self._traj = trajectory
        self._q = _q_closure(params.model.mass, params.k, params.lam)
        self._r0 = 0.5 * params.model.mass

    @functools.cached_property
    def nodes_r(self) -> np.ndarray:
        import numpy as np

        r = np.exp(self._traj.x)
        r[[0, -1]] = self._r0, self.r_max
        return r

    def _domain_error(self) -> DomainError:
        return DomainError(f"evaluation point outside [{self._r0}, {self.r_max}]")

    def _read(self, r):
        """``(r, theta, log rho, log S)`` at the radii ``r``."""
        import numpy as np

        r = np.asarray(r, dtype=float)
        if not np.all((r >= self._r0) & (r <= self.r_max)):
            raise self._domain_error()
        y = self._traj.eval(np.log(r))
        p = r * r * self._q(r) - 0.25
        return r, y[..., 0], y[..., 1], 0.25 * np.log1p(p * p)

    def _checked(self, r: float) -> float:
        r = float(r)
        if not (self._r0 <= r <= self.r_max):
            raise self._domain_error()
        return r

    def _read_scalar(self, r: float) -> tuple:
        """``(r, theta, log rho, log S)`` at one radius, as floats."""
        r = self._checked(r)
        theta, log_rho = self._traj.eval_scalar(math.log(r))
        p = r * r * self._q(r) - 0.25
        return r, theta, log_rho, 0.25 * math.log1p(p * p)

    def values(self, r) -> tuple:
        """``(v, v')`` at the radii ``r`` (a scalar or an array)."""
        import numpy as np

        r, theta, log_rho, log_s = self._read(r)
        sn = np.sin(theta)
        with np.errstate(over="ignore"):  # +-inf past the double range
            amp = np.exp(log_rho - 0.5 * log_s) / np.sqrt(r)
            vp = amp * (0.5 * sn + np.exp(log_s) * np.cos(theta))
            v = amp * r * sn
        horizon = r == self._r0
        return np.where(horizon, 1.0, v), np.where(horizon, 1.0 / self.params.model.mass, vp)

    def v(self, r: float) -> float:
        r, theta, log_rho, log_s = self._read_scalar(r)
        if r == self._r0:
            return 1.0
        return _exp(log_rho - 0.5 * log_s) / math.sqrt(r) * r * math.sin(theta)

    def v_prime(self, r: float) -> float:
        r, theta, log_rho, log_s = self._read_scalar(r)
        if r == self._r0:
            return 1.0 / self.params.model.mass
        amp = _exp(log_rho - 0.5 * log_s) / math.sqrt(r)
        return amp * (0.5 * math.sin(theta) + math.exp(log_s) * math.cos(theta))

    def phase(self, r: float) -> float:
        """Prüfer phase ``theta``: ``pi/2`` on the horizon, ``j pi`` at the
        ``j``-th zero of ``v``."""
        return self._traj.eval_scalar(math.log(self._checked(r)))[0]

    def log_abs_v(self, r: float) -> tuple:
        """(log |v|, sign of v)."""
        r, theta, log_rho, log_s = self._read_scalar(r)
        if r == self._r0:
            return 0.0, 1.0
        sn = math.sin(theta)
        if sn == 0.0:
            return -math.inf, 0.0
        return 0.5 * math.log(r) + log_rho - 0.5 * log_s + math.log(abs(sn)), math.copysign(1.0, sn)

    def gamma(self, r: float) -> float:
        """Logarithmic derivative ``v'/v``; blows up exactly at zeros of v."""
        r, theta, _, log_s = self._read_scalar(r)
        if r == self._r0:
            return 1.0 / self.params.model.mass
        sn = math.sin(theta)
        if sn == 0.0:
            raise DomainError(f"gamma undefined at a zero of v (r = {r})")
        return (0.5 + math.exp(log_s) * math.cos(theta) / sn) / r

    @functools.cached_property
    def zero_crossings(self) -> tuple:
        """Zeros of v in ``(m/2, r_max]``: where the phase passes ``j pi``."""
        n = int(self._traj.theta[-1] // math.pi)
        x = [self._traj.phase_crossing(j * math.pi) for j in range(1, n + 1)]
        return tuple(min(math.exp(z), self.r_max) for z in x)


def integrate_v(params: ModeParams, tol: float = DEFAULT_ODE_TOL) -> RadialSolution:
    """Shoot the mode from the horizon out to the truncation radius ``params.R``.

    One scaled Prüfer integration in ``x = log r`` from the horizon data
    ``theta = pi/2`` (``u_x = 0``) and ``rho = sqrt(2/m) S^1/2``
    (``u = sqrt(2/m)``).  ``tol`` bounds the local error of each step in
    the phase (radians) and in ``log rho`` (relative amplitude); the step
    size is set by that alone, with no cap and no step budget.  Zeros of
    ``v`` are located to the accuracy of the phase, by Newton's method on
    fresh steps (see :meth:`schwsurf.ode.Trajectory.phase_crossing`).
    """
    from . import ode

    m = params.model.mass
    if not (tol > 0.0):
        raise DomainError(f"tol must be > 0, got {tol}")
    hm = 0.5 * m
    p0 = hm * hm * _q_closure(m, params.k, params.lam)(hm) - 0.25
    traj = ode.integrate_prufer(
        _prufer_closure(m, params.k, params.lam),
        math.log(hm),
        math.log(params.R),
        0.5 * math.pi,
        0.5 * math.log(2.0 / m) + 0.125 * math.log1p(p0 * p0),
        tol,
    )
    return RadialSolution(params, traj)


def miss_distance(params: ModeParams, r_c: float, tol: float = DEFAULT_ODE_TOL) -> float:
    """Pryce's miss-distance ``theta_L(r_c) - theta_R(r_c)`` at the matching
    radius ``r_c`` (Pryce, *Numerical Solution of Sturm-Liouville Problems*).

    ``theta_L`` is the phase of the horizon shot stopped at ``r_c`` (the
    shot of the mode truncated there); ``theta_R`` is the phase of the
    solution with ``v(R) = 0``, shot inward from ``theta(R) = 0`` on the
    mode's own coefficients, from ``log R`` down to ``log r_c``.

    The miss-distance increases strictly with ``lam``, and since the
    right-hand side depends on the phase through ``2 theta`` only, the two
    halves join into one solution exactly where it is a multiple of ``pi``:
    the ``n``-th eigenvalue of the truncated mode is the root of
    ``D(lam) = n pi``.  Neither half crosses the region where the horizon
    shot grows exponentially past ``r_c``, so ``D`` stays smooth in ``lam``
    where the one-sided ``theta(R; lam)`` jumps by ``pi``.
    """
    from . import ode

    if not (params.model.horizon_rho < r_c < params.R):
        raise DomainError(f"r_c must lie in ({params.model.horizon_rho}, {params.R}), got {r_c}")
    theta_left = integrate_v(ModeParams(params.model, params.k, params.lam, r_c), tol=tol).phase(r_c)
    coefficients = _prufer_closure(params.model.mass, params.k, params.lam)
    inward = ode.integrate_prufer(coefficients, math.log(params.R), math.log(r_c), 0.0, 0.0, tol)
    return theta_left - inward.theta[-1]


# -------------------------------------------------------------------------
# closed forms
# -------------------------------------------------------------------------


def closed_form_v0(model: SchwarzschildModel, r: float) -> float:
    """Explicit ``k = 0``, ``lam = 0`` solution of the normal form.

        v0(r) = s [1 - ((1 - q)/(1 + q)) log s],  s = sqrt(2r/m),  q = m/2r

    Satisfies the horizon data ``v0(m/2) = 1``, ``v0'(m/2) = 1/m`` and has
    exactly one zero, at the radius where radial stability is lost.  ``s``
    is formed as ``sqrt(r)/sqrt(m/2)``, exactly 1 on the horizon, so no
    factor overflows before the value does.
    """
    model.require_horizon("closed_form_v0")
    m = model.mass
    r = float(r)
    if not (0.5 * m <= r < math.inf):
        raise DomainError(f"r must be finite and >= m/2 = {0.5 * m}, got {r}")
    s = math.sqrt(r) / math.sqrt(0.5 * m)
    q = 0.5 * m / r
    return s * (1.0 - (1.0 - q) / (1.0 + q) * math.log(s))


def closed_form_v1(model: SchwarzschildModel, r: float) -> float:
    """Explicit ``k = +-1``, ``lam = 0`` solution of the normal form.

        v1(r) = r^{3/2} (1 + m/2r)^2

    ``v1 / sqrt(r)`` is the normal component of a rotation about a
    horizontal axis, a Jacobi field of the plane.  Its derivative vanishes
    at ``m/2``, so ``v1 / v1(m/2)`` carries the horizon data ``v = 1``,
    ``v' = 1/m`` of a ``k = 1`` shot at ``lam = 0``.
    """
    model.require_horizon("closed_form_v1")
    m = model.mass
    r = float(r)
    if not (r >= 0.5 * m):
        raise DomainError(f"r must be >= m/2 = {0.5 * m}, got {r}")
    a = 1.0 + 0.5 * m / r
    return r * math.sqrt(r) * a * a


def _barrier_args(model: SchwarzschildModel, k: int, r: float, name: str) -> tuple:
    """``(b, log(2r/m), r)`` for the barrier of mode ``k`` at ``r``, with
    ``b = sqrt(4 k^2 - 2)``; ``k`` must be a nonzero integer.  The log is
    ``2 log(sqrt(r)/sqrt(m/2))``, as ``closed_form_v0`` forms ``s``, so it
    stays finite where ``2r/m`` overflows."""
    model.require_horizon(name)
    if not (k % 1 == 0 and k != 0):
        raise DomainError(f"{name} is defined for integer k != 0 only, got k = {k}")
    m = model.mass
    r = float(r)
    if not (r >= 0.5 * m):
        raise DomainError(f"r must be >= m/2 = {0.5 * m}, got {r}")
    return math.sqrt(4.0 * k * k - 2.0), 2.0 * math.log(math.sqrt(r) / math.sqrt(0.5 * m)), r


def barrier_psi_k(model: SchwarzschildModel, k: int, r: float) -> float:
    """Riccati lower barrier for the nonradial modes ``k != 0``.

    With ``b = sqrt(4 k^2 - 2)`` and ``t = b log(2r/m)``,

        psi(r) = (1 + b tanh(t/2)) / (2r)

    solves ``psi' + psi^2 = (k^2 - 3/4)/r^2`` with ``psi(m/2) = 1/m`` and
    decays like ``(1 + b)/(2r)``.  Any shot ``v`` of a mode with ``k != 0``
    and ``lam <= 0`` has ``v'/v >= psi``, hence no zeros.
    """
    b, lx, r = _barrier_args(model, k, r, "barrier_psi_k")
    return (1.0 + b * math.tanh(0.5 * b * lx)) / (2.0 * r)


def log_barrier_envelope(model: SchwarzschildModel, k: int, r: float) -> float:
    """``log`` of ``exp(integral of psi_k from m/2 to r)``, in closed form.

    The integral of the barrier has the primitive

        ((1 + b)/2) log(2r/m) - log 2 + log(1 + (2r/m)^-b),

    normalized to vanish at the horizon.  A shot with ``k != 0`` and
    ``lam <= 0`` satisfies ``log v >= `` this envelope.
    """
    b, lx, _ = _barrier_args(model, k, r, "log_barrier_envelope")
    return 0.5 * (1.0 + b) * lx - math.log(2.0) + math.log1p(math.exp(-b * lx))


def barrier_envelope(model: SchwarzschildModel, k: int, r: float) -> float:
    """``exp(integral of psi_k)``: pointwise lower bound for those shots;
    ``inf`` past the double range (r beyond about 1.4e130 at k = 2)."""
    return _exp(log_barrier_envelope(model, k, r))


# -------------------------------------------------------------------------
# the psi_c Riccati family
# -------------------------------------------------------------------------


def cbar(model: SchwarzschildModel) -> float:
    """Parameter value for which ``psi_c`` matches the horizon data ``1/m``.

        cbar = -8 - 4 log(m/2)

    Note the bare ``log`` of a length: rescaling ``r -> mu r`` shifts every
    ``c`` by ``-4 log mu``, so ``c`` values are tied to the unit of length.
    """
    model.require_horizon("cbar")
    return -8.0 - 4.0 * math.log(0.5 * model.mass)


def psi_c(model: SchwarzschildModel, c: float, r: float) -> float:
    """Member of the explicit Riccati family for the radial (``k = 0``) mode.

    With ``q = m/r``, ``A = 4 log r + c + 8`` and ``G = (2 - q) A - 8 (2 + q)``,

        psi_c(r) = (1/2 + num/den) / r,  num = 4 q A + 16 - 4 q^2,
                                         den = (2 + q) G.

    Solves ``psi' + psi^2 = -1/(4 r^2) - (m/r^3)(1 + m/2r)^-2`` away from
    the single blow-up radius, the root of ``G`` (:func:`singularity_radius`);
    at ``c = cbar`` it equals ``1/m`` on the horizon.  Every term is of
    order one in ``A``, so the form holds from the horizon to the end of
    the double range at every mass.  Evaluation within the blow-up's
    numerical halo, ``|den| <= 1e-9 |num|`` (that is, ``|psi r - 1/2|``
    of 1e9 or more), raises :class:`SingularityError` carrying the located
    radius; a value past the double range (near the horizon at ``m =
    1e-320``) raises it without one.

    ``c`` is unit-dependent through the bare ``log r``; see :func:`cbar`.
    """
    model.require_horizon("psi_c")
    m = model.mass
    c, r = float(c), float(r)
    if not math.isfinite(c):
        raise DomainError(f"c must be finite, got {c}")
    if not (0.5 * m <= r < math.inf):
        raise DomainError(f"r must be finite and >= m/2 = {0.5 * m}, got {r}")
    q = m / r
    A = 4.0 * math.log(r) + c + 8.0
    num = 4.0 * q * A + 16.0 - 4.0 * q * q
    den = (2.0 + q) * ((2.0 - q) * A - 8.0 * (2.0 + q))
    if abs(den) <= 1e-9 * abs(num):
        raise SingularityError(
            f"psi_c evaluated at its blow-up near r = {r}",
            r_singularity=singularity_radius(model, c),
        )
    psi = (0.5 + num / den) / r
    if not abs(psi) < math.inf:
        raise SingularityError(f"psi_c at r = {r} lies past the double range")
    return psi


def singularity_radius(model: SchwarzschildModel, c: float, tol: float = DEFAULT_ROOT_TOL) -> float:
    """Blow-up radius ``R_c > m/2`` of ``psi_c``.

    Root of ``F(R) = (2R - m)(4 log R + 8 + c) - 8 (2R + m)``, strictly
    decreasing in ``c``; equivalently ``c = 8 (2R + m)/(2R - m) - 4 log R
    - 8``, which is the exact inverse.  Brent's method finds the root of
    ``G = F/R = (2 - q) A - 8 (2 + q)`` (``q = m/R``, ``A = 4 log R + c + 8``)
    between ``max(m/2, e^{-(1 + c)/4})``, where ``q = 2`` or ``A = 7`` give
    ``G <= -2``, and ``max(m, e^{(17 - c)/4})``, where ``A >= 25`` and
    ``q <= 1`` give ``G >= 1``: ends at most a factor 180 apart, at every
    mass and ``c``.  Both ends are cut to the largest double, and a top
    where ``G`` is not positive raises :class:`NoSingularityError`.  ``A``
    is formed as its value at the lower end plus ``4 log(R/lo)``, so the
    terms that cancel are summed once and ``G`` is smooth in ``R``.  The
    residual of the returned root satisfies
    ``|F(R_c)| <= tol * 8 (2 R_c + m)``.
    """
    model.require_horizon("singularity_radius")
    m = model.mass
    if not (tol > 0.0):
        raise DomainError(f"tol must be > 0, got {tol}")
    if not math.isfinite(c):
        raise DomainError(f"c must be finite, got {c}")
    c = float(c)

    top = sys.float_info.max
    lo = min(max(0.5 * m, _exp(-0.25 * (1.0 + c))), top)
    hi = min(max(m, _exp(0.25 * (17.0 - c))), top)
    A_lo = 4.0 * math.log(lo) + c + 8.0

    def G(R: float) -> float:
        q = m / R
        return (2.0 - q) * (A_lo + 4.0 * math.log1p((R - lo) / lo)) - 8.0 * (2.0 + q)

    g_hi = G(hi)
    if not g_hi > 0.0:
        raise NoSingularityError(f"psi_c has no blow-up radius below R = {hi}: G(R) = {g_hi}")
    root = brentq(G, lo, hi, xtol=2.0 * math.ulp(lo))
    g = G(root)
    if abs(g) > tol * 8.0 * (2.0 + m / root):
        raise NoSingularityError(f"blow-up radius residual {g * root} exceeds tol * {8.0 * (2.0 * root + m)}")
    return root


def ode_residual_grid(
    func, q_func, r_values: np.ndarray, step: float
) -> np.ndarray:
    """5-point central ``func'' + q func`` residuals on a grid.

    Utility for checking closed-form solutions of ``v'' + Q v = 0``
    without symbolic differentiation; ``step`` is the stencil spacing.
    """
    import numpy as np

    r = np.asarray(r_values, dtype=float)
    out = np.empty_like(r)
    step = float(step)
    for i, x in enumerate(r.tolist()):
        centre = func(x)
        f2 = (
            -func(x - 2 * step)
            + 16.0 * func(x - step)
            - 30.0 * centre
            + 16.0 * func(x + step)
            - func(x + 2 * step)
        ) / (12.0 * step * step)
        out[i] = f2 + q_func(x) * centre
    return out


def riccati_residual_grid(
    func, rhs_func, r_values: np.ndarray, step: float
) -> np.ndarray:
    """5-point central ``func' + func^2 - rhs`` residuals on a grid."""
    import numpy as np

    r = np.asarray(r_values, dtype=float)
    out = np.empty_like(r)
    step = float(step)
    for i, x in enumerate(r.tolist()):
        d1 = (
            func(x - 2 * step)
            - 8.0 * func(x - step)
            + 8.0 * func(x + step)
            - func(x + 2 * step)
        ) / (12.0 * step)
        out[i] = d1 + func(x) ** 2 - rhs_func(x)
    return out


def radial_q(model: SchwarzschildModel):
    """The radial ``lam = 0`` coefficient ``Q`` as a plain callable of ``r``."""
    model.require_horizon("radial_q")
    return _q_closure(model.mass, 0, 0.0)
