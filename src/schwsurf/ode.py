"""Adaptive integration of a scaled Prüfer system, with dense output.

The mode shots of :mod:`schwsurf.mode_odes` are posed in ``x = log r`` as a
phase ``theta`` and a log-amplitude ``log rho`` (J. D. Pryce, *Numerical
Solution of Sturm-Liouville Problems*, OUP 1993).  Given the coefficients
``(A, B, D)`` of the mode at ``x``, the pair obeys

    theta'     = (A + B cos 2 theta + D sin 2 theta) / 2,
    (log rho)' = (B sin 2 theta - D cos 2 theta) / 2,

so the right-hand side depends on ``x`` and ``theta`` only, and ``log rho``
is a quadrature along the phase.  Neither variable overflows: the
amplitude is carried as a logarithm and the phase grows by ``pi`` per zero.

Two steppers work on plain floats (two components; numpy per-step
overhead would dominate).  ``tol`` is an absolute bound on the RMS of the
two estimated local errors of each step, for either: radians of phase and
relative error of the amplitude.  No step cap applies.

* Dormand-Prince 4(5) takes the steps while the phase oscillates or
  drifts.  Where ``P < 0`` the phase is drawn to a fixed point at the rate
  ``d theta'/d theta = -B sin 2 theta + D cos 2 theta = -2 (log rho)'``,
  and the explicit pair is then held to ``h |d theta'/d theta| < 3.3`` by
  stability, not accuracy.
* Radau IIA of order 5 (3 stages, L-stable; Hairer & Wanner, *Solving
  ODEs II*, Springer 1996) takes every step that follows an accepted
  step of either kind with ``2 h (log rho)' > 3``, ``h`` that step's
  length and ``(log rho)'`` its last stage.  Its phase is solved by
  simplified Newton, which is scalar here; ``log rho`` is a quadrature
  over the same collocation stages.

A shot runs from ``x0`` toward ``x1`` on either side of it, with a signed
step.  A :class:`Trajectory` holds plain lists: the nodes, the phase and
``log rho`` at each node, and each accepted step's record, its seven
stages or its three collocation increments.  Dense output of both
components, read on forward shots (``x1 > x0``) only, comes from the
Dormand-Prince 4th-order continuous extension or from the Radau
collocation cubic: :meth:`Trajectory.eval_scalar` reads one point in plain
floats, forming that step's coefficients on first read; only
:meth:`Trajectory.eval`, which reads a whole array of points, imports
numpy and stacks the same coefficients of every step.  Integrating and
reading single points load no numpy.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from typing import Callable

from ._record import Record
from .errors import DomainError, IntegrationError

# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
# fifth-order minus embedded fourth-order weights
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)
# continuous extension: y(x + s h) = y + h * sum_p (K^T P)[p] s^(p+1) over
# the seven stages K (Dormand & Prince; the coefficients scipy's RK45 uses),
# one row of P per stage, and its columns: the stage weights of each power
_DENSE_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)

# Radau IIA of order 5 (Hairer & Wanner, *Solving ODEs II*, Springer 1996,
# sec. IV.8), with the constants of scipy's ``Radau``: the abscissae, the
# error weights, the eigenvalues of the inverse of the Runge-Kutta matrix
# (one real, one complex), the transformation ``T`` that diagonalizes it
# and its inverse ``TI``, and the collocation cubic's weights ``P``
_S6 = 6.0 ** 0.5
_RC1, _RC2 = (4.0 - _S6) / 10.0, (4.0 + _S6) / 10.0
_RE1, _RE2, _RE3 = (-13.0 - 7.0 * _S6) / 3.0, (-13.0 + 7.0 * _S6) / 3.0, -1.0 / 3.0
_MU_REAL = 3.0 + 3.0 ** (2.0 / 3.0) - 3.0 ** (1.0 / 3.0)
_MU_COMPLEX = 3.0 + 0.5 * (3.0 ** (1.0 / 3.0) - 3.0 ** (2.0 / 3.0)) - 0.5j * (3.0 ** (5.0 / 6.0) + 3.0 ** (7.0 / 6.0))
_T = (
    (0.09443876248897524, -0.14125529502095421, 0.03002919410514742),
    (0.25021312296533332, 0.20412935229379994, -0.38294211275726192),
    (1.0, 1.0, 0.0),
)
_TI = (
    (4.17871859155190428, 0.32768282076106237, 0.52337644549944951),
    (-4.17871859155190428, -0.32768282076106237, 0.47662355450055044),
    (0.50287263494578682, -2.57192694985560522, 0.59603920482822492),
)
_TI_COMPLEX = tuple(a + 1j * b for a, b in zip(_TI[1], _TI[2]))
# the collocation cubic: y(x + s h) = y + sum_p (Z^T P)[p] s^(p+1) over the
# three stage increments Z, one row of P per stage
_RADAU_P = (
    (13.0 / 3.0 + 7.0 * _S6 / 3.0, -23.0 / 3.0 - 22.0 * _S6 / 3.0, 10.0 / 3.0 + 5.0 * _S6),
    (13.0 / 3.0 - 7.0 * _S6 / 3.0, -23.0 / 3.0 + 22.0 * _S6 / 3.0, 10.0 / 3.0 - 5.0 * _S6),
    (1.0 / 3.0, -8.0 / 3.0, 10.0 / 3.0),
)
_NEWTON_MAXITER = 6


def _rhs(c: tuple, th: float, cos=math.cos, sin=math.sin) -> tuple:
    a, b, d = c
    c2 = cos(2.0 * th)
    s2 = sin(2.0 * th)
    return 0.5 * (a + b * c2 + d * s2), 0.5 * (b * s2 - d * c2)


def _step(coefficients, x, h, th, k1t, k1l) -> tuple:
    """One Dormand-Prince step from ``x`` to ``x + h``: the fifth-order
    ``theta`` and increment of ``log rho``, the two error estimates and the
    seven stages."""
    k2t, k2l = _rhs(coefficients(x + _C2 * h), th + h * _A21 * k1t)
    k3t, k3l = _rhs(coefficients(x + _C3 * h), th + h * (_A31 * k1t + _A32 * k2t))
    k4t, k4l = _rhs(coefficients(x + _C4 * h), th + h * (_A41 * k1t + _A42 * k2t + _A43 * k3t))
    k5t, k5l = _rhs(
        coefficients(x + _C5 * h), th + h * (_A51 * k1t + _A52 * k2t + _A53 * k3t + _A54 * k4t)
    )
    c6 = coefficients(x + h)  # stages 6 and 7 share the abscissa x + h
    k6t, k6l = _rhs(
        c6, th + h * (_A61 * k1t + _A62 * k2t + _A63 * k3t + _A64 * k4t + _A65 * k5t)
    )
    th_new = th + h * (_B1 * k1t + _B3 * k3t + _B4 * k4t + _B5 * k5t + _B6 * k6t)
    d_lr = h * (_B1 * k1l + _B3 * k3l + _B4 * k4l + _B5 * k5l + _B6 * k6l)
    k7t, k7l = _rhs(c6, th_new)
    err_t = h * (_E1 * k1t + _E3 * k3t + _E4 * k4t + _E5 * k5t + _E6 * k6t + _E7 * k7t)
    err_l = h * (_E1 * k1l + _E3 * k3l + _E4 * k4l + _E5 * k5l + _E6 * k6l + _E7 * k7l)
    stages = (k1t, k1l, k2t, k2l, k3t, k3l, k4t, k4l, k5t, k5l, k6t, k6l, k7t, k7l)
    return th_new, d_lr, err_t, err_l, stages


def _radau_step(coefficients, x, h, th, tol) -> tuple:
    """One Radau IIA step from ``x`` to ``x + h``: ``theta`` at ``x + h``,
    the increment of ``log rho``, the two error estimates and the step's
    record, the three collocation increments ``(Z theta, Z log rho)`` of
    each stage followed by the right-hand side at ``x + h``.

    The phase is solved by simplified Newton with the Jacobian
    ``d theta'/d theta = -2 (log rho)'`` at ``x``, in scipy's transformed
    variables: one real and one complex division per iteration.  ``log rho``
    is a quadrature over the converged stages.  If Newton does not converge
    the error estimates are ``nan``.
    """
    c0 = coefficients(x)
    f0, g0 = _rhs(c0, th)
    hj = -2.0 * h * g0
    den_r = _MU_REAL - hj
    den_c = _MU_COMPLEX - hj
    cs = (coefficients(x + _RC1 * h), coefficients(x + _RC2 * h), coefficients(x + h))
    newton_tol = max(10.0 * sys.float_info.epsilon / tol, min(0.03, math.sqrt(tol)))
    (t11, t12, t13), (t21, t22, t23), (t31, t32, _) = _T
    r1, r2, r3 = _TI[0]
    q1, q2, q3 = _TI_COMPLEX
    w0, wc = 0.0, 0j
    z1 = z2 = z3 = 0.0
    norm_old = rate = None
    converged = False
    for it in range(_NEWTON_MAXITER):
        f1 = _rhs(cs[0], th + z1)[0]
        f2 = _rhs(cs[1], th + z2)[0]
        f3 = _rhs(cs[2], th + z3)[0]
        if not math.isfinite(f1 + f2 + f3):
            break
        dw0 = (h * (r1 * f1 + r2 * f2 + r3 * f3) - _MU_REAL * w0) / den_r
        dwc = (h * (q1 * f1 + q2 * f2 + q3 * f3) - _MU_COMPLEX * wc) / den_c
        norm = math.sqrt((dw0 * dw0 + dwc.real * dwc.real + dwc.imag * dwc.imag) / 3.0) / tol
        if norm_old is not None:
            rate = norm / norm_old
            if rate >= 1.0 or rate ** (_NEWTON_MAXITER - it) / (1.0 - rate) * norm > newton_tol:
                break
        w0 += dw0
        wc += dwc
        z1 = t11 * w0 + t12 * wc.real + t13 * wc.imag
        z2 = t21 * w0 + t22 * wc.real + t23 * wc.imag
        z3 = t31 * w0 + t32 * wc.real
        if norm == 0.0 or (rate is not None and rate / (1.0 - rate) * norm < newton_tol):
            converged = True
            break
        norm_old = norm
    if not converged:
        return th, 0.0, math.nan, math.nan, ()
    f1, g1 = _rhs(cs[0], th + z1)
    f2, g2 = _rhs(cs[1], th + z2)
    f3, g3 = _rhs(cs[2], th + z3)
    # log rho' does not depend on log rho: its stages are a quadrature
    v0 = h * (r1 * g1 + r2 * g2 + r3 * g3) / _MU_REAL
    vc = h * (q1 * g1 + q2 * g2 + q3 * g3) / _MU_COMPLEX
    y1 = t11 * v0 + t12 * vc.real + t13 * vc.imag
    y2 = t21 * v0 + t22 * vc.real + t23 * vc.imag
    y3 = t31 * v0 + t32 * vc.real
    # embedded third-order estimate, filtered through (MU_REAL/h - J)^-1
    # with the Jacobian of the pair, [[-2 log rho', 0], [2 theta' - A, 0]]
    err_t = (h * f0 + _RE1 * z1 + _RE2 * z2 + _RE3 * z3) / den_r
    err_l = (h * g0 + _RE1 * y1 + _RE2 * y2 + _RE3 * y3 + h * (2.0 * f0 - c0[0]) * err_t) / _MU_REAL
    return th + z3, y3, err_t, err_l, (z1, y1, z2, y2, z3, y3, f3, g3)


def _dense_output(k: tuple, h: float) -> tuple:
    """The two 4-tuples of :meth:`Trajectory.dense` for a step of length
    ``h`` and record ``k``: ``K^T P`` with ``P = _DENSE_P``, leaving out
    DP45's second stage (weight zero in every power), or ``Z^T P / h``
    with ``P = _RADAU_P`` and ``c3 = 0``; each power sums in stage order."""
    if len(k) == 14:
        # the weights of powers 0 to 3 of stage j are aj, bj, cj, dj
        (a1, b1, c1, d1), _, (a3, b3, c3, d3), (a4, b4, c4, d4) = _DENSE_P[:4]
        (a5, b5, c5, d5), (a6, b6, c6, d6), (a7, b7, c7, d7) = _DENSE_P[4:]
        t1, l1, _, _, t3, l3, t4, l4, t5, l5, t6, l6, t7, l7 = k
        return (
            (t1 * a1 + t3 * a3 + t4 * a4 + t5 * a5 + t6 * a6 + t7 * a7,
             t1 * b1 + t3 * b3 + t4 * b4 + t5 * b5 + t6 * b6 + t7 * b7,
             t1 * c1 + t3 * c3 + t4 * c4 + t5 * c5 + t6 * c6 + t7 * c7,
             t1 * d1 + t3 * d3 + t4 * d4 + t5 * d5 + t6 * d6 + t7 * d7),
            (l1 * a1 + l3 * a3 + l4 * a4 + l5 * a5 + l6 * a6 + l7 * a7,
             l1 * b1 + l3 * b3 + l4 * b4 + l5 * b5 + l6 * b6 + l7 * b7,
             l1 * c1 + l3 * c3 + l4 * c4 + l5 * c5 + l6 * c6 + l7 * c7,
             l1 * d1 + l3 * d3 + l4 * d4 + l5 * d5 + l6 * d6 + l7 * d7),
        )
    (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = _RADAU_P
    z1, y1, z2, y2, z3, y3 = k[:6]
    return (
        ((z1 * a1 + z2 * a2 + z3 * a3) / h, (z1 * b1 + z2 * b2 + z3 * b3) / h, (z1 * c1 + z2 * c2 + z3 * c3) / h, 0.0),
        ((y1 * a1 + y2 * a2 + y3 * a3) / h, (y1 * b1 + y2 * b2 + y3 * b3) / h, (y1 * c1 + y2 * c2 + y3 * c3) / h, 0.0),
    )


class Trajectory(Record):
    """Accepted steps of one Prüfer integration, in plain lists.

    ``x`` holds the nodes, ``theta`` and ``log_rho`` the pair at each node.
    Step ``i`` runs from node ``i`` to node ``i + 1``, backward on a
    backward shot.  ``stages[i]`` is its record: for a Dormand-Prince step
    the seven stages ``(k1 theta, k1 log rho, ..., k7 log rho)``, 14
    floats, the first two the right-hand side at node ``i``; for a Radau
    IIA step the three collocation increments ``(Z1 theta, Z1 log rho,
    ..., Z3 log rho)``, 8 floats.  Either record ends with the right-hand
    side at node ``i + 1``.  ``tol`` is the integration's tolerance.  The
    step counts are ``rejected_steps`` and the accepted ``dp45_steps`` and
    ``radau_steps``.  Dense reads and phase crossings need a forward shot,
    ``x[-1] > x[0]``, and raise :class:`DomainError` on a backward one.
    """

    coefficients: Callable[[float], tuple]
    tol: float
    x: list
    theta: list
    log_rho: list
    stages: list
    rejected_steps: int

    @property
    def radau_steps(self) -> int:
        return sum(len(k) == 8 for k in self.stages)

    @property
    def dp45_steps(self) -> int:
        return len(self.stages) - self.radau_steps

    @functools.cached_property
    def _dense(self) -> list:
        return [None] * len(self.stages)

    def dense(self, i: int) -> tuple:
        """The ``(theta, log rho)`` dense-output coefficients of step ``i``,
        two 4-tuples formed by :func:`_dense_output` on first read and kept:
        ``y(x_i + s h) = y_i + h s (c0 + s (c1 + s (c2 + s c3)))``.  A
        Dormand-Prince step gives its continuous extension, whose ``c0`` is
        the right-hand side at node ``i``; a Radau step its collocation
        cubic, with ``c3 = 0``.  Both readers read these."""
        coeffs = self._dense[i]
        if coeffs is None:
            if not self.x[-1] > self.x[0]:
                raise DomainError("dense output needs a forward shot, x[-1] > x[0]")
            coeffs = self._dense[i] = _dense_output(self.stages[i], self.x[i + 1] - self.x[i])
        return coeffs

    @functools.cached_property
    def _arrays(self) -> tuple:
        """Nodes, ``(n, 2)`` states and the ``(n - 1, 2, 4)`` stack of every
        step's :meth:`dense` coefficients as arrays, for :meth:`eval`."""
        import numpy as np

        n = len(self.stages)
        flat = itertools.chain.from_iterable(itertools.chain.from_iterable(map(self.dense, range(n))))
        dense = np.fromiter(flat, float, 8 * n).reshape(n, 2, 4)
        return np.asarray(self.x), np.column_stack((self.theta, self.log_rho)), dense

    def eval(self, x):
        """``(theta, log rho)`` at the points ``x``, shape ``x.shape + (2,)``.

        Points are clipped into ``[x[0], x[-1]]``; callers check the domain.
        """
        import numpy as np

        nodes, y, dense = self._arrays
        x = np.minimum(np.maximum(x, nodes[0]), nodes[-1])
        i = np.minimum(np.searchsorted(nodes, x, side="right"), len(nodes) - 1) - 1
        h = nodes[i + 1] - nodes[i]
        s = ((x - nodes[i]) / h)[..., None]
        c = dense[i]
        poly = c[..., 0] + s * (c[..., 1] + s * (c[..., 2] + s * c[..., 3]))
        return y[i] + h[..., None] * s * poly

    def eval_scalar(self, x: float) -> tuple:
        """``(theta, log rho)`` at one point ``x``, as floats.

        The same clipping, step choice, :meth:`dense` coefficients and
        Horner evaluation as :meth:`eval`, in the same order of operations.
        """
        nodes = self.x
        x = min(max(x, nodes[0]), nodes[-1])
        i = min(bisect.bisect_right(nodes, x), len(nodes) - 1) - 1
        x0 = nodes[i]
        h = nodes[i + 1] - x0
        s = (x - x0) / h
        hs = h * s
        (a0, a1, a2, a3), (b0, b1, b2, b3) = self.dense(i)
        return (
            self.theta[i] + hs * (a0 + s * (a1 + s * (a2 + s * a3))),
            self.log_rho[i] + hs * (b0 + s * (b1 + s * (b2 + s * b3))),
        )

    def phase_crossing(self, target: float) -> float:
        """Abscissa where the phase passes ``target``.

        ``target`` must lie in ``(theta(x0), theta(x_end)]`` and be crossed
        upward only, as a multiple of ``pi`` is.  Newton's method runs on
        the length of a fresh step from the node before the crossing, taken
        by the method that took the step there, so the result carries the
        step's local error, not the dense output's.
        """
        if not self.x[-1] > self.x[0]:
            raise DomainError("phase crossings need a forward shot, x[-1] > x[0]")
        theta = self.theta
        i = next(j for j, th in enumerate(theta) if th >= target) - 1
        x0, th0 = self.x[i], theta[i]
        h_max = self.x[i + 1] - x0
        h = h_max * (target - th0) / (theta[i + 1] - th0)
        k = self.stages[i]
        for _ in range(4):
            if len(k) == 14:
                th1, _, _, _, ks = _step(self.coefficients, x0, h, th0, k[0], k[1])
            else:
                th1, _, _, _, ks = _radau_step(self.coefficients, x0, h, th0, self.tol)
                if not ks:
                    break
            h = min(max(h - (th1 - target) / ks[-2], 0.0), h_max)
        return x0 + h


def integrate_prufer(
    coefficients: Callable[[float], tuple],
    x0: float,
    x1: float,
    theta0: float,
    log_rho0: float,
    tol: float,
) -> Trajectory:
    """Integrate the scaled Prüfer pair from ``(x0, theta0, log_rho0)`` to ``x1``.

    ``x1`` may lie on either side of ``x0``: the step ``h`` has the sign of
    ``x1 - x0``, and negation rounds exactly, so a backward shot is bit for
    bit the forward shot of ``(-A, -B, -D)`` at ``-x`` with its nodes
    negated.  ``coefficients(x)`` returns ``(A, B, D)``.  A step is
    a Radau IIA step if the accepted step before it was limited by the
    stability of Dormand-Prince, ``h d theta'/d theta < -3`` with ``d
    theta'/d theta = -2 (log rho)'`` read off its last stage, and a
    Dormand-Prince step otherwise.  Raises :class:`IntegrationError` with
    the last good radius ``exp(x)`` if ``|h|`` underflows, and
    :class:`DomainError` on endpoints that are not finite or not distinct,
    or on ``tol <= 0``.
    """
    if not (abs(x0) < math.inf and abs(x1) < math.inf):
        raise DomainError(f"need finite endpoints, got {x0} and {x1}")
    forward = x1 > x0
    if not (forward or x1 < x0):
        raise DomainError(f"need distinct endpoints, got {x0} and {x1}")
    if not (tol > 0.0):
        raise DomainError("tolerance must be > 0")
    xs, thetas, lrs, stages, rejected = [x0], [theta0], [log_rho0], [], 0

    x, th, lr = x0, theta0, log_rho0
    k1t, k1l = _rhs(coefficients(x0), th)  # FSAL seed
    h = (x1 - x0) / 100.0
    stiff = False

    while x != x1:
        if abs(h) < 1e-14 * max(1.0, abs(x)):
            raise IntegrationError(f"step size underflow at r = {math.exp(x)}", last_r=math.exp(x))
        last = x + h >= x1 if forward else x + h <= x1
        if last:
            h = x1 - x
        if stiff:
            th_new, d_lr, err_t, err_l, ks = _radau_step(coefficients, x, h, th, tol)
        else:
            th_new, d_lr, err_t, err_l, ks = _step(coefficients, x, h, th, k1t, k1l)
        err = math.sqrt(0.5 * (err_t * err_t + err_l * err_l)) / tol
        # the Radau error estimate is of third order, the DP45 one of fourth
        expo = -0.25 if stiff else -0.2
        if err <= 1.0:
            stages.append(ks)
            x = x1 if last else x + h
            th = th_new
            lr += d_lr
            k1t, k1l = ks[-2], ks[-1]
            xs.append(x)
            thetas.append(th)
            lrs.append(lr)
            stiff = 2.0 * h * k1l > 3.0
            h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** expo))
        else:
            rejected += 1
            # an err of inf or nan gives 0 or nan here: max keeps the 0.2
            h *= max(0.2, 0.9 * err ** expo)

    return Trajectory(coefficients, tol, xs, thetas, lrs, stages, rejected)
