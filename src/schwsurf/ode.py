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

The Dormand-Prince 4(5) stepper works on plain floats (two components;
numpy per-step overhead would dominate).  ``tol`` is an absolute bound on
the RMS of the two estimated local errors of each step: radians of phase
and relative error of the amplitude.  No step cap applies.  A
:class:`Trajectory` holds plain lists: the nodes, the phase and
``log rho`` at each node, and the seven stages of each accepted step.  The
pair's 4th-order continuous extension gives dense output of both
components: :meth:`Trajectory.eval_scalar` reads one point in plain
floats, forming that step's extension coefficients on first read; only
:meth:`Trajectory.eval`, which reads a whole array of points, imports
numpy and builds arrays.  Integrating and reading single points load no
numpy.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable

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
_DENSE_COLUMNS = tuple(zip(*_DENSE_P))


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


def _extension(ks) -> tuple:
    """Continuous-extension coefficients of one component from its seven
    stages ``ks``: per power, the products with the stage weights summed
    from the first stage on, the order of the ``einsum`` in
    :meth:`Trajectory.eval`, so both give the same bits."""
    out = []
    for weights in _DENSE_COLUMNS:
        acc = 0.0
        for k, w in zip(ks, weights):
            acc += k * w
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class Trajectory:
    """Accepted steps of one Prüfer integration, in plain lists.

    ``x`` holds the nodes, ``theta`` and ``log_rho`` the pair at each node.
    Step ``i`` runs from node ``i`` to node ``i + 1``: ``stages[i]`` holds
    its seven stages ``(k1 theta, k1 log rho, ..., k7 log rho)``, the first
    two the right-hand side at node ``i``.
    """

    coefficients: Callable[[float], tuple]
    x: list
    theta: list
    log_rho: list
    stages: list

    @functools.cached_property
    def _dense(self) -> list:
        return [None] * len(self.stages)

    def dense(self, i: int) -> tuple:
        """The ``(theta, log rho)`` continuous-extension coefficients of
        step ``i``, two 4-tuples formed on first read; the first of each is
        the right-hand side at node ``i``."""
        coeffs = self._dense[i]
        if coeffs is None:
            k = self.stages[i]
            coeffs = self._dense[i] = (_extension(k[0::2]), _extension(k[1::2]))
        return coeffs

    @functools.cached_property
    def _arrays(self) -> tuple:
        """Nodes, ``(n, 2)`` states and ``(n - 1, 2, 4)`` extension
        coefficients as arrays, for :meth:`eval`."""
        import numpy as np

        k = np.asarray(self.stages).reshape(-1, 7, 2)
        dense = np.einsum("nsc,sp->ncp", k, np.asarray(_DENSE_P))
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

        The same clipping, step choice and Horner evaluation as :meth:`eval`,
        in the same order of operations.
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
        the length of a fresh step from the node before the crossing, so
        the result carries the step's local error, not the interpolant's.
        """
        theta = self.theta
        i = next(j for j, th in enumerate(theta) if th >= target) - 1
        x0, th0 = self.x[i], theta[i]
        h_max = self.x[i + 1] - x0
        h = h_max * (target - th0) / (theta[i + 1] - th0)
        k1t, k1l = self.stages[i][:2]
        for _ in range(4):
            th1, _, _, _, stages = _step(self.coefficients, x0, h, th0, k1t, k1l)
            h = min(max(h - (th1 - target) / stages[12], 0.0), h_max)
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

    ``coefficients(x)`` returns ``(A, B, D)``.  Raises
    :class:`IntegrationError` with the last good radius ``exp(x)`` if the
    step size underflows.
    """
    if not (x1 > x0):
        raise DomainError(f"need x1 > x0, got [{x0}, {x1}]")
    if not (tol > 0.0):
        raise DomainError("tolerance must be > 0")
    xs = [x0]
    thetas = [theta0]
    lrs = [log_rho0]
    stages = []

    x, th, lr = x0, theta0, log_rho0
    k1t, k1l = _rhs(coefficients(x0), th)  # FSAL seed
    h = (x1 - x0) / 100.0

    while x < x1:
        if h < 1e-14 * max(1.0, abs(x)):
            raise IntegrationError(f"step size underflow at r = {math.exp(x)}", last_r=math.exp(x))
        last = x + h >= x1
        if last:
            h = x1 - x
        th_new, d_lr, err_t, err_l, ks = _step(coefficients, x, h, th, k1t, k1l)
        err = math.sqrt(0.5 * (err_t * err_t + err_l * err_l)) / tol
        if not math.isfinite(err):
            h *= 0.2
            continue

        if err <= 1.0:
            stages.append(ks)
            x = x1 if last else x + h
            th = th_new
            lr += d_lr
            k1t, k1l = ks[12], ks[13]
            xs.append(x)
            thetas.append(th)
            lrs.append(lr)
            grow = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h *= grow
        else:
            h *= max(0.2, 0.9 * err ** -0.2)

    return Trajectory(coefficients, xs, thetas, lrs, stages)
