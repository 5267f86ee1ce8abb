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
and relative error of the amplitude.  No step cap applies.  The stages of
every accepted step are kept, so the pair's 4th-order continuous extension
gives dense output of both components: :meth:`Trajectory.eval` reads a
whole array of points in numpy, :meth:`Trajectory.eval_scalar` reads one
point in plain floats, without numpy's per-call overhead.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
# the seven stages K (Dormand & Prince; the coefficients scipy's RK45 uses)
_DENSE_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)


def _rhs(c: tuple, th: float, cos=math.cos, sin=math.sin) -> tuple:
    a, b, d = c
    c2 = cos(2.0 * th)
    s2 = sin(2.0 * th)
    return 0.5 * (a + b * c2 + d * s2), 0.5 * (b * s2 - d * c2)


def _step(coefficients, x, h, th, lr, k1t, k1l) -> tuple:
    """One Dormand-Prince step from ``x`` to ``x + h``: the fifth-order
    ``(theta, log rho)``, the two error estimates and the seven stages."""
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
    lr_new = lr + h * (_B1 * k1l + _B3 * k3l + _B4 * k4l + _B5 * k5l + _B6 * k6l)
    k7t, k7l = _rhs(c6, th_new)
    err_t = h * (_E1 * k1t + _E3 * k3t + _E4 * k4t + _E5 * k5t + _E6 * k6t + _E7 * k7t)
    err_l = h * (_E1 * k1l + _E3 * k3l + _E4 * k4l + _E5 * k5l + _E6 * k6l + _E7 * k7l)
    stages = (k1t, k1l, k2t, k2l, k3t, k3l, k4t, k4l, k5t, k5l, k6t, k6l, k7t, k7l)
    return th_new, lr_new, err_t, err_l, stages


@dataclass(frozen=True)
class Trajectory:
    """Accepted steps of one Prüfer integration.

    ``x`` holds the nodes, ``y[i] = (theta, log rho)`` at node ``i``, and
    ``dense[i]`` the ``(2, 4)`` continuous-extension coefficients of the
    step from node ``i`` to node ``i + 1``; ``dense[i, :, 0]`` is the
    right-hand side at node ``i``.
    """

    coefficients: Callable[[float], tuple]
    x: np.ndarray
    y: np.ndarray
    dense: np.ndarray

    def eval(self, x) -> np.ndarray:
        """``(theta, log rho)`` at the points ``x``, shape ``x.shape + (2,)``.

        Points are clipped into ``[x[0], x[-1]]``; callers check the domain.
        """
        nodes = self.x
        x = np.minimum(np.maximum(x, nodes[0]), nodes[-1])
        i = np.minimum(np.searchsorted(nodes, x, side="right"), len(nodes) - 1) - 1
        h = nodes[i + 1] - nodes[i]
        s = ((x - nodes[i]) / h)[..., None]
        c = self.dense[i]
        poly = c[..., 0] + s * (c[..., 1] + s * (c[..., 2] + s * c[..., 3]))
        return self.y[i] + h[..., None] * s * poly

    @functools.cached_property
    def _nodes(self) -> list:
        return self.x.tolist()

    def eval_scalar(self, x: float) -> tuple:
        """``(theta, log rho)`` at one point ``x``, as floats.

        The same clipping, step choice and Horner evaluation as :meth:`eval`,
        in the same order of operations.
        """
        nodes = self._nodes
        x = min(max(x, nodes[0]), nodes[-1])
        i = min(bisect.bisect_right(nodes, x), len(nodes) - 1) - 1
        x0 = nodes[i]
        h = nodes[i + 1] - x0
        s = (x - x0) / h
        (a0, a1, a2, a3), (b0, b1, b2, b3) = self.dense[i].tolist()
        th0, lr0 = self.y[i].tolist()
        hs = h * s
        return (
            th0 + hs * (a0 + s * (a1 + s * (a2 + s * a3))),
            lr0 + hs * (b0 + s * (b1 + s * (b2 + s * b3))),
        )

    def phase_crossing(self, target: float) -> float:
        """Abscissa where the phase passes ``target``.

        ``target`` must lie in ``(theta(x0), theta(x_end)]`` and be crossed
        upward only, as a multiple of ``pi`` is.  Newton's method runs on
        the length of a fresh step from the node before the crossing, so
        the result carries the step's local error, not the interpolant's.
        """
        theta = self.y[:, 0]
        i = int(np.argmax(theta >= target)) - 1
        x0, th0, lr0 = self.x[i], theta[i], self.y[i, 1]
        h_max = self.x[i + 1] - x0
        h = h_max * (target - th0) / (theta[i + 1] - th0)
        for _ in range(4):
            th1, _, _, _, stages = _step(self.coefficients, x0, h, th0, lr0, *self.dense[i, :, 0])
            h = min(max(h - (th1 - target) / stages[12], 0.0), h_max)
        return float(x0 + h)


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
    ys = [theta0, log_rho0]
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
        th_new, lr_new, err_t, err_l, ks = _step(coefficients, x, h, th, lr, k1t, k1l)
        err = math.sqrt(0.5 * (err_t * err_t + err_l * err_l)) / tol
        if not math.isfinite(err):
            h *= 0.2
            continue

        if err <= 1.0:
            stages.append(ks)
            x = x1 if last else x + h
            th, lr = th_new, lr_new
            k1t, k1l = ks[12], ks[13]
            xs.append(x)
            ys += (th, lr)
            grow = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h *= grow
        else:
            h *= max(0.2, 0.9 * err ** -0.2)

    k = np.asarray(stages).reshape(-1, 7, 2)
    dense = np.einsum("nsc,sp->ncp", k, _DENSE_P)
    return Trajectory(coefficients, np.asarray(xs), np.asarray(ys).reshape(-1, 2), dense)
