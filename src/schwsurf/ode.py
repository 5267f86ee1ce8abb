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

The pair comes as one closure: ``coefficients(x)`` returns ``(A, B, D)``
and ``coefficients(x, theta)`` the slopes ``(theta', (log rho)')`` by the
formulas above, in their order of operations (``_steps._rhs``).  Each
explicit stage, of a step, of the dense output or of a phase crossing,
makes one call with its phase.  Where a stepper needs the slopes at one
abscissa more than once (stages 12 and 13 of a DOP853 step, which share
``x + h``; a Radau step's start and collocation points, which its Newton
iterations revisit) it reads ``(A, B, D)`` there once.

Two steppers, in :mod:`schwsurf._steps`, work on plain floats (two
components; numpy per-step overhead would dominate).  ``tol`` bounds the
estimated local error of each step, for either, in radians of phase and
relative error of the amplitude.  No step cap applies.

* DOP853 (Hairer, Nørsett & Wanner, *Solving ODEs I*, Springer 1993,
  sec. II.10), an explicit pair of order 8, takes the steps while the
  phase oscillates or drifts; its error norm is Hairer's, the fifth-order
  estimate scaled by its ratio to the third-order one, as an RMS over the
  two components.  Where ``P < 0`` the phase is drawn to a fixed point
  at the rate ``d theta'/d theta = -B sin 2 theta + D cos 2 theta = -2
  (log rho)'``.  A DOP853 step is held to ``2 h (log rho)' <= 3`` at its
  end, half its stability interval and below the 4 or so from which its
  error estimate reads the local error too small (``_EXPLICIT_LIMIT``):
  its proposed length is cut to end inside the limit, and a step that
  ends beyond is taken again, shorter.
* Radau IIA of order 5 (3 stages, L-stable; Hairer & Wanner, *Solving
  ODEs II*, Springer 1996) takes the next step after an accepted DOP853
  step whose successor, as the step control proposes it, would have
  ``2 h (log rho)' > 6``, that is more than twice what DOP853 may take,
  and keeps taking them while the proposed step has ``2 h (log rho)' >
  3``.  Its phase is solved by simplified Newton, which is scalar here;
  ``log rho`` is a quadrature over the same collocation stages.

A shot runs from ``x0`` toward ``x1`` on either side of it, with a signed
step.  A :class:`Trajectory` holds plain lists: the nodes, the phase and
``log rho`` at each node, and each accepted step's record, its stages or
its three collocation increments.  Dense output of both components, read
on forward shots (``x1 > x0``) only, comes from DOP853's seventh-order
continuous extension, whose three extra stages are taken on the step's
first read, or from the Radau collocation cubic, in one form for both:
:meth:`Trajectory.eval_scalar` reads one point in plain floats, forming
that step's coefficients on first read; only :meth:`Trajectory.eval`,
which reads a whole array of points, imports numpy and stacks the same
coefficients of every step.  A read at the last node returns the stored
end state and forms none.  Integrating and reading single points load no
numpy.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from typing import Callable

from ._record import Record
from ._steps import _dop853_dense, _radau_dense, _radau_step, _step
from .errors import DomainError, IntegrationError

# the bound on -h d theta'/d theta = 2 h (log rho)' at the end of a DOP853
# step.  Its stability interval reaches 6.1 (Hairer's dop853.f), but on the
# mode shots its error estimate reads the local error 3 to 100 times too
# small from about 4 on, where its dense output errs by 10 to 1000 tol
_EXPLICIT_LIMIT = 3.0


class Trajectory(Record):
    """Accepted steps of one Prüfer integration, in plain lists.

    ``x`` holds the nodes, ``theta`` and ``log_rho`` the pair at each node.
    Step ``i`` runs from node ``i`` to node ``i + 1``, backward on a
    backward shot.  ``stages[i]`` is its record: for a DOP853 step the
    stages 1 and 6 to 13 of :func:`_step`, 18 floats, the first two the
    right-hand side at node ``i``; for a Radau IIA step the three
    collocation increments ``(Z1 theta, Z1 log rho, ..., Z3 log rho)``,
    8 floats.  Either record ends with the right-hand side at node
    ``i + 1``.  ``coefficients`` and ``tol`` are the integration's; dense
    output and phase crossings take fresh stages from them.  The step
    counts are ``rejected_steps`` and the accepted ``dop853_steps`` and
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
    def dop853_steps(self) -> int:
        return len(self.stages) - self.radau_steps

    @functools.cached_property
    def _dense(self) -> list:
        return [None] * len(self.stages)

    def _need_forward(self, what: str) -> None:
        if not self.x[-1] > self.x[0]:
            raise DomainError(f"{what} a forward shot, x[-1] > x[0]")

    def dense(self, i: int) -> tuple:
        """The ``(theta, log rho)`` dense-output coefficients of step ``i``,
        two 7-tuples ``F`` formed on first read and kept: with ``s`` the
        fraction of the step and ``t = 1 - s``, ``y(x_i + s h) = y_i + s (F0
        + t (F1 + s (F2 + t (F3 + s (F4 + t (F5 + s F6))))))``, Hairer's form
        of DOP853's seventh-order continuous extension, or a Radau step's
        collocation cubic in the same form.  ``F0`` is the step's increment.
        Both readers read these."""
        coeffs = self._dense[i]
        if coeffs is None:
            self._need_forward("dense output needs")
            x, theta, log_rho, k = self.x, self.theta, self.log_rho, self.stages[i]
            d_th, d_lr = theta[i + 1] - theta[i], log_rho[i + 1] - log_rho[i]
            if len(k) == 8:
                coeffs = _radau_dense(k, d_th, d_lr)
            else:
                coeffs = _dop853_dense(self.coefficients, x[i], x[i + 1] - x[i], theta[i], d_th, d_lr, k)
            self._dense[i] = coeffs
        return coeffs

    @functools.cached_property
    def _arrays(self) -> tuple:
        """Nodes, ``(n, 2)`` states and the ``(n - 1, 2, 7)`` stack of every
        step's :meth:`dense` coefficients as arrays, for :meth:`eval`."""
        import numpy as np

        n = len(self.stages)
        flat = itertools.chain.from_iterable(itertools.chain.from_iterable(map(self.dense, range(n))))
        dense = np.fromiter(flat, float, 14 * n).reshape(n, 2, 7)
        return np.asarray(self.x), np.column_stack((self.theta, self.log_rho)), dense

    def eval(self, x):
        """``(theta, log rho)`` at the points ``x``, shape ``x.shape + (2,)``.

        Points are clipped into ``[x[0], x[-1]]``; callers check the domain.
        A point at the last node reads the stored end state.
        """
        import numpy as np

        nodes, y, dense = self._arrays
        x = np.minimum(np.maximum(x, nodes[0]), nodes[-1])
        i = np.minimum(np.searchsorted(nodes, x, side="right"), len(nodes) - 1) - 1
        x0 = nodes[i]
        s = ((x - x0) / (nodes[i + 1] - x0))[..., None]
        t = 1.0 - s
        c0, c1, c2, c3, c4, c5, c6 = np.moveaxis(dense[i], -1, 0)
        poly = c0 + t * (c1 + s * (c2 + t * (c3 + s * (c4 + t * (c5 + s * c6)))))
        return np.where((x == nodes[-1])[..., None], y[-1], y[i] + s * poly)

    def eval_scalar(self, x: float) -> tuple:
        """``(theta, log rho)`` at one point ``x``, as floats.

        The same clipping, end state, step choice, :meth:`dense`
        coefficients and evaluation as :meth:`eval`, in the same order of
        operations; a read at the last node forms no coefficients.
        """
        self._need_forward("dense output needs")
        nodes = self.x
        x = min(max(x, nodes[0]), nodes[-1])
        if x == nodes[-1]:
            return self.theta[-1], self.log_rho[-1]
        i = bisect.bisect_right(nodes, x) - 1
        x0 = nodes[i]
        s = (x - x0) / (nodes[i + 1] - x0)
        t = 1.0 - s
        (a0, a1, a2, a3, a4, a5, a6), (b0, b1, b2, b3, b4, b5, b6) = self.dense(i)
        return (
            self.theta[i] + s * (a0 + t * (a1 + s * (a2 + t * (a3 + s * (a4 + t * (a5 + s * a6)))))),
            self.log_rho[i] + s * (b0 + t * (b1 + s * (b2 + t * (b3 + s * (b4 + t * (b5 + s * b6)))))),
        )

    def phase_crossing(self, target: float) -> float:
        """Abscissa where the phase passes ``target``.

        ``target`` must lie in ``(theta(x0), theta(x_end)]`` and be crossed
        upward only, as a multiple of ``pi`` is.  Newton's method runs on
        the length of a fresh step from the node before the crossing, taken
        by the method that took the step there, so the result carries the
        step's local error, not the dense output's.
        """
        self._need_forward("phase crossings need")
        theta = self.theta
        i = next(j for j, th in enumerate(theta) if th >= target) - 1
        x0, th0 = self.x[i], theta[i]
        h_max = self.x[i + 1] - x0
        h = h_max * (target - th0) / (theta[i + 1] - th0)
        k = self.stages[i]
        for _ in range(4):
            if len(k) == 8:
                th1, _, _, _, ks = _radau_step(self.coefficients, x0, h, th0, self.tol)
                if not ks:
                    break
            else:
                th1, _, _, ks = _step(self.coefficients, x0, h, th0, k[0], k[1])
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
    negated.  ``coefficients`` is the closure of the module docstring, the
    ``(A, B, D)`` at ``x`` or the slopes at ``(x, theta)``.  With ``z = 2 h
    (log rho)' = -h d theta'/d theta`` read off the last stage of the step
    just accepted, ``h`` the proposed next step: the next step is a Radau
    IIA step if ``z > 2 _EXPLICIT_LIMIT`` after a DOP853 step or ``z >
    _EXPLICIT_LIMIT`` after a Radau step, and a DOP853 step otherwise,
    cut to ``z = 0.9 _EXPLICIT_LIMIT`` where ``z`` exceeds the limit; a
    DOP853 step whose own ``z`` ends above ``_EXPLICIT_LIMIT`` is taken
    again, cut the same way, and counts as rejected.  Raises
    :class:`IntegrationError` with the last good radius ``exp(x)`` if
    ``|h|`` underflows, and :class:`DomainError` on endpoints that are not
    finite or not distinct, or on ``tol <= 0``.
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
    k1t, k1l = coefficients(x0, th)  # FSAL seed
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
            err = math.sqrt(0.5 * (err_t * err_t + err_l * err_l)) / tol
        else:
            th_new, d_lr, err, ks = _step(coefficients, x, h, th, k1t, k1l)
            err /= tol
        # the Radau error estimate is of third order, DOP853's of seventh
        expo = -0.25 if stiff else -0.125
        if not err <= 1.0:
            rejected += 1
            # an err of inf or nan gives 0 or nan here: max keeps the 0.2
            h *= max(0.2, 0.9 * err ** expo)
        elif not stiff and 2.0 * h * ks[-1] > _EXPLICIT_LIMIT:
            # the error estimate is not to be trusted past the limit: the
            # step is taken again, short enough to end inside it
            rejected += 1
            h *= 0.9 * _EXPLICIT_LIMIT / (2.0 * h * ks[-1])
        else:
            stages.append(ks)
            x = x1 if last else x + h
            th = th_new
            lr += d_lr
            k1t, k1l = ks[-2], ks[-1]
            xs.append(x)
            thetas.append(th)
            lrs.append(lr)
            h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** expo))
            # Radau takes the next step if DOP853 could take less than half
            # of it, and goes on while DOP853 could not take it whole; a
            # DOP853 step that would pass the limit is cut to end inside it
            z = 2.0 * h * k1l
            stiff = z > (1.0 if stiff else 2.0) * _EXPLICIT_LIMIT
            if not stiff and z > _EXPLICIT_LIMIT:
                h *= 0.9 * _EXPLICIT_LIMIT / z

    return Trajectory(coefficients, tol, xs, thetas, lrs, stages, rejected)
