"""Bracketed scalar root finding: Brent's method.

A line-for-line port of scipy's ``brentq.c`` (Brent 1973, *Algorithms for
Minimization without Derivatives*, ch. 4): each step takes inverse
interpolation (secant, or inverse quadratic through three points) when it
lands well inside the bracket and shrinks it fast enough, and bisects
otherwise.  The iterates are the same IEEE operations in the same order,
so roots and function-call counts match ``scipy.optimize.brentq`` bit for
bit; keeping it here spares every caller the ``scipy.optimize`` import.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import DomainError, SearchError

_RTOL_MIN = 4.0 * sys.float_info.epsilon  # as in scipy


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float = 2e-12,
    rtol: float = _RTOL_MIN,
    maxiter: int = 100,
    *,
    f_a: float | None = None,
    f_b: float | None = None,
) -> float:
    """Root of ``f`` in ``[a, b]``, where ``f(a)`` and ``f(b)`` differ in sign.

    Stops once half the bracket is below ``delta = (xtol + rtol |x|)/2``,
    with ``x`` the end of smaller ``|f|``, and returns that end; an exact
    zero returns at once.  A caller that has already evaluated ``f(a)`` or
    ``f(b)`` passes the value as ``f_a`` or ``f_b``, and ``f`` is not called
    there again; the iterates are the same.

    Raises :class:`DomainError` for ``xtol <= 0`` or ``rtol < 4 eps``, and
    :class:`SearchError` with diagnostics (bracket, end values, last
    iterate) when the bracket has no sign change, ``f`` returns NaN, or
    ``maxiter`` iterations do not converge.
    """
    if not (xtol > 0.0):
        raise DomainError(f"xtol must be > 0, got {xtol}")
    if not (rtol >= _RTOL_MIN):
        raise DomainError(f"rtol must be >= 4 eps = {_RTOL_MIN}, got {rtol}")
    calls = 0

    def call(x: float, known: float | None = None) -> float:
        nonlocal calls
        if known is None:
            fx = float(f(x))
            calls += 1
        else:
            fx = float(known)
        if math.isnan(fx):
            raise SearchError(
                "function value is NaN",
                diagnostics={"bracket": (a, b), "x": x, "function_calls": calls},
            )
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = fa = call(xpre, f_a)
    fcur = fb = call(xcur, f_b)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise SearchError(
            "root bracket has no sign change",
            diagnostics={"bracket": (a, b), "f_a": fa, "f_b": fb},
        )

    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf  # C gets inf or nan here: both fail the test below
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = call(xcur)

    raise SearchError(
        f"no convergence after {maxiter} iterations",
        diagnostics={
            "bracket": (a, b),
            "f_a": fa,
            "f_b": fb,
            "x": xcur,
            "f_x": fcur,
            "function_calls": calls,
        },
    )
