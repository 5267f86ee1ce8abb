"""One step of each method on the scaled Prüfer pair of :mod:`schwsurf.ode`.

The right-hand side of the pair, DOP853 (explicit, order 8) with its
seventh-order dense output, and Radau IIA (implicit, order 5) with its
collocation cubic, each hand-unrolled for the two components on plain
floats.  Each explicit stage makes one call of the pair's closure,
``coefficients(x, theta)``, for its slopes ``(theta', (log rho)')``; the
two DOP853 stages at ``x + h``, and Radau at its abscissae, whose Newton
iterations reuse them, read ``(A, B, D) = coefficients(x)`` and form the
slopes by :func:`_rhs`.  :mod:`schwsurf.ode` chooses the method, controls
the step and keeps the records each step returns.  The steps sit apart from
:mod:`schwsurf.ode` for memory: where no bytecode is written, each source
is compiled on import, and one module holding both peaked 0.5 MB higher
while compiling, which the benchmark read as peak RSS.
"""

from __future__ import annotations

import math
import sys

# DOP853, the explicit Runge-Kutta pair of order 8 with error estimators
# of orders 5 and 3 and a continuous extension of order 7 (Hairer, Nørsett
# & Wanner, *Solving ODEs I*, 2nd ed., Springer 1993, sec. II.10), with the
# constants of Hairer's dop853.f and his names: ``_Cj`` the abscissa of
# stage ``j``, ``_Ajl`` the weight of stage ``l`` in stage ``j`` (zero
# weights left out), stage 13 the right-hand side at the step's end, whose
# weights ``_Bl`` give the eighth-order solution, and stages 14 to 16 the
# extra stages of the dense output
_C2, _C3, _C4, _C5 = 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726
_C6, _C7, _C8, _C9 = 0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513
_C10, _C11, _C14, _C15, _C16 = 0.6, 0.8571428571428571, 0.1, 0.2, 0.7777777777777778
_A21 = 0.05260015195876773
_A31, _A32 = 0.0197250569845379, 0.0591751709536137
_A41, _A43 = 0.02958758547680685, 0.08876275643042054
_A51, _A53, _A54 = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
_A61, _A64, _A65 = 0.037037037037037035, 0.17082860872947386, 0.12546768756682242
_A71, _A74, _A75, _A76 = 0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125
_A81, _A84, _A85, _A86, _A87 = (
    0.03709200011850479,
    0.17038392571223998,
    0.10726203044637328,
    -0.015319437748624402,
    0.008273789163814023,
)
_A91, _A94, _A95, _A96, _A97, _A98 = (
    0.6241109587160757,
    -3.3608926294469414,
    -0.868219346841726,
    27.59209969944671,
    20.154067550477894,
    -43.48988418106996,
)
_A101, _A104, _A105, _A106, _A107, _A108, _A109 = (
    0.47766253643826434,
    -2.4881146199716677,
    -0.590290826836843,
    21.230051448181193,
    15.279233632882423,
    -33.28821096898486,
    -0.020331201708508627,
)
_A111, _A114, _A115, _A116, _A117, _A118, _A119, _A1110 = (
    -0.9371424300859873,
    5.186372428844064,
    1.0914373489967295,
    -8.149787010746927,
    -18.52006565999696,
    22.739487099350505,
    2.4936055526796523,
    -3.0467644718982196,
)
_A121, _A124, _A125, _A126, _A127, _A128, _A129, _A1210, _A1211 = (
    2.273310147516538,
    -10.53449546673725,
    -2.0008720582248625,
    -17.9589318631188,
    27.94888452941996,
    -2.8589982771350235,
    -8.87285693353063,
    12.360567175794303,
    0.6433927460157636,
)
_B1, _B6, _B7, _B8, _B9, _B10, _B11, _B12 = (
    0.054293734116568765,
    4.450312892752409,
    1.8915178993145003,
    -5.801203960010585,
    0.3111643669578199,
    -0.1521609496625161,
    0.20136540080403034,
    0.04471061572777259,
)
# the fifth-order error weights, and the third-order ones: B minus the
# weights of the embedded third-order solution
_ER1, _ER6, _ER7, _ER8, _ER9, _ER10, _ER11, _ER12 = (
    0.01312004499419488,
    -1.2251564463762044,
    -0.4957589496572502,
    1.6643771824549864,
    -0.35032884874997366,
    0.3341791187130175,
    0.08192320648511571,
    -0.022355307863886294,
)
_E31, _E39, _E312 = -0.18980075407240762, -0.4226823213237919, 0.02265179219836082
_A141, _A147, _A148, _A149, _A1410, _A1411, _A1412, _A1413 = (
    0.056167502283047954,
    0.25350021021662483,
    -0.2462390374708025,
    -0.12419142326381637,
    0.15329179827876568,
    0.00820105229563469,
    0.007567897660545699,
    -0.008298,
)
_A151, _A156, _A157, _A158, _A1511, _A1512, _A1513, _A1514 = (
    0.03183464816350214,
    0.028300909672366776,
    0.053541988307438566,
    -0.05492374857139099,
    -0.00010834732869724932,
    0.0003825710908356584,
    -0.00034046500868740456,
    0.1413124436746325,
)
_A161, _A166, _A167, _A168, _A169, _A1613, _A1614, _A1615 = (
    -0.42889630158379194,
    -4.697621415361164,
    7.683421196062599,
    4.06898981839711,
    0.3567271874552811,
    -0.0013990241651590145,
    2.9475147891527724,
    -9.15095847217987,
)
# the weights of stages 1, 6 to 16 in the dense-output coefficients 4 to 7
_DENSE_D = (
    (
        -8.428938276109013,
        0.5667149535193777,
        -3.0689499459498917,
        2.38466765651207,
        2.117034582445028,
        -0.871391583777973,
        2.2404374302607883,
        0.6315787787694688,
        -0.08899033645133331,
        18.148505520854727,
        -9.194632392478356,
        -4.436036387594894,
    ),
    (
        10.427508642579134,
        242.28349177525817,
        165.20045171727028,
        -374.5467547226902,
        -22.113666853125306,
        7.733432668472264,
        -30.674084731089398,
        -9.332130526430229,
        15.697238121770845,
        -31.139403219565178,
        -9.35292435884448,
        35.81684148639408,
    ),
    (
        19.985053242002433,
        -387.0373087493518,
        -189.17813819516758,
        527.8081592054236,
        -11.57390253995963,
        6.8812326946963,
        -1.0006050966910838,
        0.7777137798053443,
        -2.778205752353508,
        -60.19669523126412,
        84.32040550667716,
        11.99229113618279,
    ),
    (
        -25.69393346270375,
        -154.18974869023643,
        -231.5293791760455,
        357.6391179106141,
        93.40532418362432,
        -37.45832313645163,
        104.0996495089623,
        29.8402934266605,
        -43.53345659001114,
        96.32455395918828,
        -39.17726167561544,
        -149.72683625798564,
    ),
)
# the rows of _DENSE_D by Hairer's names, ``_Dpl`` the weight of stage
# ``l`` in coefficient ``p``
(
    (_D41, _D46, _D47, _D48, _D49, _D410, _D411, _D412, _D413, _D414, _D415, _D416),
    (_D51, _D56, _D57, _D58, _D59, _D510, _D511, _D512, _D513, _D514, _D515, _D516),
    (_D61, _D66, _D67, _D68, _D69, _D610, _D611, _D612, _D613, _D614, _D615, _D616),
    (_D71, _D76, _D77, _D78, _D79, _D710, _D711, _D712, _D713, _D714, _D715, _D716),
) = _DENSE_D

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


def _rhs_theta(c: tuple, th: float, cos=math.cos, sin=math.sin) -> float:
    """``theta'`` alone, for the Newton iterations of :func:`_radau_step`:
    the first half of :func:`_rhs`, the same expression."""
    a, b, d = c
    return 0.5 * (a + b * cos(2.0 * th) + d * sin(2.0 * th))


def _step(coefficients, x, h, th, k1t, k1l) -> tuple:
    """One DOP853 step from ``x`` to ``x + h``: the eighth-order ``theta``
    and increment of ``log rho``, the error estimate (not yet divided by
    the tolerance) and the step's record.

    The estimate is Hairer's: with ``e5`` and ``e3`` the squared norms of
    the fifth- and third-order error vectors of the pair, ``|h| e5 /
    sqrt(2 (e5 + e3 / 100))``, the RMS of the two components' fifth-order
    errors scaled down where the third-order one is larger.  The record
    is ``(k1 theta, k1 log rho, k6 theta, ..., k12 log rho, k13 theta, k13
    log rho)``, 18 floats: stages 2 to 5 enter neither the solution, the
    error nor the dense output, so it leaves them out, and their ``log
    rho`` slopes are dropped."""
    k2t = coefficients(x + _C2 * h, th + h * _A21 * k1t)[0]
    k3t = coefficients(x + _C3 * h, th + h * (_A31 * k1t + _A32 * k2t))[0]
    k4t = coefficients(x + _C4 * h, th + h * (_A41 * k1t + _A43 * k3t))[0]
    k5t = coefficients(x + _C5 * h, th + h * (_A51 * k1t + _A53 * k3t + _A54 * k4t))[0]
    k6t, k6l = coefficients(x + _C6 * h, th + h * (_A61 * k1t + _A64 * k4t + _A65 * k5t))
    k7t, k7l = coefficients(x + _C7 * h, th + h * (_A71 * k1t + _A74 * k4t + _A75 * k5t + _A76 * k6t))
    k8t, k8l = coefficients(x + _C8 * h, th + h * (_A81 * k1t + _A84 * k4t + _A85 * k5t + _A86 * k6t + _A87 * k7t))
    k9t, k9l = coefficients(
        x + _C9 * h, th + h * (_A91 * k1t + _A94 * k4t + _A95 * k5t + _A96 * k6t + _A97 * k7t + _A98 * k8t)
    )
    k10t, k10l = coefficients(x + _C10 * h, th + h * (
        _A101 * k1t + _A104 * k4t + _A105 * k5t + _A106 * k6t + _A107 * k7t + _A108 * k8t + _A109 * k9t
    ))
    k11t, k11l = coefficients(x + _C11 * h, th + h * (
        _A111 * k1t + _A114 * k4t + _A115 * k5t + _A116 * k6t + _A117 * k7t + _A118 * k8t + _A119 * k9t
        + _A1110 * k10t
    ))
    # stages 12 and 13 share the abscissa x + h: one read of (A, B, D)
    # costs less than a second call with a phase
    c12 = coefficients(x + h)
    k12t, k12l = _rhs(c12, th + h * (
        _A121 * k1t + _A124 * k4t + _A125 * k5t + _A126 * k6t + _A127 * k7t + _A128 * k8t + _A129 * k9t
        + _A1210 * k10t + _A1211 * k11t
    ))
    th_new = th + h * (
        _B1 * k1t + _B6 * k6t + _B7 * k7t + _B8 * k8t + _B9 * k9t + _B10 * k10t + _B11 * k11t + _B12 * k12t
    )
    d_lr = h * (_B1 * k1l + _B6 * k6l + _B7 * k7l + _B8 * k8l + _B9 * k9l + _B10 * k10l + _B11 * k11l + _B12 * k12l)
    k13t, k13l = _rhs(c12, th_new)
    e5t = _ER1 * k1t + _ER6 * k6t + _ER7 * k7t + _ER8 * k8t + _ER9 * k9t + _ER10 * k10t + _ER11 * k11t + _ER12 * k12t
    e5l = _ER1 * k1l + _ER6 * k6l + _ER7 * k7l + _ER8 * k8l + _ER9 * k9l + _ER10 * k10l + _ER11 * k11l + _ER12 * k12l
    e3t = _E31 * k1t + _B6 * k6t + _B7 * k7t + _B8 * k8t + _E39 * k9t + _B10 * k10t + _B11 * k11t + _E312 * k12t
    e3l = _E31 * k1l + _B6 * k6l + _B7 * k7l + _B8 * k8l + _E39 * k9l + _B10 * k10l + _B11 * k11l + _E312 * k12l
    e5 = e5t * e5t + e5l * e5l
    e3 = e3t * e3t + e3l * e3l
    # both estimates vanish where the stages agree to the bit: 0/0, no error
    err = 0.0 if e5 == 0.0 and e3 == 0.0 else abs(h) * e5 / math.sqrt(2.0 * (e5 + 0.01 * e3))
    stages = (
        k1t, k1l, k6t, k6l, k7t, k7l, k8t, k8l, k9t, k9l, k10t, k10l, k11t, k11l, k12t, k12l, k13t, k13l
    )
    return th_new, d_lr, err, stages


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
        f1 = _rhs_theta(cs[0], th + z1)
        f2 = _rhs_theta(cs[1], th + z2)
        f3 = _rhs_theta(cs[2], th + z3)
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


def _dop853_dense(coefficients, x: float, h: float, th: float, d_th: float, d_lr: float, k: tuple) -> tuple:
    """The two 7-tuples of ``Trajectory.dense`` for the DOP853 step of
    length ``h`` from ``(x, th)`` with record ``k``, whose ends differ by
    ``d_th`` and ``d_lr``: the three extra stages, then Hairer's
    coefficients ``d``, ``h k1 - d``, ``d - h k13`` minus the second, and
    ``h`` times the stages weighted by each row of ``_DENSE_D``, formed by
    :func:`_dense_row` for each component."""
    k1t, k1l, k6t, k6l, k7t, k7l, k8t, k8l, k9t, k9l, k10t, k10l, k11t, k11l, k12t, k12l, k13t, k13l = k
    k14t, k14l = coefficients(x + _C14 * h, th + h * (
        _A141 * k1t + _A147 * k7t + _A148 * k8t + _A149 * k9t + _A1410 * k10t + _A1411 * k11t + _A1412 * k12t
        + _A1413 * k13t
    ))
    k15t, k15l = coefficients(x + _C15 * h, th + h * (
        _A151 * k1t + _A156 * k6t + _A157 * k7t + _A158 * k8t + _A1511 * k11t + _A1512 * k12t + _A1513 * k13t
        + _A1514 * k14t
    ))
    k16t, k16l = coefficients(x + _C16 * h, th + h * (
        _A161 * k1t + _A166 * k6t + _A167 * k7t + _A168 * k8t + _A169 * k9t + _A1613 * k13t + _A1614 * k14t
        + _A1615 * k15t
    ))
    return (
        _dense_row(h, d_th, k1t, k6t, k7t, k8t, k9t, k10t, k11t, k12t, k13t, k14t, k15t, k16t),
        _dense_row(h, d_lr, k1l, k6l, k7l, k8l, k9l, k10l, k11l, k12l, k13l, k14l, k15l, k16l),
    )


def _dense_row(h, d, k1, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16) -> tuple:
    """One component's seven coefficients: ``d``, ``f1 = h k1 - d``,
    ``d - h k13 - f1`` and ``h`` times the rows of ``_DENSE_D`` applied to
    the stages, each sum written out in stage order."""
    f1 = h * k1 - d
    return (
        d,
        f1,
        d - h * k13 - f1,
        h
        * (
            _D41 * k1 + _D46 * k6 + _D47 * k7 + _D48 * k8 + _D49 * k9 + _D410 * k10
            + _D411 * k11 + _D412 * k12 + _D413 * k13 + _D414 * k14 + _D415 * k15 + _D416 * k16
        ),
        h
        * (
            _D51 * k1 + _D56 * k6 + _D57 * k7 + _D58 * k8 + _D59 * k9 + _D510 * k10
            + _D511 * k11 + _D512 * k12 + _D513 * k13 + _D514 * k14 + _D515 * k15 + _D516 * k16
        ),
        h
        * (
            _D61 * k1 + _D66 * k6 + _D67 * k7 + _D68 * k8 + _D69 * k9 + _D610 * k10
            + _D611 * k11 + _D612 * k12 + _D613 * k13 + _D614 * k14 + _D615 * k15 + _D616 * k16
        ),
        h
        * (
            _D71 * k1 + _D76 * k6 + _D77 * k7 + _D78 * k8 + _D79 * k9 + _D710 * k10
            + _D711 * k11 + _D712 * k12 + _D713 * k13 + _D714 * k14 + _D715 * k15 + _D716 * k16
        ),
    )


def _radau_dense(k: tuple, d_th: float, d_lr: float) -> tuple:
    """The Radau step's collocation cubic ``y + sum_p (Z^T P)[p] s^(p+1)``
    (``P = _RADAU_P``, ``Z`` the increments of record ``k``) in the basis
    of :func:`_dop853_dense`: ``d``, ``(Z^T P)[0] - d``, ``-(Z^T P)[2]``
    and four zeros, since the cubic ends at the step's end ``d``.  Each
    sum runs in stage order."""
    (a1, _, c1), (a2, _, c2), (a3, _, c3) = _RADAU_P
    z1, y1, z2, y2, z3, y3 = k[:6]
    return (
        (d_th, z1 * a1 + z2 * a2 + z3 * a3 - d_th, -(z1 * c1 + z2 * c2 + z3 * c3), 0.0, 0.0, 0.0, 0.0),
        (d_lr, y1 * a1 + y2 * a2 + y3 * a3 - d_lr, -(y1 * c1 + y2 * c2 + y3 * c3), 0.0, 0.0, 0.0, 0.0),
    )
