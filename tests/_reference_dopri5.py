"""The tuple-based DOPRI5 stepper, frozen as a test oracle.

This is the stepper that the inlined ``revde.repressilator._dopri5``
replaced: every stage calls ``_rhs`` on a packed 6-tuple and every Hill
term takes the ``log`` guard.  It is kept unchanged so that tests can
check the inlined stepper against it bit for bit on arbitrary
parameters, beyond the fixed cases of ``repressilator_golden.json``.
Do not edit it to follow the library.
"""

import math

import numpy as np


def _rhs(a0, hn, bb, aa, y):
    """Rates of (m1, p1, m2, p2, m3, p3); gene g is repressed by protein g-1."""
    m1, p1, m2, p2, m3, p3 = y
    # Hill term alpha / (1 + p^n) with the two guards of the module docstring
    r1 = aa if p3 <= 0.0 else 0.0 if hn * math.log(p3) > 700.0 else aa / (1.0 + p3 ** hn)
    r2 = aa if p1 <= 0.0 else 0.0 if hn * math.log(p1) > 700.0 else aa / (1.0 + p1 ** hn)
    r3 = aa if p2 <= 0.0 else 0.0 if hn * math.log(p2) > 700.0 else aa / (1.0 + p2 ** hn)
    return (-m1 + r1 + a0, -bb * (p1 - m1),
            -m2 + r2 + a0, -bb * (p2 - m2),
            -m3 + r3 + a0, -bb * (p3 - m3))


# Dormand-Prince tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.5):
# stage weights A, 5th-order weights B, and E = B - B* of the 4th-order
# embedded solution for the error estimate
_A21 = 0.2
_A31, _A32 = 0.075, 0.225
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                                49.0 / 176.0, -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                           -2187.0 / 6784.0, 11.0 / 84.0)
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                                -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)


def _dopri5(a0, hn, bb, aa, y0, times, rtol, atol, max_steps):
    # numpy scalars would send every operation below through numpy
    a0 = float(a0)
    hn = float(hn)
    bb = float(bb)
    aa = float(aa)
    # The requested tolerances describe the accuracy of the *sampled*
    # output.  Cubic Hermite interpolation sits one order below the
    # stepper and global error accumulates past the per-step tolerance,
    # so the controller runs 50x tighter internally.
    rtol = float(rtol) * 0.02
    atol = float(atol) * 0.02

    n_out = times.shape[0]
    out = np.empty((n_out, 6))

    t = 0.0
    t_end = float(times[n_out - 1])
    y = (float(y0[0]), float(y0[1]), float(y0[2]), float(y0[3]), float(y0[4]), float(y0[5]))
    f = _rhs(a0, hn, bb, aa, y)

    # emit every sample at or before the start time
    filled = 0
    while filled < n_out and times[filled] <= t:
        for i in range(6):
            out[filled, i] = y[i]
        filled += 1
    if filled == n_out:
        return out, 0

    # initial step guess, after HINIT in Hairer's DOPRI5 code
    dny = 0.0
    dnf = 0.0
    for i in range(6):
        sc = atol + rtol * abs(y[i])
        q = y[i] / sc
        dny += q * q
        q = f[i] / sc
        dnf += q * q
    dny = math.sqrt(dny / 6.0)
    dnf = math.sqrt(dnf / 6.0)
    h = 1e-6 if (dny < 1e-5 or dnf < 1e-5) else 0.01 * dny / dnf
    if not h > 0.0:   # |f| / sc overflowed: no usable step size
        return out, 1
    f_trial = _rhs(a0, hn, bb, aa, (y[0] + h * f[0], y[1] + h * f[1], y[2] + h * f[2],
                                    y[3] + h * f[3], y[4] + h * f[4], y[5] + h * f[5]))
    der2 = 0.0
    for i in range(6):
        q = (f_trial[i] - f[i]) / (atol + rtol * abs(y[i]))
        der2 += q * q
    der2 = math.sqrt(der2 / 6.0) / h
    der12 = max(dnf, der2)
    h1 = max(1e-6, h * 1e-3) if der12 <= 1e-15 else (0.01 / der12) ** 0.2
    h = min(min(100.0 * h, h1), t_end - t)

    steps = 0
    while t < t_end:
        if steps >= max_steps:
            return out, 2
        steps += 1
        if h < 1e-14 * max(1.0, abs(t)):
            return out, 1
        if t + h > t_end:
            h = t_end - t

        # stages k1..k7 unpacked per component; k1 = f and k7 = f(y_new) (FSAL)
        y1, y2, y3, y4, y5, y6 = y
        a1, a2, a3, a4, a5, a6 = f
        b1, b2, b3, b4, b5, b6 = _rhs(a0, hn, bb, aa, (
            y1 + h * (_A21 * a1), y2 + h * (_A21 * a2), y3 + h * (_A21 * a3),
            y4 + h * (_A21 * a4), y5 + h * (_A21 * a5), y6 + h * (_A21 * a6)))
        c1, c2, c3, c4, c5, c6 = _rhs(a0, hn, bb, aa, (
            y1 + h * (_A31 * a1 + _A32 * b1), y2 + h * (_A31 * a2 + _A32 * b2),
            y3 + h * (_A31 * a3 + _A32 * b3), y4 + h * (_A31 * a4 + _A32 * b4),
            y5 + h * (_A31 * a5 + _A32 * b5), y6 + h * (_A31 * a6 + _A32 * b6)))
        d1, d2, d3, d4, d5, d6 = _rhs(a0, hn, bb, aa, (
            y1 + h * (_A41 * a1 + _A42 * b1 + _A43 * c1),
            y2 + h * (_A41 * a2 + _A42 * b2 + _A43 * c2),
            y3 + h * (_A41 * a3 + _A42 * b3 + _A43 * c3),
            y4 + h * (_A41 * a4 + _A42 * b4 + _A43 * c4),
            y5 + h * (_A41 * a5 + _A42 * b5 + _A43 * c5),
            y6 + h * (_A41 * a6 + _A42 * b6 + _A43 * c6)))
        e1, e2, e3, e4, e5, e6 = _rhs(a0, hn, bb, aa, (
            y1 + h * (_A51 * a1 + _A52 * b1 + _A53 * c1 + _A54 * d1),
            y2 + h * (_A51 * a2 + _A52 * b2 + _A53 * c2 + _A54 * d2),
            y3 + h * (_A51 * a3 + _A52 * b3 + _A53 * c3 + _A54 * d3),
            y4 + h * (_A51 * a4 + _A52 * b4 + _A53 * c4 + _A54 * d4),
            y5 + h * (_A51 * a5 + _A52 * b5 + _A53 * c5 + _A54 * d5),
            y6 + h * (_A51 * a6 + _A52 * b6 + _A53 * c6 + _A54 * d6)))
        g1, g2, g3, g4, g5, g6 = _rhs(a0, hn, bb, aa, (
            y1 + h * (_A61 * a1 + _A62 * b1 + _A63 * c1 + _A64 * d1 + _A65 * e1),
            y2 + h * (_A61 * a2 + _A62 * b2 + _A63 * c2 + _A64 * d2 + _A65 * e2),
            y3 + h * (_A61 * a3 + _A62 * b3 + _A63 * c3 + _A64 * d3 + _A65 * e3),
            y4 + h * (_A61 * a4 + _A62 * b4 + _A63 * c4 + _A64 * d4 + _A65 * e4),
            y5 + h * (_A61 * a5 + _A62 * b5 + _A63 * c5 + _A64 * d5 + _A65 * e5),
            y6 + h * (_A61 * a6 + _A62 * b6 + _A63 * c6 + _A64 * d6 + _A65 * e6)))
        y_new = (
            y1 + h * (_B1 * a1 + _B3 * c1 + _B4 * d1 + _B5 * e1 + _B6 * g1),
            y2 + h * (_B1 * a2 + _B3 * c2 + _B4 * d2 + _B5 * e2 + _B6 * g2),
            y3 + h * (_B1 * a3 + _B3 * c3 + _B4 * d3 + _B5 * e3 + _B6 * g3),
            y4 + h * (_B1 * a4 + _B3 * c4 + _B4 * d4 + _B5 * e4 + _B6 * g4),
            y5 + h * (_B1 * a5 + _B3 * c5 + _B4 * d5 + _B5 * e5 + _B6 * g5),
            y6 + h * (_B1 * a6 + _B3 * c6 + _B4 * d6 + _B5 * e6 + _B6 * g6))
        k7 = _rhs(a0, hn, bb, aa, y_new)

        finite = True
        for i in range(6):
            if not math.isfinite(y_new[i]):
                finite = False
        if not finite:
            # shrink and retry; persistent blow-up ends in underflow
            h *= 0.25
            continue

        err_vec = (_E1 * a1 + _E3 * c1 + _E4 * d1 + _E5 * e1 + _E6 * g1 + _E7 * k7[0],
                   _E1 * a2 + _E3 * c2 + _E4 * d2 + _E5 * e2 + _E6 * g2 + _E7 * k7[1],
                   _E1 * a3 + _E3 * c3 + _E4 * d3 + _E5 * e3 + _E6 * g3 + _E7 * k7[2],
                   _E1 * a4 + _E3 * c4 + _E4 * d4 + _E5 * e4 + _E6 * g4 + _E7 * k7[3],
                   _E1 * a5 + _E3 * c5 + _E4 * d5 + _E5 * e5 + _E6 * g5 + _E7 * k7[4],
                   _E1 * a6 + _E3 * c6 + _E4 * d6 + _E5 * e6 + _E6 * g6 + _E7 * k7[5])
        err = 0.0
        for i in range(6):
            q = h * err_vec[i] / (atol + rtol * max(abs(y[i]), abs(y_new[i])))
            err += q * q
        err = math.sqrt(err / 6.0)

        if err <= 1.0:
            t_new = t + h
            # cubic Hermite over [t, t_new] using endpoint slopes
            while filled < n_out and times[filled] <= t_new:
                th = (float(times[filled]) - t) / h
                h00 = (1.0 + 2.0 * th) * (1.0 - th) ** 2
                h10 = th * (1.0 - th) ** 2 * h
                h01 = th * th * (3.0 - 2.0 * th)
                h11 = th * th * (th - 1.0) * h
                for i in range(6):
                    out[filled, i] = h00 * y[i] + h10 * f[i] + h01 * y_new[i] + h11 * k7[i]
                filled += 1
            t = t_new
            y = y_new
            f = k7
            fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h = h * fac
        else:
            h = h * max(0.2, 0.9 * err ** -0.2)

    while filled < n_out:   # guard against last-sample rounding
        for i in range(6):
            out[filled, i] = y[i]
        filled += 1
    return out, 0
