"""Three-gene repressilator: simulation, synthetic data, fit objective.

State vector order is (m1, p1, m2, p2, m3, p3).  Repression is cyclic:
gene 1 is repressed by protein 3, gene 2 by protein 1, gene 3 by
protein 2.  The mRNA equations carry a Hill term alpha / (1 + p^n); the
protein equations are -beta * (p - m).

Sample times obey one rule, checked by ``_sample_times`` for both
``integrate`` and ``ObservationSet``: a non-empty 1-D vector of finite
times, starting at or after 0 and strictly increasing.
A parameter set is one row (alpha0, n, beta, alpha) of four finite,
non-negative numbers, the rule ``_param_row`` checks for ``integrate``
and for the fit's box.

The integrator is an adaptive Dormand-Prince 5(4) scheme with FSAL and
cubic Hermite dense output at the requested sample times, and the hot
path of parameter fitting.  At six components numpy's per-operation
overhead outweighs the arithmetic, so it runs on Python floats: named
locals, the rate equations inline in every stage, and the loop rules
above ``_hill``.  A solve takes about a ninth of the time of the
6-element array stepper it replaced (BENCH_19.json), bit for bit.  One
stepper serves ``integrate``, ``generate_observations`` and the batch
fit objective of ``make_fit_objective``, all at the tolerances and
default step budget of ``_SOLVE``; ``_rhs`` gives the stepper's first
slope and initial step guess.

Numerical guards of the right-hand side:
  - p <= 0: p^n clamped to 0 (the Hill term saturates to alpha);
  - n*log(p) > 700: p^n would overflow, the Hill term collapses to 0.
The stepper skips the log of the second guard for 0 < p < exp(699/n),
where it cannot fire (``_hill_cutoff``).

Each solve holds the GIL, so the fit objective deals a batch of rows
over forked processes with ``_util.fork_map``, whose docstring gives
the split and its rules; every process scores a row with the one loss
of ``make_fit_objective``, so values are bit-identical to the serial
batch for any process count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._util import fork_map, write_csv
from .engine import BoxBounds, Objective

__all__ = [
    "IntegrationError",
    "ObservationSet",
    "TRUE_PARAMS",
    "DEFAULT_INITIAL_STATE",
    "DEFAULT_PARAM_BOUNDS",
    "default_observation_times",
    "integrate",
    "generate_observations",
    "make_fit_objective",
    "write_observations_csv",
    "read_observations_csv",
    "write_param_history_csv",
]


class IntegrationError(RuntimeError):
    """The adaptive stepper could not reach the end of the horizon."""


# (alpha0, n, beta, alpha) and (m1, p1, m2, p2, m3, p3); read-only, as
# build_matrix's matrices are, since every caller shares them
TRUE_PARAMS = np.array([1.0, 2.0, 5.0, 1000.0])
TRUE_PARAMS.setflags(write=False)
DEFAULT_INITIAL_STATE = np.array([0.0, 2.0, 0.0, 1.0, 0.0, 3.0])
DEFAULT_INITIAL_STATE.setflags(write=False)

# wide box around both the true value and the basin the optimizer
# typically lands in; CLI can override
DEFAULT_PARAM_BOUNDS = BoxBounds(
    lower=np.array([0.01, 0.1, 0.1, 1.0]),
    upper=np.array([10.0, 10.0, 20.0, 2000.0]),
)


def default_observation_times() -> np.ndarray:
    """40 uniformly spaced sample times spanning [0, 40]."""
    return np.linspace(0.0, 40.0, 40)


def _param_row(params, what: str = "parameters") -> np.ndarray:
    """``params`` as a float64 row once checked: a parameter set is
    (alpha0, n, beta, alpha), three rates and a Hill exponent, each finite
    and never negative.  ``what`` names the row in the error."""
    x = np.asarray(params, dtype=np.float64)
    if x.shape != (4,):
        raise ValueError(f"{what} must be 4 numbers (alpha0, n, beta, alpha), "
                         f"got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite, got {x.tolist()}")
    if np.any(x < 0):
        raise ValueError(f"{what} must be non-negative, got {x.tolist()}")
    return x


def _sample_times(times) -> np.ndarray:
    """``times`` as float64 once checked: every solve starts at t = 0 and
    samples forward, so they are a non-empty 1-D vector of finite times,
    starting at or after 0 and strictly increasing."""
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise ValueError(f"times must be a non-empty 1-D vector, got shape {t.shape}")
    if not np.isfinite(t).all():
        raise ValueError("times must be finite")
    if t[0] < 0:
        raise ValueError(f"times must start at or after 0, got {t[0]}")
    if np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")
    return t


@dataclass(frozen=True)
class ObservationSet:
    """Noisy mRNA readouts; proteins are treated as unobserved."""

    times: np.ndarray
    mrna: np.ndarray

    def __post_init__(self):
        times = _sample_times(self.times)
        mrna = np.asarray(self.mrna, dtype=np.float64)
        if mrna.shape != (times.size, 3):
            raise ValueError(
                f"mrna must have shape ({times.size}, 3) to match times, got {mrna.shape}"
            )
        if not np.isfinite(mrna).all():
            raise ValueError("mrna must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "mrna", mrna)


# ----------------------------------------------------------------------
# Dormand-Prince 5(4) core.  Returns (samples, status) instead of raising,
# so a fit can score a failed solve without an exception per candidate:
#   0 ok, 1 step underflow, 2 step budget exhausted; samples is None
#   unless the status is 0.  A non-finite trial state shrinks the step
#   instead, so persistent blow-up ends in 1.
#
# The stepper runs on Python floats: every state and stage component is
# a named local, and stages k2..k7 evaluate the rate equations inline
# rather than through _rhs, which would pack and unpack a 6-tuple per
# stage.  Each component still sees the IEEE operations of the
# array-based stepper of revde 0.1.0 in the same order: rates as
# -m + hill + a0 and (-beta) * (p - m), stage sums left to right, norms
# as q*q (np.square) summed in index order and then / 6.0 (np.mean for
# n < 8), scalar powers through pow().  Its samples are therefore
# bit-identical (tests/repressilator_golden.json).  The step loop reads
# the tableau, isfinite and sqrt as locals, writes max(a, b) as
# `b if b > a else a` and min(a, b) as `b if b < a else a` (the builtins'
# pick on ties and NaN) and a Hill guard as `s > 0.0 and s < p_hi`: a
# solve takes 19 % less time.
# ----------------------------------------------------------------------

def _hill(aa, hn, p):
    """Hill term alpha / (1 + p^n) with the two guards of the module docstring."""
    return aa if p <= 0.0 else 0.0 if hn * math.log(p) > 700.0 else aa / (1.0 + p ** hn)


def _hill_cutoff(hn):
    """A bound below which every p > 0 has n*log(p) <= 700.

    For 0 < p < cutoff the Hill guard cannot fire, so the stepper takes
    alpha / (1 + p^n) directly and skips the log.  exp(699/n) leaves a
    margin of 1 over the rounding of log and of the product; where
    699/n >= 709, exp would overflow and every finite p qualifies,
    since n*log(p) <= (699/709) * 709.79 < 700.  A negative or NaN n
    gets 0, which sends every p through the guarded form.
    """
    if hn == 0.0:
        return math.inf
    if not hn > 0.0:
        return 0.0
    x = 699.0 / hn
    return math.inf if x >= 709.0 else math.exp(x)


def _rhs(a0, hn, bb, aa, y):
    """Rates of (m1, p1, m2, p2, m3, p3); gene g is repressed by protein g-1."""
    m1, p1, m2, p2, m3, p3 = y
    return (-m1 + _hill(aa, hn, p3) + a0, -bb * (p1 - m1),
            -m2 + _hill(aa, hn, p1) + a0, -bb * (p2 - m2),
            -m3 + _hill(aa, hn, p2) + a0, -bb * (p3 - m3))


def _dopri5(a0, hn, bb, aa, y0, times, rtol, atol, max_steps):
    # numpy scalars would send every operation below through numpy
    a0 = float(a0)
    hn = float(hn)
    bb = float(bb)
    aa = float(aa)
    nb = -bb
    p_hi = _hill_cutoff(hn)
    # The requested tolerances describe the accuracy of the *sampled*
    # output.  Cubic Hermite interpolation sits one order below the
    # stepper and global error accumulates past the per-step tolerance,
    # so the controller runs 50x tighter internally.
    rtol = float(rtol) * 0.02
    atol = float(atol) * 0.02

    ts = times.tolist()
    n_out = len(ts)
    rows = []

    t = 0.0
    t_end = ts[n_out - 1]
    y = (float(y0[0]), float(y0[1]), float(y0[2]), float(y0[3]), float(y0[4]), float(y0[5]))
    f = _rhs(a0, hn, bb, aa, y)

    # emit every sample at or before the start time
    filled = 0
    while filled < n_out and ts[filled] <= t:
        rows.append(y)
        filled += 1
    if filled == n_out:
        return np.array(rows), 0

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
        return None, 1
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

    # Dormand-Prince tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.5):
    # stage weights A, 5th-order weights B, and E = B - B* of the 4th-order
    # embedded solution for the error estimate
    A21 = 0.2
    A31, A32 = 0.075, 0.225
    A41, A42, A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
    A51, A52, A53, A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
    A61, A62, A63, A64, A65 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                               49.0 / 176.0, -5103.0 / 18656.0)
    B1, B3, B4, B5, B6 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                          -2187.0 / 6784.0, 11.0 / 84.0)
    E1, E3, E4, E5, E6, E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                              -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)
    isfinite, sqrt = math.isfinite, math.sqrt

    # state y1..y6 and stages a (k1 = f), b, c, d, e, g (k2..k6), k (k7 =
    # f(y_new), FSAL); s1..s6 holds the state each stage is evaluated at,
    # last y_new.  The Hill term of m_g is taken at the protein of gene g-1.
    y1, y2, y3, y4, y5, y6 = y
    a1, a2, a3, a4, a5, a6 = f
    steps = 0
    while t < t_end:
        if steps >= max_steps:
            return None, 2
        steps += 1
        if h < 1e-14 * (at if (at := abs(t)) > 1.0 else 1.0):
            return None, 1
        if t + h > t_end:
            h = t_end - t

        s1 = y1 + h * (A21 * a1)
        s2 = y2 + h * (A21 * a2)
        s3 = y3 + h * (A21 * a3)
        s4 = y4 + h * (A21 * a4)
        s5 = y5 + h * (A21 * a5)
        s6 = y6 + h * (A21 * a6)
        b1 = -s1 + (aa / (1.0 + s6 ** hn) if s6 > 0.0 and s6 < p_hi else _hill(aa, hn, s6)) + a0
        b2 = nb * (s2 - s1)
        b3 = -s3 + (aa / (1.0 + s2 ** hn) if s2 > 0.0 and s2 < p_hi else _hill(aa, hn, s2)) + a0
        b4 = nb * (s4 - s3)
        b5 = -s5 + (aa / (1.0 + s4 ** hn) if s4 > 0.0 and s4 < p_hi else _hill(aa, hn, s4)) + a0
        b6 = nb * (s6 - s5)

        s1 = y1 + h * (A31 * a1 + A32 * b1)
        s2 = y2 + h * (A31 * a2 + A32 * b2)
        s3 = y3 + h * (A31 * a3 + A32 * b3)
        s4 = y4 + h * (A31 * a4 + A32 * b4)
        s5 = y5 + h * (A31 * a5 + A32 * b5)
        s6 = y6 + h * (A31 * a6 + A32 * b6)
        c1 = -s1 + (aa / (1.0 + s6 ** hn) if s6 > 0.0 and s6 < p_hi else _hill(aa, hn, s6)) + a0
        c2 = nb * (s2 - s1)
        c3 = -s3 + (aa / (1.0 + s2 ** hn) if s2 > 0.0 and s2 < p_hi else _hill(aa, hn, s2)) + a0
        c4 = nb * (s4 - s3)
        c5 = -s5 + (aa / (1.0 + s4 ** hn) if s4 > 0.0 and s4 < p_hi else _hill(aa, hn, s4)) + a0
        c6 = nb * (s6 - s5)

        s1 = y1 + h * (A41 * a1 + A42 * b1 + A43 * c1)
        s2 = y2 + h * (A41 * a2 + A42 * b2 + A43 * c2)
        s3 = y3 + h * (A41 * a3 + A42 * b3 + A43 * c3)
        s4 = y4 + h * (A41 * a4 + A42 * b4 + A43 * c4)
        s5 = y5 + h * (A41 * a5 + A42 * b5 + A43 * c5)
        s6 = y6 + h * (A41 * a6 + A42 * b6 + A43 * c6)
        d1 = -s1 + (aa / (1.0 + s6 ** hn) if s6 > 0.0 and s6 < p_hi else _hill(aa, hn, s6)) + a0
        d2 = nb * (s2 - s1)
        d3 = -s3 + (aa / (1.0 + s2 ** hn) if s2 > 0.0 and s2 < p_hi else _hill(aa, hn, s2)) + a0
        d4 = nb * (s4 - s3)
        d5 = -s5 + (aa / (1.0 + s4 ** hn) if s4 > 0.0 and s4 < p_hi else _hill(aa, hn, s4)) + a0
        d6 = nb * (s6 - s5)

        s1 = y1 + h * (A51 * a1 + A52 * b1 + A53 * c1 + A54 * d1)
        s2 = y2 + h * (A51 * a2 + A52 * b2 + A53 * c2 + A54 * d2)
        s3 = y3 + h * (A51 * a3 + A52 * b3 + A53 * c3 + A54 * d3)
        s4 = y4 + h * (A51 * a4 + A52 * b4 + A53 * c4 + A54 * d4)
        s5 = y5 + h * (A51 * a5 + A52 * b5 + A53 * c5 + A54 * d5)
        s6 = y6 + h * (A51 * a6 + A52 * b6 + A53 * c6 + A54 * d6)
        e1 = -s1 + (aa / (1.0 + s6 ** hn) if s6 > 0.0 and s6 < p_hi else _hill(aa, hn, s6)) + a0
        e2 = nb * (s2 - s1)
        e3 = -s3 + (aa / (1.0 + s2 ** hn) if s2 > 0.0 and s2 < p_hi else _hill(aa, hn, s2)) + a0
        e4 = nb * (s4 - s3)
        e5 = -s5 + (aa / (1.0 + s4 ** hn) if s4 > 0.0 and s4 < p_hi else _hill(aa, hn, s4)) + a0
        e6 = nb * (s6 - s5)

        s1 = y1 + h * (A61 * a1 + A62 * b1 + A63 * c1 + A64 * d1 + A65 * e1)
        s2 = y2 + h * (A61 * a2 + A62 * b2 + A63 * c2 + A64 * d2 + A65 * e2)
        s3 = y3 + h * (A61 * a3 + A62 * b3 + A63 * c3 + A64 * d3 + A65 * e3)
        s4 = y4 + h * (A61 * a4 + A62 * b4 + A63 * c4 + A64 * d4 + A65 * e4)
        s5 = y5 + h * (A61 * a5 + A62 * b5 + A63 * c5 + A64 * d5 + A65 * e5)
        s6 = y6 + h * (A61 * a6 + A62 * b6 + A63 * c6 + A64 * d6 + A65 * e6)
        g1 = -s1 + (aa / (1.0 + s6 ** hn) if s6 > 0.0 and s6 < p_hi else _hill(aa, hn, s6)) + a0
        g2 = nb * (s2 - s1)
        g3 = -s3 + (aa / (1.0 + s2 ** hn) if s2 > 0.0 and s2 < p_hi else _hill(aa, hn, s2)) + a0
        g4 = nb * (s4 - s3)
        g5 = -s5 + (aa / (1.0 + s4 ** hn) if s4 > 0.0 and s4 < p_hi else _hill(aa, hn, s4)) + a0
        g6 = nb * (s6 - s5)

        # y_new, the 5th-order solution
        s1 = y1 + h * (B1 * a1 + B3 * c1 + B4 * d1 + B5 * e1 + B6 * g1)
        s2 = y2 + h * (B1 * a2 + B3 * c2 + B4 * d2 + B5 * e2 + B6 * g2)
        s3 = y3 + h * (B1 * a3 + B3 * c3 + B4 * d3 + B5 * e3 + B6 * g3)
        s4 = y4 + h * (B1 * a4 + B3 * c4 + B4 * d4 + B5 * e4 + B6 * g4)
        s5 = y5 + h * (B1 * a5 + B3 * c5 + B4 * d5 + B5 * e5 + B6 * g5)
        s6 = y6 + h * (B1 * a6 + B3 * c6 + B4 * d6 + B5 * e6 + B6 * g6)
        if not (isfinite(s1) and isfinite(s2) and isfinite(s3)
                and isfinite(s4) and isfinite(s5) and isfinite(s6)):
            # shrink and retry; persistent blow-up ends in underflow
            h *= 0.25
            continue
        k1 = -s1 + (aa / (1.0 + s6 ** hn) if s6 > 0.0 and s6 < p_hi else _hill(aa, hn, s6)) + a0
        k2 = nb * (s2 - s1)
        k3 = -s3 + (aa / (1.0 + s2 ** hn) if s2 > 0.0 and s2 < p_hi else _hill(aa, hn, s2)) + a0
        k4 = nb * (s4 - s3)
        k5 = -s5 + (aa / (1.0 + s4 ** hn) if s4 > 0.0 and s4 < p_hi else _hill(aa, hn, s4)) + a0
        k6 = nb * (s6 - s5)

        q1 = h * (E1 * a1 + E3 * c1 + E4 * d1 + E5 * e1 + E6 * g1 + E7 * k1) / (
            atol + rtol * (z if (z := abs(s1)) > (w := abs(y1)) else w))
        q2 = h * (E1 * a2 + E3 * c2 + E4 * d2 + E5 * e2 + E6 * g2 + E7 * k2) / (
            atol + rtol * (z if (z := abs(s2)) > (w := abs(y2)) else w))
        q3 = h * (E1 * a3 + E3 * c3 + E4 * d3 + E5 * e3 + E6 * g3 + E7 * k3) / (
            atol + rtol * (z if (z := abs(s3)) > (w := abs(y3)) else w))
        q4 = h * (E1 * a4 + E3 * c4 + E4 * d4 + E5 * e4 + E6 * g4 + E7 * k4) / (
            atol + rtol * (z if (z := abs(s4)) > (w := abs(y4)) else w))
        q5 = h * (E1 * a5 + E3 * c5 + E4 * d5 + E5 * e5 + E6 * g5 + E7 * k5) / (
            atol + rtol * (z if (z := abs(s5)) > (w := abs(y5)) else w))
        q6 = h * (E1 * a6 + E3 * c6 + E4 * d6 + E5 * e6 + E6 * g6 + E7 * k6) / (
            atol + rtol * (z if (z := abs(s6)) > (w := abs(y6)) else w))
        err = sqrt((0.0 + q1 * q1 + q2 * q2 + q3 * q3 + q4 * q4 + q5 * q5 + q6 * q6) / 6.0)

        if err <= 1.0:
            t_new = t + h
            # cubic Hermite over [t, t_new] using endpoint slopes
            while filled < n_out and ts[filled] <= t_new:
                th = (ts[filled] - t) / h
                h00 = (1.0 + 2.0 * th) * (1.0 - th) ** 2
                h10 = th * (1.0 - th) ** 2 * h
                h01 = th * th * (3.0 - 2.0 * th)
                h11 = th * th * (th - 1.0) * h
                rows.append((h00 * y1 + h10 * a1 + h01 * s1 + h11 * k1,
                             h00 * y2 + h10 * a2 + h01 * s2 + h11 * k2,
                             h00 * y3 + h10 * a3 + h01 * s3 + h11 * k3,
                             h00 * y4 + h10 * a4 + h01 * s4 + h11 * k4,
                             h00 * y5 + h10 * a5 + h01 * s5 + h11 * k5,
                             h00 * y6 + h10 * a6 + h01 * s6 + h11 * k6))
                filled += 1
            t = t_new
            y1, y2, y3, y4, y5, y6 = s1, s2, s3, s4, s5, s6
            a1, a2, a3, a4, a5, a6 = k1, k2, k3, k4, k5, k6
        # an accepted step never meets the floor, nor a rejected one the cap
        fac = 5.0 if err == 0.0 else (x if (x := 0.9 * err ** -0.2) > 0.2 else 0.2)
        h = h * (fac if fac < 5.0 else 5.0)

    # guard against last-sample rounding
    rows.extend([(y1, y2, y3, y4, y5, y6)] * (n_out - filled))
    return np.array(rows), 0


_STATUS_MESSAGES = {
    1: "step size underflow (system too stiff at these parameters)",
    2: "step budget exhausted before reaching the end of the horizon",
}


# rtol, atol and step budget of every solve; integrate may set its own budget
_SOLVE = (1e-6, 1e-8, 200_000)


def integrate(params, initial=None, times=None, max_steps: int = _SOLVE[2]) -> np.ndarray:
    """Solve the six rate equations from t=0, sampled at ``times``.

    ``params`` is a row (alpha0, n, beta, alpha) that obeys ``_param_row``;
    ``initial`` holds six finite, non-negative concentrations (default
    ``DEFAULT_INITIAL_STATE``); ``times`` obey ``_sample_times``.  Raises
    ValueError for inputs outside those rules and IntegrationError when the
    adaptive stepper fails; callers fitting parameters map that to +inf.
    """
    a0, hn, bb, aa = _param_row(params)
    y0 = DEFAULT_INITIAL_STATE if initial is None else np.asarray(initial, dtype=np.float64)
    if y0.shape != (6,):
        raise ValueError(f"initial state must have 6 entries, got shape {y0.shape}")
    if not (np.isfinite(y0).all() and y0.min() >= 0.0):
        raise ValueError(f"initial state must be finite and non-negative, got {y0.tolist()}")
    t = _sample_times(default_observation_times() if times is None else times)
    out, status = _dopri5(a0, hn, bb, aa, y0, t, *_SOLVE[:2], int(max_steps))
    if status != 0:
        raise IntegrationError(_STATUS_MESSAGES[status])
    return out


def generate_observations(
    true_params,
    times=None,
    noise_std: float = 5.0,
    *,
    rng: np.random.Generator,
) -> ObservationSet:
    """Simulate mRNA at the sample times and add iid Gaussian noise drawn from ``rng``."""
    times = _sample_times(default_observation_times() if times is None else times)
    trajectory = integrate(true_params, times=times)
    mrna = trajectory[:, (0, 2, 4)] + rng.normal(0.0, noise_std, size=(times.size, 3))
    return ObservationSet(times=times, mrna=mrna)


def _mrna_distance(samples: np.ndarray, status: int, target: np.ndarray) -> float:
    """The fit loss: mean Euclidean distance of the sampled mRNA to ``target``.

    A failed solve (non-zero status) scores +inf.  A solve of status 0
    accepted only steps with finite endpoints and slopes, so a sample is
    non-finite only where its Hermite sum overflows; the loss is then
    +inf or NaN, which ``Objective.evaluate`` counts and scores +inf.
    """
    if status != 0:
        return math.inf
    sim = samples[:, (0, 2, 4)]
    return float(np.mean(np.sqrt(np.sum((target - sim) ** 2, axis=1))))


def make_fit_objective(
    obs: ObservationSet, bounds: BoxBounds = DEFAULT_PARAM_BOUNDS
) -> Objective:
    """Engine-facing batch objective over (alpha0, n, beta, alpha).

    Every candidate is solved from ``DEFAULT_INITIAL_STATE``.
    """
    _param_row(bounds.lower, "the box's lower corner")
    y0 = DEFAULT_INITIAL_STATE
    times = obs.times
    target = obs.mrna

    def loss(row: list) -> float:
        return _mrna_distance(*_dopri5(*row, y0, times, *_SOLVE), target)

    def batch(x: np.ndarray) -> np.ndarray:
        return np.array(fork_map(loss, x.tolist()), dtype=np.float64)

    return Objective(batch, bounds)


# ----------------------------------------------------------------------
# CSV interchange
# ----------------------------------------------------------------------

def write_observations_csv(obs: ObservationSet, path) -> None:
    write_csv(path, "t,m1,m2,m3", None, [obs.times, *obs.mrna.T])


def read_observations_csv(path) -> ObservationSet:
    """Observations from a ``t,m1,m2,m3`` CSV; errors name the file's own line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines or lines[0][1] != "t,m1,m2,m3":
        raise ValueError(f"{path}: expected header 't,m1,m2,m3'")
    times, rows = [], []
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
        try:
            nums = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric field") from None
        if not all(map(math.isfinite, nums)):
            raise ValueError(f"{path}:{lineno}: non-finite field")
        times.append(nums[0])
        rows.append(nums[1:])
    return ObservationSet(times=np.array(times), mrna=np.array(rows))


def write_param_history_csv(history, path) -> None:
    """A run's populations (``RunTrace.history``) as rows of
    gen,alpha0,n,beta,alpha,objective."""
    gens = list(chain.from_iterable([str(p.generation)] * p.size for p in history))
    members = np.concatenate([p.members for p in history]) if history else np.empty((0, 0))
    values = np.concatenate([p.values for p in history]) if history else np.empty(0)
    write_csv(path, "gen,alpha0,n,beta,alpha,objective", gens, [*members.T, values])
