"""Three-gene repressilator: simulation, synthetic data, fit objective.

State vector order is (m1, p1, m2, p2, m3, p3).  Repression is cyclic:
gene 1 is repressed by protein 3, gene 2 by protein 1, gene 3 by
protein 2.  The mRNA equations carry a Hill term alpha / (1 + p^n); the
protein equations are -beta * (p - m).

The integrator is an adaptive Dormand-Prince 5(4) scheme with FSAL and
cubic Hermite dense output at the requested sample times.  It is the
hot path of parameter fitting, so the core stepper exists in a
numba-compiled form and a plain-Python fallback (see revde._accel).

Numerical guards, applied identically in both forms:
  - p <= 0: p^n clamped to 0 (the Hill term saturates to alpha);
  - n*log(p) > 700: p^n would overflow, the Hill term collapses to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from ._accel import njit, select
from ._util import fmt_column, write_csv_columns
from .engine import BoxBounds, Objective

__all__ = [
    "IntegrationError",
    "RepressilatorParams",
    "ObservationSet",
    "TRUE_PARAMS",
    "DEFAULT_INITIAL_STATE",
    "DEFAULT_PARAM_BOUNDS",
    "default_observation_times",
    "derivatives",
    "integrate",
    "generate_observations",
    "fit_objective",
    "make_fit_objective",
    "write_observations_csv",
    "read_observations_csv",
    "write_param_history_csv",
]


class IntegrationError(RuntimeError):
    """The adaptive stepper could not reach the end of the horizon."""


@dataclass(frozen=True)
class RepressilatorParams:
    """The four free parameters, ordered (alpha0, n, beta, alpha)."""

    alpha0: float
    n: float
    beta: float
    alpha: float

    def __post_init__(self):
        vals = (self.alpha0, self.n, self.beta, self.alpha)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"parameters must be finite, got {vals}")
        if any(v < 0 for v in vals):
            raise ValueError(f"parameters must be non-negative, got {vals}")

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha0, self.n, self.beta, self.alpha])

    @classmethod
    def from_array(cls, x) -> "RepressilatorParams":
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (4,):
            raise ValueError(f"expected 4 parameters, got shape {x.shape}")
        return cls(alpha0=float(x[0]), n=float(x[1]), beta=float(x[2]), alpha=float(x[3]))


TRUE_PARAMS = RepressilatorParams(alpha0=1.0, n=2.0, beta=5.0, alpha=1000.0)
DEFAULT_INITIAL_STATE = np.array([0.0, 2.0, 0.0, 1.0, 0.0, 3.0])

# wide box around both the true value and the basin the optimizer
# typically lands in; CLI can override
DEFAULT_PARAM_BOUNDS = BoxBounds(
    lower=np.array([0.01, 0.1, 0.1, 1.0]),
    upper=np.array([10.0, 10.0, 20.0, 2000.0]),
)


def default_observation_times() -> np.ndarray:
    """40 uniformly spaced sample times spanning [0, 40]."""
    return np.linspace(0.0, 40.0, 40)


@dataclass(frozen=True)
class ObservationSet:
    """Noisy mRNA readouts; proteins are treated as unobserved."""

    times: np.ndarray
    mrna: np.ndarray
    noise_std: float = 0.0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        mrna = np.asarray(self.mrna, dtype=np.float64)
        if times.ndim != 1 or times.size == 0:
            raise ValueError(f"times must be a non-empty 1-D vector, got shape {times.shape}")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if mrna.shape != (times.size, 3):
            raise ValueError(
                f"mrna must have shape ({times.size}, 3) to match times, got {mrna.shape}"
            )
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "mrna", mrna)

    @property
    def count(self) -> int:
        return self.times.size


def _hill(p: float, n: float, alpha: float) -> float:
    if p <= 0.0:
        return alpha
    if n * math.log(p) > 700.0:   # p**n would overflow
        return 0.0
    return alpha / (1.0 + p ** n)


def derivatives(state, params) -> np.ndarray:
    """Right-hand sides of the six rate equations at one state."""
    s = np.asarray(state, dtype=np.float64)
    if s.shape != (6,):
        raise ValueError(f"state must have 6 entries (m1,p1,m2,p2,m3,p3), got {s.shape}")
    m1, p1, m2, p2, m3, p3 = s
    a0, n, b, a = _as_params_tuple(params)
    return np.array(
        [
            -m1 + _hill(p3, n, a) + a0,
            -b * (p1 - m1),
            -m2 + _hill(p1, n, a) + a0,
            -b * (p2 - m2),
            -m3 + _hill(p2, n, a) + a0,
            -b * (p3 - m3),
        ]
    )


# ----------------------------------------------------------------------
# Dormand-Prince 5(4) core. Written once, compiled twice (numba + plain).
# Returns a status code instead of raising so the jitted form stays simple:
#   0 ok, 1 step underflow, 2 step budget exhausted.  A non-finite trial
#   state shrinks the step instead, so persistent blow-up ends in 1.
# ----------------------------------------------------------------------

def _dopri5_core(a0, hn, bb, aa, y0, times, rtol, atol, max_steps):
    # The requested tolerances describe the accuracy of the *sampled*
    # output.  Cubic Hermite interpolation sits one order below the
    # stepper and global error accumulates past the per-step tolerance,
    # so the controller runs 50x tighter internally.
    rtol = rtol * 0.02
    atol = atol * 0.02

    n_out = times.shape[0]
    out = np.empty((n_out, 6))

    def rhs(y):
        d = np.empty(6)
        for g in range(3):
            p_rep = y[(2 * (g - 1)) % 6 + 1]   # p3 for g=0, p1 for g=1, p2 for g=2
            if p_rep <= 0.0:
                hill = aa
            elif hn * math.log(p_rep) > 700.0:   # p**n would overflow
                hill = 0.0
            else:
                hill = aa / (1.0 + p_rep ** hn)
            d[2 * g] = -y[2 * g] + hill + a0
            d[2 * g + 1] = -bb * (y[2 * g + 1] - y[2 * g])
        return d

    t = 0.0
    t_end = times[n_out - 1]
    y = y0.copy()
    f = rhs(y)

    # emit every sample at or before the start time
    filled = 0
    while filled < n_out and times[filled] <= t:
        out[filled] = y
        filled += 1
    if filled == n_out:
        return out, 0

    # Hairer-style initial step guess
    sc = atol + rtol * np.abs(y)
    d0 = math.sqrt(np.mean((y / sc) ** 2))
    d1 = math.sqrt(np.mean((f / sc) ** 2))
    h = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y_trial = y + h * f
    f_trial = rhs(y_trial)
    d2 = math.sqrt(np.mean(((f_trial - f) / sc) ** 2)) / h
    dmax = max(d1, d2)
    h1 = max(1e-6, h * 1e-3) if dmax <= 1e-15 else (0.01 / dmax) ** 0.2
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

        k1 = f
        k2 = rhs(y + h * (0.2 * k1))
        k3 = rhs(y + h * (0.075 * k1 + 0.225 * k2))
        k4 = rhs(y + h * ((44.0 / 45.0) * k1 + (-56.0 / 15.0) * k2 + (32.0 / 9.0) * k3))
        k5 = rhs(
            y
            + h
            * (
                (19372.0 / 6561.0) * k1
                + (-25360.0 / 2187.0) * k2
                + (64448.0 / 6561.0) * k3
                + (-212.0 / 729.0) * k4
            )
        )
        k6 = rhs(
            y
            + h
            * (
                (9017.0 / 3168.0) * k1
                + (-355.0 / 33.0) * k2
                + (46732.0 / 5247.0) * k3
                + (49.0 / 176.0) * k4
                + (-5103.0 / 18656.0) * k5
            )
        )
        y_new = y + h * (
            (35.0 / 384.0) * k1
            + (500.0 / 1113.0) * k3
            + (125.0 / 192.0) * k4
            + (-2187.0 / 6784.0) * k5
            + (11.0 / 84.0) * k6
        )
        k7 = rhs(y_new)
        err_vec = h * (
            (71.0 / 57600.0) * k1
            + (-71.0 / 16695.0) * k3
            + (71.0 / 1920.0) * k4
            + (-17253.0 / 339200.0) * k5
            + (22.0 / 525.0) * k6
            + (-1.0 / 40.0) * k7
        )

        finite = True
        for i in range(6):
            if not math.isfinite(y_new[i]):
                finite = False
        if not finite:
            # shrink and retry; persistent blow-up ends in underflow
            h *= 0.25
            continue

        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = math.sqrt(np.mean((err_vec / sc) ** 2))

        if err <= 1.0:
            t_new = t + h
            # cubic Hermite over [t, t_new] using endpoint slopes
            while filled < n_out and times[filled] <= t_new:
                th = (times[filled] - t) / h
                h00 = (1.0 + 2.0 * th) * (1.0 - th) ** 2
                h10 = th * (1.0 - th) ** 2
                h01 = th * th * (3.0 - 2.0 * th)
                h11 = th * th * (th - 1.0)
                out[filled] = h00 * y + h10 * h * k1 + h01 * y_new + h11 * h * k7
                filled += 1
            t = t_new
            y = y_new
            f = k7
            fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h = h * fac
        else:
            h = h * max(0.2, 0.9 * err ** -0.2)

    while filled < n_out:   # guard against last-sample rounding
        out[filled] = y
        filled += 1
    return out, 0


_dopri5_numba = njit(cache=True, nogil=True)(_dopri5_core)
_dopri5 = select(_dopri5_numba, _dopri5_core)

_STATUS_MESSAGES = {
    1: "step size underflow (system too stiff at these parameters)",
    2: "step budget exhausted before reaching the end of the horizon",
}


def _as_params_tuple(params) -> tuple:
    if isinstance(params, RepressilatorParams):
        return params.alpha0, params.n, params.beta, params.alpha
    p = RepressilatorParams.from_array(params)
    return p.alpha0, p.n, p.beta, p.alpha


def integrate(
    params,
    initial=None,
    times=None,
    rtol: float = 1e-6,
    atol: float = 1e-8,
    max_steps: int = 200_000,
) -> np.ndarray:
    """Solve the six rate equations from t=0, sampled at ``times``.

    ``params`` may be a RepressilatorParams or a length-4 array
    (alpha0, n, beta, alpha).  Raises IntegrationError when the adaptive
    stepper fails; callers fitting parameters map that to +inf.
    """
    a0, hn, bb, aa = _as_params_tuple(params)
    y0 = DEFAULT_INITIAL_STATE if initial is None else np.asarray(initial, dtype=np.float64)
    if y0.shape != (6,):
        raise ValueError(f"initial state must have 6 entries, got shape {y0.shape}")
    t = default_observation_times() if times is None else np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1-D vector")
    if t[0] < 0:
        raise ValueError(f"times must start at or after 0, got {t[0]}")
    if np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")
    out, status = _dopri5(a0, hn, bb, aa, y0, t, rtol, atol, int(max_steps))
    if status != 0:
        raise IntegrationError(_STATUS_MESSAGES.get(status, f"status {status}"))
    return out


def generate_observations(
    true_params,
    initial=None,
    times=None,
    noise_std: float = 5.0,
    rng: np.random.Generator | None = None,
) -> ObservationSet:
    """Simulate mRNA at the sample times and add iid Gaussian noise."""
    if times is None:
        times = default_observation_times()
    times = np.asarray(times, dtype=np.float64)
    if rng is None:
        rng = np.random.default_rng()
    trajectory = integrate(true_params, initial=initial, times=times)
    mrna = trajectory[:, (0, 2, 4)] + rng.normal(0.0, noise_std, size=(times.size, 3))
    return ObservationSet(times=times, mrna=mrna, noise_std=noise_std)


def fit_objective(candidate, obs: ObservationSet, initial=None) -> float:
    """Mean Euclidean distance between observed and simulated mRNA."""
    try:
        trajectory = integrate(candidate, initial=initial, times=obs.times)
    except IntegrationError:
        return math.inf
    sim = trajectory[:, (0, 2, 4)]
    if not np.all(np.isfinite(sim)):
        return math.inf
    return float(np.mean(np.sqrt(np.sum((obs.mrna - sim) ** 2, axis=1))))


def make_fit_objective(
    obs: ObservationSet,
    initial=None,
    bounds: BoxBounds = DEFAULT_PARAM_BOUNDS,
    threads=None,
) -> Objective:
    """Engine-facing batch objective over (alpha0, n, beta, alpha)."""
    y0 = DEFAULT_INITIAL_STATE if initial is None else np.asarray(initial, dtype=np.float64)
    times = obs.times
    target = obs.mrna
    max_steps = 200_000

    def batch(x: np.ndarray) -> np.ndarray:
        values = np.empty(x.shape[0])
        for i in range(x.shape[0]):
            traj, status = _dopri5(
                x[i, 0], x[i, 1], x[i, 2], x[i, 3], y0, times, 1e-6, 1e-8, max_steps
            )
            if status != 0:
                values[i] = np.inf
                continue
            sim = traj[:, (0, 2, 4)]
            if not np.all(np.isfinite(sim)):
                values[i] = np.inf
                continue
            values[i] = np.mean(np.sqrt(np.sum((target - sim) ** 2, axis=1)))
        return values

    return Objective(batch, bounds, name="repressilator", threads=threads)


# ----------------------------------------------------------------------
# CSV interchange
# ----------------------------------------------------------------------

def write_observations_csv(obs: ObservationSet, path) -> None:
    write_csv_columns(path, "t,m1,m2,m3", [fmt_column(obs.times), *map(fmt_column, obs.mrna.T)])


def read_observations_csv(path, noise_std: float = 0.0) -> ObservationSet:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "t,m1,m2,m3":
        raise ValueError(f"{path}: expected header 't,m1,m2,m3'")
    times, rows = [], []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
        try:
            nums = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric field") from None
        times.append(nums[0])
        rows.append(nums[1:])
    return ObservationSet(
        times=np.array(times), mrna=np.array(rows), noise_std=noise_std
    )


def write_param_history_csv(history, path) -> None:
    """Population snapshots as rows of gen,alpha0,n,beta,alpha,objective."""
    gens = chain.from_iterable(repeat(str(int(gen)), len(values)) for gen, _, values in history)
    members = np.concatenate([m for _, m, _ in history]) if history else np.empty((0, 0))
    values = np.concatenate([v for _, _, v in history]) if history else np.empty(0)
    write_csv_columns(path, "gen,alpha0,n,beta,alpha,objective",
                      [gens, *map(fmt_column, members.T), fmt_column(values)])
