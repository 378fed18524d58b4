"""Benchmark objective functions with their standard box constraints.

Each function is one population-batch kernel (``rastrigin_batch(X)``,
``(K, D) -> (K,)``), the one the optimization loop calls; a single point
is a one-row batch.  Each kernel is one vectorized numpy expression over
the whole batch.  One table, ``name -> (kernel, low, high)``, is the only
place a benchmark is named: ``BENCHMARK_NAMES``, :func:`get_benchmark`
and ``BenchmarkSpec.batch`` all read it.

Note on Griewank: the sum term here is ``sqrt(x_d^2 / 4000)``, i.e.
``|x_d| / sqrt(4000)``, not the more common ``x_d^2 / 4000``.  Pass
``standard=True`` (CLI flag ``--griewank-standard``) for the
conventional quadratic form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BenchmarkSpec",
    "BENCHMARK_NAMES",
    "check_griewank_standard",
    "get_benchmark",
    "griewank_batch",
    "rastrigin_batch",
    "salomon_batch",
    "schwefel_batch",
]

_TWO_PI = 2.0 * np.pi
SCHWEFEL_CONSTANT = 418.9829

def _as_batch(x) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError(f"expected a (K, D) batch, got shape {x.shape}")
    return x


# ----------------------------------------------------------------------
# batch kernels
# ----------------------------------------------------------------------

def griewank_batch(x, standard: bool = False) -> np.ndarray:
    x = _as_batch(x)
    if standard:
        s = np.sum(x * x / 4000.0, axis=1)
    else:
        s = np.sum(np.sqrt(x * x / 4000.0), axis=1)
    d = np.arange(1, x.shape[1] + 1, dtype=np.float64)
    return 1.0 + s - np.prod(np.cos(x / np.sqrt(d)), axis=1)


def rastrigin_batch(x) -> np.ndarray:
    x = _as_batch(x)
    return 10.0 * x.shape[1] + np.sum(x * x - 10.0 * np.cos(_TWO_PI * x), axis=1)


def salomon_batch(x) -> np.ndarray:
    x = _as_batch(x)
    r = np.sqrt(np.sum(x * x, axis=1))
    return 1.0 - np.cos(_TWO_PI * r) + 0.1 * r


def schwefel_batch(x) -> np.ndarray:
    x = _as_batch(x)
    return SCHWEFEL_CONSTANT * x.shape[1] - np.sum(x * np.sin(np.sqrt(np.abs(x))), axis=1)


# ----------------------------------------------------------------------
# named lookup for the harness
# ----------------------------------------------------------------------

# name -> (kernel, low, high): the search box is the same interval in
# every coordinate
_BENCHMARKS = {
    "griewank": (griewank_batch, -5.0, 5.0),
    "rastrigin": (rastrigin_batch, -5.0, 5.0),
    "salomon": (salomon_batch, -5.0, 5.0),
    "schwefel": (schwefel_batch, 200.0, 500.0),
}
BENCHMARK_NAMES = tuple(sorted(_BENCHMARKS))


@dataclass(frozen=True)
class BenchmarkSpec:
    """A benchmark function instantiated at a dimensionality."""

    name: str
    dim: int
    lower: np.ndarray
    upper: np.ndarray
    griewank_standard: bool = False

    def batch(self, x) -> np.ndarray:
        kernel = _BENCHMARKS[self.name][0]
        return kernel(x, standard=True) if self.griewank_standard else kernel(x)


def check_griewank_standard(name: str, griewank_standard: bool) -> None:
    """Reject ``griewank_standard`` for ``name``, a benchmark key or another
    problem, unless it is Griewank: the flag selects Griewank's sum term,
    and no other problem has one."""
    if griewank_standard and name != "griewank":
        raise ValueError(f"griewank_standard applies to the griewank benchmark, not {name!r}")


def get_benchmark(name: str, dim: int, griewank_standard: bool = False) -> BenchmarkSpec:
    """Look up a benchmark by name with its standard bounds at ``dim``."""
    key = name.strip().lower()
    if key not in _BENCHMARKS:
        raise ValueError(
            f"unknown benchmark {name!r}; expected one of {', '.join(BENCHMARK_NAMES)}"
        )
    if dim < 1:
        raise ValueError(f"dimensionality must be >= 1, got {dim}")
    check_griewank_standard(key, griewank_standard)
    _, lo, hi = _BENCHMARKS[key]
    return BenchmarkSpec(
        name=key,
        dim=dim,
        lower=np.full(dim, lo),
        upper=np.full(dim, hi),
        griewank_standard=griewank_standard,
    )
