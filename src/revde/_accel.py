"""Optional numba acceleration for the hot numeric kernels.

The benchmark kernels and the ODE stepper each exist in two
interchangeable forms: a plain implementation (numpy, or Python floats
for the ODE stepper) and a numba ``@njit``-compiled one.  The MLP error
kernel has only its numpy form, since its cost is BLAS products that a
compiled form would call the same way.  Which form the package
dispatches to is decided once, at import time:

* if numba is not installed, the plain form is used;
* if the environment variable ``REVDE_DISABLE_NUMBA`` is set to ``1``,
  ``true``, ``yes`` or ``on``, the plain form is used (useful for
  debugging, numerical cross-checking, and platforms where JIT
  compilation misbehaves);
* otherwise the compiled form is used.

``fastmath`` is never enabled: the compiled kernels keep IEEE semantics
so that a given backend produces bit-reproducible results run to run.
``bench/compare_backends.py`` times both forms side by side.
"""

from __future__ import annotations

import os

DISABLE_ENV = "REVDE_DISABLE_NUMBA"

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    HAVE_NUMBA = False


def numba_disabled_by_env(value: str | None = None) -> bool:
    """True when the env flag (or an explicit value) asks for the numpy path."""
    if value is None:
        value = os.environ.get(DISABLE_ENV, "")
    return value.strip().lower() in {"1", "true", "yes", "on"}


NUMBA_ACTIVE = HAVE_NUMBA and not numba_disabled_by_env()


def njit(**kwargs):
    """``numba.njit`` when numba is importable, identity decorator otherwise.

    Decoration is lazy either way; nothing is compiled until first call,
    so building both kernel forms at import time costs nothing.
    """
    if HAVE_NUMBA:
        return numba.njit(**kwargs)

    def passthrough(func):
        return func

    return passthrough


def select(jit_impl, numpy_impl):
    """Pick the active kernel form for module-level dispatch."""
    return jit_impl if NUMBA_ACTIVE else numpy_impl


def backend_name() -> str:
    return "numba" if NUMBA_ACTIVE else "numpy"
