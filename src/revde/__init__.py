"""Differential evolution with reversible linear population transforms."""

from . import transforms
from .transforms import *  # noqa: F403  (the names of transforms.__all__)

__version__ = "0.1.0"


def backend_name() -> str:
    """The kernel backend: every kernel is numpy or Python-float code.

    Kept for ``perfbench/run.py``, whose ``environment()`` records it.
    """
    return "numpy"


__all__ = ["__version__", "backend_name", *transforms.__all__]
