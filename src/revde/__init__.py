"""Differential evolution with reversible linear population transforms."""

from .transforms import (
    EigenReport,
    MatrixKind,
    Population,
    apply_triplet_transform,
    binomial_crossover,
    build_matrix,
    de_mutation,
    determinant,
    eigen_report,
    invert_triplet_transform,
    repair_bounds,
    select_survivors,
)

__version__ = "0.1.0"


def backend_name() -> str:
    """The kernel backend: every kernel is numpy or Python-float code."""
    return "numpy"


__all__ = [
    "__version__",
    "backend_name",
    "MatrixKind",
    "EigenReport",
    "Population",
    "de_mutation",
    "build_matrix",
    "apply_triplet_transform",
    "invert_triplet_transform",
    "binomial_crossover",
    "repair_bounds",
    "select_survivors",
    "determinant",
    "eigen_report",
]
