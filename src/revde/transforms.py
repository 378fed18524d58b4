"""Population transformations for differential evolution and its triplet variants.

Candidates are float64 rows of length ``D``; a :class:`Population` keeps
the members as an ``(N, D)`` matrix together with their objective
values.  Every operator works on whole batches with numpy broadcasting
over the leading axes, and the optimization loop in :mod:`revde.engine`
calls these same functions; one candidate or one triplet is the same
call without leading axes.  The triplet variants are expressed through an
explicit 3x3 operator, a read-only array from :func:`build_matrix`,
acting on stacked ``(..., 3, D)`` triplets:

* ``ADE_M``  -- identity plus an antisymmetric part scaled by ``f``;
  applying it to a stacked triplet perturbs each member with the scaled
  difference of the other two.
* ``REVDE_R`` -- the operator obtained by feeding freshly generated
  rows back into the later ones; it has unit determinant and is
  invertible for every ``f``.

One 3x3 adjugate gives both :func:`determinant` (its first column) and
:func:`invert_triplet_transform`; :func:`eigen_report` returns the
sorted eigenvalue triple of an operator.

All functions are pure: inputs are never modified, randomness always
comes in through an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "MatrixKind",
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


class MatrixKind(Enum):
    """The two triplet operators."""

    ADE_M = "ade_m"
    REVDE_R = "revde_r"


def _check_scale(f: float) -> float:
    f = float(f)
    if not math.isfinite(f) or f < 0.0:
        raise ValueError(f"scaling factor must be finite and >= 0, got {f}")
    return f


@dataclass
class Population:
    """One generation of a run: its candidates and their objective values.

    ``members`` is ``(N, D)`` and ``values`` holds each member's objective
    value, ``(N,)``; a population is always evaluated.  At least four
    members are required so a base plus a distinct triplet is always
    samplable.
    """

    members: np.ndarray
    values: np.ndarray
    generation: int = 0

    def __post_init__(self):
        self.members = np.asarray(self.members, dtype=np.float64)
        if self.members.ndim != 2:
            raise ValueError(f"members must be (N, D), got shape {self.members.shape}")
        n, d = self.members.shape
        if n < 4:
            raise ValueError(f"population needs at least 4 members, got {n}")
        if d < 1:
            raise ValueError("members must have dimensionality >= 1")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (n,):
            raise ValueError(f"values must have shape ({n},), got {self.values.shape}")
        if self.generation < 0:
            raise ValueError("generation must be non-negative")

    @property
    def size(self) -> int:
        return self.members.shape[0]

    @property
    def dim(self) -> int:
        return self.members.shape[1]

    def best_index(self) -> int:
        return int(np.argmin(self.values))


def de_mutation(base, a, b, f: float) -> np.ndarray:
    """Perturb ``base`` by the scaled difference of two other candidates.

    Returns ``base + f * (a - b)`` as a fresh array.  The operands are
    ``(..., D)`` arrays that share ``D`` and broadcast over the leading
    axes, so one call builds a whole generation: DEx3's three trials per
    base are a ``(N, 1, D)`` base against ``(N, 3, D)`` pairs.
    """
    f = _check_scale(f)
    base = np.asarray(base, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not (base.ndim and a.ndim and b.ndim and base.shape[-1] == a.shape[-1] == b.shape[-1]):
        raise ValueError(
            f"operands must share their last axis, got {base.shape}, {a.shape}, {b.shape}"
        )
    # hand a and b over as unnamed temporaries: numpy then computes the
    # difference in the buffer of an operand that no caller still holds
    # (an array the caller keeps is never written), one array less at peak
    pair = [a, b]
    del a, b
    return base + f * (pair.pop(0) - pair.pop())


def build_matrix(kind: MatrixKind, f: float) -> np.ndarray:
    """Construct the 3x3 triplet operator for the given kind and scale.

    ``ADE_M`` is the identity plus an antisymmetric matrix in ``f``;
    ``REVDE_R`` is the operator that reuses freshly generated rows
    (its rows are polynomials in ``f`` up to degree three).  ``f = 0``
    yields the identity for both kinds.  The array is read-only.
    """
    kind = MatrixKind(kind)
    f = _check_scale(f)
    if kind is MatrixKind.ADE_M:
        entries = np.array(
            [
                [1.0, f, -f],
                [-f, 1.0, f],
                [f, -f, 1.0],
            ]
        )
    else:
        f2 = f * f
        f3 = f2 * f
        entries = np.array(
            [
                [1.0, f, -f],
                [-f, 1.0 - f2, f + f2],
                [f + f2, -f + f2 + f3, 1.0 - 2.0 * f2 - f3],
            ]
        )
    entries.setflags(write=False)
    return entries


def _check_triplets(x: np.ndarray, name: str) -> None:
    if x.ndim < 2 or x.shape[-2] != 3:
        raise ValueError(f"{name} must be stacked (..., 3, D) triplets, got shape {x.shape}")


def apply_triplet_transform(m: np.ndarray, triplets) -> np.ndarray:
    """Apply the 3x3 operator to stacked triplets: ``m @ triplets``.

    ``triplets`` is ``(..., 3, D)``; row ``t`` of each output triplet is
    the ``t``-th row of ``m`` combined with the three input rows.
    """
    triplets = np.asarray(triplets, dtype=np.float64)
    _check_triplets(triplets, "triplets")
    return m @ triplets


def invert_triplet_transform(m: np.ndarray, y) -> np.ndarray:
    """Recover the stacked ``(..., 3, D)`` input triplets from transformed ones.

    Both operator kinds are non-singular for every ``f`` (unit
    determinant for ``REVDE_R``, ``1 + 3f^2`` for ``ADE_M``), so the
    adjugate solve is always well defined.
    """
    y = np.asarray(y, dtype=np.float64)
    _check_triplets(y, "y")
    adjugate, det = _adjugate(m)
    return (adjugate / det) @ y


def binomial_crossover(trials, parents, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Per-coordinate mix of trials and parents by independent Bernoulli(rate) bits.

    Each coordinate comes from ``trials`` with probability ``rate`` and
    from ``parents`` otherwise; no coordinate is forced to the trial.
    The bits are one ``rng.random(trials.shape)`` draw.  ``parents`` may
    broadcast against ``trials``, e.g. one ``(N, 1, D)`` base shared by
    ``(N, 3, D)`` trials.
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"crossover rate must be in (0, 1], got {rate}")
    trials = np.asarray(trials, dtype=np.float64)
    mask = rng.random(trials.shape) < rate
    out = np.where(mask, trials, parents)
    if out.shape != trials.shape:
        raise ValueError(
            f"parents of shape {np.shape(parents)} do not broadcast to trials {trials.shape}"
        )
    return out


def repair_bounds(x, lower, upper) -> np.ndarray:
    """Clip every coordinate into ``[lower_d, upper_d]``.

    Accepts ``(..., D)`` candidates; idempotent, and boundary values are
    legal.  The bounds are taken as given (``lower <= upper``), as
    :class:`revde.engine.BoxBounds` guarantees; only shapes are checked.
    """
    x = np.asarray(x, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    if x.shape[-1:] != lower.shape[-1:]:
        raise ValueError(f"candidates {x.shape} do not match bounds {lower.shape}")
    return np.clip(x, lower, upper)


def select_survivors(
    old: Population, offspring: np.ndarray, offspring_values: np.ndarray
) -> Population:
    """Deterministic survivor selection over parents plus offspring.

    Keeps the ``old.size`` candidates with the lowest objective value
    from the combined pool.  Ties prefer old-population members, then lower index;
    survivors are emitted in stable pool order, so a population whose
    offspring are all worse comes back unchanged.
    """
    offspring = np.asarray(offspring, dtype=np.float64)
    offspring_values = np.asarray(offspring_values, dtype=np.float64)
    if offspring.ndim != 2 or offspring.shape[1] != old.dim:
        raise ValueError(
            f"offspring must be (K, {old.dim}), got shape {offspring.shape}"
        )
    if offspring_values.shape != (offspring.shape[0],):
        raise ValueError("every offspring needs a cached objective value")
    # the pool holds parents then offspring, each in index order, so a
    # stable sort breaks ties by origin and then index
    pool_values = np.concatenate([old.values, offspring_values])
    if np.isnan(pool_values).any():
        raise ValueError("NaN objective value in selection pool (map to +inf first)")
    chosen = np.sort(np.argsort(pool_values, kind="stable")[:old.size])

    pool_members = np.concatenate([old.members, offspring])
    return Population(
        members=pool_members[chosen],
        values=pool_values[chosen],
        generation=old.generation + 1,
    )


def _adjugate(m) -> tuple[np.ndarray, float]:
    """The adjugate of a 3x3 matrix, and its determinant by cofactor
    expansion along the first row (the adjugate's first column)."""
    e = np.asarray(m, dtype=np.float64)
    if e.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {e.shape}")
    adj = np.array(
        [
            [e[1, 1] * e[2, 2] - e[1, 2] * e[2, 1], e[0, 2] * e[2, 1] - e[0, 1] * e[2, 2], e[0, 1] * e[1, 2] - e[0, 2] * e[1, 1]],
            [e[1, 2] * e[2, 0] - e[1, 0] * e[2, 2], e[0, 0] * e[2, 2] - e[0, 2] * e[2, 0], e[0, 2] * e[1, 0] - e[0, 0] * e[1, 2]],
            [e[1, 0] * e[2, 1] - e[1, 1] * e[2, 0], e[0, 1] * e[2, 0] - e[0, 0] * e[2, 1], e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]],
        ]
    )
    return adj, float(e[0, 0] * adj[0, 0] + e[0, 1] * adj[1, 0] + e[0, 2] * adj[2, 0])


def determinant(m) -> float:
    """3x3 determinant by cofactor expansion along the first row."""
    return _adjugate(m)[1]


def _solve_cubic(c2: float, c1: float, c0: float) -> list[complex]:
    """Roots of ``t^3 + c2 t^2 + c1 t + c0`` via Cardano with complex arithmetic."""
    shift = c2 / 3.0
    p = c1 - c2 * c2 / 3.0
    q = 2.0 * c2 **3 / 27.0 - c2 * c1 / 3.0 + c0
    if p == 0.0 and q == 0.0:
        return [complex(-shift)] * 3
    disc = cmath.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    # pick the branch that avoids cancellation in -q/2 +/- disc
    u3 = -q / 2.0 + disc
    alt = -q / 2.0 - disc
    if abs(alt) > abs(u3):
        u3 = alt
    u = u3 ** (1.0 / 3.0)
    v = -p / (3.0 * u)
    omega = complex(-0.5, math.sqrt(3.0) / 2.0)
    roots = []
    for k in range(3):
        w = omega**k
        roots.append(w * u + w.conjugate() * v - shift)
    return roots


def eigen_report(m: np.ndarray) -> tuple[complex, complex, complex]:
    """Eigenvalues of the operator via its cubic characteristic polynomial.

    The characteristic polynomial of a 3x3 matrix is
    ``lambda^3 - tr lambda^2 + s lambda - det`` with ``s`` the sum of the
    principal 2x2 minors; the cubic is solved in closed form, so no
    general eigensolver is involved.  The triple is sorted by descending
    real part, then descending modulus, then descending imaginary part
    (a conjugate pair lists ``+i`` first).
    """
    trace = m[0, 0] + m[1, 1] + m[2, 2]
    # the adjugate's trace, summed left to right: the adjugate's order
    # rounds differently at f-step 0.1, and the table keeps its bytes
    minors = (
        m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
        + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
        + m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    )
    roots = _solve_cubic(-trace, minors, -determinant(m))
    roots.sort(key=lambda z: (-z.real, -abs(z), -z.imag))
    return tuple(roots)
