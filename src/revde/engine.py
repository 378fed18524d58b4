"""Generational optimization loop for the four DE variants.

The engine owns all randomness (a numpy Generator seeded from the run
config), batches offspring construction per generation, and records a
best-so-far trace entry for every single objective evaluation.  A
generation draws all of its slot indices in one RNG call and its
crossover bits in another.  Each batch goes to the evaluator in one
call; how the repressilator objective and ``revde run`` spread work
over processes is set out in :mod:`revde._util`.  A generation is one
:class:`~revde.transforms.Population`, always evaluated, and a kept
history is the run's own populations.  Before its first evaluation a
run rejects an ``f`` at which a trial coordinate could overflow float64
from the objective's box; after its last it checks the objective's
evaluation count against the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np

from ._util import row_numbers, write_csv
from .transforms import (
    MatrixKind,
    Population,
    apply_triplet_transform,
    binomial_crossover,
    build_matrix,
    de_mutation,
    repair_bounds,
    select_survivors,
)

__all__ = [
    "Method",
    "BoxBounds",
    "Objective",
    "RunConfig",
    "RunTrace",
    "RunSummary",
    "run",
    "run_repeated",
    "write_trace_csv",
]


class Method(Enum):
    """The four optimizer variants."""

    DE = "de"
    DEX3 = "dex3"
    ADE = "ade"
    REVDE = "revde"

    @classmethod
    def from_string(cls, name: str) -> "Method":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown method {name!r}; expected one of {valid}") from None

    @property
    def offspring_per_slot(self) -> int:
        return 1 if self is Method.DE else 3

    @property
    def matrix_kind(self) -> Optional[MatrixKind]:
        if self is Method.ADE:
            return MatrixKind.ADE_M
        if self is Method.REVDE:
            return MatrixKind.REVDE_R
        return None

    # distinct indices drawn per slot: (i,j,k) for DE and the matrix
    # variants, (i,j,k,l,m,n,q) for DEx3
    @property
    def indices_per_slot(self) -> int:
        return 7 if self is Method.DEX3 else 3


@dataclass(frozen=True)
class BoxBounds:
    """Per-coordinate search box, lower_d < upper_d everywhere; ``lower`` and
    ``upper`` are read-only float64 copies, so a shared box cannot change."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.array(self.lower, dtype=np.float64)
        upper = np.array(self.upper, dtype=np.float64)
        if lower.ndim != 1 or lower.shape != upper.shape or lower.size == 0:
            raise ValueError(
                f"bounds must be equal-length 1-D vectors, got {lower.shape} and {upper.shape}"
            )
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("bounds must be finite")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must be strictly below its upper bound")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.size


class Objective:
    """Black-box objective over a bounded search space.

    Wraps a batch evaluator ``fn(X: (K, D)) -> (K,)``.  Counts every
    candidate evaluation, maps NaN scores to +inf (flagged in
    ``nan_evaluations``) so a failing simulator region loses selection
    instead of crashing the run.  ``batch_fn`` is looked up on every
    call, so it may be replaced after construction (timing wrappers do).
    """

    def __init__(self, batch_fn: Callable[[np.ndarray], np.ndarray], bounds: BoxBounds):
        self.batch_fn = batch_fn
        self.bounds = bounds
        self.evaluation_counter = 0
        self.nan_evaluations = 0

    @property
    def dim(self) -> int:
        return self.bounds.dim

    def evaluate(self, candidates: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(candidates, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(f"expected a (K, {self.dim}) batch, got shape {x.shape}")
        k = x.shape[0]
        values = np.asarray(self.batch_fn(x), dtype=np.float64).ravel()
        if values.shape != (k,):
            raise ValueError(
                f"evaluator returned shape {values.shape} for a batch of {k} candidates"
            )
        bad = np.isnan(values)
        if bad.any():
            self.nan_evaluations += int(bad.sum())
            values = np.where(bad, np.inf, values)
        self.evaluation_counter += k
        return values


@dataclass(frozen=True)
class RunConfig:
    method: Method
    population_size: int
    generations: int
    f: float
    crossover_rate: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 4:
            raise ValueError(f"population_size must be >= 4, got {self.population_size}")
        if self.method is Method.DEX3 and self.population_size < 7:
            # Eq.-level contract: seven distinct indices per slot
            raise ValueError("dex3 needs population_size >= 7 (seven distinct indices)")
        if self.generations < 1:
            raise ValueError(f"generations must be >= 1, got {self.generations}")
        if not (math.isfinite(self.f) and self.f > 0.0):
            raise ValueError(f"scaling factor f must be positive and finite, got {self.f}")
        kind = self.method.matrix_kind
        if kind is not None and not np.isfinite(build_matrix(kind, self.f)).all():
            # REVDE's f^3 entries overflow near f = 5.6e102
            raise ValueError(f"scaling factor f = {self.f} overflows the "
                             f"{self.method.value} operator to a non-finite entry")
        if not (0.0 < self.crossover_rate <= 1.0):
            raise ValueError(f"crossover_rate must be in (0, 1], got {self.crossover_rate}")

    @property
    def total_evaluations(self) -> int:
        n, g = self.population_size, self.generations
        return n + g * n * self.method.offspring_per_slot


@dataclass
class RunTrace:
    """Per-evaluation best-so-far record for one run; entry i is evaluation i+1.

    ``history``, when kept, is the run's own populations, generation 0
    (the initial one) to G; ``history[-1] is final_population``.
    """

    best_objective: np.ndarray
    final_population: Population
    evaluations: int
    nan_evaluations: int
    history: Optional[list[Population]] = None

    @property
    def final_best(self) -> float:
        return float(self.best_objective[-1])


@dataclass
class RunSummary:
    """Mean/std of best-so-far across repeats, aligned on evaluation index."""

    mean: np.ndarray
    std: np.ndarray


def _sample_slot_indices(n: int, per_slot: int, rng: np.random.Generator) -> np.ndarray:
    """``per_slot`` distinct indices in ``[0, n)`` for each of ``n`` slots.

    Sequential sampling without replacement, all slots at once: column j
    draws ``r`` uniformly from the ``n - j`` indices its row has not taken
    yet, then shifts ``r`` past the taken ones in ascending order, which
    maps it onto the r-th untaken index.  Every row is a uniform ordered
    draw of distinct indices, as from ``rng.choice(n, per_slot,
    replace=False)``.  All columns come from one RNG call per
    generation, whose draws and end state equal those of one
    ``rng.integers(0, n - j, size=n)`` call per column.  The taken
    indices stay sorted by a min/max insertion of each new column.
    """
    draws = rng.integers(0, (n - np.arange(per_slot))[:, None], size=(per_slot, n))
    taken = np.empty_like(draws)     # rows 0..j-1: each slot's taken indices, ascending
    taken[0] = draws[0]
    spare = np.empty(n, dtype=draws.dtype)
    for j in range(1, per_slot):
        r = draws[j]                 # a view: the shift leaves the index in draws
        for c in range(j):
            r += r >= taken[c]
        if j + 1 < per_slot:         # insert r; the last column is never read
            # top down, row c becomes min(taken[c], max(taken[c - 1], r))
            np.maximum(taken[j - 1], r, out=taken[j])
            for c in range(j - 1, 0, -1):
                np.maximum(taken[c - 1], r, out=spare)
                np.minimum(taken[c], spare, out=taken[c])
            np.minimum(taken[0], r, out=taken[0])
    return draws.T


def _offspring_for_generation(
    population: Population,
    config: RunConfig,
    operator: np.ndarray,
    bounds: BoxBounds,
    rng: np.random.Generator,
) -> np.ndarray:
    """Mutation + crossover + bound repair for one generation, batched.

    ``operator`` is the run's 3x3 matrix, used by ADE and RevDE only.
    Offspring are ordered slot-major (slot 0's trio, slot 1's trio, ...)
    so the trace is independent of any evaluation batching downstream.
    """
    method = config.method
    x = population.members
    n, d = x.shape
    idx = _sample_slot_indices(n, method.indices_per_slot, rng)

    if method.matrix_kind is None:
        # DE and DEx3: every trial of a slot perturbs the slot's base,
        # which is its parent too; (n, 1, d) against (n, 1 or 3, d) pairs
        parents = x[idx[:, :1]]
        trials = de_mutation(parents, x[idx[:, 1::2]], x[idx[:, 2::2]], config.f)
    else:
        parents = x[idx]                       # y1<->x_i, y2<->x_j, y3<->x_k
        trials = apply_triplet_transform(operator, parents)

    offspring = binomial_crossover(trials, parents, config.crossover_rate, rng)
    del trials, parents                        # freed before repair_bounds allocates
    return repair_bounds(offspring.reshape(-1, d), bounds.lower, bounds.upper)


def run(
    config: RunConfig,
    objective: Objective,
    keep_history: bool = False,
) -> RunTrace:
    """Execute G generations and return the full evaluation trace.

    Raises ValueError before the first evaluation where the box's largest
    |coordinate| times the operator's largest absolute row sum overflows;
    DE's and DEx3's trials are ADE's first row ``[1, f, -f]``.  Raises
    RuntimeError after the last generation where the objective's counter
    moved by other than ``config.total_evaluations``.  ``keep_history``
    keeps every population of the run, uncopied: no operator or objective
    of this package writes into a population's arrays.
    """
    bounds = objective.bounds
    operator = build_matrix(config.method.matrix_kind or MatrixKind.ADE_M, config.f)
    box = np.abs([bounds.lower, bounds.upper]).max()
    # Python floats: an overflow is an inf here, not a RuntimeWarning
    reach = max(map(sum, np.abs(operator).tolist())) * float(box)
    if not math.isfinite(reach):
        raise ValueError(f"scaling factor f = {config.f} overflows float64 in the "
                         f"{config.method.value} trials from this box")
    rng = np.random.default_rng(config.seed)
    counter_before = objective.evaluation_counter
    nan_before = objective.nan_evaluations

    members = rng.uniform(bounds.lower, bounds.upper, size=(config.population_size, bounds.dim))
    population = Population(members, objective.evaluate(members))
    values = [population.values]               # every evaluation, in order
    history = [population] if keep_history else None

    for _ in range(config.generations):
        offspring = _offspring_for_generation(population, config, operator, bounds, rng)
        values.append(objective.evaluate(offspring))
        population = select_survivors(population, offspring, values[-1])
        if keep_history:
            history.append(population)

    evaluations = objective.evaluation_counter - counter_before
    if evaluations != config.total_evaluations:
        raise RuntimeError(f"evaluation accounting broke for {config.method.value}: "
                           f"{evaluations} != {config.total_evaluations}")
    return RunTrace(
        best_objective=np.minimum.accumulate(np.concatenate(values)),
        final_population=population,
        evaluations=evaluations,
        nan_evaluations=objective.nan_evaluations - nan_before,
        history=history,
    )


def run_repeated(
    config: RunConfig,
    objective: Objective,
    repeats: int,
    keep_history: bool = False,
) -> tuple[list[RunTrace], RunSummary]:
    """Run ``repeats`` independent repetitions; repeat r uses seed+r.

    ``keep_history`` keeps the populations of the first repeat only; the
    other traces carry ``history=None``.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    traces = [run(replace(config, seed=config.seed + r), objective,
                  keep_history=keep_history and r == 0) for r in range(repeats)]
    stacked = np.stack([t.best_objective for t in traces])
    # a column holding inf has a NaN std (inf - inf); it has no spread
    # where every repeat agrees (all still +inf), else an infinite one
    with np.errstate(invalid="ignore"):
        std = stacked.std(axis=0)
    nan = np.isnan(std)
    std[nan] = np.where((stacked[:, nan] == stacked[0, nan]).all(axis=0), 0.0, np.inf)
    return traces, RunSummary(mean=stacked.mean(axis=0), std=std)


def write_trace_csv(trace: RunTrace, path, numbers=None) -> None:
    """``evaluation,best_objective`` rows; ``numbers`` are ``row_numbers``
    of at least the trace's length, shared between a run's tables."""
    numbers = numbers or row_numbers(trace.best_objective.size)
    write_csv(path, "evaluation,best_objective", numbers, [trace.best_objective])
