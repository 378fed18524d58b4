"""The per-column slot sampler, frozen as a test oracle.

This is the ``_sample_slot_indices`` that the one-call sampler of
``revde.engine`` replaced: column j makes its own ``rng.integers(0,
n - j, size=n)`` call, and the taken columns are re-sorted with
``np.sort`` before each column.  The engine's sampler must give the same
index bytes and leave the generator in the same state, so that every
seeded run keeps its trace.  Do not edit it to follow the library.
"""

import numpy as np


def sample_slot_indices(n: int, per_slot: int, rng: np.random.Generator) -> np.ndarray:
    idx = np.empty((n, per_slot), dtype=np.int64)
    for j in range(per_slot):
        taken = idx[:, :j] if j < 2 else np.sort(idx[:, :j], axis=1)
        r = rng.integers(0, n - j, size=n)
        for c in range(j):
            r += r >= taken[:, c]
        idx[:, j] = r
    return idx
