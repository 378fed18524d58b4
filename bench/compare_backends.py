#!/usr/bin/env python3
"""Time the hot kernels of revde.

Usage:
    python3 bench/compare_backends.py [--repeats N]

Prints one row per kernel with the best of ``--repeats`` calls, after
one untimed warm-up call.  ``run_worker`` returns the same figures as a
dict, for callers that load this file as a module.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

WORKLOADS = (
    "rastrigin batch (512 x D100)",
    "schwefel batch (512 x D100)",
    "ode solve (40-point grid)",
    "mlp error batch (32 x 500 images)",
    "revde run (N=50, G=20, D=10)",
)


def best_of(fn, repeats: int) -> float:
    fn()   # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_worker(repeats: int) -> dict:
    import numpy as np

    from revde.benchmarks import get_benchmark
    from revde.engine import BoxBounds, Method, Objective, RunConfig, run
    from revde.mlp import ImageDataset, classification_error_batch
    from revde.repressilator import TRUE_PARAMS, integrate

    rng = np.random.default_rng(0)
    timings = {}

    x = rng.uniform(-5.0, 5.0, size=(512, 100))
    rastrigin = get_benchmark("rastrigin", 100)
    timings[WORKLOADS[0]] = best_of(lambda: rastrigin.batch(x), repeats)

    xs = rng.uniform(200.0, 500.0, size=(512, 100))
    schwefel = get_benchmark("schwefel", 100)
    timings[WORKLOADS[1]] = best_of(lambda: schwefel.batch(xs), repeats)

    timings[WORKLOADS[2]] = best_of(lambda: integrate(TRUE_PARAMS), repeats)

    images = rng.uniform(0.0, 1.0, size=(500, 196))
    labels = rng.integers(0, 10, size=500)
    dataset = ImageDataset(images, labels)
    weights = rng.uniform(-1.0, 1.0, size=(32, 4120))
    timings[WORKLOADS[3]] = best_of(
        lambda: classification_error_batch(weights, dataset), repeats
    )

    bench = get_benchmark("rastrigin", 10)
    bounds = BoxBounds(bench.lower, bench.upper)
    cfg = RunConfig(method=Method.REVDE, population_size=50, generations=20,
                    f=0.5, seed=0)
    timings[WORKLOADS[4]] = best_of(
        lambda: run(cfg, Objective(bench.batch, bounds)), max(1, repeats // 4)
    )

    return {"timings": timings}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20,
                        help="timed calls per kernel (default 20)")
    args = parser.parse_args(argv)

    timings = run_worker(args.repeats)["timings"]
    width = max(len(name) for name in WORKLOADS)
    header = f"{'kernel':<{width}}{'best':>12}"
    print(header)
    print("-" * len(header))
    for name in WORKLOADS:
        print(f"{name:<{width}}{timings[name] * 1e3:>10.3f}ms")
    return 0


if __name__ == "__main__":
    # run from a checkout: import revde from the repository's src/
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
