#!/usr/bin/env python3
"""Time the hot kernels under both backends (numba jit vs plain numpy).

Usage:
    python3 bench/compare_backends.py [--repeats N]

The script re-executes itself once per backend (the dispatch decision is
made at import time from REVDE_DISABLE_NUMBA, so it cannot be toggled
within a single process) and prints a side-by-side table.  Timings are
the best of ``--repeats`` calls, after one untimed warmup call that also
absorbs jit compilation.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
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
    fn()   # warmup / compile
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_worker(repeats: int) -> dict:
    import numpy as np

    from revde import backend_name
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

    return {"backend": backend_name(), "timings": timings}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20,
                        help="timed calls per kernel (default 20)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        print(json.dumps(run_worker(args.repeats)))
        return 0

    results = {}
    for disable in (False, True):
        env = dict(os.environ)
        env.pop("REVDE_DISABLE_NUMBA", None)
        if disable:
            env["REVDE_DISABLE_NUMBA"] = "1"
        proc = subprocess.run(
            [sys.executable, __file__, "--worker", "--repeats", str(args.repeats)],
            env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        payload = json.loads(proc.stdout)
        results[payload["backend"]] = payload["timings"]

    if set(results) == {"numpy"}:
        print("numba unavailable; numpy timings only\n")

    backends = [b for b in ("numba", "numpy") if b in results]
    width = max(len(name) for name in WORKLOADS)
    header = f"{'kernel':<{width}}" + "".join(f"{b:>12}" for b in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for name in WORKLOADS:
        row = f"{name:<{width}}"
        for b in backends:
            row += f"{results[b][name] * 1e3:>10.3f}ms"
        if len(backends) == 2:
            row += f"{results['numpy'][name] / results['numba'][name]:>9.1f}x"
        print(row)
    return 0


if __name__ == "__main__":
    # run from a checkout: import revde from the repository's src/
    # (the --worker child runs this same file, so it gets the path too)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
