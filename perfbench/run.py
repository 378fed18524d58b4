#!/usr/bin/env python3
"""revde benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload rastrigin-suite --seed 1 --seconds 30 --trace 0

Run from the root of a revde checkout; the library is imported from
``src/`` with no install step.  The run builds the workload's inputs from
``--seed``, repeats the same body on them for about ``--seconds``
seconds, checks every body's outputs against the independent oracles in
``oracles.py``, and prints one JSON object as the last line of standard
output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (scaled_wall_s,
scaled_evals_per_s, setup_s, peak_rss_mb).  The bodies run in one worker
process, which sets up, runs them between calibrations of the host's
speed, reads its peak RSS and then checks them; a few more processes
only set up, so that set-up time has several samples.
``--trace 1`` runs in one process, alternates untraced and traced
bodies, reports the per-layer metrics of layers.py and writes the spans
to .perfbench-work/trace-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
DEADLINE_S = 150          # every child process is stopped by then
SETUP_SAMPLES = 3         # set-up-only processes before and after the worker
# Seconds one calibration kernel takes on the reference host (README); a
# scaled time is the time the body would take on a host that runs the
# workload's kernels this fast.
KERNEL_REF_S = 0.01
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("worker", "setup"), default=None,
                        help="run as a child of an untraced run and print its result as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def set_up(args, workdir: Path, tracer_wanted: bool):
    """Import revde and build the workload's inputs; returns (workload, tracer, seconds)."""
    start = time.perf_counter()
    import workloads            # numpy and revde are imported here, inside the timer

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    tracer = None
    if tracer_wanted:
        import layers

        tracer = layers.Tracer()
        with tracer.installed():
            workload.setup(workdir, args.seed)
    else:
        workload.setup(workdir, args.seed)
    return workload, tracer, time.perf_counter() - start


def timed_body(workload, outdir: Path, tracer=None):
    """(wall, output) of one body call, or (None, exception) if it raised."""
    try:
        if tracer is None:
            return workload.body(outdir)
        with tracer.installed():
            return workload.body(outdir)
    except Exception as exc:       # the round's operations count as failed
        return None, exc


def check_round(workload, output) -> list:
    """One problem list per operation of the round."""
    try:
        if isinstance(output, Exception):
            raise output
        return workload.check(output)
    except Exception as exc:       # a round that raised or left unreadable output
        return [[f"{type(exc).__name__}: {exc}"]] * workload.ops_per_round


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def calibrator(kernels: tuple):
    """A function timing fixed work that runs no revde code: the host's speed now.

    The host's speed changed by up to 2x over tens of seconds, and work of
    the same kind as a body slowed with it.  Each workload names the
    kernels below that are like its own hot path; each takes about
    KERNEL_REF_S on the reference host.
    """
    import math

    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((500, 196)), rng.standard_normal((196, 100))

    def interpreter():          # float arithmetic in the interpreter
        total = 0.0
        for i in range(130_000):
            total += (i % 13) * 0.5

    def small_arrays():         # numpy calls on tiny arrays, as in the DOPRI5 stepper
        y, k = np.ones(6), np.full(6, 0.5)
        for i in range(2_800):
            d = np.empty(6)
            d[:] = y + 0.01 * k
            y = d * 0.999 + math.log(1.0 + i)

    def blas():                 # BLAS products, as in the MLP objective
        for _ in range(21):
            (a @ b).argmax(axis=1)

    chosen = [{"interpreter": interpreter, "small_arrays": small_arrays, "blas": blas}[name]
              for name in kernels]

    def calibrate() -> float:
        start = time.perf_counter()
        for kernel in chosen:
            kernel()
        return time.perf_counter() - start

    return calibrate


def worker(args, workdir: Path) -> dict:
    """Body of the worker process: set up, run bodies for --seconds, then check them.

    Every body sits between two calibrations; its scaled wall time is its
    wall time times the calibration's reference time over the mean of the two.
    """
    workload, _, setup_s = set_up(args, workdir, tracer_wanted=False)
    calibrate = calibrator(workload.calibration)
    reference_s = KERNEL_REF_S * len(workload.calibration)
    walls, scaled, outputs = [], [], []
    calibrations = [calibrate()]
    start = time.perf_counter()
    while True:
        wall, output = timed_body(workload, workdir / f"body-{len(outputs)}")
        calibrations.append(calibrate())
        outputs.append(output)
        if wall is not None:
            walls.append(wall)
            scaled.append(wall * reference_s / statistics.fmean(calibrations[-2:]))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(outputs) > args.seconds:
            break
    rss = peak_rss_mb()         # before the oracles run (one imports scipy)
    return {"setup_s": setup_s, "walls": walls, "scaled": scaled,
            "calibration_s": statistics.median(calibrations), "peak_rss_mb": rss,
            "problems": [p for output in outputs for p in check_round(workload, output)]}


def child(args, role: str, deadline: float):
    """Run this script as a ``--role`` child; (result, None) or (None, why it failed)."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--role", role]
    timeout = deadline - time.perf_counter()
    try:
        proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:     # run() has killed and reaped the child
        return None, f"{role} process timed out after {timeout:.0f} s"
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"{role} process exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return json.loads(lines[-1]), None


def end_to_end(args) -> tuple[dict, list, list]:
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    deadline = time.perf_counter() + DEADLINE_S

    def set_up_samples():
        results = (child(args, "setup", deadline)[0] for _ in range(SETUP_SAMPLES))
        # a set-up that fails also fails in the worker, which counts it
        return [r["setup_s"] for r in results if r is not None]

    setups = set_up_samples()
    result, failure = child(args, "worker", deadline)
    if result is None:
        result = {"walls": [], "scaled": [], "problems": [[failure]] * workload.ops_per_round}
    else:
        setups.append(result["setup_s"])
    setups += set_up_samples()    # before and after, so they span the run
    # Every body does the same work; the median of its scaled times is
    # steady where the raw wall times follow the other tenants of the host.
    wall_s = statistics.median(result["scaled"]) if result["scaled"] else float("inf")
    metrics = {
        "scaled_wall_s": ("s", wall_s),
        "scaled_evals_per_s": ("1/s", workload.evaluations_per_round / wall_s),
        "setup_s": ("s", statistics.median(setups) if setups else float("inf")),
        "peak_rss_mb": ("MB", result.get("peak_rss_mb", 0.0)),
    }
    print(f"calibration (s): median {result.get('calibration_s', float('nan')):.4f}, "
          f"reference {KERNEL_REF_S * len(workload.calibration)}", file=sys.stderr)
    return metrics, result["problems"], [f"{w:.3f}" for w in result["walls"]]


def traced(args, workdir: Path) -> tuple[dict, list, list]:
    """Untraced and traced bodies in this process, order alternating."""
    import layers

    workload, tracer, _ = set_up(args, workdir, tracer_wanted=True)
    rounds = []          # (pair index, traced?, wall or None, output or exception)
    start = time.perf_counter()
    index = 0
    while True:
        # a process's first body runs slower, so neither side always goes first
        for with_tracer in ((False, True) if index % 2 == 0 else (True, False)):
            outdir = workdir / f"body-{index}{'-traced' if with_tracer else ''}"
            wall, output = timed_body(workload, outdir, tracer if with_tracer else None)
            rounds.append((index, with_tracer, wall, output))
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index > args.seconds:
            break

    plain = {i: wall for i, on, wall, _ in rounds if not on and wall is not None}
    on = [(i, wall, out) for i, is_on, wall, out in rounds if is_on and wall is not None]
    overhead = statistics.median([wall - plain[i] for i, wall, _ in on if i in plain] or [0.0])
    bytes_per_round = statistics.fmean([workload.bytes_written(out) for _, _, out in on] or [0.0])
    metrics = layers.layer_metrics(tracer.spans, max(1, len(on)), workload.offspring_per_round,
                                   bytes_per_round, overhead)
    metrics.update(layers.reference_metrics())
    problems = [p for _, _, _, output in rounds for p in check_round(workload, output)]

    trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(trace_path, {k: v for k, (_, v) in metrics.items()}, environment())
    print(f"spans: {trace_path}", file=sys.stderr)
    walls = [f"{wall:.3f}{'t' if is_on else ''}" for _, is_on, wall, _ in rounds if wall is not None]
    return metrics, problems, walls


def environment() -> dict:
    import platform

    import numpy
    import revde

    return {
        "backend": revde.backend_name(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_threads": os.environ[BLAS_THREAD_VARS[0]],
        "revde_threads": os.environ.get("REVDE_THREADS", "unset"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "revde" / "__init__.py").is_file():
        print(f"error: {SRC / 'revde'} not found; run from the root of a revde checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Serial throughout: evaluator threads only contend for the GIL, and
    # two BLAS threads on the MLP's 2000x196 @ 196x20 products were slower
    # than one.  Set before numpy is imported; child processes inherit it.
    os.environ.pop("REVDE_THREADS", None)
    os.environ.update({name: "1" for name in BLAS_THREAD_VARS})
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if args.role is not None:
        # inside the parent's directory, which the parent removes even
        # when it had to kill this child
        workdir = WORK / f"{args.workload}-{args.seed}-{os.getppid()}" / f"{args.role}-{os.getpid()}"
    try:
        if args.role == "setup":
            print(json.dumps({"setup_s": set_up(args, workdir, tracer_wanted=False)[2]}))
            return 0
        if args.role == "worker":
            print(json.dumps(worker(args, workdir)))
            return 0
        metrics, problems, walls = traced(args, workdir) if args.trace else end_to_end(args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"environment: {json.dumps(environment())}", file=sys.stderr)
    print(f"body walls (s): {' '.join(walls)}", file=sys.stderr)
    failed = [p for p in problems if p]
    for ops in failed[:10]:
        print("FAILED: " + "; ".join(ops), file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(problems),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
