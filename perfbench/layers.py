"""Per-layer tracing from outside the library, and the per-layer metrics.

The layers are revde's modules.  ``Tracer.installed()`` swaps each public
entry point a workload goes through for a timing wrapper, at the
attribute the caller looks it up on, and restores the originals on exit:

    cli.run_experiment            revde.cli.run_experiment
    engine.run_repeated           revde.cli.run_repeated
    engine.run                    revde.engine.run
    transforms.select_survivors   revde.engine.select_survivors
    objective.batch               the batch function given to Objective
    benchmarks.batch              revde.benchmarks.BenchmarkSpec.batch
    repressilator.solve           one candidate of make_fit_objective's batch
    repressilator.generate_observations
    mlp.classification_error_batch, mlp.load_idx, mlp.prepare_dataset

Spans (id, name, start, end, parent id, extra) are kept in memory and
written to one JSON file at the end of the run.  Runs are serial
(REVDE_THREADS unset), so one stack of open spans gives the parents.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import revde.benchmarks
import revde.cli
import revde.engine
import revde.mlp
import revde.repressilator
from revde.mlp import SHAPE

ID, NAME, START, END, PARENT, EXTRA = range(6)
COMPARE_BACKENDS = Path(__file__).resolve().parent.parent / "bench" / "compare_backends.py"


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, extra=None):
        """``fn`` recording one span per call; ``extra(args, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), name, time.perf_counter(), 0.0,
                    self._open[-1] if self._open else -1, None]
            self.spans.append(span)
            self._open.append(span[ID])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._open.pop()
            if extra is not None:
                span[EXTRA] = extra(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route the workloads' calls into revde through timing wrappers."""
        objective_init = revde.engine.Objective.__init__
        make_fit = revde.repressilator.make_fit_objective

        def init(obj, batch_fn, *args, **kwargs):
            objective_init(obj, self.wrap("objective.batch", batch_fn, _rows_nonfinite),
                           *args, **kwargs)

        def make_fit_objective(*args, **kwargs):
            # one candidate per call, so each solve gets its own span
            obj = make_fit(*args, **kwargs)
            solve = self.wrap("repressilator.solve", obj.batch_fn.__wrapped__, _rows_nonfinite)

            def per_candidate(x):
                return np.concatenate([solve(x[i:i + 1]) for i in range(x.shape[0])])

            obj.batch_fn = self.wrap("objective.batch", per_candidate, _rows_nonfinite)
            return obj

        patches = [
            (revde.cli, "run_experiment", self.wrap("cli.run_experiment", revde.cli.run_experiment)),
            (revde.cli, "run_repeated", self.wrap("engine.run_repeated", revde.cli.run_repeated)),
            (revde.engine, "run", self.wrap("engine.run", revde.engine.run, _run_counts)),
            (revde.engine, "select_survivors",
             self.wrap("transforms.select_survivors", revde.engine.select_survivors)),
            (revde.engine.Objective, "__init__", init),
            (revde.benchmarks.BenchmarkSpec, "batch",
             self.wrap("benchmarks.batch", revde.benchmarks.BenchmarkSpec.batch,
                       lambda args, _: int(np.size(args[1])))),
            (revde.repressilator, "make_fit_objective", make_fit_objective),
            (revde.repressilator, "generate_observations",
             self.wrap("repressilator.generate_observations",
                       revde.repressilator.generate_observations)),
            (revde.mlp, "classification_error_batch",
             self.wrap("mlp.classification_error_batch", revde.mlp.classification_error_batch,
                       lambda args, _: [int(np.shape(args[0])[0]), args[1].count])),
            (revde.mlp, "load_idx", self.wrap("mlp.load_idx", revde.mlp.load_idx)),
            (revde.mlp, "prepare_dataset",
             self.wrap("mlp.prepare_dataset", revde.mlp.prepare_dataset)),
        ]
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def write(self, path, metrics: dict, environment: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "environment": environment,
            "columns": ["id", "name", "start", "end", "parent", "extra"],
            "spans": self.spans,
            "metrics": metrics,
        }))


def _rows_nonfinite(_args, result):
    values = np.asarray(result, dtype=np.float64)
    return [int(values.size), int(np.count_nonzero(~np.isfinite(values)))]


def _run_counts(_args, trace):
    return [int(trace.evaluations), int(trace.final_population.generation), trace.final_best]


# ----------------------------------------------------------------------
# metrics from spans
# ----------------------------------------------------------------------

def layer_metrics(spans: list, rounds: int, offspring_per_round: int,
                  bytes_per_round: float, overhead_s: float) -> dict:
    """Per-layer metrics of the traced rounds, per round where a total."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for span in spans:
        by_name[span[NAME]].append(span)
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]

    def total(name):
        return sum((s[END] - s[START] for s in by_name[name]), 0.0)

    def self_time(name):
        return sum((s[END] - s[START] - child_time[s[ID]] for s in by_name[name]), 0.0)

    def extras(name, i):
        return [s[EXTRA][i] for s in by_name[name]]

    runs = by_name["engine.run"]
    obj_rows = sum(extras("objective.batch", 0))
    engine_self = self_time("engine.run")
    coords = sum(s[EXTRA] for s in by_name["benchmarks.batch"])
    solves_ms = [1e3 * (s[END] - s[START]) for s in by_name["repressilator.solve"]]
    mlp_calls = by_name["mlp.classification_error_batch"]
    mlp_candidates = sum(s[EXTRA][0] for s in mlp_calls)
    mlp_flops = sum(2.0 * s[EXTRA][0] * s[EXTRA][1] * SHAPE.total_weights for s in mlp_calls)
    mlp_busy = total("mlp.classification_error_batch")

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def pct(values, q):
        return float(np.percentile(values, q)) if values else 0.0

    return {
        "engine.self_s": ("s", engine_self / rounds),
        "engine.self_us_per_offspring": ("us", ratio(engine_self, offspring_per_round * rounds, 1e6)),
        "engine.generations": ("count", sum(extras("engine.run", 1)) / rounds),
        "engine.evaluations": ("count", sum(extras("engine.run", 0)) / rounds),
        "engine.nonfinite_values": ("count", sum(extras("objective.batch", 1)) / rounds),
        "engine.best_value": ("objective", statistics.median(extras("engine.run", 2)) if runs else 0.0),
        "objective.busy_s": ("s", total("objective.batch") / rounds),
        "objective.calls": ("count", len(by_name["objective.batch"]) / rounds),
        "objective.us_per_eval": ("us", ratio(total("objective.batch"), obj_rows, 1e6)),
        "transforms.select_s": ("s", total("transforms.select_survivors") / rounds),
        "transforms.select_calls": ("count", len(by_name["transforms.select_survivors"]) / rounds),
        "benchmarks.ns_per_coord": ("ns", ratio(total("benchmarks.batch"), coords, 1e9)),
        "repressilator.solve_ms_p50": ("ms", pct(solves_ms, 50)),
        "repressilator.solve_ms_p90": ("ms", pct(solves_ms, 90)),
        "repressilator.failed_solves": ("count", sum(extras("repressilator.solve", 1)) / rounds),
        "mlp.error_ms_per_candidate": ("ms", ratio(mlp_busy, mlp_candidates, 1e3)),
        "mlp.gflops_computed": ("GFLOP/s", ratio(mlp_flops, mlp_busy, 1e-9)),
        "mlp.load_s": ("s", total("mlp.load_idx") + total("mlp.prepare_dataset")),
        "cli.output_s": ("s", self_time("cli.run_experiment") / rounds),
        "cli.bytes_written": ("bytes", bytes_per_round),
        "trace.overhead_s": ("s", overhead_s),
    }


# ----------------------------------------------------------------------
# reference kernel figures, timed by bench/compare_backends.py
# ----------------------------------------------------------------------

def reference_metrics(repeats: int = 20) -> dict:
    """The kernel timings of bench/compare_backends.py, with computed op counts.

    Its ``run_worker`` times each kernel as the best of ``repeats`` calls:
    Rastrigin and Schwefel on 512x100 points (51,200 coordinates each), one
    repressilator solve at TRUE_PARAMS on the 40-point grid, the MLP error
    of 32 candidates on 500 images (2*500*4120*32 = 131.8 MFLOP computed
    from the matmul shapes), and a RevDE run with N=50, G=20 on Rastrigin D10.
    """
    spec = importlib.util.spec_from_file_location("compare_backends", COMPARE_BACKENDS)
    compare_backends = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_backends)
    timings = compare_backends.run_worker(repeats)["timings"]
    rastrigin, schwefel, ode, mlp, revde_run = (timings[w] for w in compare_backends.WORKLOADS)
    coords = 512 * 100
    mlp_flops = 2.0 * 500 * SHAPE.total_weights * 32
    return {
        "ref.rastrigin_ns_per_coord": ("ns", rastrigin / coords * 1e9),
        "ref.schwefel_ns_per_coord": ("ns", schwefel / coords * 1e9),
        "ref.ode_solve_ms": ("ms", ode * 1e3),
        "ref.mlp_gflops_computed": ("GFLOP/s", mlp_flops / mlp * 1e-9),
        "ref.revde_run_ms": ("ms", revde_run * 1e3),
    }
