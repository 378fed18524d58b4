"""Backend selection, numpy/numba agreement, and the shared helpers."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import revde
from revde import NUMBA_ACTIVE, backend_name
from revde._accel import DISABLE_ENV, numba_disabled_by_env
from revde._util import atomic_write_text, fmt_column, fmt_float
from revde.cli import _write_combined_summary
from revde.engine import Method, RunSummary, RunTrace, write_summary_csv, write_trace_csv


def _child_env(**overrides):
    """Environment for a child interpreter that imports this same revde."""
    env = dict(os.environ, **overrides)
    package_root = os.path.dirname(os.path.dirname(revde.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


class TestBackendSelection:
    def test_name_matches_flag(self):
        assert backend_name() == ("numba" if NUMBA_ACTIVE else "numpy")

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("YES", True), (" on ", True),
        ("0", False), ("", False), ("off", False), ("2", False),
    ])
    def test_env_values(self, value, expected):
        assert numba_disabled_by_env(value) is expected

    def test_disable_env_in_subprocess(self):
        code = "import revde; print(revde.backend_name())"
        env = _child_env(**{DISABLE_ENV: "1"})
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "numpy"


class TestFmtFloat:
    @pytest.mark.parametrize("value", [
        0.0, 1.0, -1.0, 0.1, 1 / 3, 1e-300, 1e300, 418.9829, 2.5e-5,
        np.pi, np.nextafter(1.0, 2.0),
    ])
    def test_round_trip_exact(self, value):
        assert float(fmt_float(value)) == value

    def test_random_round_trip(self):
        rng = np.random.default_rng(0)
        for v in rng.uniform(-1e6, 1e6, size=200):
            assert float(fmt_float(v)) == v

    def test_shortest_form(self):
        assert fmt_float(0.5) == "0.5"
        assert fmt_float(1.0) == "1.0"
        assert fmt_float(0.1) == "0.1"


# every run boundary fmt_column must see: NaN and +-inf, -0.0 right after
# 0.0, subnormals, a NaN with another payload, and long constant runs
EDGE_COLUMN = np.concatenate([
    [np.nan, np.nan, np.inf, np.inf, -np.inf, 0.0, -0.0, -0.0, 0.0],
    [5e-324, 5e-324, -2.2250738585072014e-308 / 3],
    np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64),
    np.full(500, 3.25), np.full(3, 0.1 + 0.2), [0.3, 1e300, -1e-300],
])


class TestFmtColumn:
    def test_edge_values_match_fmt_float(self):
        assert list(fmt_column(EDGE_COLUMN)) == [fmt_float(v) for v in EDGE_COLUMN]
        assert list(fmt_column(np.empty(0))) == []

    @given(st.lists(st.tuples(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                              st.integers(1, 5)), max_size=30))
    def test_runs_match_fmt_float(self, runs):
        column = np.array([v for v, count in runs for _ in range(count)], dtype=np.float64)
        assert list(fmt_column(column)) == [fmt_float(v) for v in column]

    def test_trace_and_summary_csv_byte_identical(self, tmp_path):
        index = np.arange(1, EDGE_COLUMN.size + 1)
        trace = RunTrace(index, EDGE_COLUMN, None, 0.0, Method.DE, 0, index.size, 0)
        write_trace_csv(trace, tmp_path / "trace.csv")
        lines = [f"{i},{fmt_float(v)}" for i, v in zip(index, EDGE_COLUMN)]
        assert (tmp_path / "trace.csv").read_text() == \
            "\n".join(["evaluation,best_objective", *lines]) + "\n"

        std = EDGE_COLUMN[::-1].copy()
        write_summary_csv(RunSummary(index, EDGE_COLUMN, std, 2), tmp_path / "summary.csv")
        lines = [f"{i},{fmt_float(m)},{fmt_float(s)}" for i, m, s in zip(index, EDGE_COLUMN, std)]
        assert (tmp_path / "summary.csv").read_text() == \
            "\n".join(["evaluation,mean,std", *lines]) + "\n"

    def test_ragged_combined_summary_byte_identical(self, tmp_path):
        long, short = EDGE_COLUMN, EDGE_COLUMN[:7]
        summaries = {
            Method.REVDE: RunSummary(np.arange(1, short.size + 1), short, -short, 1),
            Method.DE: RunSummary(np.arange(1, long.size + 1), long, long[::-1], 3),
        }
        path = tmp_path / "summary.csv"
        _write_combined_summary(summaries, path)
        expected = ["evaluation,revde_mean,revde_std,de_mean,de_std"]
        for row in range(long.size):
            cells = [str(row + 1)]
            for s in summaries.values():
                cells += ([fmt_float(s.mean[row]), fmt_float(s.std[row])]
                          if row < s.mean.size else ["", ""])
            expected.append(",".join(cells))
        assert path.read_text() == "\n".join(expected) + "\n"


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_write_text(path, "one\n")
        atomic_write_text(path, "two\n")
        assert path.read_text() == "two\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]   # no temp debris

    def test_failure_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "f.txt"

        class Boom:
            def __str__(self):
                raise RuntimeError("no text for you")

        with pytest.raises(TypeError):
            atomic_write_text(path, Boom())   # type: ignore[arg-type]
        assert list(tmp_path.iterdir()) == []


AGREEMENT_SCRIPT = r"""
import json
import numpy as np

from revde import backend_name
from revde.benchmarks import get_benchmark
from revde.engine import BoxBounds, Method, Objective, RunConfig, run
from revde.mlp import ImageDataset, classification_error_batch
from revde.repressilator import TRUE_PARAMS, integrate

out = {"backend": backend_name()}

x = np.random.default_rng(0).uniform(-5, 5, size=(40, 6))
out["bench"] = {
    name: get_benchmark(name, 6).batch(np.clip(x, *(
        (200.0, 500.0) if name == "schwefel" else (-5.0, 5.0)))).tolist()
    for name in ("griewank", "rastrigin", "salomon", "schwefel")
}

out["traj"] = integrate(TRUE_PARAMS, times=np.linspace(0.0, 20.0, 11)).tolist()

rng = np.random.default_rng(1)
images = rng.uniform(0.0, 1.0, size=(25, 196))
labels = rng.integers(0, 10, size=25)
wb = rng.uniform(-1.0, 1.0, size=(5, 4120))
out["mlp"] = classification_error_batch(
    wb, ImageDataset(images, labels)).tolist()

bounds = BoxBounds(np.full(4, -5.0), np.full(4, 5.0))
cfg = RunConfig(method=Method.REVDE, population_size=8, generations=5, f=0.5, seed=9)
trace = run(cfg, Objective(lambda a: np.sum(a * a, axis=1), bounds))
out["trace"] = trace.best_objective.tolist()

print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def both_payloads():
    def run_mode(disable: bool):
        env = _child_env()
        env.pop(DISABLE_ENV, None)
        if disable:
            env[DISABLE_ENV] = "1"
        proc = subprocess.run(
            [sys.executable, "-c", AGREEMENT_SCRIPT], env=env,
            capture_output=True, text=True, check=True,
        )
        return json.loads(proc.stdout)

    return run_mode(False), run_mode(True)


@pytest.mark.skipif(not NUMBA_ACTIVE, reason="only one backend available")
class TestBackendAgreement:
    def test_backends_differ(self, both_payloads):
        jit, plain = both_payloads
        assert jit["backend"] == "numba" and plain["backend"] == "numpy"

    def test_benchmark_values_close(self, both_payloads):
        jit, plain = both_payloads
        for name in jit["bench"]:
            a, b = np.array(jit["bench"][name]), np.array(plain["bench"][name])
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=0,
                                       err_msg=name)

    def test_trajectory_close(self, both_payloads):
        jit, plain = both_payloads
        np.testing.assert_allclose(np.array(jit["traj"]), np.array(plain["traj"]),
                                   rtol=1e-9, atol=1e-9)

    def test_mlp_errors_identical(self, both_payloads):
        # discrete misclassification counts: argmax flips need an error of
        # the size of a logit gap, far above any compilation reordering
        jit, plain = both_payloads
        assert jit["mlp"] == plain["mlp"]

    def test_engine_trace_close(self, both_payloads):
        jit, plain = both_payloads
        np.testing.assert_allclose(np.array(jit["trace"]), np.array(plain["trace"]),
                                   rtol=1e-12, atol=0)
