"""The shared helpers of ``revde._util``, the CSV writers built on them,
and the kernel timing script.

Float and column formatting, the trace and combined summary CSVs of
``revde run``, atomic writes, and a smoke run of
``bench/compare_backends.py`` from a checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from revde._util import atomic_write_text, fmt_column, fmt_float
from revde.cli import _write_combined_summary
from revde.engine import Method, RunSummary, RunTrace, write_trace_csv


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
        trace = RunTrace(EDGE_COLUMN, None, index.size, 0)
        write_trace_csv(trace, tmp_path / "trace.csv")
        lines = [f"{i},{fmt_float(v)}" for i, v in zip(index, EDGE_COLUMN)]
        assert (tmp_path / "trace.csv").read_text() == \
            "\n".join(["evaluation,best_objective", *lines]) + "\n"

        std = EDGE_COLUMN[::-1].copy()
        summary = {Method.DE: RunSummary(EDGE_COLUMN, std)}
        _write_combined_summary(summary, tmp_path / "summary.csv")
        lines = [f"{i},{fmt_float(m)},{fmt_float(s)}" for i, m, s in zip(index, EDGE_COLUMN, std)]
        assert (tmp_path / "summary.csv").read_text() == \
            "\n".join(["evaluation,de_mean,de_std", *lines]) + "\n"

    def test_ragged_combined_summary_byte_identical(self, tmp_path):
        long, short = EDGE_COLUMN, EDGE_COLUMN[:7]
        summaries = {
            Method.REVDE: RunSummary(short, -short),
            Method.DE: RunSummary(long, long[::-1]),
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

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_mode_matches_plain_open(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            atomic_write_text(tmp_path / "atomic.txt", "x\n")
            with open(tmp_path / "plain.txt", "w") as fh:
                fh.write("x\n")
        finally:
            os.umask(previous)
        mode = (tmp_path / "atomic.txt").stat().st_mode & 0o777
        assert mode == (tmp_path / "plain.txt").stat().st_mode & 0o777
        assert mode == 0o666 & ~umask

    def test_failure_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "f.txt"

        class Boom:
            def __str__(self):
                raise RuntimeError("no text for you")

        with pytest.raises(TypeError):
            atomic_write_text(path, Boom())   # type: ignore[arg-type]
        assert list(tmp_path.iterdir()) == []


def test_compare_backends_runs_from_checkout(tmp_path):
    script = Path(__file__).resolve().parent.parent / "bench" / "compare_backends.py"
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, str(script), "--repeats", "1"], env=env,
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("ode solve") for line in proc.stdout.splitlines())

