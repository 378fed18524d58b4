"""The shared helpers of ``revde._util``, the CSV writer and the tables
built on it, the bench scripts, and the package's exports.

Float formatting, the run-segment CSV writer against a per-row
``fmt_float`` reference, the trace, combined summary, observations and
params CSVs, atomic writes, ``fork_map``'s hand-back of child results,
smoke runs of ``bench/compare_backends.py`` and
``bench/output_digests.py`` from a checkout, and the package's
module-level names: its exports and its shared, read-only arrays.
"""

import errno
import hashlib
import importlib
import os
import pkgutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import revde
from revde import _util
from revde._util import atomic_write_text, fmt_float, row_numbers, write_csv
from revde.cli import _write_combined_summary
from revde.engine import BoxBounds, Method, RunSummary, RunTrace, write_trace_csv
from revde.transforms import Population
from revde.repressilator import (
    ObservationSet,
    write_observations_csv,
    write_param_history_csv,
)


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


# every run boundary the writer must see: NaN and +-inf, -0.0 right after
# 0.0, subnormals, a NaN with another payload, and long constant runs
EDGE_COLUMN = np.concatenate([
    [np.nan, np.nan, np.inf, np.inf, -np.inf, 0.0, -0.0, -0.0, 0.0],
    [5e-324, 5e-324, -2.2250738585072014e-308 / 3],
    np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64),
    np.full(500, 3.25), np.full(3, 0.1 + 0.2), [0.3, 1e300, -1e-300],
])


def reference_csv(header, labels, columns):
    """The table one row at a time: label, then fmt_float or "" per column."""
    lines = [header]
    for row in range(max(len(c) for c in columns)):
        cells = [fmt_float(c[row]) if row < len(c) else "" for c in columns]
        lines.append(",".join(cells if labels is None else [labels[row], *cells]))
    return "\n".join(lines) + "\n"


class TestFmtColumn:
    """One float column through ``write_csv``, against ``fmt_float`` per row."""

    def test_edge_values_match_fmt_float(self, tmp_path):
        path = tmp_path / "edge.csv"
        write_csv(path, "x", None, [EDGE_COLUMN])
        assert path.read_text().splitlines() == ["x"] + [fmt_float(v) for v in EDGE_COLUMN]
        write_csv(path, "x", None, [np.empty(0)])
        assert path.read_text() == "x\n"

    @given(st.lists(st.tuples(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                              st.integers(1, 5)), max_size=30))
    def test_runs_match_fmt_float(self, tmp_path_factory, runs):
        column = np.array([v for v, count in runs for _ in range(count)], dtype=np.float64)
        path = tmp_path_factory.mktemp("runs") / "runs.csv"
        write_csv(path, "x", None, [column])
        assert path.read_text().splitlines() == ["x"] + [fmt_float(v) for v in column]

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


# a piecewise-constant column: (value, run length) pairs, values drawn
# from EDGE_COLUMN or any float
_RUNS = st.lists(st.tuples(st.one_of(st.sampled_from(EDGE_COLUMN.tolist()),
                                     st.floats(allow_nan=True, allow_subnormal=True)),
                           st.integers(1, 40)), max_size=12)


class TestWriteCsv:
    @settings(max_examples=200, deadline=None)
    @given(columns=st.lists(_RUNS, min_size=1, max_size=5), numbered=st.booleans())
    def test_tables_match_per_row_reference(self, tmp_path_factory, columns, numbered):
        columns = [np.array([v for v, count in runs for _ in range(count)], dtype=np.float64)
                   for runs in columns]   # ragged: each column has its own length
        rows = max(c.size for c in columns)
        labels = row_numbers(rows + 3) if numbered else None   # longer labels are fine
        header = ",".join(f"c{i}" for i in range(len(columns)))
        path = tmp_path_factory.mktemp("table") / "table.csv"
        write_csv(path, header, labels, columns)
        assert path.read_bytes() == reference_csv(header, labels, columns).encode()

    @pytest.mark.parametrize("labels", [None, ["7"]])
    def test_zero_and_one_row_tables(self, tmp_path, labels):
        path = tmp_path / "t.csv"
        write_csv(path, "a,b", labels, [np.empty(0), np.empty(0)])
        assert path.read_text() == "a,b\n"
        write_csv(path, "a,b", labels, [[-0.0], np.empty(0)])
        assert path.read_text() == "a,b\n" + ("7," if labels else "") + "-0.0,\n"

    @pytest.mark.parametrize("write, message", [
        (lambda path: write_csv(path, "h", ["a"], [np.zeros(3)]), "1 labels for a table of 3"),
        (lambda path: write_csv(path, "h", ["a"], [np.arange(3.0)]), "1 labels for a table of 3"),
        (lambda path: write_trace_csv(RunTrace(np.arange(5.0), None, 5, 0), path, ["1", "2"]),
         "2 labels for a table of 5"),
    ], ids=["equal-rows", "distinct-rows", "trace"])
    def test_too_few_labels_rejected(self, tmp_path, write, message):
        with pytest.raises(ValueError, match=f"^{message} rows$"):
            write(tmp_path / "t.csv")
        assert list(tmp_path.iterdir()) == []

    def test_row_numbers(self):
        assert row_numbers(0) == []
        assert row_numbers(3) == ["1", "2", "3"]

    def test_params_csv_with_integer_gen_column(self, tmp_path):
        rng = np.random.default_rng(3)
        members = rng.uniform(0.0, 5.0, size=(4, 4))
        values = np.array([2.0, np.inf, 2.0, 0.5])
        history = [Population(members, values),
                   Population(members[::-1], values[::-1], generation=1),
                   Population(np.tile(members[:1], (4, 1)), np.full(4, 0.5),
                              generation=2)]   # equal rows
        path = tmp_path / "params.csv"
        write_param_history_csv(history, path)
        lines = ["gen,alpha0,n,beta,alpha,objective"]
        for gen, pop in enumerate(history):
            lines += [",".join([str(gen), *map(fmt_float, row), fmt_float(value)])
                      for row, value in zip(pop.members, pop.values)]
        assert path.read_text() == "\n".join(lines) + "\n"
        write_param_history_csv([], path)
        assert path.read_text() == "gen,alpha0,n,beta,alpha,objective\n"

    def test_observations_csv_without_number_column(self, tmp_path):
        times = np.linspace(0.0, 40.0, 7)
        mrna = np.column_stack([np.full(7, 1.5), EDGE_COLUMN[-7:], np.arange(7.0)])
        path = tmp_path / "obs.csv"
        write_observations_csv(ObservationSet(times=times, mrna=mrna), path)
        assert path.read_bytes() == reference_csv("t,m1,m2,m3", None, [times, *mrna.T]).encode()

    def test_shared_numbers_give_the_same_bytes(self, tmp_path):
        trace = RunTrace(EDGE_COLUMN, None, EDGE_COLUMN.size, 0)
        summary = {Method.DE: RunSummary(EDGE_COLUMN, EDGE_COLUMN[::-1].copy())}
        numbers = row_numbers(EDGE_COLUMN.size + 10)
        for name, write in (("trace", lambda *a: write_trace_csv(trace, *a)),
                            ("summary", lambda *a: _write_combined_summary(summary, *a))):
            write(tmp_path / f"{name}2.csv")
            write(tmp_path / f"{name}3.csv", numbers)
            assert (tmp_path / f"{name}2.csv").read_bytes() == \
                (tmp_path / f"{name}3.csv").read_bytes()


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

    def test_writes_chunks(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_write_text(path, (f"{i}\n" for i in range(2000)))
        assert path.read_text() == "".join(f"{i}\n" for i in range(2000))
        atomic_write_text(path, iter(()))
        assert path.read_text() == ""

    def test_failing_chunks_keep_the_old_file(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_write_text(path, "old\n")

        def chunks():
            yield "x" * 100_000
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError, match="formatting failed"):
            atomic_write_text(path, chunks())
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    def test_failure_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "f.txt"

        class Boom:
            def __str__(self):
                raise RuntimeError("no text for you")

        with pytest.raises(TypeError):
            atomic_write_text(path, Boom())   # type: ignore[arg-type]
        assert list(tmp_path.iterdir()) == []


class KillOnPickle:
    """Pickling it SIGKILLs the process: a child dies mid-hand-back."""

    def __reduce__(self):
        os.kill(os.getpid(), signal.SIGKILL)


class TestForkMap:
    """``fork_map`` against ``work(items)`` in the calling process.

    Each test fakes the usable CPU count or names the share count, so the
    split runs on a 1-CPU machine too; the conftest guards check that
    every child is reaped and every file closed.
    """

    PAYLOAD = 1 << 20   # bytes per item: every share hands back 1 MB or more

    @pytest.fixture
    def forks(self, monkeypatch):
        """The ``os.fork`` calls of the test, counted."""
        calls, fork = [], os.fork

        def counted():
            calls.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        return calls

    @staticmethod
    def big(share):
        return [(i, bytes([i]) * TestForkMap.PAYLOAD) for i in share]

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_large_results_match_serial(self, monkeypatch, forks, cpus):
        monkeypatch.setattr(_util, "_usable_cpus", lambda: cpus)
        items = list(range(8))
        assert _util.fork_map(self.big, items, _util.split_processes(8)) == self.big(items)
        assert len(forks) == cpus - 1

    def test_no_channel_forks_nothing(self, monkeypatch, forks):
        def no_file(*args, **kwargs):
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(tempfile, "TemporaryFile", no_file)
        items = list(range(6))
        assert _util.fork_map(self.big, items, 3) == self.big(items)
        assert forks == []

    def test_killed_child_share_runs_in_caller(self):
        parent = os.getpid()

        def work(share):   # a child dies handing back, after 1 MB reached its file
            dying = os.getpid() != parent
            return [(i, b"x" * self.PAYLOAD, KillOnPickle() if dying else None) for i in share]

        items = list(range(4))
        assert _util.fork_map(work, items, 2) == work(items)

    @pytest.mark.parametrize("w, raised", [(2, 2), (3, 1)])
    def test_raises_lowest_failing_share(self, w, raised):
        """Items 1 and 2 fail: over 2 shares the caller's share [0, 2]
        raises item 2's error, where a serial call raises item 1's; over
        3 the failed child's share [1] reruns in the caller and raises."""
        def work(share):
            for i in share:
                if i > 0:
                    raise KeyError(i)
            return share

        with pytest.raises(KeyError) as exc:
            _util.fork_map(work, [0, 1, 2], w)
        assert exc.value.args == (raised,)

    def test_tempdir_left_empty(self, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        parent = os.getpid()

        def short(share):   # a child that exits 0 but sends one value short
            return share if os.getpid() == parent else share[:-1]

        def failing(share):
            if os.getpid() != parent:
                raise KeyError("child")
            return share

        items = list(range(5))
        for work in (self.big, short, failing):
            for w in (2, 3):
                assert _util.fork_map(work, items, w) == work(items)
                assert list(tmp_path.iterdir()) == []


def test_compare_backends_runs_from_checkout(tmp_path):
    script = Path(__file__).resolve().parent.parent / "bench" / "compare_backends.py"
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, str(script), "--repeats", "1"], env=env,
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("ode solve") for line in proc.stdout.splitlines())


def test_output_digests_runs_from_checkout(tmp_path):
    script = Path(__file__).resolve().parent.parent / "bench" / "output_digests.py"
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    runs = [subprocess.run([sys.executable, str(script), "--tiny"], env=env,
                           cwd=tmp_path, capture_output=True, text=True) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    # nothing that differs between identical runs is hashed
    assert runs[0].stdout == runs[1].stdout
    digests = dict(line.rsplit(" ", 1) for line in runs[0].stdout.splitlines())
    status = {name.split("/")[0]: digest for name, digest in digests.items()
              if name.endswith("/(exit status)")}
    ok, failed = (hashlib.sha256(code).hexdigest() for code in (b"0", b"1"))
    assert status == {"rastrigin-suite": ok, "repressilator": ok, "mlp-held-out": ok,
                      "failing": failed, "analyze": ok, "analyze-f-step-0.1": ok}
    for name in ("rastrigin-suite/trace_revde.csv", "repressilator/params_de.csv",
                 "mlp-held-out/summary.csv", "failing/manifest.json", "analyze/eigen.csv"):
        assert len(digests[name]) == 64
    assert list(tmp_path.iterdir()) == []


def test_every_export_resolves():
    """Each name in the ``__all__`` of ``revde`` and of its modules is
    defined there, so a deleted name cannot linger as an export."""
    names = [info.name for info in pkgutil.iter_modules(revde.__path__)]
    assert {"benchmarks", "cli", "engine", "mlp", "repressilator", "transforms"} <= set(names)
    for module in [revde, *(importlib.import_module(f"revde.{name}") for name in names)]:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists undefined {missing}"


def test_shared_arrays_are_read_only():
    """Every module-level array of ``revde``, and the box of every
    module-level ``BoxBounds``, refuses writes: one caller cannot change
    what the next reads, such as the initial state of every solve."""
    modules = [importlib.import_module(f"revde.{info.name}")
               for info in pkgutil.iter_modules(revde.__path__)]
    shared = {}
    for module in modules:
        for name, value in vars(module).items():
            if isinstance(value, np.ndarray):
                shared[f"{module.__name__}.{name}"] = value
            elif isinstance(value, BoxBounds):
                shared[f"{module.__name__}.{name}.lower"] = value.lower
                shared[f"{module.__name__}.{name}.upper"] = value.upper
    assert {"revde.repressilator.TRUE_PARAMS", "revde.repressilator.DEFAULT_INITIAL_STATE",
            "revde.repressilator.DEFAULT_PARAM_BOUNDS.lower",
            "revde.mlp.DEFAULT_WEIGHT_BOUNDS.upper"} <= set(shared)
    writable = [name for name, array in shared.items() if array.flags.writeable]
    assert not writable, f"shared arrays that take writes: {writable}"
