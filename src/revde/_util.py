"""Small shared helpers: float formatting, the CSV writer, atomic writes,
and the process split.

``write_csv`` is the package's one CSV writer.  Best-so-far traces are
piecewise constant (a 7,600-row trace holds about 20 distinct values),
so it cuts a table into segments of equal rows (at row 0, where any
column's bits change and at each shorter column's end), formats each
column's cell at each segment start once, and joins the segment's
``cells\n`` after each of its row labels.  The chunks stream into the
temp file of ``atomic_write_text``; no whole-file string is built.

Independent work runs side by side on one of two carriers, one share
per usable CPU, with share i = items[i::w]:
  - ``fork_map``: forked processes, for code that holds the GIL (the
    repressilator fit's batch of DOPRI5 solves and ``revde run``'s
    methods);
  - ``thread_shares``: threads, for numpy/BLAS chunks, whose products
    and ufunc loops release the GIL (the MLP objective's batch).
``fork_map``'s rules:
  - the caller runs share 0 and forks one child per other share, each
    running the same ``work``;
  - a child pickles its results, a list, into an unnamed temp file the
    caller opened before the fork (a pipe's buffer would keep a child
    with a large result alive until the caller's share ends), and leaves
    with os._exit (0 on success, 1 on any exception); it never returns
    into the caller;
  - the caller reaps every child, then loads its file, before the call
    returns or raises, so no process outlives the call;
  - the share of a child that failed, sent short data, had no file or
    could not be forked is run in the caller, so a call that returns
    gives the serial result;
  - after every child is reaped, the call raises the exception of the
    lowest-numbered share whose ``work`` raised in the caller, which need
    not be the first failing item's (items [0, 1, 2] failing at 1 and 2
    over 2 shares raise item 2's); a ``work`` that needs the first
    failure in item order returns failures as values, as ``revde run``'s
    method shares do;
  - ``split_processes`` gives w = min(usable CPUs, items), so with one
    usable CPU (``taskset -c 0``), one item, or no os.fork the work runs
    serially in the caller.
``thread_shares``' rules:
  - the caller runs share 0 and starts one thread per other share; each
    share writes its results into buffers the caller allocated, so no
    thread grows a malloc arena of its own, and runs in a copy of the
    caller's context, so the caller's ``np.errstate`` holds in every
    share as in a serial call;
  - ``blas_threads(1)`` holds numpy's OpenBLAS to one thread for the
    call, so w shares keep w CPUs busy, and then restores the caller's
    count;
  - every thread is joined before the call returns or raises; a share's
    exception is raised in the caller, share 0's first, and the share
    of a thread that could not start runs in the caller;
  - ``split_threads`` gives w = min(usable CPUs, items), or 1 where
    numpy's OpenBLAS has no thread-count calls (another numpy build or
    BLAS), and then the work runs serially in the caller.
Measured on 2 CPUs at one BLAS thread, a batch of 150 MLP candidates
on 2,000 images fell from 82-97 ms serially to 43-51 ms on 2 threads
(50 candidates: 24-35 to 16-20 ms).  Against BLAS's default of 2 threads
the gain is smaller than the host's noise: 55-63 to 47-50 ms in one
measurement, 43-55 to 36-58 ms in another.  Measured and rejected:
  - ``fork_map`` shares: at 2 BLAS threads the 150-candidate batch took
    106-128 ms against 55-67 ms serially, and one fork costs 3.7-13 ms,
    growing with the size of the process;
  - threads that allocate their own buffers: +2.9 MB of peak RSS;
  - a 2-thread ``ThreadPoolExecutor`` on full-size chunks: +11.4 MB, and
    importing ``concurrent.futures`` adds ~11 ms to every start-up.
A split inside a share sees every usable CPU too: ``revde run``'s
method processes split MLP batches over threads, which on 2 CPUs beat
serial methods in 9 of 10 runs (4 methods, N=50, G=5, 2 repeats: 2.86
to 2.42 s median; 3.02 to 2.67 s at one BLAS thread).
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
import pickle
import tempfile
import threading
from contextlib import ExitStack, contextmanager
from itertools import chain, islice
from typing import Callable, Iterable, Optional, Sequence

import numpy as np


def fmt_float(value: float) -> str:
    """Shortest decimal string that round-trips to the same float64."""
    return repr(float(value))


def row_numbers(rows: int) -> list[str]:
    """The ``"1"`` .. ``"<rows>"`` labels of an evaluation-numbered table."""
    return list(map(str, range(1, rows + 1)))


def write_csv(path: str | os.PathLike, header: str, labels: Optional[Sequence[str]],
              columns: Sequence) -> None:
    """Atomically write ``header`` and one line per table row.

    Row r is ``labels[r]`` (``None`` for a table without a label column;
    fewer labels than rows raise ``ValueError``, extra ones are ignored)
    and ``fmt_float`` of every float column's value, or ``""`` where a
    column is shorter than the longest one.
    Runs are cut where the float64 bit patterns differ, which keeps
    ``-0.0`` apart from ``0.0``; NaNs format alike whatever their bits.
    """
    columns = [np.ascontiguousarray(c, dtype=np.float64).ravel() for c in columns]
    rows = max(c.size for c in columns)
    if labels is not None and len(labels) < rows:
        raise ValueError(f"{len(labels)} labels for a table of {rows} rows")
    # a segment starts at row 0, where any column's bits change and where
    # a shorter column ends; row ``rows`` closes the last segment
    cut = np.zeros(rows + 1, dtype=bool)
    cut[0] = True
    for column in columns:
        bits = column.view(np.int64)
        cut[1:column.size] |= bits[1:] != bits[:-1]
        cut[column.size] = True
    bounds = np.flatnonzero(cut)
    starts = bounds[:-1]
    texts = []
    for column in columns:
        inside = starts[:np.searchsorted(starts, column.size)]
        texts.append([*map(fmt_float, column[inside].tolist()),
                      *[""] * (starts.size - inside.size)])
    lead = "" if labels is None else ","   # the label's comma
    if labels is None:
        labels = [""] * rows
    suffixes = (lead + ",".join(cells) + "\n" for cells in zip(*texts))
    bounds = bounds.tolist()
    chunks = (suffix.join(labels[a:b]) + suffix
              for a, b, suffix in zip(bounds, bounds[1:], suffixes))
    atomic_write_text(path, chain((header + "\n",), chunks))


def atomic_write_text(path: str | os.PathLike, text: str | Iterable[str]) -> None:
    """Write ``text`` (a string or its chunks) via a temp file in the same directory.

    The final rename is atomic on POSIX, so readers never observe a
    partially written file and reruns never append.  The file gets the
    mode a plain ``open(path, "w")`` would give it (0o666 less the
    umask), not the owner-only mode of ``mkstemp``.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    except OSError as exc:   # name the file asked for, not the temp file
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            chunks = iter([text] if isinstance(text, str) else text)
            for first in chunks:   # one write per 512 chunks: a write costs more than a join
                fh.write("".join(chain((first,), islice(chunks, 511))))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# Process and thread splits (rules in the module docstring)
# ----------------------------------------------------------------------

def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def split_processes(k: int) -> int:
    """Processes a split of ``k`` items runs over."""
    return min(_usable_cpus(), k) if hasattr(os, "fork") else 1


# the thread-count calls of numpy's bundled OpenBLAS (scipy-openblas64)
_OPENBLAS_THREAD_CALLS = ("scipy_openblas_get_num_threads64_",
                          "scipy_openblas_set_num_threads64_")


@functools.cache
def _openblas_threads():
    """``(get, set)`` of numpy's BLAS thread count, or None where missing.

    Looked up on first use through numpy's core extension, whose handle
    also resolves the symbols of the BLAS it links.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, set_ = (getattr(lib, name) for name in _OPENBLAS_THREAD_CALLS)
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def blas_threads(n: int):
    """Hold numpy's BLAS to ``n`` threads in the block, then restore the
    caller's count; nothing changes where the calls are missing."""
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(n)
    try:
        yield
    finally:
        set_(before)


def split_threads(k: int) -> int:
    """Threads a split of ``k`` numpy/BLAS items runs over: min(usable
    CPUs, k), at least 1, or 1 where BLAS's thread count cannot be held."""
    return max(1, min(_usable_cpus(), k)) if _openblas_threads() else 1


def thread_shares(work: Callable[[int], None], w: int) -> None:
    """``work(i)`` for every share i < w at once, share 0 in the caller."""
    if w < 2:
        work(0)
        return
    errors = [None] * w

    def run(i: int) -> None:
        try:
            work(i)
        except BaseException as exc:   # raised in the caller below
            errors[i] = exc

    started = []
    with blas_threads(1):
        try:
            for i in range(1, w):
                # a copy of the caller's context: its np.errstate holds here too
                thread = threading.Thread(target=contextvars.copy_context().run, args=(run, i))
                thread.start()
                started.append(thread)
        except RuntimeError:   # no thread to spare: the rest run here
            pass
        try:
            for i in (0, *range(len(started) + 1, w)):
                work(i)
        finally:
            for thread in started:
                thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def fork_map(work: Callable[[list], list], items: list, w: int) -> list:
    """``work(items)`` as a list, share i = ``items[i::w]`` run in process i."""
    if w < 2:
        return work(items)
    out = list(items)
    children, done = [], {0}
    with ExitStack() as files:
        try:
            for i in range(1, w):
                try:
                    fh = files.enter_context(tempfile.TemporaryFile())
                    pid = os.fork()
                except OSError:   # no file or process to spare: the share runs here
                    break
                if pid == 0:   # child: never returns into the caller
                    status = 1
                    try:
                        pickle.dump(work(items[i::w]), fh, pickle.HIGHEST_PROTOCOL)
                        fh.flush()
                        status = 0
                    finally:
                        os._exit(status)
                children.append((i, pid, fh))
            out[0::w] = work(items[0::w])
        finally:
            for i, pid, fh in children:
                if os.waitpid(pid, 0)[1] == 0:
                    try:
                        fh.seek(0)
                        out[i::w] = pickle.load(fh)
                        done.add(i)
                    except Exception:   # short, or not loadable here: the share runs here
                        pass
    for i in range(1, w):
        if i not in done:
            out[i::w] = work(items[i::w])
    return out
