"""Small shared helpers: float formatting, the CSV writer, atomic writes,
and the process split.

``write_csv`` is the package's one CSV writer.  Best-so-far traces are
piecewise constant (a 7,600-row trace holds about 20 distinct values),
so it cuts a table into segments wherever any column starts a run of
equal values, formats each segment's ``cells\n`` once, and joins it
after each of the segment's row labels.  The chunks stream into the temp
file of ``atomic_write_text``; no whole-file string is built.

``fork_map`` runs independent work side by side: the repressilator fit's
batch of candidates and ``revde run``'s methods.  Python code holds the
GIL, so the split uses forked processes, not threads.  Its rules:
  - share i is items[i::w]; the caller runs share 0 and forks one child
    per other share, each running the same ``work``;
  - a child writes its results, a pickled list, to a pipe and leaves
    with os._exit (0 on success, 1 on any exception); it never returns
    into the caller;
  - the caller reads and reaps every child before the call returns or
    raises, so no process outlives the call;
  - the share of a child that failed, sent short data or could not be
    forked is run in the caller, which gives the serial result or
    raises the serial exception;
  - ``split_processes`` gives w = min(usable CPUs, items), so with one
    usable CPU (``taskset -c 0``), one item, or no os.fork the work runs
    serially in the caller.
A split inside a share of another split sees every usable CPU too.
"""

from __future__ import annotations

import os
import pickle
import tempfile
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
    extra labels are ignored) and ``fmt_float`` of every float column's
    value, or ``""`` where a column is shorter than the longest one.
    Runs are cut where the float64 bit patterns differ, which keeps
    ``-0.0`` apart from ``0.0``; NaNs format alike whatever their bits.
    """
    columns = [np.ascontiguousarray(c, dtype=np.float64).ravel() for c in columns]
    rows = max(c.size for c in columns)
    # new[c, r]: column c starts a run at row r; a shorter column starts
    # its "" run at its end, and row ``rows`` closes the last segment
    new = np.zeros((len(columns), rows + 1), dtype=bool)
    new[:, 0] = True
    texts = []
    for c, column in enumerate(columns):
        bits = column.view(np.int64)
        np.not_equal(bits[1:], bits[:-1], out=new[c, 1:column.size])
        new[c, column.size] = True
        texts.append([*map(fmt_float, column[new[c, :column.size]].tolist()), ""])
    # the label's comma and the row's end, once per run
    if labels is None:
        labels = [""] * rows
    else:
        texts[0] = ["," + t for t in texts[0]]
    texts[-1] = [t + "\n" for t in texts[-1]]
    bounds = np.flatnonzero(new.any(axis=0))
    # run of each column at each segment start, as an index into its texts
    runs = (np.cumsum(new, axis=1)[:, bounds[:-1]] - 1).tolist()
    cells = [map(t.__getitem__, r) for t, r in zip(texts, runs)]
    suffixes = map(",".join, zip(*cells))
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
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        chunks = iter([text] if isinstance(text, str) else text)
        with os.fdopen(fd, "w") as fh:
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
# Process split (rules in the module docstring)
# ----------------------------------------------------------------------

def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def split_processes(k: int) -> int:
    """Processes a split of ``k`` items runs over."""
    return min(_usable_cpus(), k) if hasattr(os, "fork") else 1


def fork_map(work: Callable[[list], list], items: list, w: int) -> list:
    """``work(items)`` as a list, share i = ``items[i::w]`` run in process i."""
    if w < 2:
        return work(items)
    out = list(items)
    children, done = [], {0}
    try:
        for i in range(1, w):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:   # no process to spare: the share runs here
                os.close(r)
                os.close(wr)
                break
            if pid == 0:   # child: never returns into the caller
                status = 1
                try:
                    os.close(r)
                    with open(wr, "wb") as fh:
                        pickle.dump(work(items[i::w]), fh, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(wr)
            children.append((i, pid, r))
        out[0::w] = work(items[0::w])
    finally:
        for i, pid, r in children:
            with open(r, "rb") as fh:
                data = fh.read()
            if os.waitpid(pid, 0)[1] == 0:
                try:
                    out[i::w] = pickle.loads(data)
                    done.add(i)
                except Exception:   # short, or not loadable here: the share runs here
                    pass
    for i in range(1, w):
        if i not in done:
            out[i::w] = work(items[i::w])
    return out
