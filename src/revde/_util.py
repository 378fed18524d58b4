"""Small shared helpers: float formatting and atomic file writes."""

from __future__ import annotations

import os
import tempfile
from itertools import chain, repeat
from typing import Iterable, Iterator

import numpy as np


def fmt_float(value: float) -> str:
    """Shortest decimal string that round-trips to the same float64."""
    return repr(float(value))


def fmt_column(values) -> Iterator[str]:
    """``fmt_float`` of every value of a 1-D float column, lazily.

    Best-so-far traces and their means are piecewise constant, so runs
    of equal values are found first and each run is formatted once.
    Runs are cut where the float64 bit patterns differ, which keeps
    ``-0.0`` apart from ``0.0``; NaNs format alike whatever their bits.
    """
    column = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if column.size == 0:
        return iter(())
    bits = column.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    lengths = np.diff(np.append(starts, column.size))
    texts = map(fmt_float, column[starts].tolist())
    return chain.from_iterable(map(repeat, texts, lengths.tolist()))


def write_csv_columns(
    path: str | os.PathLike, header: str, columns: Iterable[Iterable[str]]
) -> None:
    """Atomically write ``header`` and one row per zipped column cell."""
    rows = map(",".join, zip(*columns))
    atomic_write_text(path, "\n".join(chain((header,), rows)) + "\n")


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file in the same directory.

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
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
