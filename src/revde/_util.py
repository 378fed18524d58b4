"""Small shared helpers: float formatting, the CSV writer, atomic writes.

``write_csv`` is the package's one CSV writer.  Best-so-far traces are
piecewise constant (a 7,600-row trace holds about 20 distinct values),
so it cuts a table into segments wherever any column starts a run of
equal values, formats each segment's ``cells\n`` once, and joins it
after each of the segment's row labels.  The chunks stream into the temp
file of ``atomic_write_text``; no whole-file string is built.
"""

from __future__ import annotations

import os
import tempfile
from itertools import chain, islice
from typing import Iterable, Optional, Sequence

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
