#!/usr/bin/env python3
"""Line coverage of ``src/revde`` under the tier-1 tests, standard library only.

Usage:
    PYTHONPATH=src python bench/coverage.py [pytest arguments]

Runs ``pytest.main`` (on ``tests/`` when no argument is given) with a
``sys.settrace`` and ``threading.settrace`` tracer that records the lines
run in ``src/revde``.  A module's executable lines are those of
``co_lines()`` of its compiled code objects, recursively.  ``os._exit``
is wrapped, so a forked child (``fork_map``'s shares) dumps its lines to
a temp directory before it leaves, and they are merged; a child killed
mid-dump (``fork_map`` kills the children whose items all follow a
failure) leaves a partial file, which is skipped.  Prints every
unreached line as ``path:line`` and exits non-zero if pytest fails or
any executable line stays unreached.
"""

from __future__ import annotations

import os
import pickle
import sys
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "revde"


def executable_lines(code) -> set[int]:
    """The line numbers of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}   # 0/None: no source line
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def main(argv: list[str]) -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    inside: dict[str, bool] = {}   # co_filename -> whether it names one of ``files``
    hits: set[tuple[str, int]] = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name) in files
        return trace_lines if inside[name] else None

    with tempfile.TemporaryDirectory() as dumps:
        real_exit = os._exit

        def exit_after_dump(status):
            try:   # renamed once whole: a child killed mid-dump leaves only a .part
                dump = os.path.join(dumps, str(os.getpid()))
                with open(dump + ".part", "wb") as fh:
                    pickle.dump(hits, fh)
                os.replace(dump + ".part", dump)
            finally:   # a child must never return into the caller's code
                real_exit(status)

        os._exit = exit_after_dump
        threading.settrace(trace_calls)
        sys.settrace(trace_calls)
        try:
            status = pytest.main(argv or [str(ROOT / "tests")])
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os._exit = real_exit
        for dump in Path(dumps).iterdir():
            if dump.suffix != ".part":
                hits |= pickle.loads(dump.read_bytes())
    hits = {(os.path.realpath(name), line) for name, line in hits}
    missed, total = [], 0
    for name, path in files.items():
        lines = executable_lines(compile(path.read_bytes(), name, "exec"))
        total += len(lines)
        missed += [f"{path.relative_to(ROOT)}:{line}" for line in sorted(lines)
                   if (name, line) not in hits]
    for line in missed:
        print(line)
    print(f"{len(missed)} of {total} executable lines in {PACKAGE.relative_to(ROOT)} unreached")
    return 1 if status != 0 or missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
