#!/usr/bin/env python3
"""sha256 of every file that ``revde run`` and ``revde analyze`` write on
fixed setups, to check that a change keeps the program's output bytes.

Usage:
    python3 bench/output_digests.py [--tiny]

Each setup runs ``python -m revde.cli`` from this checkout's ``src/`` in
a fresh temporary directory, on the CPUs this script may use (so
``taskset -c 0 python3 bench/output_digests.py`` gives the one-CPU run).
The setups:
  - rastrigin-suite: 4 methods, D=10, N=100, G=25, 2 repeats;
  - repressilator: 4 methods, N=8, G=2, 2 repeats;
  - mlp-held-out: 4 methods, N=10, G=2, 300 training and 100 held-out
    images written by ``perfbench/idxgen.py`` (seed 7);
  - failing: REVDE and DE with f = 5e102, which fails at set-up;
  - analyze, analyze-f-step-0.1: the eigenvalue tables.
One line per file, ``<setup>/<file> <sha256>``, in file-name order, plus
the run's ``(stderr)`` and ``(exit status)``.  Before hashing, a
manifest loses ``wall_time_seconds`` and ``config.output_dir``, the two
entries that differ between identical runs.  Run it from two checkouts
and diff the output.  ``--tiny`` shrinks every run to N=8, G=1, one
repeat and 60 training images, for a smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["--seed", "3", "--methods", "de,dex3,ade,revde"]
SETUPS = {
    "rastrigin-suite": ["run", *RUN, "--problem", "rastrigin", "--dim", "10", "--n", "100",
                        "--generations", "25", "--f", "0.5", "--p", "0.9", "--repeats", "2"],
    "repressilator": ["run", *RUN, "--problem", "repressilator", "--n", "8",
                      "--generations", "2", "--repeats", "2"],
    "mlp-held-out": ["run", *RUN, "--problem", "mlp", "--n", "10", "--generations", "2",
                     "--repeats", "1", "--train-size", "300"],
    "failing": ["run", "--problem", "rastrigin", "--methods", "revde,de", "--n", "8",
                "--generations", "2", "--repeats", "1", "--dim", "2", "--f", "5e102"],
    "analyze": ["analyze"],
    "analyze-f-step-0.1": ["analyze", "--f-step", "0.1"],
}
# later flags win, so --tiny appends these to every run
TINY = ["--n", "8", "--generations", "1", "--repeats", "1"]


def idx_files(work: Path, tiny: bool) -> list[str]:
    """``revde run`` flags for perfbench's synthetic IDX files, written into
    ``work/idx`` and named from a setup's directory, since the manifest
    records the paths."""
    spec = importlib.util.spec_from_file_location("idxgen", ROOT / "perfbench" / "idxgen.py")
    idxgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(idxgen)
    idxgen.generate(work / "idx", seed=7, train=60 if tiny else 300, test=20 if tiny else 100)
    return [flag for key, name in idxgen.FILE_NAMES.items()
            for flag in (f"--{key.replace('_', '-')}", f"../idx/{name}")]


def digests(setup: str, argv: list[str], work: Path) -> dict[str, str]:
    """Run one setup in its own directory under ``work``; file name -> sha256."""
    out = work / setup
    out.mkdir()
    if argv[0] == "run":
        argv = ["run", os.devnull, *argv[1:], "--output-dir", "."]
    else:
        argv = [*argv, "--out", "eigen.csv"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "revde.cli", *argv], cwd=out, env=env,
                          capture_output=True)
    found = {"(exit status)": str(proc.returncode).encode(), "(stderr)": proc.stderr}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            del manifest["wall_time_seconds"], manifest["config"]["output_dir"]
            data = json.dumps(manifest, indent=2).encode()
        found[path.name] = data
    return {name: hashlib.sha256(data).hexdigest() for name, data in found.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="N=8, G=1, 1 repeat")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        mlp_flags = idx_files(work, args.tiny)
        for setup, run_argv in SETUPS.items():
            run_argv = run_argv + (mlp_flags if setup == "mlp-held-out" else [])
            if args.tiny and run_argv[0] == "run":
                run_argv = run_argv + TINY
            for name, digest in digests(setup, run_argv, work).items():
                print(f"{setup}/{name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
