#!/usr/bin/env python3
"""Check the checks: tiny runs of every workload, then perturbed outputs.

    python3 perfbench/selftest.py

Each workload runs once at a tiny size and its oracle must accept the
output.  Then single fields of that output are perturbed (a trace value,
the accounting, a summary cell, best parameters, observations, weights)
and the oracle must reject each perturbed copy for the expected reason.
Exits 0 when every expectation holds.  Takes about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".perfbench-work" / f"selftest-{os.getpid()}"
failures = []


def rejected(problems: list, why: str) -> bool:
    """The oracle flagged the output, and for the expected reason."""
    return any(why in problem for problem in problems)


def expect(label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    if not ok:
        failures.append(label)


def perturbed(outdir: Path, name: str, edit) -> Path:
    """Copy ``outdir`` and apply ``edit`` to the copy."""
    copy = outdir.with_name(f"{outdir.name}-{name}")
    shutil.copytree(outdir, copy)
    edit(copy)
    return copy


def edit_manifest(change):
    def edit(outdir: Path):
        path = outdir / "manifest.json"
        manifest = json.loads(path.read_text())
        change(manifest)
        path.write_text(json.dumps(manifest))
    return edit


def edit_lines(file_name: str, change):
    def edit(outdir: Path):
        path = outdir / file_name
        lines = path.read_text().splitlines()
        change(lines)
        path.write_text("\n".join(lines) + "\n")
    return edit


def bump_last_row(lines, col: int):
    cells = lines[-1].split(",")
    cells[col] = repr(float(cells[col]) + 1e-3)
    lines[-1] = ",".join(cells)


def rastrigin_suite():
    wl = workloads.RastriginSuite(dim=4, n=10, generations=5, repeats=2)
    wl.setup(WORK / "rastrigin", seed=0)
    _, outdir = wl.body(WORK / "rastrigin" / "out")
    problems = oracles.rastrigin_suite(outdir, wl.n, wl.generations, wl.repeats, wl.methods)
    expect("rastrigin-suite: oracle accepts the real output", not any(problems.values()))

    def fails(name, edit, op, why):
        got = oracles.rastrigin_suite(perturbed(outdir, name, edit), wl.n, wl.generations,
                                      wl.repeats, wl.methods)
        expect(f"rastrigin-suite: rejects {name}", rejected(got[op], why))

    def raise_trace(lines):
        cells = lines[-1].split(",")
        lines[-2] = f"{int(cells[0]) - 1},{float(cells[1]) - 1.0}"   # a later value went up

    fails("accounting +1", edit_manifest(
        lambda m: m["runs"]["ade"].__setitem__("evaluations_per_run",
                                               m["runs"]["ade"]["evaluations_per_run"] + 1)),
          ("ade", 0), "accounting")
    fails("an increasing trace", edit_lines("trace_revde.csv", raise_trace), ("revde", 0),
          "non-increasing")
    fails("a negative final_best", edit_manifest(
        lambda m: m["runs"]["de"]["final_best"].__setitem__(1, -1.0)), ("de", 1), ">= 0")
    fails("a trace not ending at final_best", edit_manifest(
        lambda m: m["runs"]["dex3"]["final_best"].__setitem__(
            0, m["runs"]["dex3"]["final_best"][0] * 0.5)), ("dex3", 0), "trace ends at")
    fails("a summary mean off", edit_lines(
        "summary.csv", lambda lines: bump_last_row(lines, 1 + 2 * 2)), ("ade", 1),
          "summary last row")


def repressilator_fit():
    wl = workloads.RepressilatorFit(n=8, generations=1)
    wl.setup(WORK / "repressilator", seed=0)
    _, outdir = wl.body(WORK / "repressilator" / "out")
    args = (wl.n, wl.generations, wl.noise_std, wl.obs_end, wl.obs_count, wl.bounds)
    expect("repressilator-fit: oracle accepts the real output",
           not oracles.repressilator_fit(outdir, *args))

    def fails(name, edit, why):
        expect(f"repressilator-fit: rejects {name}",
               rejected(oracles.repressilator_fit(perturbed(outdir, name, edit), *args), why))

    def scale_best(m):
        best = m["runs"]["revde"]["best_params"]
        best[1] *= 1.001

    def shift_observations(lines):
        for i in range(1, len(lines)):
            cells = lines[i].split(",")
            lines[i] = ",".join(cells[:1] + [repr(float(c) + 3.0) for c in cells[1:]])

    fails("best_params off by 0.1%", edit_manifest(scale_best), "DOP853")
    fails("final_best off by 1e-4", edit_manifest(
        lambda m: m["runs"]["revde"]["final_best"].__setitem__(
            0, m["runs"]["revde"]["final_best"][0] * (1 + 1e-4))), "DOP853")
    fails("observations shifted by 3", edit_lines("observations.csv", shift_observations),
          "TRUE_PARAMS")
    fails("accounting -1", edit_manifest(
        lambda m: m["runs"]["revde"].__setitem__("evaluations_per_run",
                                                 wl.evaluations_per_round - 1)), "accounting")


def mlp_fit():
    wl = workloads.MlpFit(n=8, generations=2, train=200, test=50)
    wl.setup(WORK / "mlp", seed=0)
    _, result = wl.body(WORK / "mlp" / "out")
    expect("mlp-fit: oracle accepts the real output and the loaded datasets",
           not wl.check(result)[0])
    weights, final_best, evaluations, trace = result
    variants = {
        "negated weights": ((-weights, final_best, evaluations, trace), "forward pass"),
        "final_best off by one image":
            ((weights, final_best + 1 / 200, evaluations, trace), "forward pass"),
        "accounting +1": ((weights, final_best, evaluations + 1, trace), "accounting"),
    }
    for name, (variant, why) in variants.items():
        expect(f"mlp-fit: rejects {name}", rejected(wl.check(variant)[0], why))
    wl.train.images[0, 0] += 1.0 / 255
    expect("mlp-fit: rejects a changed pixel after loading",
           rejected(wl.check(result)[0], "train: prepared pixels"))


def main() -> int:
    try:
        rastrigin_suite()
        repressilator_fit()
        mlp_fit()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} expectation(s) failed" if failures else "all expectations held")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
