"""Independent output checks for the three workloads.

Nothing here imports ``revde``: every expected value is recomputed from
first principles (the accounting formula, Rastrigin's minimum of 0, a
scipy DOP853 solve of the repressilator equations, an explicit forward
pass of the 196-20-10 network) or is a property the outputs must have.
Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

import numpy as np

# --- repressilator model, restated (state order m1, p1, m2, p2, m3, p3) ---
TRUE_PARAMS = (1.0, 2.0, 5.0, 1000.0)              # alpha0, n, beta, alpha
INITIAL_STATE = (0.0, 2.0, 0.0, 1.0, 0.0, 3.0)
# relative agreement demanded between the library's DOPRI5 fit value and
# a DOP853 solve at rtol 1e-11; observed agreement is ~3e-8
FIT_RTOL = 1e-6
# sigma-consistency of the observation noise, in standard errors
NOISE_Z = 5.0


def expected_evaluations(n: int, generations: int, method: str) -> int:
    """N + G*k*N with k = 1 for DE and 3 for the triplet methods."""
    return n + generations * (1 if method == "de" else 3) * n


def budget_generations(generations: int, method: str, methods) -> int:
    """DE gets 3x the generations when it runs next to a triplet method."""
    if method == "de" and any(m != "de" for m in methods):
        return 3 * generations
    return generations


def _read_manifest(outdir: Path):
    manifest = json.loads((outdir / "manifest.json").read_text())
    if manifest.get("error"):
        raise ValueError(f"manifest records an error: {manifest['error']}")
    return manifest


def _read_rows(path: Path) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _population_std(values) -> float:
    mean = math.fsum(values) / len(values)
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))


def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


# ----------------------------------------------------------------------
# rastrigin-suite
# ----------------------------------------------------------------------

def rastrigin_suite(outdir: Path, n: int, generations: int, repeats: int, methods) -> dict:
    """Problems per (method, repeat) operation of one ``revde run`` call."""
    problems = {(m, r): [] for m in methods for r in range(repeats)}

    def fail(method, msg, repeat=None):
        for r in range(repeats) if repeat is None else (repeat,):
            problems[(method, r)].append(f"{method}[{r}]: {msg}")

    try:
        manifest = _read_manifest(outdir)
        header, summary_rows = _read_rows(outdir / "summary.csv")
    except (OSError, ValueError) as exc:
        for m in methods:
            fail(m, f"unreadable output: {exc}")
        return problems
    by_eval = {int(row[0]): row for row in summary_rows}

    for m in methods:
        run = manifest["runs"].get(m)
        if run is None:
            fail(m, "missing from manifest")
            continue
        g = budget_generations(generations, m, methods)
        total = expected_evaluations(n, g, m)
        if run["generations"] != g or run["evaluations_per_run"] != total:
            fail(m, f"accounting {run['generations']} gens / {run['evaluations_per_run']} "
                    f"evals, expected {g} / {total}")
            continue
        finals = run["final_best"]
        if len(finals) != repeats:
            fail(m, f"{len(finals)} final_best values for {repeats} repeats")
            continue
        for r, v in enumerate(finals):
            if not (math.isfinite(v) and v >= 0.0):
                fail(m, f"final_best {v!r} is not a finite value >= 0", r)

        trace = np.loadtxt(outdir / f"trace_{m}.csv", delimiter=",", skiprows=1, ndmin=2)
        if trace.shape != (total, 2) or not np.array_equal(trace[:, 0], np.arange(1, total + 1)):
            fail(m, f"trace shape {trace.shape}, expected ({total}, 2) indexed 1..{total}")
        elif np.any(np.diff(trace[:, 1]) > 0.0) or trace[:, 1].min() < 0.0:
            fail(m, "trace is not non-increasing and >= 0")
        elif trace[-1, 1] != finals[0]:
            fail(m, f"trace ends at {trace[-1, 1]!r}, final_best[0] is {finals[0]!r}", 0)

        row = by_eval.get(total)
        if row is None:
            fail(m, f"summary.csv has no row for evaluation {total}")
            continue
        col = header.index(f"{m}_mean")
        mean, std = float(row[col]), float(row[col + 1])
        want_mean, want_std = math.fsum(finals) / repeats, _population_std(finals)
        if not (_close(mean, want_mean) and _close(std, want_std)):
            fail(m, f"summary last row ({mean!r}, {std!r}) != mean/std of final_best "
                    f"({want_mean!r}, {want_std!r})")
    return problems


# ----------------------------------------------------------------------
# repressilator-fit
# ----------------------------------------------------------------------

def _hill(p: float, n: float, alpha: float) -> float:
    if p <= 0.0:
        return alpha
    if n * math.log(p) > 700.0:
        return 0.0
    return alpha / (1.0 + p ** n)


def _rhs(_t, y, alpha0, n, beta, alpha):
    m1, p1, m2, p2, m3, p3 = y
    return [
        -m1 + _hill(p3, n, alpha) + alpha0, -beta * (p1 - m1),
        -m2 + _hill(p1, n, alpha) + alpha0, -beta * (p2 - m2),
        -m3 + _hill(p2, n, alpha) + alpha0, -beta * (p3 - m3),
    ]


def simulate_mrna(params, times: np.ndarray) -> np.ndarray:
    """mRNA (m1, m2, m3) at ``times`` from a tight DOP853 solve."""
    return _simulate_mrna(tuple(map(float, params)), tuple(map(float, times))).copy()


@functools.lru_cache(maxsize=64)
def _simulate_mrna(params: tuple, times: tuple) -> np.ndarray:
    # cached: every body of a run fits the same data, so it checks the
    # same parameters on the same grid
    from scipy.integrate import solve_ivp

    sol = solve_ivp(_rhs, (0.0, times[-1]), INITIAL_STATE, method="DOP853",
                    t_eval=times, rtol=1e-11, atol=1e-11, args=params)
    if not sol.success:
        raise ValueError(f"reference solve failed at {params}: {sol.message}")
    return sol.y[(0, 2, 4), :].T


def read_observations(path: Path) -> tuple[np.ndarray, np.ndarray]:
    header, rows = _read_rows(path)
    if header != ["t", "m1", "m2", "m3"]:
        raise ValueError(f"{path}: unexpected header {header}")
    data = np.array(rows, dtype=np.float64)
    return data[:, 0], data[:, 1:]


def mean_distance(observed: np.ndarray, simulated: np.ndarray) -> float:
    return float(np.mean(np.sqrt(np.sum((observed - simulated) ** 2, axis=1))))


def repressilator_fit(outdir: Path, n: int, generations: int, noise_std: float,
                      obs_end: float, obs_count: int, bounds) -> list:
    """Problems with one ``revde run --problem repressilator`` output."""
    try:
        manifest = _read_manifest(outdir)
        times, observed = read_observations(outdir / "observations.csv")
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    run = manifest["runs"]["revde"]
    total = expected_evaluations(n, generations, "revde")
    if run["evaluations_per_run"] != total:
        problems.append(f"accounting {run['evaluations_per_run']} evals, expected {total}")
    if not np.allclose(times, np.linspace(0.0, obs_end, obs_count), rtol=0, atol=1e-12):
        problems.append("observation times are not the configured grid")
        return problems

    best = np.asarray(run["best_params"], dtype=np.float64)
    lower, upper = (np.asarray(b, dtype=np.float64) for b in bounds)
    if best.shape != (4,) or np.any(best < lower) or np.any(best > upper):
        problems.append(f"best_params {best.tolist()} outside the box")
        return problems
    claimed = run["final_best"][0]
    try:
        recomputed = mean_distance(observed, simulate_mrna(best, times))
    except ValueError as exc:
        problems.append(str(exc))
    else:
        if not _close(recomputed, claimed, rel=FIT_RTOL, abs_=0.0):
            problems.append(f"final_best {claimed!r} but DOP853 at best_params gives {recomputed!r}")

    residual = (observed - simulate_mrna(TRUE_PARAMS, times)).ravel()
    k = residual.size
    sd = float(np.std(residual, ddof=1))
    if abs(sd - noise_std) > NOISE_Z * noise_std / math.sqrt(2.0 * (k - 1)):
        problems.append(f"residual std {sd:.4g} at TRUE_PARAMS is inconsistent with sigma={noise_std}")
    if abs(float(residual.mean())) > NOISE_Z * noise_std / math.sqrt(k):
        problems.append(f"residual mean {residual.mean():.4g} at TRUE_PARAMS is not centred")
    return problems


# ----------------------------------------------------------------------
# mlp-fit
# ----------------------------------------------------------------------

HIDDEN, INPUT, OUTPUT = 20, 196, 10


def pool_2x2(images_u8: np.ndarray) -> np.ndarray:
    """(N, 28, 28) uint8 -> (N, 196) mean of each 2x2 block, scaled to [0, 1]."""
    blocks = images_u8.astype(np.int64).reshape(-1, 14, 2, 14, 2).sum(axis=(2, 4))
    return blocks.reshape(-1, INPUT) / (4.0 * 255.0)


def training_error(weights: np.ndarray, images: np.ndarray, labels: np.ndarray) -> float:
    """Explicit 196-20-10 ReLU forward pass without biases.

    The argmax keeps the lowest class on ties (softmax is monotone, so
    it is taken on the logits).
    """
    w1 = weights[: HIDDEN * INPUT].reshape(HIDDEN, INPUT)
    w2 = weights[HIDDEN * INPUT:].reshape(OUTPUT, HIDDEN)
    wrong = 0
    for image, label in zip(images, labels):
        hidden = np.maximum(w1 @ image, 0.0)
        logits = w2 @ hidden
        best = 0
        for c in range(1, OUTPUT):
            if logits[c] > logits[best]:
                best = c
        wrong += best != label
    return wrong / len(labels)


def mlp_dataset(pixels: np.ndarray, labels: np.ndarray, images_u8, labels_u8) -> list:
    """Problems with a loaded+prepared dataset against the generated arrays."""
    want = pool_2x2(images_u8)
    if pixels.shape != want.shape or not np.allclose(pixels, want, rtol=0, atol=1e-12):
        return ["prepared pixels differ from 2x2 pooling of the generated images"]
    if not np.array_equal(labels, labels_u8.astype(np.int64)):
        return ["loaded labels differ from the generated labels"]
    return []


def mlp_fit(weights: np.ndarray, final_best: float, evaluations: int, n: int,
            generations: int, best_trace: np.ndarray, images: np.ndarray,
            labels: np.ndarray) -> list:
    """Problems with one engine.run result on the mlp-fit objective."""
    problems = []
    total = expected_evaluations(n, generations, "revde")
    if evaluations != total or best_trace.size != total:
        problems.append(f"accounting {evaluations} evals / {best_trace.size} trace, expected {total}")
    if np.any(np.diff(best_trace) > 0.0) or best_trace.min() < 0.0 or best_trace.max() > 1.0:
        problems.append("trace is not a non-increasing error in [0, 1]")
    if weights.shape != (HIDDEN * INPUT + OUTPUT * HIDDEN,) or np.any(np.abs(weights) > 1.0):
        problems.append(f"best weights have shape {weights.shape} or leave the [-1, 1] box")
        return problems
    recomputed = training_error(weights, images, labels)
    if recomputed != final_best:
        problems.append(f"final_best {final_best!r} but the forward pass gives {recomputed!r}")
    return problems
