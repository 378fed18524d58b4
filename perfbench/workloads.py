"""The three benchmark workloads.

Each workload builds its inputs from the run's seed once (``setup``),
then runs rounds: one ``body`` call runs the optimisation body on those
inputs and returns its wall time plus whatever ``check`` needs to verify
the outputs afterwards.  Every body of a run does the same work, so the
fastest of them measures the program rather than the other tenants of a
shared host.  ``check`` returns one problem list per operation (one
optimisation run: one method x one seed), and ``bytes_written`` the
bytes one round wrote to disk.

Importing this module imports revde, so ``run.py`` imports it inside the
set-up timer.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

import revde.cli
import revde.engine
import revde.mlp
import revde.repressilator

import idxgen
import oracles


def _write_config(path: Path, entries: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
    return path


def _cli_body(config: Path, flags: list, outdir: Path) -> tuple[float, Path]:
    argv = ["run", str(config), *flags, "--output-dir", str(outdir)]
    start = time.perf_counter()
    revde.cli.main(argv)        # failures land in manifest.json; check() reads it
    return time.perf_counter() - start, outdir


def _output_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())


class RastriginSuite:
    """``revde run`` on Rastrigin, all four methods, budget-matched."""

    name = "rastrigin-suite"
    calibration = ("interpreter", "small_arrays")   # host-speed calibration kernels (run.py)
    methods = ("de", "dex3", "ade", "revde")

    def __init__(self, dim=10, n=100, generations=25, repeats=1):
        self.dim, self.n, self.generations, self.repeats = dim, n, generations, repeats
        self.ops_per_round = len(self.methods) * repeats
        runs = {m: oracles.budget_generations(generations, m, self.methods) for m in self.methods}
        self.evaluations_per_round = repeats * sum(
            oracles.expected_evaluations(n, g, m) for m, g in runs.items())
        self.offspring_per_round = self.evaluations_per_round - repeats * len(self.methods) * n

    def setup(self, workdir: Path, seed: int) -> None:
        self.seed = seed
        self.config = _write_config(workdir / "rastrigin.cfg", {
            "problem": "rastrigin", "dim": self.dim, "n": self.n,
            "generations": self.generations, "f": 0.5, "p": 0.9,
            "repeats": self.repeats, "methods": ",".join(self.methods),
        })

    def body(self, outdir: Path):
        return _cli_body(self.config, ["--seed", str(self.seed)], outdir)

    def check(self, outdir: Path) -> list:
        problems = oracles.rastrigin_suite(
            outdir, self.n, self.generations, self.repeats, self.methods)
        return list(problems.values())

    bytes_written = staticmethod(_output_bytes)


class RepressilatorFit:
    """``revde run --problem repressilator --methods revde --repeats 1``.

    The seed draws the noisy observations, which set-up writes to a CSV
    that the config names.  The optimiser seed is the same in every run,
    so every run solves the same candidates: one solve costs from 5 to
    190 ms depending on the candidate, and the cost of 160 candidates
    drawn afresh varied by a fifth (quartile spread) from seed to seed.
    """

    name = "repressilator-fit"
    calibration = ("small_arrays",)
    noise_std, obs_end, obs_count = 5.0, 40.0, 40
    bounds = ((0.01, 0.1, 0.1, 1.0), (10.0, 10.0, 20.0, 2000.0))   # alpha0, n, beta, alpha
    optimiser_seed = 0
    observation_seed_tag = 0x0B5

    def __init__(self, n=5, generations=1):
        self.n, self.generations = n, generations
        self.ops_per_round = 1
        self.evaluations_per_round = oracles.expected_evaluations(n, generations, "revde")
        self.offspring_per_round = self.evaluations_per_round - n

    def setup(self, workdir: Path, seed: int) -> None:
        observations = revde.repressilator.generate_observations(
            revde.repressilator.TRUE_PARAMS,
            times=np.linspace(0.0, self.obs_end, self.obs_count), noise_std=self.noise_std,
            rng=np.random.default_rng(np.random.SeedSequence([seed, self.observation_seed_tag])))
        obs_path = workdir / "observations.csv"
        obs_path.parent.mkdir(parents=True, exist_ok=True)
        revde.repressilator.write_observations_csv(observations, obs_path)
        lower, upper = self.bounds
        self.config = _write_config(workdir / "repressilator.cfg", {
            "n": self.n, "generations": self.generations, "f": 0.5, "p": 0.9,
            "noise_std": self.noise_std, "obs_end": self.obs_end, "obs_count": self.obs_count,
            "observations": obs_path,
            **{f"{key}_bounds": f"{lo},{hi}"
               for key, lo, hi in zip(("alpha0", "n", "beta", "alpha"), lower, upper)},
        })

    def body(self, outdir: Path):
        flags = ["--problem", "repressilator", "--methods", "revde", "--repeats", "1",
                 "--seed", str(self.optimiser_seed)]
        return _cli_body(self.config, flags, outdir)

    def check(self, outdir: Path) -> list:
        return [oracles.repressilator_fit(outdir, self.n, self.generations, self.noise_std,
                                          self.obs_end, self.obs_count, self.bounds)]

    bytes_written = staticmethod(_output_bytes)


class MlpFit:
    """IDX files -> load_idx -> prepare_dataset -> make_error_objective -> engine.run."""

    name = "mlp-fit"
    calibration = ("interpreter", "blas")

    def __init__(self, n=50, generations=5, train=2000, test=500):
        self.n, self.generations, self.train_size, self.test_size = n, generations, train, test
        self.ops_per_round = 1
        self.evaluations_per_round = oracles.expected_evaluations(n, generations, "revde")
        self.offspring_per_round = self.evaluations_per_round - n

    def setup(self, workdir: Path, seed: int) -> None:
        self.seed = seed
        self.generated = idxgen.generate(workdir / "idx", seed, self.train_size, self.test_size)
        paths = self.generated["paths"]
        raw = revde.mlp.load_idx(paths["train_images"], paths["train_labels"])    # gzip
        self.train = revde.mlp.prepare_dataset(raw, train_size=self.train_size)
        self.test = revde.mlp.prepare_dataset(                                   # plain
            revde.mlp.load_idx(paths["test_images"], paths["test_labels"]))

    def body(self, outdir: Path):
        objective = revde.mlp.make_error_objective(self.train)
        config = revde.engine.RunConfig(method=revde.engine.Method.REVDE, population_size=self.n,
                                        generations=self.generations, f=0.5,
                                        crossover_rate=0.9, seed=self.seed)
        start = time.perf_counter()
        trace = revde.engine.run(config, objective)
        wall = time.perf_counter() - start
        final = trace.final_population
        return wall, (final.members[final.best_index()].copy(), trace.final_best,
                      trace.evaluations, trace.best_objective)

    def check(self, result) -> list:
        weights, final_best, evaluations, best_trace = result
        problems = [f"{split}: {p}" for split, data in (("train", self.train), ("test", self.test))
                    for p in oracles.mlp_dataset(data.images, data.labels, *self.generated[split])]
        images, labels = self.generated["train"]
        return [problems + oracles.mlp_fit(
            weights, final_best, evaluations, self.n, self.generations, best_trace,
            oracles.pool_2x2(images), labels.astype(np.int64))]

    @staticmethod
    def bytes_written(_result) -> int:
        return 0


WORKLOADS = {w.name: w for w in (RastriginSuite, RepressilatorFit, MlpFit)}
