"""Command-line entry point.

Two subcommands:

  revde run <config> [flags]     execute an experiment described by a flat
                                 key=value config file; flags override file
                                 values, which override the defaults
  revde analyze [--f-max --f-step --out]
                                 emit the eigenvalue/determinant table for
                                 both transform matrices as CSV

Experiments write per-method trace CSVs, one aligned summary CSV, and a
manifest.json (resolved config, seeds, wall time, library version) into
the output directory.  The manifest is written even when the experiment
fails mid-way; every CSV is written atomically.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, fields
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__
from ._util import atomic_write_text, fmt_column, fmt_float, write_csv_columns
from .benchmarks import BENCHMARK_NAMES, get_benchmark
from .engine import (
    BoxBounds,
    Method,
    Objective,
    RunConfig,
    run_repeated,
    write_trace_csv,
)
from .transforms import MatrixKind, build_matrix, determinant, eigen_report
from . import mlp as mlp_mod
from . import repressilator as rep_mod

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "run_experiment", "main"]

PROBLEMS = ("benchmark", "repressilator", "mlp", "analysis")
METHOD_ORDER = (Method.DE, Method.DEX3, Method.ADE, Method.REVDE)

# mixes the experiment seed into the observation-noise stream so that
# per-repeat optimizer seeds (seed+r) never collide with it
OBS_SEED_TAG = 0xB5ED


class ConfigError(ValueError):
    """Invalid configuration, with file/line or flag context."""


def _cast_bool(raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _cast_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _cast_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None


def _cast_methods(raw) -> tuple:
    if isinstance(raw, (list, tuple)):
        return tuple(raw)
    val = raw.strip().lower()
    if val == "all":
        return METHOD_ORDER
    out = []
    for part in val.split(","):
        method = Method.from_string(part)
        if method in out:
            raise ValueError(f"method {part.strip()!r} listed twice")
        out.append(method)
    if not out:
        raise ValueError("methods must not be empty")
    return tuple(out)


def _cast_pair(raw) -> tuple:
    if isinstance(raw, tuple):
        return raw
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'low,high', got {raw!r}")
    lo, hi = (float(p) for p in parts)
    if not lo < hi:
        raise ValueError(f"expected low < high, got {raw!r}")
    return (lo, hi)


@dataclass
class ExperimentConfig:
    problem: str = ""
    methods: tuple = METHOD_ORDER
    population_size: int = 500
    generations: int = 150
    f: float = 0.5
    crossover_rate: float = 0.9
    seed: int = 0
    repeats: int = 10
    output_dir: str = "revde-output"
    budget_match: bool = True
    # benchmark
    benchmark: str = ""
    dim: int = 10
    griewank_standard: bool = False
    # repressilator
    noise_std: float = 5.0
    obs_end: float = 40.0
    obs_count: int = 40
    observations: str = ""
    alpha0_bounds: tuple = (0.01, 10.0)
    n_bounds: tuple = (0.1, 10.0)
    beta_bounds: tuple = (0.1, 20.0)
    alpha_bounds: tuple = (1.0, 2000.0)
    # mlp
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    train_size: int = 2000
    shuffle_seed: int = -1          # -1 = keep file order
    # analysis
    f_max: float = 2.0
    f_step: float = 0.015625


# key -> caster; every config-file key and its flag twin go through these
_CASTERS = {
    "problem": str.strip,
    "methods": _cast_methods,
    "n": _cast_int,
    "generations": _cast_int,
    "f": _cast_float,
    "p": _cast_float,
    "seed": _cast_int,
    "repeats": _cast_int,
    "output_dir": str.strip,
    "budget_match": _cast_bool,
    "benchmark": str.strip,
    "dim": _cast_int,
    "griewank_standard": _cast_bool,
    "noise_std": _cast_float,
    "obs_end": _cast_float,
    "obs_count": _cast_int,
    "observations": str.strip,
    "alpha0_bounds": _cast_pair,
    "n_bounds": _cast_pair,
    "beta_bounds": _cast_pair,
    "alpha_bounds": _cast_pair,
    "train_images": str.strip,
    "train_labels": str.strip,
    "test_images": str.strip,
    "test_labels": str.strip,
    "train_size": _cast_int,
    "shuffle_seed": _cast_int,
    "f_max": _cast_float,
    "f_step": _cast_float,
}

# config keys whose dataclass field is named differently
_FIELD_NAMES = {"n": "population_size", "p": "crossover_rate"}


def _read_config_file(path) -> dict:
    raw = {}
    seen_lines = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
            key, _, value = text.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key not in _CASTERS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in raw:
                raise ConfigError(
                    f"{path}:{lineno}: duplicate key {key!r} (first set on line {seen_lines[key]})"
                )
            if not value:
                raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
            raw[key] = (value, f"{path}:{lineno}")
            seen_lines[key] = lineno
    return raw


def parse_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Merge defaults <- config file <- flag overrides, then validate."""
    merged = {}
    if path is not None:
        merged.update(_read_config_file(path))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        merged[key] = (value, f"flag --{key.replace('_', '-')}")

    config = ExperimentConfig()
    for key, (value, where) in merged.items():
        try:
            cast = _CASTERS[key](value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{where}: {exc}") from None
        setattr(config, _FIELD_NAMES.get(key, key), cast)

    _validate(config)
    return config


def _validate(config: ExperimentConfig) -> None:
    if not config.problem:
        raise ConfigError("missing required key 'problem' (config file or --problem)")
    problem = config.problem.lower()
    # shorthand: a benchmark name given directly as the problem
    if problem in BENCHMARK_NAMES:
        config.benchmark = problem
        problem = "benchmark"
    if problem not in PROBLEMS:
        raise ConfigError(
            f"unknown problem {config.problem!r}; expected one of "
            f"{', '.join(PROBLEMS)} or a benchmark name"
        )
    config.problem = problem
    if isinstance(config.methods, str):
        config.methods = _cast_methods(config.methods)

    if config.population_size < 4:
        raise ConfigError(f"n must be >= 4, got {config.population_size}")
    if Method.DEX3 in config.methods and config.population_size < 7:
        raise ConfigError("dex3 requires n >= 7 (seven distinct indices per slot)")
    if config.generations < 1:
        raise ConfigError(f"generations must be >= 1, got {config.generations}")
    if not (config.f > 0):
        raise ConfigError(f"f must be positive, got {config.f}")
    if not (0.0 < config.crossover_rate <= 1.0):
        raise ConfigError(f"p must be in (0, 1], got {config.crossover_rate}")
    if config.repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {config.repeats}")

    if problem == "benchmark":
        if not config.benchmark:
            raise ConfigError("benchmark problem needs 'benchmark = <name>' or --benchmark")
        if config.benchmark.lower() not in BENCHMARK_NAMES:
            raise ConfigError(
                f"unknown benchmark {config.benchmark!r}; expected one of "
                f"{', '.join(BENCHMARK_NAMES)}"
            )
        config.benchmark = config.benchmark.lower()
        if config.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {config.dim}")
    elif problem == "repressilator":
        if config.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {config.noise_std}")
        if config.obs_count < 1:
            raise ConfigError(f"obs_count must be >= 1, got {config.obs_count}")
        if config.obs_end <= 0:
            raise ConfigError(f"obs_end must be positive, got {config.obs_end}")
    elif problem == "mlp":
        if not config.train_images or not config.train_labels:
            raise ConfigError("mlp problem needs --train-images and --train-labels")
        if config.train_size < 1:
            raise ConfigError(f"train_size must be >= 1, got {config.train_size}")
    elif problem == "analysis":
        if config.f_step <= 0:
            raise ConfigError(f"f_step must be positive, got {config.f_step}")
        if config.f_max < config.f_step:
            raise ConfigError("f_max must be at least one f_step")


# ----------------------------------------------------------------------
# experiment execution
# ----------------------------------------------------------------------

def _method_generations(config: ExperimentConfig, method: Method) -> int:
    """DE gets 3x the generations when compared against a triplet method."""
    if (
        config.budget_match
        and method is Method.DE
        and any(m is not Method.DE for m in config.methods)
    ):
        return config.generations * 3
    return config.generations


def _run_config(config: ExperimentConfig, method: Method) -> RunConfig:
    return RunConfig(
        method=method,
        population_size=config.population_size,
        generations=_method_generations(config, method),
        f=config.f,
        crossover_rate=config.crossover_rate,
        seed=config.seed,
    )


def _write_combined_summary(summaries: dict, path) -> None:
    """One CSV aligned on raw evaluation index across all methods."""
    total = int(max(s.evaluation_index[-1] for s in summaries.values()))
    header = ["evaluation"]
    columns = [map(str, range(1, total + 1))]
    for m, s in summaries.items():
        header += [f"{m.value}_mean", f"{m.value}_std"]
        blanks = total - s.mean.size
        columns += [chain(fmt_column(s.mean), repeat("", blanks)),
                    chain(fmt_column(s.std), repeat("", blanks))]
    write_csv_columns(path, ",".join(header), columns)


def _write_eigen_csv(path, f_max: float, f_step: float) -> None:
    header = "kind,F,re1,im1,abs1,re2,im2,abs2,re3,im3,abs3,det"
    lines = [header]
    count = int(round(f_max / f_step))
    for kind in (MatrixKind.ADE_M, MatrixKind.REVDE_R):
        for i in range(1, count + 1):
            f = i * f_step
            if f > f_max + 1e-12:
                break
            m = build_matrix(kind, f)
            report = eigen_report(m)
            cells = [kind.name, fmt_float(f)]
            for z in report.eigenvalues:
                cells += [fmt_float(z.real), fmt_float(z.imag), fmt_float(abs(z))]
            cells.append(fmt_float(determinant(m)))
            lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _jsonable(value):
    if isinstance(value, Method):
        return value.value
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def _config_dict(config: ExperimentConfig) -> dict:
    return {f.name: _jsonable(getattr(config, f.name)) for f in fields(config)}


def _run_method_suite(config: ExperimentConfig, make_objective, outdir: Path, manifest: dict, keep_history: bool = False):
    """Shared benchmark/repressilator/mlp loop: traces, summaries, accounting."""
    summaries = {}
    results = {}
    for method in config.methods:
        objective = make_objective()
        run_cfg = _run_config(config, method)
        traces, summary = run_repeated(
            run_cfg, objective, config.repeats, keep_history=keep_history
        )
        expected = run_cfg.total_evaluations * config.repeats
        if objective.evaluation_counter != expected:
            raise RuntimeError(
                f"evaluation accounting broke for {method.value}: "
                f"{objective.evaluation_counter} != {expected}"
            )
        trace_path = outdir / f"trace_{method.value}.csv"
        write_trace_csv(traces[0], trace_path)
        manifest["outputs"].append(trace_path.name)
        manifest["runs"][method.value] = {
            "generations": run_cfg.generations,
            "seeds": [config.seed + r for r in range(config.repeats)],
            "evaluations_per_run": run_cfg.total_evaluations,
            "nan_evaluations": int(sum(t.nan_evaluations for t in traces)),
            "final_best": [t.final_best for t in traces],
        }
        summaries[method] = summary
        results[method] = traces
    summary_path = outdir / "summary.csv"
    _write_combined_summary(summaries, summary_path)
    manifest["outputs"].append(summary_path.name)
    return results


def run_experiment(config: ExperimentConfig) -> int:
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": __version__,
        "problem": config.problem,
        "config": _config_dict(config),
        "outputs": [],
        "runs": {},
        "error": None,
    }
    started = time.perf_counter()
    try:
        if config.problem == "analysis":
            path = outdir / "eigen.csv"
            _write_eigen_csv(path, config.f_max, config.f_step)
            manifest["outputs"].append(path.name)

        elif config.problem == "benchmark":
            bench = get_benchmark(
                config.benchmark, config.dim, griewank_standard=config.griewank_standard
            )
            bounds = BoxBounds(bench.lower, bench.upper)

            def make_objective():
                return Objective(bench.batch, bounds, name=bench.name)

            _run_method_suite(config, make_objective, outdir, manifest)

        elif config.problem == "repressilator":
            times = np.linspace(0.0, config.obs_end, config.obs_count)
            if config.observations:
                obs = rep_mod.read_observations_csv(
                    config.observations, noise_std=config.noise_std
                )
            else:
                obs_rng = np.random.default_rng(
                    np.random.SeedSequence([config.seed, OBS_SEED_TAG])
                )
                obs = rep_mod.generate_observations(
                    rep_mod.TRUE_PARAMS,
                    times=times,
                    noise_std=config.noise_std,
                    rng=obs_rng,
                )
            obs_path = outdir / "observations.csv"
            rep_mod.write_observations_csv(obs, obs_path)
            manifest["outputs"].append(obs_path.name)

            bounds = BoxBounds(
                lower=np.array(
                    [config.alpha0_bounds[0], config.n_bounds[0],
                     config.beta_bounds[0], config.alpha_bounds[0]]
                ),
                upper=np.array(
                    [config.alpha0_bounds[1], config.n_bounds[1],
                     config.beta_bounds[1], config.alpha_bounds[1]]
                ),
            )

            def make_objective():
                return rep_mod.make_fit_objective(obs, bounds=bounds)

            results = _run_method_suite(
                config, make_objective, outdir, manifest, keep_history=True
            )
            for method, traces in results.items():
                params_path = outdir / f"params_{method.value}.csv"
                rep_mod.write_param_history_csv(traces[0].history, params_path)
                manifest["outputs"].append(params_path.name)
                best = traces[0].final_population
                manifest["runs"][method.value]["best_params"] = [
                    float(v) for v in best.members[best.best_index()]
                ]

        elif config.problem == "mlp":
            raw = mlp_mod.load_idx(config.train_images, config.train_labels)
            shuffle = None if config.shuffle_seed < 0 else config.shuffle_seed
            train = mlp_mod.prepare_dataset(
                raw, train_size=min(config.train_size, raw.count), shuffle_seed=shuffle
            )
            test = None
            if config.test_images and config.test_labels:
                test = mlp_mod.prepare_dataset(
                    mlp_mod.load_idx(config.test_images, config.test_labels)
                )

            def make_objective():
                return mlp_mod.make_error_objective(train)

            results = _run_method_suite(config, make_objective, outdir, manifest)
            if test is not None:
                for method, traces in results.items():
                    errors = []
                    for t in traces:
                        pop = t.final_population
                        weights = pop.members[pop.best_index()]
                        errors.append(mlp_mod.classification_error(weights, test))
                    manifest["runs"][method.value]["test_error"] = errors
                    manifest["runs"][method.value]["test_error_mean"] = float(
                        np.mean(errors)
                    )
        else:  # pragma: no cover - _validate guarantees a known problem
            raise RuntimeError(f"unhandled problem {config.problem!r}")
        return 0
    except Exception as exc:
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        manifest["wall_time_seconds"] = time.perf_counter() - started
        atomic_write_text(
            outdir / "manifest.json", json.dumps(manifest, indent=2) + "\n"
        )


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revde",
        description="Differential evolution with reversible transformations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("config", help="flat key=value config file (may be empty)")
    run_p.add_argument("--problem", choices=PROBLEMS + BENCHMARK_NAMES)
    run_p.add_argument("--methods", help="comma list of de,dex3,ade,revde or 'all'")
    run_p.add_argument("--n", type=int, help="population size (default 500)")
    run_p.add_argument("--generations", type=int, help="generations (default 150)")
    run_p.add_argument("--f", type=float, help="scaling factor F (default 0.5)")
    run_p.add_argument("--p", type=float, help="crossover rate (default 0.9)")
    run_p.add_argument("--seed", type=int, help="base seed (default 0)")
    run_p.add_argument("--repeats", type=int, help="independent repeats (default 10)")
    run_p.add_argument("--output-dir", dest="output_dir")
    run_p.add_argument(
        "--no-budget-match",
        dest="budget_match",
        action="store_const",
        const="false",
        help="do not triple DE's generation count",
    )
    run_p.add_argument("--benchmark", help="benchmark function name")
    run_p.add_argument("--dim", type=int, help="benchmark dimensionality (default 10)")
    run_p.add_argument(
        "--griewank-standard",
        dest="griewank_standard",
        action="store_const",
        const="true",
        help="use the conventional quadratic Griewank sum term",
    )
    run_p.add_argument("--noise-std", dest="noise_std", type=float)
    run_p.add_argument("--obs-end", dest="obs_end", type=float)
    run_p.add_argument("--obs-count", dest="obs_count", type=int)
    run_p.add_argument("--observations", help="load observations from CSV (t,m1,m2,m3)")
    run_p.add_argument("--train-images", dest="train_images")
    run_p.add_argument("--train-labels", dest="train_labels")
    run_p.add_argument("--test-images", dest="test_images")
    run_p.add_argument("--test-labels", dest="test_labels")
    run_p.add_argument("--train-size", dest="train_size", type=int)
    run_p.add_argument("--shuffle-seed", dest="shuffle_seed", type=int)
    run_p.add_argument("--f-max", dest="f_max", type=float)
    run_p.add_argument("--f-step", dest="f_step", type=float)

    an_p = sub.add_parser("analyze", help="emit the eigenvalue/determinant table")
    an_p.add_argument("--f-max", dest="f_max", type=float, default=2.0)
    an_p.add_argument("--f-step", dest="f_step", type=float, default=0.015625)
    an_p.add_argument("--out", default="eigen.csv")
    return parser


_RUN_FLAG_KEYS = (
    "problem", "methods", "n", "generations", "f", "p", "seed", "repeats",
    "output_dir", "budget_match", "benchmark", "dim", "griewank_standard",
    "noise_std", "obs_end", "obs_count", "observations",
    "train_images", "train_labels", "test_images", "test_labels",
    "train_size", "shuffle_seed", "f_max", "f_step",
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "analyze":
        if args.f_step <= 0:
            print("error: --f-step must be positive", file=sys.stderr)
            return 1
        if args.f_max < args.f_step:
            print("error: --f-max must be at least one --f-step", file=sys.stderr)
            return 1
        _write_eigen_csv(args.out, args.f_max, args.f_step)
        return 0

    overrides = {}
    for key in _RUN_FLAG_KEYS:
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    try:
        config = parse_config(args.config, overrides)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run_experiment(config)


if __name__ == "__main__":
    sys.exit(main())
