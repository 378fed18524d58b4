"""Command-line entry point.

Two subcommands:

  revde run <config> [flags]     execute an experiment described by a flat
                                 key=value config file; flags override file
                                 values, which override the defaults
  revde analyze [--f-max --f-step --out]
                                 emit the eigenvalue/determinant table for
                                 both transform matrices as CSV

Experiments build one objective per problem, run every method on it, and
write per-method trace CSVs, one aligned summary CSV, and a
manifest.json (resolved config, seeds, wall time, library version) into
the output directory.  The manifest is written even when the experiment
fails mid-way; every CSV is written atomically.

The methods share no state, so ``_util.fork_map`` (rules there) deals
them over ``method_processes`` = ``_util.split_processes(methods)``
processes, a planned count, for every problem.  A share runs its
methods and returns their results, or returns, not raises, a failure;
it writes no file.  The caller writes every file, the traces, the
summary, the params CSVs and the manifest, in method order, and raises
the first failure, so every output is the serial run's.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from ._util import atomic_write_text, fork_map, row_numbers, split_processes, write_csv
from .benchmarks import BENCHMARK_NAMES, check_griewank_standard, get_benchmark
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

PROBLEMS = ("benchmark", "repressilator", "mlp")
METHOD_ORDER = (Method.DE, Method.DEX3, Method.ADE, Method.REVDE)

# mixes the experiment seed into the observation-noise stream so that
# per-repeat optimizer seeds (seed+r) never collide with it
OBS_SEED_TAG = 0xB5ED

_MAX_GRID_STEPS = 100_000   # per matrix kind in `revde analyze`, whose rows stay in memory


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


def _cast_methods(raw: str) -> tuple:
    val = raw.strip().lower()
    if val == "all":
        return METHOD_ORDER
    out = []
    for part in val.split(","):
        method = Method.from_string(part)
        if method in out:
            raise ValueError(f"method {part.strip()!r} listed twice")
        out.append(method)
    return tuple(out)


def _cast_pair(raw: str) -> tuple:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'low,high', got {raw!r}")
    lo, hi = (float(p) for p in parts)
    if not lo < hi:
        raise ValueError(f"expected low < high, got {raw!r}")
    return (lo, hi)


# range checks: (predicate on the cast value, what it asks for)
def _at_least(low):
    return (lambda v: v >= low, f">= {low}")


_POSITIVE = (lambda v: math.isfinite(v) and v > 0, "positive and finite")
_NON_NEGATIVE = (lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")
# the repressilator's parameters are rates and a Hill exponent: never negative
_PARAM_RANGE = (lambda v: all(map(math.isfinite, v)) and v[0] >= 0, "finite with low >= 0")


def _key(default, cast, help, *, key=None, check=None):
    """A config key: the field's default, the caster that reads its text
    from a config file or flag, its help text, and an optional range
    check.  ``key`` is given where it differs from the field name."""
    metadata = {"cast": cast, "help": help, "check": check}
    if key is not None:
        metadata["key"] = key
    return field(default=default, metadata=metadata)


def _bounds_key(i, name):
    """Search range of parameter ``i``, by default the library's box."""
    box = rep_mod.DEFAULT_PARAM_BOUNDS
    return _key((float(box.lower[i]), float(box.upper[i])), _cast_pair,
                f"search range 'low,high' for {name}", check=_PARAM_RANGE)


@dataclass
class ExperimentConfig:
    """Every ``revde run`` setting; each field is one config key and one flag."""

    problem: str = _key("", str.strip, f"one of {', '.join(PROBLEMS + BENCHMARK_NAMES)}; "
                         "a benchmark name implies problem = benchmark")
    methods: tuple = _key(METHOD_ORDER, _cast_methods, "comma list of de,dex3,ade,revde or 'all'")
    population_size: int = _key(500, _cast_int, "population size", key="n", check=_at_least(4))
    generations: int = _key(150, _cast_int, "generations", check=_at_least(1))
    f: float = _key(0.5, _cast_float, "scaling factor F", check=_POSITIVE)
    crossover_rate: float = _key(0.9, _cast_float, "crossover rate", key="p",
                                 check=(lambda v: 0 < v <= 1, "in (0, 1]"))
    seed: int = _key(0, _cast_int, "base seed; repeat r uses seed + r", check=_at_least(0))
    repeats: int = _key(10, _cast_int, "independent repeats", check=_at_least(1))
    output_dir: str = _key("revde-output", str.strip, "output directory")
    budget_match: bool = _key(True, _cast_bool,
                              "triple DE's generation count beside a triplet method")
    # benchmark
    benchmark: str = _key("", str.strip, "benchmark function name")
    dim: int = _key(10, _cast_int, "benchmark dimensionality", check=_at_least(1))
    griewank_standard: bool = _key(False, _cast_bool,
                                   "use the conventional quadratic Griewank sum term")
    # repressilator
    noise_std: float = _key(5.0, _cast_float, "observation noise std", check=_NON_NEGATIVE)
    obs_end: float = _key(40.0, _cast_float, "last observation time", check=_POSITIVE)
    obs_count: int = _key(40, _cast_int, "number of observation times", check=_at_least(1))
    observations: str = _key("", str.strip, "load observations from CSV (t,m1,m2,m3)")
    alpha0_bounds: tuple = _bounds_key(0, "alpha0")
    n_bounds: tuple = _bounds_key(1, "n")
    beta_bounds: tuple = _bounds_key(2, "beta")
    alpha_bounds: tuple = _bounds_key(3, "alpha")
    # mlp
    train_images: str = _key("", str.strip, "training images (IDX, gzip allowed)")
    train_labels: str = _key("", str.strip, "training labels (IDX, gzip allowed)")
    test_images: str = _key("", str.strip, "held-out images (IDX, gzip allowed)")
    test_labels: str = _key("", str.strip, "held-out labels (IDX, gzip allowed)")
    train_size: int = _key(2000, _cast_int, "training images used", check=_at_least(1))
    shuffle_seed: int = _key(-1, _cast_int, "training-set shuffle seed; -1 keeps file order")


# config key -> field, in field order
_FIELDS = {spec.metadata.get("key", spec.name): spec for spec in fields(ExperimentConfig)}


def _read_config_file(path) -> dict:
    raw = {}
    seen_lines = {}
    with open(path, "rb") as fh:
        data = fh.read()
    for lineno, line in enumerate(data.splitlines(), start=1):
        try:
            text = line.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"{path}:{lineno}: not valid UTF-8 (byte {exc.start + 1} of the line)"
            ) from None
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip().lower()
        if key not in _FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(
                f"{path}:{lineno}: duplicate key {key!r} (first set on line {seen_lines[key]})"
            )
        raw[key] = (value.strip(), f"{path}:{lineno}")
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
        if isinstance(value, str) and not value.strip():
            raise ConfigError(f"{where}: empty value for {key!r}")
        spec = _FIELDS[key]
        try:
            cast = spec.metadata["cast"](value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{where}: {exc}") from None
        check = spec.metadata["check"]
        if check is not None and not check[0](cast):
            raise ConfigError(f"{where}: {spec.name} must be {check[1]}, got {value}")
        setattr(config, spec.name, cast)

    _validate(config, {key: where for key, (_, where) in merged.items()})
    return config


def _validate(config: ExperimentConfig, sources: dict) -> None:
    """Checks that span keys; ``sources`` maps each key set to where it was set."""

    def invalid(key, message):
        where = sources.get(key)
        return ConfigError(f"{where}: {message}" if where else message)

    if not config.problem:
        raise ConfigError("missing required key 'problem' (config file or --problem)")
    problem = config.problem.lower()
    # shorthand: a benchmark name given directly as the problem
    if problem in BENCHMARK_NAMES:
        if config.benchmark and config.benchmark.lower() != problem:
            raise invalid("benchmark", f"benchmark {config.benchmark!r} conflicts with "
                                       f"problem {config.problem!r}")
        config.benchmark = problem
        problem = "benchmark"
    if problem not in PROBLEMS:
        raise invalid("problem", f"unknown problem {config.problem!r}; expected one of "
                                 f"{', '.join(PROBLEMS)} or a benchmark name")
    config.problem = problem

    for method in config.methods:
        try:
            _run_config(config, method)
        except ValueError as exc:
            # the per-key checks leave dex3's population floor and an f
            # that overflows a triplet operator
            key = "f" if method.matrix_kind else "n" if "n" in sources else "methods"
            raise invalid(key, str(exc)) from None

    if problem == "benchmark":
        if not config.benchmark:
            raise invalid("problem", "benchmark problem needs 'benchmark = <name>' or --benchmark")
        try:
            # the name's check and key; a 1-D lookup builds no dim-sized box
            config.benchmark = get_benchmark(config.benchmark, 1).name
        except ValueError as exc:
            raise invalid("benchmark", str(exc)) from None
    try:
        check_griewank_standard(config.benchmark if problem == "benchmark" else problem,
                                config.griewank_standard)
    except ValueError as exc:
        raise invalid("griewank_standard", str(exc)) from None
    if problem == "mlp":
        if not (config.train_images and config.train_labels):
            raise invalid("problem", "mlp problem needs --train-images and --train-labels")
        if bool(config.test_images) != bool(config.test_labels):
            key = "test_images" if config.test_images else "test_labels"
            raise invalid(key, "a held-out set needs both --test-images and --test-labels")


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


def _write_combined_summary(summaries: dict, path, numbers=None) -> None:
    """One CSV aligned on raw evaluation index across all methods; a
    shorter method's cells are empty past its last evaluation."""
    numbers = numbers or row_numbers(max(s.mean.size for s in summaries.values()))
    header = ["evaluation"]
    columns = []
    for m, s in summaries.items():
        header += [f"{m.value}_mean", f"{m.value}_std"]
        columns += [s.mean, s.std]
    write_csv(path, ",".join(header), numbers, columns)


def _write_eigen_csv(path, f_max: float, f_step: float) -> None:
    header = "kind,F,re1,im1,abs1,re2,im2,abs2,re3,im3,abs3,det"
    labels, rows = [], []
    count = int(round(f_max / f_step))
    for kind in (MatrixKind.ADE_M, MatrixKind.REVDE_R):
        for i in range(1, count + 1):
            f = i * f_step
            if f > f_max + 1e-12:
                break
            m = build_matrix(kind, f)
            row = [f]
            for z in eigen_report(m):
                row += [z.real, z.imag, abs(z)]
            row.append(determinant(m))
            labels.append(kind.name)
            rows.append(row)
    write_csv(path, header, labels, np.array(rows).T)


def _show(value) -> str:
    """A default as it would be written in a config file."""
    if isinstance(value, tuple):   # the methods or a bounds pair
        return ",".join(v.value if isinstance(v, Method) else str(v) for v in value)
    return str(value)


def _run_method_suite(config: ExperimentConfig, objective: Objective, outdir: Path,
                      manifest: dict, keep_history: bool = False):
    """Shared benchmark/repressilator/mlp loop: traces and summaries.

    Every method runs on ``objective`` in the process of its share, which
    returns its result and touches no file.  The caller writes every
    trace and records the methods in order, and raises the first failure,
    as a serial run would.
    """
    # the evaluation labels of every trace and of the summary, built once
    numbers = row_numbers(max(_run_config(config, m).total_evaluations for m in config.methods))

    def run_share(methods: list) -> list:
        """(traces, summary) per method; a failure ends the share."""
        done = []
        for method in methods:
            try:
                done.append(run_repeated(_run_config(config, method), objective,
                                         config.repeats, keep_history=keep_history))
            except Exception as exc:
                return done + [exc] * (len(methods) - len(done))
        return done

    summaries = {}
    results = {}
    shares = fork_map(run_share, list(config.methods), manifest["method_processes"])
    for method, result in zip(config.methods, shares):
        if isinstance(result, Exception):
            raise result
        traces, summary = result
        trace_path = outdir / f"trace_{method.value}.csv"
        write_trace_csv(traces[0], trace_path, numbers)
        manifest["outputs"].append(trace_path.name)
        run_cfg = _run_config(config, method)
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
    _write_combined_summary(summaries, summary_path, numbers)
    manifest["outputs"].append(summary_path.name)
    return results


def run_experiment(config: ExperimentConfig) -> int:
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": __version__,
        "problem": config.problem,
        "config": asdict(config),
        "outputs": [],
        "runs": {},
        "error": None,
        "method_processes": split_processes(len(config.methods)),
    }
    started = time.perf_counter()
    try:
        if config.problem == "benchmark":
            bench = get_benchmark(
                config.benchmark, config.dim, griewank_standard=config.griewank_standard
            )
            objective = Objective(bench.batch, BoxBounds(bench.lower, bench.upper))
            _run_method_suite(config, objective, outdir, manifest)

        elif config.problem == "repressilator":
            times = np.linspace(0.0, config.obs_end, config.obs_count)
            if config.observations:
                obs = rep_mod.read_observations_csv(config.observations)
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

            # (low, high) pairs in parameter order, transposed to (lower, upper)
            bounds = BoxBounds(*np.transpose([config.alpha0_bounds, config.n_bounds,
                                              config.beta_bounds, config.alpha_bounds]))
            objective = rep_mod.make_fit_objective(obs, bounds=bounds)
            # processes the fit spreads the largest generation's batch over
            manifest["fit_processes"] = split_processes(max(
                config.population_size * m.offspring_per_slot for m in config.methods))

            results = _run_method_suite(
                config, objective, outdir, manifest, keep_history=True
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
            if config.test_images:
                test = mlp_mod.prepare_dataset(
                    mlp_mod.load_idx(config.test_images, config.test_labels)
                )
            results = _run_method_suite(config, mlp_mod.make_error_objective(train),
                                        outdir, manifest)
            if test is not None:
                for method, traces in results.items():
                    best = [t.final_population.members[t.final_population.best_index()]
                            for t in traces]
                    errors = mlp_mod.classification_error_batch(best, test).tolist()
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
        # Methods, the manifest's one non-JSON type, are written as their names
        text = json.dumps(manifest, indent=2, default=lambda method: method.value)
        atomic_write_text(outdir / "manifest.json", text + "\n")


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
    for key, spec in _FIELDS.items():
        name, default, text = key.replace("_", "-"), spec.default, spec.metadata["help"]
        if isinstance(default, bool):
            # the flag flips the default; its value goes through the key's caster
            run_p.add_argument(f"--no-{name}" if default else f"--{name}", dest=key,
                               action="store_const", const=str(not default).lower(),
                               help=f"turn {'off' if default else 'on'} {key}: {text}")
        else:
            shown = _show(default)
            run_p.add_argument(f"--{name}", dest=key,
                               help=f"{text} (default {shown})" if shown else text)

    an_p = sub.add_parser("analyze", help="emit the eigenvalue/determinant table")
    an_p.add_argument("--f-max", dest="f_max", type=float, default=2.0)
    an_p.add_argument("--f-step", dest="f_step", type=float, default=0.015625)
    an_p.add_argument("--out", default="eigen.csv")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    # a bad config or argument, or an output path that cannot be written
    try:
        if args.command == "run":
            overrides = {key: value for key, value in vars(args).items() if key in _FIELDS}
            return run_experiment(parse_config(args.config, overrides))
        if not (math.isfinite(args.f_step) and args.f_step > 0):
            raise ConfigError("--f-step must be positive and finite")
        if not (math.isfinite(args.f_max) and args.f_max >= args.f_step):
            raise ConfigError("--f-max must be finite and at least one --f-step")
        if not args.f_max / args.f_step <= _MAX_GRID_STEPS:   # an overflow is inf
            raise ConfigError(f"--f-max / --f-step must be at most {_MAX_GRID_STEPS} "
                              f"grid steps, got {args.f_max / args.f_step:g}")
        _write_eigen_csv(args.out, args.f_max, args.f_step)
        return 0
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
