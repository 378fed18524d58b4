"""Config parsing, the two subcommands, and output-directory contracts."""

import csv
import hashlib
import json
import math
import os
import re
import signal
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revde import _util, benchmarks, cli, mlp
from revde.benchmarks import BENCHMARK_NAMES
from revde.cli import ConfigError, ExperimentConfig, main, parse_config
from revde.engine import Method, RunConfig, run_repeated
from revde.repressilator import DEFAULT_PARAM_BOUNDS


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestConfigParsing:
    def test_defaults(self, tmp_path):
        path = write_config(tmp_path, "problem = rastrigin\n")
        cfg = parse_config(path)
        assert cfg.population_size == 500
        assert cfg.generations == 150
        assert cfg.f == 0.5
        assert cfg.crossover_rate == 0.9
        assert cfg.repeats == 10
        assert cfg.budget_match is True
        assert cfg.methods == (Method.DE, Method.DEX3, Method.ADE, Method.REVDE)
        box = DEFAULT_PARAM_BOUNDS     # the library's box, pair by pair
        assert [cfg.alpha0_bounds, cfg.n_bounds, cfg.beta_bounds, cfg.alpha_bounds] == list(
            zip(box.lower.tolist(), box.upper.tolist()))

    def test_benchmark_shorthand(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, "problem = schwefel\n"))
        assert cfg.problem == "benchmark"
        assert cfg.benchmark == "schwefel"

    def test_file_values_override_defaults(self, tmp_path):
        text = (
            "# comment line\n"
            "problem = benchmark\n"
            "benchmark = griewank\n"
            "n = 32\n"
            "p = 0.5\n"
            "methods = revde,de\n"
            "budget_match = off\n"
        )
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.population_size == 32
        assert cfg.crossover_rate == 0.5
        assert cfg.methods == (Method.REVDE, Method.DE)
        assert cfg.budget_match is False

    def test_flags_override_file(self, tmp_path):
        path = write_config(tmp_path, "problem = rastrigin\nn = 64\nseed = 3\n")
        cfg = parse_config(path, {"n": 16, "f": 0.9})
        assert cfg.population_size == 16
        assert cfg.seed == 3
        assert cfg.f == 0.9

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_config(tmp_path, "problem = rastrigin\npopsize = 9\n")
        with pytest.raises(ConfigError, match=r":2: unknown key 'popsize'"):
            parse_config(path)

    def test_duplicate_key_reports_both_lines(self, tmp_path):
        path = write_config(tmp_path, "problem = rastrigin\nseed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match=r":3: duplicate key 'seed'.*line 2"):
            parse_config(path)

    def test_empty_value_rejected(self, tmp_path):
        path = write_config(tmp_path, "problem = rastrigin\nseed =\n")
        with pytest.raises(ConfigError, match=r":2: empty value"):
            parse_config(path)

    def test_bad_number_reports_source(self, tmp_path):
        path = write_config(tmp_path, "problem = rastrigin\nseed = soon\n")
        with pytest.raises(ConfigError, match=r":2: expected an integer"):
            parse_config(path)

    def test_missing_problem(self, tmp_path):
        with pytest.raises(ConfigError, match="problem"):
            parse_config(write_config(tmp_path, "n = 16\n"))

    def test_unknown_problem(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown problem"):
            parse_config(write_config(tmp_path, "problem = sudoku\n"))

    def test_negative_f_rejected(self, tmp_path):
        path = write_config(tmp_path, "problem = rastrigin\nf = -0.5\n")
        with pytest.raises(ConfigError, match="f must be positive"):
            parse_config(path)

    @pytest.mark.parametrize("method", ["de", "dex3", "ade", "revde"])
    def test_non_finite_f_rejected(self, tmp_path, capsys, method):
        cfg = write_config(tmp_path, "problem = rastrigin\nn = 8\ngenerations = 1\n")
        outdir = tmp_path / "out"
        for bad in ("inf", "nan"):
            assert run_cli("run", cfg, "--methods", method, "--f", bad,
                           "--output-dir", outdir) == 1
            assert "f must be positive and finite" in capsys.readouterr().err
        assert not outdir.exists()

    def test_f_overflowing_revde_operator_rejected(self, tmp_path, capsys):
        # R's f^3 entries are inf here, and the matmul would score NaN offspring
        text = "problem = rastrigin\nmethods = de,ade,revde\nn = 8\ngenerations = 2\nf = 1e200\n"
        cfg = write_config(tmp_path, text)
        outdir = tmp_path / "out"
        assert run_cli("run", cfg, "--output-dir", outdir) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}:5: scaling factor f = 1e+200 "
                                                  "overflows the revde operator")
        assert run_cli("run", cfg, "--f", "1e103", "--output-dir", outdir) == 1
        assert capsys.readouterr().err.startswith("error: flag --f: scaling factor f = 1e+103")
        assert not outdir.exists()
        with pytest.raises(ValueError, match="overflows the revde operator"):
            RunConfig(method=Method.REVDE, population_size=8, generations=1, f=1e200)
        # ADE's entries are +-f, finite for every finite f
        assert RunConfig(method=Method.ADE, population_size=8, generations=1, f=1e200).f == 1e200

    @pytest.mark.parametrize("method, f", [("de", "1e308"), ("revde", "5e102")])
    def test_f_overflowing_the_box_fails_the_run(self, tmp_path, capsys, method, f):
        # operator entries are finite, but a trial from the +-5 box is not
        outdir = tmp_path / "out"
        assert run_cli("run", write_config(tmp_path, ""), "--problem", "rastrigin",
                       "--methods", method, "--n", 8, "--generations", 2, "--repeats", 1,
                       "--f", f, "--output-dir", outdir) == 1
        error = json.loads((outdir / "manifest.json").read_text())["error"]
        assert error.startswith(f"ValueError: scaling factor f = {float(f)} overflows float64")
        assert "overflows float64" in capsys.readouterr().err

    def test_crossover_range(self, tmp_path):
        path = write_config(tmp_path, "problem = rastrigin\np = 1.5\n")
        with pytest.raises(ConfigError, match="crossover_rate must be in"):
            parse_config(path)

    def test_dex3_population_floor(self, tmp_path):
        path = write_config(tmp_path, "problem = rastrigin\nn = 6\n")
        with pytest.raises(ConfigError, match="dex3 needs population_size >= 7"):
            parse_config(path)
        ok = write_config(tmp_path, "problem = rastrigin\nn = 6\nmethods = revde\n",
                          name="ok.cfg")
        assert parse_config(ok).population_size == 6

    def test_duplicate_method_rejected(self, tmp_path):
        path = write_config(tmp_path, "problem = rastrigin\nmethods = de,de\n")
        with pytest.raises(ConfigError, match="listed twice"):
            parse_config(path)

    def test_benchmark_requires_name(self, tmp_path):
        with pytest.raises(ConfigError, match="benchmark problem needs"):
            parse_config(write_config(tmp_path, "problem = benchmark\n"))

    def test_mlp_requires_data_paths(self, tmp_path):
        with pytest.raises(ConfigError, match="train-images"):
            parse_config(write_config(tmp_path, "problem = mlp\n"))

    @pytest.mark.parametrize("given", ["test_images", "test_labels"])
    def test_half_held_out_pair_rejected(self, tmp_path, capsys, given):
        text = f"problem = mlp\ntrain_images = ti\ntrain_labels = tl\n{given} = x\n"
        with pytest.raises(ConfigError, match=r"exp\.cfg:4: a held-out set needs both "
                                              r"--test-images and --test-labels"):
            parse_config(write_config(tmp_path, text))
        flag = "--" + given.replace("_", "-")
        path = write_config(tmp_path, "problem = mlp\ntrain_images = ti\ntrain_labels = tl\n",
                            name="flag.cfg")
        assert run_cli("run", path, flag, "x") == 1
        assert f"flag {flag}: a held-out set needs both" in capsys.readouterr().err

    def test_pair_parsing(self, tmp_path):
        path = write_config(
            tmp_path, "problem = repressilator\nbeta_bounds = 1, 9\n"
        )
        assert parse_config(path).beta_bounds == (1.0, 9.0)
        bad = write_config(tmp_path, "problem = repressilator\nbeta_bounds = 9,1\n",
                           name="bad.cfg")
        with pytest.raises(ConfigError, match="low < high"):
            parse_config(bad)

    def test_invalid_utf8_reports_line(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_bytes(b"problem = rastrigin\nn = \xff\n")
        with pytest.raises(ConfigError, match=r"exp\.cfg:2: not valid UTF-8"):
            parse_config(path)
        assert run_cli("run", path) == 1
        assert "exp.cfg:2: not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_std_rejected(self, tmp_path, value):
        path = write_config(tmp_path, f"problem = repressilator\nnoise_std = {value}\n")
        with pytest.raises(ConfigError, match=r":2: noise_std must be finite"):
            parse_config(path)

    def test_non_finite_obs_end_rejected(self, tmp_path):
        path = write_config(tmp_path, "problem = repressilator\nobs_end = nan\n")
        with pytest.raises(ConfigError, match=r":2: obs_end must be positive and finite"):
            parse_config(path)

    def test_non_finite_bounds_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "problem = repressilator\nalpha0_bounds = -inf,inf\n")
        with pytest.raises(ConfigError, match=r":2: alpha0_bounds must be finite"):
            parse_config(cfg)
        outdir = tmp_path / "out"
        assert run_cli("run", cfg, "--output-dir", outdir) == 1
        assert not outdir.exists()      # rejected before observations.csv is written

    def test_negative_bounds_rejected(self, tmp_path, capsys):
        # no repressilator parameter may be negative; the small run keeps a
        # missed check from running the default budget
        cfg = write_config(tmp_path, "problem = repressilator\nalpha0_bounds = -5,-1\n"
                                     "n_bounds = -3,-1\nn = 6\ngenerations = 1\n"
                                     "repeats = 1\nmethods = revde\n")
        outdir = tmp_path / "out"
        assert run_cli("run", cfg, "--output-dir", outdir) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}:2: alpha0_bounds must be finite with low >= 0")
        assert not outdir.exists()

    def test_benchmark_conflicting_with_problem_rejected(self, tmp_path):
        path = write_config(tmp_path, "problem = rastrigin\nbenchmark = schwefel\n")
        with pytest.raises(ConfigError, match=r":2: benchmark 'schwefel' conflicts with "
                                              r"problem 'rastrigin'"):
            parse_config(path)
        base = write_config(tmp_path, "problem = rastrigin\n", name="base.cfg")
        with pytest.raises(ConfigError, match=r"^flag --benchmark: benchmark 'salomon'"):
            parse_config(base, {"benchmark": "salomon"})
        same = write_config(tmp_path, "problem = rastrigin\nbenchmark = Rastrigin\n",
                            name="same.cfg")
        assert parse_config(same).benchmark == "rastrigin"

    @pytest.mark.parametrize("problem", ["rastrigin", "repressilator", "mlp"])
    def test_griewank_standard_needs_griewank(self, tmp_path, capsys, problem):
        cfg = write_config(tmp_path, f"problem = {problem}\ngriewank_standard = true\n")
        with pytest.raises(ConfigError, match=rf":2: griewank_standard applies to the "
                                              rf"griewank benchmark, not '{problem}'"):
            parse_config(cfg)
        outdir = tmp_path / "out"
        assert run_cli("run", "/dev/null", "--problem", problem, "--griewank-standard",
                       "--n", "8", "--generations", "1", "--repeats", "1", "--dim", "2",
                       "--output-dir", outdir) == 1
        assert capsys.readouterr().err.startswith("error: flag --griewank-standard: ")
        assert not outdir.exists()
        assert parse_config(write_config(tmp_path, "problem = griewank\n"
                                                   "griewank_standard = true\n")).griewank_standard

    @pytest.mark.parametrize("text, rule", [
        ("problem = benchmark\nbenchmark = ackley\n",
         lambda: benchmarks.get_benchmark("ackley", 2)),
        ("problem = Salomon\ngriewank_standard = true\n",
         lambda: benchmarks.get_benchmark("Salomon", 2, griewank_standard=True)),
        ("problem = mlp\ngriewank_standard = true\n",
         lambda: benchmarks.check_griewank_standard("mlp", True)),
    ])
    def test_benchmark_rules_are_the_librarys(self, tmp_path, text, rule):
        # the CLI states no benchmark rule of its own: past the location,
        # its message is the library's
        with pytest.raises(ValueError) as lib:
            rule()
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert str(exc.value) == f"{path}:2: {lib.value}"

    def test_negative_seed_rejected(self, tmp_path):
        path = write_config(tmp_path, "problem = rastrigin\nseed = -1\n")
        with pytest.raises(ConfigError, match=r":2: seed must be >= 0"):
            parse_config(path)


# one non-default value per config key, valid on top of its row's base
KEY_VALUES = {
    "problem": ("repressilator", "repressilator"),
    "methods": ("revde,de", (Method.REVDE, Method.DE)),
    "n": ("16", 16),
    "generations": ("7", 7),
    "f": ("0.7", 0.7),
    "p": ("0.3", 0.3),
    "seed": ("5", 5),
    "repeats": ("2", 2),
    "output_dir": ("elsewhere", "elsewhere"),
    "budget_match": ("false", False),
    "benchmark": ("schwefel", "schwefel"),
    "dim": ("3", 3),
    "griewank_standard": ("true", True),
    "noise_std": ("1.5", 1.5),
    "obs_end": ("12", 12.0),
    "obs_count": ("9", 9),
    "observations": ("obs.csv", "obs.csv"),
    "alpha0_bounds": ("1,2", (1.0, 2.0)),
    "n_bounds": ("1,3", (1.0, 3.0)),
    "beta_bounds": ("1,4", (1.0, 4.0)),
    "alpha_bounds": ("1,5", (1.0, 5.0)),
    "train_images": ("ti", "ti"),
    "train_labels": ("tl", "tl"),
    "test_images": ("si", "si"),
    "test_labels": ("sl", "sl"),
    "train_size": ("30", 30),
    "shuffle_seed": ("4", 4),
}
FIELD_OF = {"n": "population_size", "p": "crossover_rate"}
FUZZ_BASE = {"problem": "benchmark", "benchmark": "rastrigin"}
# rows whose key is only valid over another base
ROW_BASE = {"griewank_standard": dict(FUZZ_BASE, benchmark="griewank")}


def flag_argv(key, text):
    """The `revde run` arguments that set ``key`` to ``text``."""
    name = key.replace("_", "-")
    if text in ("true", "false"):
        return [f"--{name}" if text == "true" else f"--no-{name}"]
    return [f"--{name}", text]


def base_with(key, text):
    """``key``'s base with ``key`` set, as config lines; the key's line number."""
    entries = dict(ROW_BASE.get(key, FUZZ_BASE), **{key: text})
    lines = [f"{k} = {v}" for k, v in entries.items()]
    return "\n".join(lines) + "\n", list(entries).index(key) + 1


class TestKeyTable:
    def test_every_field_has_one_key_and_one_flag(self, tmp_path, capsys, monkeypatch):
        assert {FIELD_OF.get(k, k) for k in KEY_VALUES} == {
            spec.name for spec in fields(ExperimentConfig)}
        assert len(KEY_VALUES) == len(fields(ExperimentConfig)) == 27

        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        shown = capsys.readouterr().out
        listed = set(re.findall(r"--[a-z0-9-]+", shown)) - {"--help"}
        assert listed == {flag_argv(k, text)[0] for k, (text, _) in KEY_VALUES.items()}
        shown = " ".join(shown.split())   # tuple defaults as a config file writes them
        assert "(default de,dex3,ade,revde)" in shown and "(default 0.01,10.0)" in shown

        seen = []
        monkeypatch.setattr(cli, "run_experiment", lambda config: seen.append(config) or 0)
        for key, (text, expected) in KEY_VALUES.items():
            row_base = ROW_BASE.get(key, FUZZ_BASE)
            base = write_config(tmp_path, base_with("benchmark", row_base["benchmark"])[0])
            unset = parse_config(base)
            from_file = parse_config(write_config(tmp_path, base_with(key, text)[0], name="k.cfg"))
            assert run_cli("run", base, *flag_argv(key, text)) == 0
            from_flag = seen.pop()
            for config in (from_file, from_flag):
                changed = [spec.name for spec in fields(config)
                           if getattr(config, spec.name) != getattr(unset, spec.name)]
                assert changed == [FIELD_OF.get(key, key)], key
                assert getattr(config, changed[0]) == expected, key

    def test_bad_flag_value_names_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "problem = rastrigin\n")
        assert run_cli("run", cfg, "--n", "abc") == 1
        assert capsys.readouterr().err.startswith("error: flag --n: expected an integer")

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(key=st.sampled_from(sorted(KEY_VALUES)),
           text=st.one_of(
               st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
                       max_size=12),
               st.sampled_from(["nan", "inf", "-inf", "-1", "0", "5", "1e400", "dex3",
                                "de,de", "mlp", "benchmark", "1,nan", "-inf,inf", " ",
                                "schwefel", "Griewank", "rastrigin"]),
           ))
    def test_config_fuzz(self, tmp_path_factory, key, text):
        path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        body, line = base_with(key, text)
        path.write_text(body, encoding="utf-8")
        base = path.with_name("fuzz_base.cfg")
        base.write_text(base_with("problem", FUZZ_BASE["problem"])[0])
        # a problem naming another benchmark conflicts with the base's
        # benchmark key, and the error is blamed on that key's line
        conflict = (key == "problem" and text.strip().lower() in BENCHMARK_NAMES
                    and text.strip().lower() != FUZZ_BASE["benchmark"])
        benchmark_line = list(FUZZ_BASE).index("benchmark") + 1

        for source, overrides, where in (
            (path, None, f"{path}:{benchmark_line if conflict else line}: "),
            (base, {key: text},
             f"{base}:{benchmark_line}: " if conflict else f"flag --{key.replace('_', '-')}: "),
        ):
            try:
                parse_config(source, overrides)
            except ConfigError as exc:
                assert str(exc).startswith(where), str(exc)
                assert not conflict or "conflicts with problem" in str(exc), str(exc)
            else:
                assert not conflict, f"{text!r} over benchmark = {FUZZ_BASE['benchmark']}"


class TestAnalyze:
    def test_default_table(self, tmp_path):
        out = tmp_path / "eigen.csv"
        assert run_cli("analyze", "--out", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 256
        kinds = {r["kind"] for r in rows}
        assert kinds == {"ADE_M", "REVDE_R"}
        for r in rows:
            f = float(r["F"])
            det = float(r["det"])
            if r["kind"] == "ADE_M":
                assert det == 1.0 + 3.0 * f * f
                # all three eigenvalues of M have unit real part
                assert float(r["re1"]) == pytest.approx(1.0, abs=1e-9)
                assert float(r["re2"]) == pytest.approx(1.0, abs=1e-9)
                assert float(r["re3"]) == pytest.approx(1.0, abs=1e-9)
            else:
                assert abs(det - 1.0) < 1e-12
        assert math.isclose(max(float(r["F"]) for r in rows), 2.0)
        assert min(float(r["F"]) for r in rows) == 0.015625

    @pytest.mark.parametrize("args, digest", [
        ((), "d70903f6015a95a6c3a4571f7ea8564115eed96db062403ecc7c136f0e0a1c5f"),
        (("--f-max", 1, "--f-step", 0.1),
         "887c02631e6215bddc6cbb2ae703114cdc7686cd340e2d03cbf398c245a23d43"),
    ])
    def test_table_bytes_golden(self, tmp_path, args, digest):
        # sha256 of the tables written before the determinant and the
        # inverse shared one adjugate: every byte of the table must hold,
        # including the 0.1 grid, where a different summation order of the
        # minors changes the last bits
        out = tmp_path / "eigen.csv"
        assert run_cli("analyze", *args, "--out", out) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_moduli_match_closed_form(self, tmp_path):
        out = tmp_path / "eigen.csv"
        run_cli("analyze", "--f-max", 0.5, "--f-step", 0.25, "--out", out)
        with open(out, newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["kind"] == "ADE_M"]
        assert len(rows) == 2
        for r in rows:
            f = float(r["F"])
            moduli = sorted(float(r[k]) for k in ("abs1", "abs2", "abs3"))
            assert moduli[0] == pytest.approx(1.0, abs=1e-12)
            assert moduli[2] == pytest.approx(math.sqrt(1 + 3 * f * f), abs=1e-12)

    def test_bad_grid_arguments(self, tmp_path, capsys):
        assert run_cli("analyze", "--f-step", 0, "--out", tmp_path / "x.csv") == 1
        assert run_cli("analyze", "--f-max", 0.01, "--f-step", 0.5,
                       "--out", tmp_path / "x.csv") == 1
        # f_max / f_step overflows to inf: no finite number of grid steps
        assert run_cli("analyze", "--f-max", "1e308", "--f-step", "5e-324",
                       "--out", tmp_path / "x.csv") == 1
        # one step past the cap of 100,000 grid steps per matrix kind
        assert run_cli("analyze", "--f-max", 100001, "--f-step", 1,
                       "--out", tmp_path / "x.csv") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 4 and all(line.startswith("error: ") for line in err)
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("args", [("--f-step", "nan"), ("--f-step", "inf"),
                                      ("--f-max", "inf"), ("--f-max", "nan")])
    def test_non_finite_grid_arguments(self, tmp_path, capsys, args):
        out = tmp_path / "x.csv"
        assert run_cli("analyze", *args, "--out", out) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


@pytest.fixture
def bench_cfg(tmp_path):
    return write_config(
        tmp_path,
        "problem = rastrigin\ndim = 3\nn = 8\ngenerations = 3\nrepeats = 2\nseed = 1\n",
    )


class TestRunBenchmark:
    def test_output_contract(self, tmp_path, bench_cfg):
        outdir = tmp_path / "out"
        assert run_cli("run", bench_cfg, "--output-dir", outdir) == 0
        names = sorted(p.name for p in outdir.iterdir())
        assert names == [
            "manifest.json",
            "summary.csv",
            "trace_ade.csv",
            "trace_de.csv",
            "trace_dex3.csv",
            "trace_revde.csv",
        ]
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["error"] is None
        assert manifest["problem"] == "benchmark"
        assert sorted(manifest["outputs"]) == [n for n in names if n != "manifest.json"]
        assert manifest["runs"]["de"]["seeds"] == [1, 2]
        assert manifest["wall_time_seconds"] > 0

        # the resolved config: methods by name, bounds pairs as lists
        recorded = manifest["config"]
        config = parse_config(bench_cfg, {"output_dir": str(outdir)})
        expected = {spec.name: getattr(config, spec.name) for spec in fields(config)}
        expected["methods"] = ["de", "dex3", "ade", "revde"]
        box = DEFAULT_PARAM_BOUNDS
        for name, low, high in zip(("alpha0_bounds", "n_bounds", "beta_bounds", "alpha_bounds"),
                                   box.lower.tolist(), box.upper.tolist()):
            expected[name] = [low, high]
        assert list(recorded) == list(expected)   # field order
        assert recorded == expected
        assert recorded["budget_match"] is True and recorded["griewank_standard"] is False

    def test_budget_matching(self, tmp_path, bench_cfg):
        outdir = tmp_path / "out"
        run_cli("run", bench_cfg, "--output-dir", outdir)
        runs = json.loads((outdir / "manifest.json").read_text())["runs"]
        assert runs["de"]["generations"] == 9
        assert runs["revde"]["generations"] == 3
        budgets = {r["evaluations_per_run"] for r in runs.values()}
        assert budgets == {8 + 9 * 8}

        plain = tmp_path / "plain"
        run_cli("run", bench_cfg, "--output-dir", plain, "--no-budget-match")
        runs = json.loads((plain / "manifest.json").read_text())["runs"]
        assert runs["de"]["generations"] == 3
        assert runs["de"]["evaluations_per_run"] == 8 + 3 * 8

    def test_de_alone_not_tripled(self, tmp_path, bench_cfg):
        outdir = tmp_path / "solo"
        run_cli("run", bench_cfg, "--output-dir", outdir, "--methods", "de")
        runs = json.loads((outdir / "manifest.json").read_text())["runs"]
        assert list(runs) == ["de"]
        assert runs["de"]["generations"] == 3

    def test_summary_alignment(self, tmp_path, bench_cfg):
        outdir = tmp_path / "out"
        run_cli("run", bench_cfg, "--output-dir", outdir)
        lines = (outdir / "summary.csv").read_text().splitlines()
        assert lines[0] == (
            "evaluation,de_mean,de_std,dex3_mean,dex3_std,"
            "ade_mean,ade_std,revde_mean,revde_std"
        )
        assert len(lines) == 1 + 80   # matched budget: 8 + 9*8 evaluations
        assert lines[1].startswith("1,")
        assert "" not in lines[-1].split(",")   # equal budgets leave no blanks

    def test_trace_matches_trace_csv_schema(self, tmp_path, bench_cfg):
        outdir = tmp_path / "out"
        run_cli("run", bench_cfg, "--output-dir", outdir)
        lines = (outdir / "trace_revde.csv").read_text().splitlines()
        assert lines[0] == "evaluation,best_objective"
        assert len(lines) == 1 + 80
        best = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert (np.diff(best) <= 0).all()

    def test_reruns_byte_identical(self, tmp_path, bench_cfg):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("run", bench_cfg, "--output-dir", a)
        run_cli("run", bench_cfg, "--output-dir", b)
        for name in ("trace_de.csv", "trace_dex3.csv", "trace_ade.csv",
                      "trace_revde.csv", "summary.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestRunRepressilator:
    def test_outputs_and_params_history(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "problem = repressilator\nmethods = revde\nn = 8\ngenerations = 2\n"
            "repeats = 1\nobs_count = 10\nobs_end = 10\nnoise_std = 1\nseed = 4\n",
        )
        outdir = tmp_path / "out"
        assert run_cli("run", cfg, "--output-dir", outdir) == 0
        obs_lines = (outdir / "observations.csv").read_text().splitlines()
        assert obs_lines[0] == "t,m1,m2,m3"
        assert len(obs_lines) == 11
        params = (outdir / "params_revde.csv").read_text().splitlines()
        assert params[0] == "gen,alpha0,n,beta,alpha,objective"
        assert len(params) == 1 + 8 * 3   # init + 2 generations, 8 members each
        manifest = json.loads((outdir / "manifest.json").read_text())
        best = manifest["runs"]["revde"]["best_params"]
        assert len(best) == 4
        assert 0.01 <= best[0] <= 10.0 and 1.0 <= best[3] <= 2000.0

    def test_params_history_of_first_repeat(self, tmp_path):
        # only the first repeat keeps snapshots; its params CSV is the one
        # the code wrote when every repeat kept them (sha256 of those bytes)
        cfg = write_config(tmp_path, "problem = repressilator\nmethods = revde\nn = 5\n"
                                     "generations = 1\nrepeats = 2\nobs_count = 6\n"
                                     "obs_end = 6\nseed = 3\n")
        outdir = tmp_path / "out"
        assert run_cli("run", cfg, "--output-dir", outdir) == 0
        digest = hashlib.sha256((outdir / "params_revde.csv").read_bytes()).hexdigest()
        assert digest == "72e3178bb33197712d3b181d116aef111807e543616deb626ce7c012a17c7438"

    @pytest.mark.parametrize("cpus, methods, n, expected", [
        (1, "revde", 8, 1), (2, "revde", 8, 2), (64, "de", 4, 4), (64, "de,revde", 4, 12),
    ])
    def test_manifest_records_fit_processes(self, tmp_path, monkeypatch,
                                            cpus, methods, n, expected):
        monkeypatch.setattr(_util, "_usable_cpus", lambda: cpus)
        cfg = write_config(tmp_path, f"problem = repressilator\nmethods = {methods}\n"
                                     f"n = {n}\ngenerations = 1\nrepeats = 1\n"
                                     "obs_count = 6\nobs_end = 6\n")
        outdir = tmp_path / "out"
        assert run_cli("run", cfg, "--output-dir", outdir) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["fit_processes"] == expected

    def test_observations_file_round_trip(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "problem = repressilator\nmethods = revde\nn = 8\ngenerations = 1\n"
            "repeats = 1\nobs_count = 6\nobs_end = 6\nseed = 2\n",
        )
        first = tmp_path / "first"
        run_cli("run", cfg, "--output-dir", first)
        second = tmp_path / "second"
        assert run_cli("run", cfg, "--output-dir", second,
                       "--observations", first / "observations.csv") == 0
        assert (first / "observations.csv").read_bytes() == (
            second / "observations.csv"
        ).read_bytes()
        assert (first / "trace_revde.csv").read_bytes() == (
            second / "trace_revde.csv"
        ).read_bytes()

    @pytest.mark.parametrize("rows, line", [
        ("0,0,0,0\n1,5,nan,3\n2,4,2,1\n", 3),
        ("0,0,0,0\n1,5,1,3\ninf,4,2,1\n", 4),
    ], ids=["nan-mrna-cell", "inf-last-time"])
    def test_non_finite_observations_fail(self, tmp_path, capsys, rows, line):
        obs = tmp_path / "obs.csv"
        obs.write_text("t,m1,m2,m3\n" + rows)
        cfg = write_config(tmp_path, "problem = repressilator\nmethods = revde\nn = 6\n"
                                     "generations = 1\nrepeats = 1\n")
        outdir = tmp_path / "out"
        assert run_cli("run", cfg, "--output-dir", outdir, "--observations", obs) == 1
        assert f"{obs}:{line}: non-finite field" in capsys.readouterr().err
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert f"{obs}:{line}: non-finite field" in manifest["error"]
        assert manifest["runs"] == {} and manifest["outputs"] == []
        assert sorted(p.name for p in outdir.iterdir()) == ["manifest.json"]


class TestRunMlp:
    def test_train_and_test_errors(self, tmp_path, synth_idx_files):
        cfg = write_config(
            tmp_path,
            "problem = mlp\nmethods = revde\nn = 8\ngenerations = 2\nrepeats = 1\n"
            "train_size = 40\nseed = 0\n",
        )
        outdir = tmp_path / "out"
        code = run_cli(
            "run", cfg, "--output-dir", outdir,
            "--train-images", synth_idx_files["train_images"],
            "--train-labels", synth_idx_files["train_labels"],
            "--test-images", synth_idx_files["test_images"],
            "--test-labels", synth_idx_files["test_labels"],
        )
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        run_info = manifest["runs"]["revde"]
        assert len(run_info["test_error"]) == 1
        assert 0.0 <= run_info["test_error_mean"] <= 1.0
        assert 0.0 <= run_info["final_best"][0] <= 1.0
        assert (outdir / "trace_revde.csv").exists()

    def test_test_error_per_repeat(self, tmp_path, synth_idx_files):
        # one batch call over the repeats' best weights scores each repeat
        # as a one-row batch would
        cfg = write_config(
            tmp_path,
            "problem = mlp\nmethods = ade\nn = 8\ngenerations = 2\nrepeats = 3\n"
            "train_size = 40\nseed = 7\n",
        )
        outdir = tmp_path / "out"
        assert run_cli("run", cfg, "--output-dir", outdir,
                       *(f"--{key.replace('_', '-')}={path}"
                         for key, path in synth_idx_files.items())) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())

        train = mlp.prepare_dataset(mlp.load_idx(synth_idx_files["train_images"],
                                                 synth_idx_files["train_labels"]),
                                    train_size=40)
        test = mlp.prepare_dataset(mlp.load_idx(synth_idx_files["test_images"],
                                                synth_idx_files["test_labels"]))
        config = RunConfig(method=Method.ADE, population_size=8, generations=2, f=0.5, seed=7)
        traces, _ = run_repeated(config, mlp.make_error_objective(train), repeats=3)
        expected = []
        for trace in traces:
            pop = trace.final_population
            weights = pop.members[pop.best_index()][None, :]
            expected.append(mlp.classification_error_batch(weights, test)[0])
        assert manifest["runs"]["ade"]["test_error"] == expected
        assert manifest["runs"]["ade"]["test_error_mean"] == np.mean(expected)


class TestMethodSplit:
    """``revde run``'s methods dealt over forked processes, one per usable CPU.

    Each test fakes the CPU count, so the split runs on a 1-CPU machine
    too.  Outputs are compared with the serial run's (one CPU).
    """

    SUITE = "problem = rastrigin\ndim = 4\nn = 10\ngenerations = 5\nrepeats = 2\nseed = 3\n"
    REPRESSILATOR = ("problem = repressilator\nmethods = de,revde\nn = 4\ngenerations = 1\n"
                     "repeats = 1\nobs_count = 6\nobs_end = 6\nseed = 2\n")

    @staticmethod
    def run(monkeypatch, tmp_path, cpus, text, *flags):
        """Exit code, parent's os.fork calls, output bytes and manifest of one run."""
        monkeypatch.setattr(_util, "_usable_cpus", lambda: cpus)
        forks, fork = [], os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        outdir = tmp_path / f"cpus{cpus}"
        code = run_cli("run", write_config(tmp_path, text), "--output-dir", outdir, *flags)
        monkeypatch.setattr(os, "fork", fork)
        files = {p.name: p.read_bytes() for p in outdir.iterdir() if p.name != "manifest.json"}
        manifest = json.loads((outdir / "manifest.json").read_text())
        manifest.pop("wall_time_seconds")
        manifest["config"].pop("output_dir")
        return code, len(forks), files, manifest

    @staticmethod
    def plant(monkeypatch, failing, exc=ValueError, only_in_children=False):
        """Make the runs of every method named in ``failing`` raise ``exc``."""
        run_repeated, parent = cli.run_repeated, os.getpid()

        def planted(config, *args, **kwargs):
            if config.method.value in failing and not (only_in_children
                                                       and os.getpid() == parent):
                raise exc(f"planted in {config.method.value}")
            return run_repeated(config, *args, **kwargs)

        monkeypatch.setattr(cli, "run_repeated", planted)

    def test_benchmark_suite_byte_identical(self, monkeypatch, tmp_path):
        _, _, serial, serial_manifest = self.run(monkeypatch, tmp_path, 1, self.SUITE)
        assert serial_manifest.pop("method_processes") == 1
        for cpus in (2, 3, 4, 5):
            code, forks, files, manifest = self.run(monkeypatch, tmp_path, cpus, self.SUITE)
            assert code == 0
            assert forks == min(cpus, 4) - 1
            assert manifest.pop("method_processes") == min(cpus, 4)
            assert files == serial
            assert manifest == serial_manifest

    def test_repressilator_byte_identical(self, monkeypatch, tmp_path):
        _, _, serial, serial_manifest = self.run(monkeypatch, tmp_path, 1, self.REPRESSILATOR)
        del serial_manifest["method_processes"], serial_manifest["fit_processes"]
        for cpus in (2, 3, 4, 5):
            code, _, files, manifest = self.run(monkeypatch, tmp_path, cpus, self.REPRESSILATOR)
            assert code == 0
            assert manifest.pop("method_processes") == 2
            assert manifest.pop("fit_processes") == min(cpus, 12)   # 12 rows at most
            assert files == serial
            assert manifest == serial_manifest

    def test_mlp_byte_identical(self, monkeypatch, tmp_path, synth_idx_files):
        # each method process also splits the MLP objective's batches over threads
        text = "problem = mlp\nn = 8\ngenerations = 2\nrepeats = 2\ntrain_size = 40\n"
        flags = [f"--{key.replace('_', '-')}={path}" for key, path in synth_idx_files.items()]
        _, _, serial, serial_manifest = self.run(monkeypatch, tmp_path, 1, text, *flags)
        assert serial_manifest.pop("method_processes") == 1
        assert len(serial) == 5
        assert all("test_error" in run for run in serial_manifest["runs"].values())
        for cpus in (2, 3, 4, 5):
            code, forks, files, manifest = self.run(monkeypatch, tmp_path, cpus, text, *flags)
            assert code == 0
            assert forks == min(cpus, 4) - 1
            assert manifest.pop("method_processes") == min(cpus, 4)
            assert files == serial
            assert manifest == serial_manifest

    @pytest.mark.parametrize("failing", [("dex3",), ("ade", "dex3"), ("revde",), ("de",)])
    def test_failure_is_the_serial_one(self, monkeypatch, tmp_path, capsys, failing):
        # dex3 and revde run in the child of a 2-process split
        self.plant(monkeypatch, failing)
        code, _, serial, serial_manifest = self.run(monkeypatch, tmp_path, 1, self.SUITE)
        assert code == 1
        first = next(m for m in ("de", "dex3", "ade", "revde") if m in failing)
        assert serial_manifest["error"] == f"ValueError: planted in {first}"
        assert capsys.readouterr().err == f"error: planted in {first}\n"
        del serial_manifest["method_processes"]
        for cpus in (2, 4):
            code, _, files, manifest = self.run(monkeypatch, tmp_path, cpus, self.SUITE)
            assert code == 1
            assert manifest.pop("method_processes") == cpus
            assert manifest == serial_manifest
            assert files == serial
            assert capsys.readouterr().err == f"error: planted in {first}\n"

    def test_failed_child_share_runs_in_the_caller(self, monkeypatch, tmp_path):
        _, _, serial, serial_manifest = self.run(monkeypatch, tmp_path, 1, self.SUITE)
        del serial_manifest["method_processes"]
        self.plant(monkeypatch, ("dex3",), exc=KeyboardInterrupt, only_in_children=True)
        code, forks, files, manifest = self.run(monkeypatch, tmp_path, 2, self.SUITE)
        assert (code, forks, manifest.pop("method_processes")) == (0, 1, 2)
        assert files == serial
        assert manifest == serial_manifest

    def test_killed_child_writes_nothing(self, monkeypatch, tmp_path):
        # a child that wrote a file would die at its rename and leave the temp file
        _, _, serial, serial_manifest = self.run(monkeypatch, tmp_path, 1, self.SUITE)
        del serial_manifest["method_processes"]
        replace, parent = os.replace, os.getpid()

        def replace_or_die(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return replace(*args, **kwargs)

        monkeypatch.setattr(os, "replace", replace_or_die)
        code, forks, files, manifest = self.run(monkeypatch, tmp_path, 2, self.SUITE)
        assert (code, forks, manifest.pop("method_processes")) == (0, 1, 2)
        assert files == serial
        assert manifest == serial_manifest

    @pytest.mark.parametrize("failing", [(), ("dex3",)])
    def test_fork_failure_is_serial(self, monkeypatch, tmp_path, capsys, failing):
        self.plant(monkeypatch, failing)
        code, _, serial, serial_manifest = self.run(monkeypatch, tmp_path, 1, self.SUITE)
        del serial_manifest["method_processes"]

        def no_fork():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", no_fork)
        split_code, forks, files, manifest = self.run(monkeypatch, tmp_path, 4, self.SUITE)
        assert split_code == code == (1 if failing else 0)
        # the first fork raised; the manifest keeps the planned count
        assert (forks, manifest.pop("method_processes")) == (1, 4)
        assert manifest == serial_manifest
        assert files == serial


class TestFailures:
    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "problem = rastrigin\nf = -0.5\n")
        assert run_cli("run", cfg) == 1
        assert "f must be positive" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli("run", tmp_path / "nope.cfg") == 1
        assert "error" in capsys.readouterr().err

    def test_runtime_failure_recorded_in_manifest(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "problem = mlp\ntrain_images = /nonexistent/i.idx\n"
            "train_labels = /nonexistent/l.idx\n",
        )
        outdir = tmp_path / "out"
        assert run_cli("run", cfg, "--output-dir", outdir) == 1
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["error"] is not None
        assert "FileNotFoundError" in manifest["error"]
        assert "error" in capsys.readouterr().err

    def test_analyze_out_in_missing_dir(self, tmp_path, capsys):
        out = tmp_path / "missing" / "eigen.csv"
        assert run_cli("analyze", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{out}'" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("under", [False, True], ids=["is-file", "under-file"])
    def test_output_dir_blocked_by_file(self, tmp_path, capsys, under):
        cfg = write_config(tmp_path, "problem = rastrigin\n")
        plain = tmp_path / "plain"
        plain.write_text("x\n")
        assert run_cli("run", cfg, "--output-dir", plain / "out" if under else plain) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert plain.read_text() == "x\n"

    def test_argparse_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2

    def test_flag_cast_error_is_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "problem = rastrigin\n")
        assert run_cli("run", cfg, "--methods", "de,unknown") == 1
        assert "unknown method" in capsys.readouterr().err
