"""Engine loop: accounting, determinism, seeding, traces, threading."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revde.benchmarks import get_benchmark, rastrigin_batch
from revde.engine import (
    _sample_slot_indices,
    BoxBounds,
    Method,
    Objective,
    RunConfig,
    initialize_population,
    resolve_threads,
    run,
    run_repeated,
    write_summary_csv,
    write_trace_csv,
)
from revde.transforms import (
    MatrixKind,
    apply_triplet_transform,
    build_matrix,
    de_mutation,
)


def sphere_batch(x):
    return np.sum(x * x, axis=1)


@pytest.fixture
def bounds():
    return BoxBounds(np.full(3, -5.0), np.full(3, 5.0))


class TestBoxBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoxBounds(np.array([0.0, 0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            BoxBounds(np.array([1.0]), np.array([1.0]))   # not strictly below
        with pytest.raises(ValueError):
            BoxBounds(np.array([np.inf]), np.array([2.0]))

    def test_contains(self, bounds):
        assert bounds.contains(np.zeros(3))
        assert bounds.contains(np.full(3, 5.0))
        assert not bounds.contains(np.array([0.0, 0.0, 5.1]))


class TestObjective:
    def test_counter_increments_per_candidate(self, bounds):
        obj = Objective(sphere_batch, bounds)
        obj.evaluate(np.zeros((7, 3)))
        obj(np.ones(3))
        assert obj.evaluation_counter == 8

    def test_nan_maps_to_inf_and_flags(self, bounds):
        def sometimes_nan(x):
            v = np.sum(x, axis=1)
            v[0] = np.nan
            return v

        obj = Objective(sometimes_nan, bounds)
        out = obj.evaluate(np.ones((3, 3)))
        assert out[0] == np.inf
        assert obj.nan_evaluations == 1

    def test_shape_validation(self, bounds):
        obj = Objective(sphere_batch, bounds)
        with pytest.raises(ValueError):
            obj.evaluate(np.zeros((2, 4)))

    def test_from_scalar(self, bounds):
        obj = Objective.from_scalar(lambda row: float(row.sum()), bounds)
        assert np.array_equal(obj.evaluate(np.ones((2, 3))), [3.0, 3.0])

    def test_threaded_matches_serial(self, bounds):
        serial = Objective(sphere_batch, bounds, threads=1)
        threaded = Objective(sphere_batch, bounds, threads=3)
        x = np.random.default_rng(0).normal(size=(64, 3))
        assert np.array_equal(serial.evaluate(x), threaded.evaluate(x))

    def test_resolve_threads(self, monkeypatch):
        monkeypatch.delenv("REVDE_THREADS", raising=False)
        assert resolve_threads() == 1
        monkeypatch.setenv("REVDE_THREADS", "5")
        assert resolve_threads() == 5
        monkeypatch.setenv("REVDE_THREADS", "0")
        assert resolve_threads() >= 1
        monkeypatch.setenv("REVDE_THREADS", "-2")
        with pytest.raises(ValueError):
            resolve_threads()
        monkeypatch.setenv("REVDE_THREADS", "abc")
        with pytest.raises(ValueError):
            resolve_threads()


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(method=Method.DE, population_size=3, generations=5, f=0.5)
        with pytest.raises(ValueError):
            RunConfig(method=Method.DEX3, population_size=6, generations=5, f=0.5)
        with pytest.raises(ValueError):
            RunConfig(method=Method.DE, population_size=10, generations=0, f=0.5)
        with pytest.raises(ValueError):
            RunConfig(method=Method.DE, population_size=10, generations=5, f=0.0)
        with pytest.raises(ValueError):
            RunConfig(method=Method.DE, population_size=10, generations=5, f=0.5,
                      crossover_rate=0.0)

    def test_method_from_string(self):
        cfg = RunConfig(method="revde", population_size=8, generations=2, f=0.5)
        assert cfg.method is Method.REVDE
        with pytest.raises(ValueError, match="unknown method"):
            Method.from_string("cmaes")

    def test_total_evaluations(self):
        de = RunConfig(method=Method.DE, population_size=100, generations=300, f=0.5)
        triplet = RunConfig(method=Method.REVDE, population_size=100, generations=100, f=0.5)
        assert de.total_evaluations == 100 + 300 * 100
        assert triplet.total_evaluations == 100 + 100 * 300
        assert de.total_evaluations == triplet.total_evaluations   # budget fairness


class TestInitialization:
    def test_uniform_within_bounds(self, bounds):
        pop = initialize_population(bounds, 50, np.random.default_rng(0))
        assert pop.size == 50 and pop.dim == 3
        assert (pop.members >= -5).all() and (pop.members <= 5).all()
        assert pop.generation == 0 and not pop.evaluated

    def test_degenerate_interval(self):
        tight = BoxBounds(np.array([0.0]), np.array([1e-12]))
        pop = initialize_population(tight, 4, np.random.default_rng(1))
        assert (pop.members >= 0).all() and (pop.members <= 1e-12).all()

    def test_seed_reproducibility(self, bounds):
        a = initialize_population(bounds, 10, np.random.default_rng(7))
        b = initialize_population(bounds, 10, np.random.default_rng(7))
        assert np.array_equal(a.members, b.members)


class TestRun:
    @pytest.mark.parametrize("method", list(Method))
    def test_exact_accounting(self, method, bounds):
        obj = Objective(sphere_batch, bounds)
        cfg = RunConfig(method=method, population_size=8, generations=6, f=0.5, seed=0)
        trace = run(cfg, obj)
        per_gen = 8 if method is Method.DE else 24
        assert obj.evaluation_counter == 8 + 6 * per_gen
        assert trace.evaluations == obj.evaluation_counter
        assert trace.evaluation_index[-1] == obj.evaluation_counter

    @pytest.mark.parametrize("method", list(Method))
    def test_best_so_far_non_increasing(self, method, bounds):
        obj = Objective(sphere_batch, bounds)
        cfg = RunConfig(method=method, population_size=10, generations=10, f=0.5, seed=2)
        trace = run(cfg, obj)
        assert (np.diff(trace.best_objective) <= 0).all()

    def test_sphere_improves(self, bounds):
        obj = Objective(sphere_batch, bounds)
        cfg = RunConfig(method=Method.DE, population_size=20, generations=50, f=0.5, seed=1)
        trace = run(cfg, obj)
        assert trace.best_objective[-1] < trace.best_objective[0]

    def test_constant_objective_stable(self, bounds):
        obj = Objective(lambda x: np.full(len(x), 3.25), bounds)
        cfg = RunConfig(method=Method.REVDE, population_size=6, generations=4, f=0.5, seed=0)
        trace = run(cfg, obj, keep_history=True)
        assert (trace.best_objective == 3.25).all()
        # ties keep the old members: population never changes
        first = trace.history[0][1]
        for _, members, values in trace.history[1:]:
            assert np.array_equal(members, first)
            assert (values == 3.25).all()

    def test_same_seed_identical_traces(self, bounds):
        cfg = RunConfig(method=Method.ADE, population_size=9, generations=7, f=0.6, seed=33)
        t1 = run(cfg, Objective(sphere_batch, bounds))
        t2 = run(cfg, Objective(sphere_batch, bounds))
        assert np.array_equal(t1.best_objective, t2.best_objective)
        assert np.array_equal(t1.final_population.members, t2.final_population.members)

    def test_no_out_of_bounds_evaluation(self):
        lo, hi = np.full(2, -1.0), np.full(2, 1.0)

        def strict(x):
            assert (x >= lo).all() and (x <= hi).all()
            return np.sum(x * x, axis=1)

        obj = Objective(strict, BoxBounds(lo, hi))
        cfg = RunConfig(method=Method.REVDE, population_size=12, generations=15, f=0.9, seed=5)
        run(cfg, obj)   # would raise inside strict() on violation

    def test_nan_objective_flagged_not_fatal(self, bounds):
        def patchy(x):
            v = np.sum(x * x, axis=1)
            v[v > 30.0] = np.nan
            return v

        obj = Objective(patchy, bounds)
        cfg = RunConfig(method=Method.DE, population_size=8, generations=5, f=0.5, seed=4)
        trace = run(cfg, obj)
        assert trace.nan_evaluations > 0
        assert np.isfinite(trace.final_best)

    def test_history_shape(self, bounds):
        obj = Objective(sphere_batch, bounds)
        cfg = RunConfig(method=Method.DE, population_size=5, generations=3, f=0.5, seed=0)
        trace = run(cfg, obj, keep_history=True)
        assert len(trace.history) == 4   # init + one per generation
        gens = [g for g, _, _ in trace.history]
        assert gens == [0, 1, 2, 3]


class TestSlotSampler:
    @settings(max_examples=200, deadline=None)
    @given(k=st.sampled_from([3, 7]), extra=st.integers(0, 60), seed=st.integers(0, 2**32))
    def test_rows_distinct_in_range(self, k, extra, seed):
        n = k + extra
        idx = _sample_slot_indices(n, k, np.random.default_rng(seed))
        assert idx.shape == (n, k)
        assert idx.min() >= 0 and idx.max() < n
        ordered = np.sort(idx, axis=1)
        assert (ordered[:, 1:] != ordered[:, :-1]).all()

    def test_ordered_triples_uniform(self):
        chi2 = pytest.importorskip("scipy.stats").chi2
        n, k = 5, 3
        rng = np.random.default_rng(2024)
        rows = np.concatenate([_sample_slot_indices(n, k, rng) for _ in range(2400)])
        radix = n ** np.arange(k)
        cells = np.array(list(permutations(range(n), k))) @ radix   # the 60 ordered triples
        counts = np.bincount(rows @ radix, minlength=n**k)
        assert counts.sum() == counts[cells].sum()
        expected = rows.shape[0] / cells.size
        stat = ((counts[cells] - expected) ** 2 / expected).sum()
        assert chi2.sf(stat, cells.size - 1) > 0.01

    def test_positional_marginals_uniform(self):
        chi2 = pytest.importorskip("scipy.stats").chi2
        n, k = 8, 7
        rng = np.random.default_rng(2025)
        rows = np.concatenate([_sample_slot_indices(n, k, rng) for _ in range(1500)])
        expected = rows.shape[0] / n
        stats = [((np.bincount(rows[:, j], minlength=n) - expected) ** 2 / expected).sum()
                 for j in range(k)]
        assert chi2.sf(max(stats), n - 1) > 0.01 / k   # Bonferroni over the k positions


class TestGenerationMechanics:
    """Replay one generation with the per-triplet ops and compare."""

    def _manual_offspring(self, members, method, f, p, rng, lo, hi):
        n, d = members.shape
        per_slot = 7 if method is Method.DEX3 else 3
        # column j draws from the n - j untaken indices of every slot, then
        # steps each draw past the slot's taken indices in ascending order
        idx = np.empty((n, per_slot), dtype=np.int64)
        for j in range(per_slot):
            draws = rng.integers(0, n - j, size=n)
            for s in range(n):
                r = int(draws[s])
                for t in sorted(idx[s, :j]):
                    if r >= t:
                        r += 1
                idx[s, j] = r
        trials, parents = [], []
        for s in range(n):
            if method is Method.DE:
                trials.append(de_mutation(members[idx[s, 0]], members[idx[s, 1]],
                                          members[idx[s, 2]], f))
                parents.append(members[idx[s, 0]])
            elif method is Method.DEX3:
                base = members[idx[s, 0]]
                for t in range(3):
                    a = members[idx[s, 1 + 2 * t]]
                    b = members[idx[s, 2 + 2 * t]]
                    trials.append(de_mutation(base, a, b, f))
                    parents.append(base)
            else:
                kind = MatrixKind.ADE_M if method is Method.ADE else MatrixKind.REVDE_R
                m = build_matrix(kind, f)
                x1, x2, x3 = (members[idx[s, t]] for t in range(3))
                trials.extend(apply_triplet_transform(m, x1, x2, x3))
                parents.extend([x1, x2, x3])
        trials = np.array(trials)
        parents = np.array(parents)
        mask = rng.random(trials.shape) < p
        offspring = np.where(mask, trials, parents)
        return np.clip(offspring, lo, hi)

    @pytest.mark.parametrize("method", list(Method))
    def test_engine_offspring_match_transform_ops(self, method):
        lo, hi = np.full(4, -5.0), np.full(4, 5.0)
        seen = []

        def recorder(x):
            seen.append(x.copy())
            return np.sum(x * x, axis=1)

        n, f, p, seed = 9, 0.675, 0.9, 17
        cfg = RunConfig(method=method, population_size=n, generations=1, f=f,
                        crossover_rate=p, seed=seed)
        run(cfg, Objective(recorder, BoxBounds(lo, hi)))
        assert len(seen) == 2   # init batch + one offspring batch

        rng = np.random.default_rng(seed)
        members = rng.uniform(lo, hi, size=(n, 4))
        assert np.array_equal(seen[0], members)
        manual = self._manual_offspring(members, method, f, p, rng, lo, hi)
        assert manual.shape == seen[1].shape
        assert np.allclose(manual, seen[1], atol=1e-12, rtol=0)


class TestRunRepeated:
    def test_seed_offsets(self, bounds):
        cfg = RunConfig(method=Method.DE, population_size=6, generations=3, f=0.5, seed=100)
        traces, _ = run_repeated(cfg, Objective(sphere_batch, bounds), repeats=3)
        for r, trace in enumerate(traces):
            solo = run(
                RunConfig(method=Method.DE, population_size=6, generations=3, f=0.5,
                          seed=100 + r),
                Objective(sphere_batch, bounds),
            )
            assert np.array_equal(trace.best_objective, solo.best_objective)

    def test_single_repeat_zero_std(self, bounds):
        cfg = RunConfig(method=Method.DE, population_size=5, generations=2, f=0.5, seed=0)
        traces, summary = run_repeated(cfg, Objective(sphere_batch, bounds), repeats=1)
        assert np.array_equal(summary.mean, traces[0].best_objective)
        assert (summary.std == 0).all()

    def test_constant_objective_stats(self, bounds):
        obj = Objective(lambda x: np.full(len(x), 2.0), bounds)
        cfg = RunConfig(method=Method.ADE, population_size=5, generations=2, f=0.5, seed=0)
        _, summary = run_repeated(cfg, obj, repeats=3)
        assert (summary.mean == 2.0).all()
        assert (summary.std == 0.0).all()

    def test_mean_non_increasing(self, bounds):
        cfg = RunConfig(method=Method.REVDE, population_size=8, generations=5, f=0.5, seed=3)
        _, summary = run_repeated(cfg, Objective(rastrigin_batch, bounds), repeats=4)
        assert (np.diff(summary.mean) <= 1e-12).all()

    def test_repeats_validation(self, bounds):
        cfg = RunConfig(method=Method.DE, population_size=5, generations=2, f=0.5)
        with pytest.raises(ValueError):
            run_repeated(cfg, Objective(sphere_batch, bounds), repeats=0)


class TestCsvOutput:
    def test_trace_csv_schema(self, tmp_path, bounds):
        cfg = RunConfig(method=Method.DE, population_size=5, generations=2, f=0.5, seed=0)
        trace = run(cfg, Objective(sphere_batch, bounds))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "evaluation,best_objective"
        assert len(lines) == 1 + trace.evaluations
        # shortest round-trip decimals parse back exactly
        for line in lines[1:4]:
            idx, val = line.split(",")
            assert int(idx) >= 1
            assert float(val) in trace.best_objective

    def test_summary_csv_schema(self, tmp_path, bounds):
        cfg = RunConfig(method=Method.DE, population_size=5, generations=2, f=0.5, seed=0)
        _, summary = run_repeated(cfg, Objective(sphere_batch, bounds), repeats=2)
        path = tmp_path / "summary.csv"
        write_summary_csv(summary, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "evaluation,mean,std"
        assert len(lines) == 1 + summary.evaluation_index.size
