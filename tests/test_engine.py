"""Engine loop: accounting, determinism, seeding, traces."""

import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference_sampler
from conftest import revde_recursion
from revde.benchmarks import get_benchmark, rastrigin_batch
from revde.cli import _write_combined_summary
from revde.engine import (
    _sample_slot_indices,
    BoxBounds,
    Method,
    Objective,
    RunConfig,
    run,
    run_repeated,
    write_trace_csv,
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

    def test_box_is_a_read_only_copy(self):
        lower, upper = np.zeros(2), np.ones(2)
        box = BoxBounds(lower, upper)
        with pytest.raises(ValueError, match="read-only"):
            box.lower[0] = -1.0
        lower[0] = upper[1] = 0.5          # the caller's arrays: writable, not aliased
        assert box.lower.tolist() == [0.0, 0.0] and box.upper.tolist() == [1.0, 1.0]


class TestObjective:
    def test_counter_increments_per_candidate(self, bounds):
        obj = Objective(sphere_batch, bounds)
        obj.evaluate(np.zeros((7, 3)))
        obj.evaluate(np.ones((1, 3)))
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

    def test_batch_fn_read_at_call_time(self, bounds):
        # timing wrappers replace batch_fn after construction
        obj = Objective(sphere_batch, bounds)
        obj.batch_fn = lambda x: -sphere_batch(x)
        assert obj.evaluate(np.ones((2, 3))).tolist() == [-3.0, -3.0]


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

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize("f", [np.inf, np.nan])
    def test_non_finite_f_rejected(self, method, f):
        with pytest.raises(ValueError, match="finite"):
            RunConfig(method=method, population_size=10, generations=5, f=f)

    def test_method_from_string(self):
        assert Method.from_string(" ReVDE ") is Method.REVDE
        with pytest.raises(ValueError, match="^unknown method 'cmaes'; expected one of "
                                             "de, dex3, ade, revde$"):
            Method.from_string("cmaes")

    def test_total_evaluations(self):
        de = RunConfig(method=Method.DE, population_size=100, generations=300, f=0.5)
        triplet = RunConfig(method=Method.REVDE, population_size=100, generations=100, f=0.5)
        assert de.total_evaluations == 100 + 300 * 100
        assert triplet.total_evaluations == 100 + 100 * 300
        assert de.total_evaluations == triplet.total_evaluations   # budget fairness


def initial_members(bounds, n, seed, method=Method.DE):
    """The members of a run's generation 0."""
    cfg = RunConfig(method=method, population_size=n, generations=1, f=0.5, seed=seed)
    return run(cfg, Objective(sphere_batch, bounds), keep_history=True).history[0].members


class TestInitialization:
    def test_uniform_within_bounds(self, bounds):
        members = initial_members(bounds, 50, 0)
        assert members.shape == (50, 3)
        assert (members >= -5).all() and (members <= 5).all()

    def test_degenerate_interval(self):
        tight = BoxBounds(np.array([0.0]), np.array([1e-12]))
        members = initial_members(tight, 4, 1)
        assert (members >= 0).all() and (members <= 1e-12).all()

    def test_seed_reproducibility(self, bounds):
        a = initial_members(bounds, 10, 7)
        b = initial_members(bounds, 10, 7, method=Method.REVDE)
        assert np.array_equal(a, b)


class TestRun:
    @pytest.mark.parametrize("method", list(Method))
    def test_exact_accounting(self, method, bounds):
        obj = Objective(sphere_batch, bounds)
        cfg = RunConfig(method=method, population_size=8, generations=6, f=0.5, seed=0)
        trace = run(cfg, obj)
        per_gen = 8 if method is Method.DE else 24
        assert obj.evaluation_counter == 8 + 6 * per_gen
        assert trace.evaluations == obj.evaluation_counter
        assert trace.best_objective.size == obj.evaluation_counter

    @pytest.mark.parametrize("method", list(Method))
    def test_best_so_far_non_increasing(self, method, bounds):
        obj = Objective(sphere_batch, bounds)
        cfg = RunConfig(method=method, population_size=10, generations=10, f=0.5, seed=2)
        trace = run(cfg, obj)
        assert (np.diff(trace.best_objective) <= 0).all()

    @pytest.mark.parametrize("patchy", [False, True], ids=["finite", "nan"])
    @pytest.mark.parametrize("method", list(Method))
    def test_trace_is_running_min_of_every_value(self, method, patchy, bounds):
        returned = []

        def recording(x):
            v = sphere_batch(x)
            if patchy:
                v[v > 30.0] = np.nan
            returned.extend(v.tolist())
            return v

        cfg = RunConfig(method=method, population_size=8, generations=5, f=0.5, seed=3)
        trace = run(cfg, Objective(recording, bounds))
        best, expected = np.inf, []
        for v in returned:
            v = np.inf if np.isnan(v) else v
            best = v if v < best else best
            expected.append(best)
        assert (trace.nan_evaluations > 0) == patchy
        assert trace.best_objective.tobytes() == np.array(expected).tobytes()

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
        first = trace.history[0].members
        for pop in trace.history[1:]:
            assert np.array_equal(pop.members, first)
            assert (pop.values == 3.25).all()

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
        gens = [pop.generation for pop in trace.history]
        assert gens == [0, 1, 2, 3]

    @pytest.mark.parametrize("method", list(Method))
    def test_history_is_the_runs_populations(self, method, bounds):
        cfg = RunConfig(method=method, population_size=8, generations=3, f=0.5, seed=6)
        trace = run(cfg, Objective(sphere_batch, bounds), keep_history=True)
        assert [pop.generation for pop in trace.history] == [0, 1, 2, 3]
        assert trace.history[-1] is trace.final_population
        # generation 0 is the run's draw and its values, unchanged by the run
        first = trace.history[0]
        assert np.array_equal(first.members, np.random.default_rng(6).uniform(
            bounds.lower, bounds.upper, size=(8, 3)))
        assert np.array_equal(first.values, sphere_batch(first.members))
        assert trace.best_objective[7] == first.values.min()

    def test_history_kept_for_first_repeat_only(self, bounds):
        cfg = RunConfig(method=Method.REVDE, population_size=6, generations=2, f=0.5, seed=3)
        traces, _ = run_repeated(cfg, Objective(sphere_batch, bounds), repeats=3,
                                 keep_history=True)
        assert all(t.history is None for t in traces[1:])
        alone = run(cfg, Objective(sphere_batch, bounds), keep_history=True)
        assert len(traces[0].history) == len(alone.history) == 3
        for pop, pop1 in zip(traces[0].history, alone.history):
            assert pop.generation == pop1.generation
            assert np.array_equal(pop.members, pop1.members)
            assert np.array_equal(pop.values, pop1.values)

    def test_counter_drift_is_an_accounting_error(self, bounds):
        obj = Objective(sphere_batch, bounds)

        def drifting(x):
            obj.evaluation_counter += 1   # an evaluator that counts on its own too
            return sphere_batch(x)

        obj.batch_fn = drifting
        cfg = RunConfig(method=Method.REVDE, population_size=6, generations=2, f=0.5)
        with pytest.raises(RuntimeError, match=r"accounting broke for revde: 45 != 42"):
            run(cfg, obj)

    # the largest f whose trials stay finite from a box of +-5: 5 (1 + 2f)
    # for DE, DEx3 and ADE, about 5 * 2f^3 for RevDE
    @pytest.mark.parametrize("method, inside, outside", [
        (Method.DE, 1.7e307, 1e308), (Method.DEX3, 1.7e307, 1e308),
        (Method.ADE, 1.7e307, 1e308), (Method.REVDE, 2.5e102, 5e102),
    ])
    def test_f_overflowing_the_box_rejected(self, bounds, method, inside, outside):
        calls = []

        def counted(x):
            calls.append(len(x))
            return sphere_batch(np.clip(x, -5.0, 5.0))

        config = RunConfig(method=method, population_size=8, generations=2, f=outside)
        with pytest.raises(ValueError, match=r"f = [0-9.e+]+ overflows float64"):
            run(config, Objective(counted, bounds))
        assert calls == []   # raised before the first evaluation
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run(RunConfig(method=method, population_size=8, generations=2, f=inside),
                        Objective(counted, bounds))
        assert np.isfinite(trace.best_objective).all()


class TestBatchSplitting:
    @settings(max_examples=40, deadline=None)
    @given(method=st.sampled_from(list(Method)), n=st.integers(7, 12),
           dim=st.integers(1, 5), generations=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1), split_seed=st.integers(0, 2**32 - 1))
    def test_trace_invariant_to_evaluator_chunks(self, method, n, dim, generations,
                                                  seed, split_seed):
        # the same run whether the evaluator scores each batch whole or in
        # random row chunks (empty ones included), drawn from its own stream
        bounds = BoxBounds(np.full(dim, -5.0), np.full(dim, 5.0))
        split_rng = np.random.default_rng(split_seed)

        def chunked(x):
            cuts = np.sort(split_rng.integers(0, x.shape[0] + 1, size=split_rng.integers(0, 5)))
            return np.concatenate([rastrigin_batch(part) for part in np.split(x, cuts)])

        cfg = RunConfig(method=method, population_size=n, generations=generations, f=0.7,
                        seed=seed)
        whole = run(cfg, Objective(rastrigin_batch, bounds))
        split = run(cfg, Objective(chunked, bounds))
        assert split.best_objective.tobytes() == whole.best_objective.tobytes()
        a, b = split.final_population, whole.final_population
        assert a.members.tobytes() == b.members.tobytes()
        assert a.values.tobytes() == b.values.tobytes()
        per_slot = 1 if method is Method.DE else 3      # exact accounting: N + G*k*N
        assert split.evaluations == whole.evaluations == n + generations * per_slot * n


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


class TestReferenceSampler:
    """The one-call sampler against the frozen per-column sampler."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(4, 400), k=st.sampled_from([1, 2, 3, 7]), seed=st.integers(0, 2**64 - 1))
    def test_same_indices_and_generator_state(self, n, k, seed):
        if k > n:
            k = n
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _reference_sampler.sample_slot_indices(n, k, want_rng)
        got = _sample_slot_indices(n, k, got_rng)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestGenerationMechanics:
    """Replay one generation slot by slot from the paper's formulas and compare."""

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
            if method in (Method.DE, Method.DEX3):
                base = members[idx[s, 0]]
                for t in range(method.offspring_per_slot):
                    a = members[idx[s, 1 + 2 * t]]
                    b = members[idx[s, 2 + 2 * t]]
                    trials.append(base + f * (a - b))
                    parents.append(base)
            else:
                x1, x2, x3 = (members[idx[s, t]] for t in range(3))
                if method is Method.ADE:
                    trials += [x1 + f * (x2 - x3), x2 + f * (x3 - x1), x3 + f * (x1 - x2)]
                else:
                    trials += revde_recursion(x1, x2, x3, f)
                parents += [x1, x2, x3]
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
        if method.matrix_kind is None:
            assert np.array_equal(manual, seen[1])
        else:   # a 3x3 matrix product against the chained formulas
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

    def test_all_inf_repeats_have_zero_std(self, bounds, tmp_path):
        # every solve failed in every repeat: numpy's std would be NaN and warn
        cfg = RunConfig(method=Method.DE, population_size=4, generations=1, f=0.5, seed=0)
        obj = Objective(lambda x: np.full(len(x), np.inf), bounds)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, summary = run_repeated(cfg, obj, repeats=2)
        assert (summary.mean == np.inf).all()
        assert (summary.std == 0.0).all()
        path = tmp_path / "summary.csv"
        _write_combined_summary({Method.DE: summary}, path)
        assert "nan" not in path.read_text()

    def test_inf_beside_finite_has_infinite_std(self, bounds):
        # DE, N=4, G=1: two batches per repeat.  Repeat 1 turns finite at its
        # offspring, so those columns hold inf and 1.0; the others are all inf.
        scores = iter([np.inf, np.inf, np.inf, 1.0, np.inf, np.inf])
        obj = Objective(lambda x: np.full(len(x), next(scores)), bounds)
        cfg = RunConfig(method=Method.DE, population_size=4, generations=1, f=0.5, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, summary = run_repeated(cfg, obj, repeats=3)
        assert summary.std.tolist() == [0.0] * 4 + [np.inf] * 4
        assert (summary.mean == np.inf).all()

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
        _write_combined_summary({Method.DE: summary}, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "evaluation,de_mean,de_std"
        assert len(lines) == 1 + summary.mean.size
