"""Benchmark functions against independently computed reference values."""

import math

import numpy as np
import pytest

from revde.benchmarks import (
    BENCHMARK_NAMES,
    get_benchmark,
    griewank_batch,
    rastrigin_batch,
    salomon_batch,
    schwefel_batch,
)


def at_point(kernel, x, **kwargs):
    """A batch kernel's value at one point, evaluated as a one-row batch."""
    return float(kernel(np.asarray(x, dtype=np.float64)[None, :], **kwargs)[0])


# per-row oracles in plain float arithmetic, written from the definitions
def griewank_row(x):
    s = sum(math.sqrt(v * v / 4000.0) for v in x)
    p = math.prod(math.cos(v / math.sqrt(d)) for d, v in enumerate(x, start=1))
    return 1.0 + s - p


def rastrigin_row(x):
    return 10.0 * len(x) + sum(v * v - 10.0 * math.cos(2.0 * math.pi * v) for v in x)


def salomon_row(x):
    r = math.sqrt(sum(v * v for v in x))
    return 1.0 - math.cos(2.0 * math.pi * r) + 0.1 * r


def schwefel_row(x):
    return 418.9829 * len(x) - sum(v * math.sin(math.sqrt(abs(v))) for v in x)


class TestGriewank:
    def test_zero_is_global_minimum(self):
        for d in (1, 3, 30):
            assert at_point(griewank_batch, np.zeros(d)) == pytest.approx(0.0, abs=1e-12)

    def test_sqrt4000_point(self):
        # 1 + 1 - cos(sqrt(4000)), scalar hand evaluation
        got = at_point(griewank_batch, [math.sqrt(4000.0)])
        assert got == pytest.approx(1.0843603589085151, abs=1e-14)

    def test_ones_pair(self):
        # 1 + 2/sqrt(4000) - cos(1)*cos(1/sqrt(2))
        assert at_point(griewank_batch, [1.0, 1.0]) == pytest.approx(
            0.6208608677779262, abs=1e-14)

    def test_standard_form_differs(self):
        assert at_point(griewank_batch, [1.0, 1.0], standard=True) == pytest.approx(
            0.5897380911762422, abs=1e-14
        )
        assert (at_point(griewank_batch, [1.0, 1.0], standard=True)
                != at_point(griewank_batch, [1.0, 1.0]))

    def test_sign_symmetry(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-5, 5, 7)
        assert at_point(griewank_batch, x) == pytest.approx(
            at_point(griewank_batch, -x), abs=1e-12)


class TestRastrigin:
    def test_zero_minimum(self):
        assert at_point(rastrigin_batch, np.zeros(10)) == 0.0

    def test_half_point(self):
        # 10 + 0.25 - 10*cos(pi) = 20.25
        assert at_point(rastrigin_batch, [0.5]) == pytest.approx(20.25, abs=1e-12)

    def test_ones_pair(self):
        assert at_point(rastrigin_batch, [1.0, 1.0]) == pytest.approx(2.0, abs=1e-12)

    def test_sign_symmetry(self):
        x = np.array([1.3, -2.2, 4.9])
        assert at_point(rastrigin_batch, x) == pytest.approx(
            at_point(rastrigin_batch, -x), abs=1e-12)


class TestSalomon:
    def test_zero_minimum(self):
        assert at_point(salomon_batch, np.zeros(4)) == 0.0

    def test_unit_radius(self):
        assert at_point(salomon_batch, [1.0]) == pytest.approx(0.1, abs=1e-12)
        assert at_point(salomon_batch, [0.6, 0.8]) == pytest.approx(0.1, abs=1e-12)

    def test_half_radius(self):
        assert at_point(salomon_batch, [0.5]) == pytest.approx(2.05, abs=1e-12)

    def test_radial_only(self):
        # same norm, same value
        a = at_point(salomon_batch, [3.0, 0.0, 0.0])
        b = at_point(salomon_batch, [0.0, 0.0, 3.0])
        assert a == pytest.approx(b, abs=1e-12)


class TestSchwefel:
    def test_known_minimizer_near_zero(self):
        assert at_point(schwefel_batch, [420.9687]) == pytest.approx(
            1.272783748618167e-05, abs=1e-16)

    def test_two_dim_doubles_residual(self):
        assert at_point(schwefel_batch, [420.9687, 420.9687]) == pytest.approx(
            2.545567497236334e-05, abs=1e-16
        )

    def test_origin(self):
        assert at_point(schwefel_batch, np.zeros(3)) == pytest.approx(1256.9487, abs=1e-10)

    def test_minimum_depth_tolerance(self):
        # printed constant 418.9829 is rounded, so only loosely zero
        assert abs(at_point(schwefel_batch, [420.9687])) < 1e-3


class TestBatchKernels:
    @pytest.mark.parametrize(
        "oracle,batch",
        [(griewank_row, griewank_batch), (rastrigin_row, rastrigin_batch),
         (salomon_row, salomon_batch), (schwefel_row, schwefel_batch)],
        ids=["griewank", "rastrigin", "salomon", "schwefel"],
    )
    def test_batch_matches_scalar(self, oracle, batch):
        rng = np.random.default_rng(42)
        x = rng.uniform(-5.0, 5.0, size=(64, 9))
        got = batch(x)
        want = np.array([oracle(row.tolist()) for row in x])
        assert np.allclose(got, want, atol=1e-12, rtol=0)

    def test_griewank_batch_standard_flag(self):
        x = np.array([[1.0, 1.0]])
        assert griewank_batch(x, standard=True)[0] == pytest.approx(
            0.5897380911762422, abs=1e-13
        )

    def test_batch_shape_validation(self):
        with pytest.raises(ValueError):
            rastrigin_batch(np.zeros(5))
        with pytest.raises(ValueError):
            rastrigin_batch(np.zeros((3, 0)))

    def test_finite_everywhere_in_bounds(self):
        rng = np.random.default_rng(1)
        for name in BENCHMARK_NAMES:
            spec = get_benchmark(name, 12)
            x = rng.uniform(spec.lower, spec.upper, size=(50, 12))
            assert np.isfinite(spec.batch(x)).all()


class TestLookup:
    def test_bounds_per_name(self):
        for name in ("griewank", "rastrigin", "salomon"):
            spec = get_benchmark(name, 5)
            assert np.array_equal(spec.lower, np.full(5, -5.0))
            assert np.array_equal(spec.upper, np.full(5, 5.0))
        sch = get_benchmark("schwefel", 5)
        assert np.array_equal(sch.lower, np.full(5, 200.0))
        assert np.array_equal(sch.upper, np.full(5, 500.0))

    def test_case_insensitive(self):
        assert get_benchmark("Rastrigin", 2).name == "rastrigin"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            get_benchmark("ackley", 2)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            get_benchmark("salomon", 0)

    def test_spec_evaluate_scalar(self):
        # one point is a one-row batch
        spec = get_benchmark("rastrigin", 2)
        assert spec.batch([[1.0, 1.0]]).shape == (1,)
        assert spec.batch([[1.0, 1.0]])[0] == pytest.approx(2.0, abs=1e-12)

    def test_spec_griewank_standard_plumbed(self):
        spec = get_benchmark("griewank", 2, griewank_standard=True)
        assert spec.batch([[1.0, 1.0]])[0] == pytest.approx(0.5897380911762422, abs=1e-13)

    @pytest.mark.parametrize("name", ["rastrigin", "Salomon", "schwefel"])
    def test_griewank_standard_needs_griewank(self, name):
        with pytest.raises(ValueError, match=f"griewank benchmark, not {name.lower()!r}"):
            get_benchmark(name, 2, griewank_standard=True)
