"""Repressilator dynamics, integration accuracy, and the fitting objective."""

import json
import math
import os
import signal
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _reference_dopri5
from conftest import Unloadable
from revde import _util, repressilator
from revde.engine import BoxBounds
from revde.repressilator import (
    DEFAULT_INITIAL_STATE,
    DEFAULT_PARAM_BOUNDS,
    TRUE_PARAMS,
    IntegrationError,
    ObservationSet,
    default_observation_times,
    generate_observations,
    integrate,
    make_fit_objective,
    read_observations_csv,
    write_observations_csv,
    write_param_history_csv,
)
from revde.transforms import Population


def y0_default():
    return np.array(DEFAULT_INITIAL_STATE, dtype=float)


def fit_value(params, obs):
    """The batch fit objective on one candidate, as a one-row batch."""
    candidate = np.atleast_2d(np.asarray(params, dtype=float))
    return make_fit_objective(obs).evaluate(candidate)[0]


class TestParams:
    """A parameter set is a row (alpha0, n, beta, alpha) of four finite,
    non-negative numbers, which ``integrate`` checks."""

    def test_true_values(self):
        assert TRUE_PARAMS.dtype == np.float64
        assert TRUE_PARAMS.tolist() == [1.0, 2.0, 5.0, 1000.0]
        with pytest.raises(ValueError, match="read-only"):
            TRUE_PARAMS[0] = 2.0

    def test_array_round_trip(self):
        # a list is the same row as its float64 array, down to the samples' bytes
        t = np.array([0.0, 1.0, 2.0])
        row = [0.5, 2.2, 4.0, 800.0]
        assert integrate(row, times=t).tobytes() == integrate(np.array(row), times=t).tobytes()

    def test_rejects_negative_and_nonfinite(self):
        for i, bad, why in ((0, -0.1, "non-negative"), (2, math.nan, "finite"),
                            (3, math.inf, "finite")):
            row = TRUE_PARAMS.tolist()
            row[i] = bad
            with pytest.raises(ValueError, match=why):
                integrate(row)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="4 numbers"):
            integrate([1.0, 2.0, 5.0])


def rates(state, params=TRUE_PARAMS):
    """The stepper's right-hand side ``_rhs`` at one state."""
    return repressilator._rhs(*map(float, params), state)


class TestDerivatives:
    def test_known_state_exact(self):
        # alpha/(1+p^2) is exact at p=3,2,1: 100, 200, 500
        assert rates(tuple(DEFAULT_INITIAL_STATE)) == (101.0, -10.0, 201.0, -5.0, 501.0, -15.0)

    def test_accepts_plain_sequence_params(self):
        # numpy scalars, as a fit's rows would give them, rate the same as floats
        d = repressilator._rhs(*np.array([1.0, 2.0, 5.0, 1000.0]), tuple(DEFAULT_INITIAL_STATE))
        assert [float(v) for v in d] == [101.0, -10.0, 201.0, -5.0, 501.0, -15.0]

    def test_protein_rate_zero_at_equilibrium(self):
        d = rates((1.0, 1.0, 2.0, 2.0, 3.0, 3.0))
        assert d[1] == 0.0 and d[3] == 0.0 and d[5] == 0.0

    def test_repression_wiring(self):
        # only p3 feeds m1, only p1 feeds m2, only p2 feeds m3
        base = rates((0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        bump_p3 = rates((0.0, 0.0, 0.0, 0.0, 0.0, 10.0))
        assert bump_p3[0] != base[0]
        assert bump_p3[2] == base[2] and bump_p3[4] == base[4]

    def test_nonpositive_protein_clamps_to_full_rate(self):
        d = rates((1.0, 5.0, 0.0, 0.0, 0.0, 0.0))
        assert d[0] == -1.0 + 1000.0 + 1.0

    def test_huge_protein_suppresses_fully(self):
        d = rates((1.0, 0.0, 0.0, 0.0, 0.0, 1e30), [1.0, 100.0, 5.0, 1000.0])
        assert d[0] == 0.0   # p**n would overflow; repression saturates

    def test_rejects_wrong_state_shape(self):
        with pytest.raises(ValueError):
            rates((1.0, 2.0, 3.0))


class TestIntegrate:
    def test_pure_decay_matches_analytic(self):
        # horizon kept short enough that the solution stays well above the
        # absolute-tolerance floor, where pointwise relative error is meaningful
        p = [0.0, 2.0, 0.0, 0.0]
        y0 = np.array([2.0, 2.0, 1.0, 1.0, 3.0, 3.0])
        t = np.linspace(0.0, 5.0, 33)
        out = integrate(p, y0, t)
        for col, m0 in ((0, 2.0), (2, 1.0), (4, 3.0)):
            exact = m0 * np.exp(-t)
            assert np.max(np.abs(out[:, col] - exact) / exact) < 1e-6
        # beta=0 freezes the proteins
        assert np.max(np.abs(out[:, 1] - 2.0)) < 1e-12

    def test_single_time_zero_returns_initial_state(self):
        out = integrate(TRUE_PARAMS, y0_default(), np.array([0.0]))
        assert np.array_equal(out[0], y0_default())

    def test_default_grid_shape(self):
        out = integrate(TRUE_PARAMS)
        assert out.shape == (40, 6)

    def test_sustained_oscillation(self):
        t = np.linspace(0.0, 40.0, 801)
        m1 = integrate(TRUE_PARAMS, y0_default(), t)[:, 0]
        assert m1.max() > 50.0
        second_half = m1[400:]
        assert np.ptp(second_half) > 30.0   # limit cycle, not a transient
        interior = m1[1:-1]
        n_peaks = np.sum((interior > m1[:-2]) & (interior > m1[2:]))
        assert n_peaks >= 3

    def test_halving_tolerances_is_converged(self):
        t = default_observation_times()
        base = integrate(TRUE_PARAMS, y0_default(), t)
        rtol, atol, max_steps = repressilator._SOLVE
        half, status = repressilator._dopri5(*TRUE_PARAMS, y0_default(), t,
                                             rtol / 2, atol / 2, max_steps)
        assert status == 0
        rel = np.abs(base - half) / np.maximum(np.abs(half), 1.0)
        assert rel.max() < 1e-4

    def test_accepts_param_array(self):
        a = integrate(TRUE_PARAMS, y0_default(), np.array([0.0, 1.0]))
        b = integrate(np.array([1.0, 2.0, 5.0, 1000.0]), y0_default(),
                      np.array([0.0, 1.0]))
        assert np.array_equal(a, b)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            integrate(TRUE_PARAMS, np.zeros(5), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            integrate(TRUE_PARAMS, y0_default(), np.array([]))
        with pytest.raises(ValueError):
            integrate(TRUE_PARAMS, y0_default(), np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            integrate(TRUE_PARAMS, y0_default(), np.array([0.0, 1.0, 1.0]))
        # a NaN time gave the initial state for every sample, an inf time
        # ran out the step budget
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                integrate(TRUE_PARAMS, times=[0.0, 1.0, bad])

    @pytest.mark.parametrize("initial", [
        [math.nan] * 6, [1.0, 2.0, math.inf, 1.0, 0.0, 3.0], [-1e9, 2.0, 0.0, 1.0, 0.0, 3.0],
    ], ids=["nan", "inf", "negative"])
    def test_rejects_nonfinite_or_negative_initial_state(self, initial):
        # NaN failed as a stiffness IntegrationError that blamed the
        # parameters, and a negative concentration was solved
        with pytest.raises(ValueError, match="initial state must be finite and non-negative"):
            integrate(TRUE_PARAMS, initial)

    def test_step_budget_exhaustion_raises(self):
        with pytest.raises(IntegrationError):
            integrate(TRUE_PARAMS, y0_default(), max_steps=3)

    def test_overflowing_slope_is_step_underflow(self):
        # |f| / scale overflows at the start, so the initial step guess is 0
        huge = [1.0, 2.0, 1e300, 1000.0]
        with pytest.raises(IntegrationError, match="underflow"):
            integrate(huge)
        assert fit_value(huge, ObservationSet(default_observation_times(),
                                              np.zeros((40, 3)))) == math.inf


class TestObservations:
    def test_zero_noise_matches_trajectory(self):
        t = default_observation_times()
        clean = integrate(TRUE_PARAMS, y0_default(), t)[:, (0, 2, 4)]
        obs = generate_observations(TRUE_PARAMS, times=t, noise_std=0.0,
                                    rng=np.random.default_rng(0))
        assert np.array_equal(obs.mrna, clean)

    def test_noise_scale(self):
        t = default_observation_times()
        clean = integrate(TRUE_PARAMS, y0_default(), t)[:, (0, 2, 4)]
        obs = generate_observations(TRUE_PARAMS, times=t, noise_std=5.0,
                                    rng=np.random.default_rng(123))
        residual = obs.mrna - clean
        assert 4.0 < residual.std() < 6.0
        assert abs(residual.mean()) < 2.0

    def test_rng_reproducibility(self):
        a = generate_observations(TRUE_PARAMS, rng=np.random.default_rng(9))
        b = generate_observations(TRUE_PARAMS, rng=np.random.default_rng(9))
        assert np.array_equal(a.mrna, b.mrna)

    def test_observation_set_validation(self):
        t = np.array([0.0, 1.0, 2.0])
        good = np.zeros((3, 3))
        with pytest.raises(ValueError):
            ObservationSet(np.array([0.0, 2.0, 1.0]), good)
        with pytest.raises(ValueError):
            ObservationSet(t, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            ObservationSet(t, np.zeros((3, 2)))
        with pytest.raises(ValueError, match="at or after 0"):   # fits integrate from t = 0
            ObservationSet(t - 1.0, good)
        assert ObservationSet(t, good).times.size == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        # a NaN cell would score every candidate NaN, an inf time exhaust
        # every solve's step budget: both gave a silent +inf run
        t = np.array([0.0, 1.0, 2.0])
        mrna = np.zeros((3, 3))
        mrna[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            ObservationSet(t, mrna)
        with pytest.raises(ValueError, match="finite"):
            ObservationSet(np.array([0.0, 1.0, bad]), np.zeros((3, 3)))


@pytest.fixture(scope="module")
def clean_obs():
    t = default_observation_times()
    mrna = integrate(TRUE_PARAMS, y0_default(), t)[:, (0, 2, 4)]
    return ObservationSet(t, mrna)


class TestFitObjective:
    def test_self_fit_is_zero(self, clean_obs):
        assert fit_value(TRUE_PARAMS, clean_obs) < 1e-12

    def test_uniform_offset_gives_exact_distance(self, clean_obs):
        shifted = ObservationSet(clean_obs.times,
                                 clean_obs.mrna + np.array([3.0, 4.0, 0.0]))
        assert fit_value(TRUE_PARAMS, shifted) == 5.0

    def test_batch_matches_scalar(self, clean_obs):
        cands = np.array([
            [1.0, 2.0, 5.0, 1000.0],
            [0.5, 2.2, 4.0, 800.0],
            [2.0, 1.8, 6.0, 1200.0],
        ])
        obj = make_fit_objective(clean_obs)
        batch = obj.evaluate(cands)
        rows = np.array([fit_value(c, clean_obs) for c in cands])
        assert np.array_equal(batch, rows)
        assert obj.evaluation_counter == 3
        # each row is the mean mRNA distance of integrate's samples
        for c, value in zip(cands, batch):
            sim = integrate(c, times=clean_obs.times)[:, (0, 2, 4)]
            assert value == np.mean(np.sqrt(np.sum((clean_obs.mrna - sim) ** 2, axis=1)))

    def test_box_below_zero_rejected(self, clean_obs):
        below = BoxBounds(lower=np.array([-5.0, -3.0, 0.1, 1.0]),
                          upper=np.array([-1.0, -1.0, 20.0, 2000.0]))
        with pytest.raises(ValueError, match="non-negative"):
            make_fit_objective(clean_obs, bounds=below)
        at_zero = BoxBounds(lower=np.zeros(4), upper=np.array([10.0, 10.0, 20.0, 2000.0]))
        assert make_fit_objective(clean_obs, bounds=at_zero).bounds is at_zero

    def test_batch_is_row_permutation_equivariant(self, clean_obs):
        rng = np.random.default_rng(4)
        cands = rng.uniform([0.1, 1.0, 1.0, 100.0], [3.0, 3.0, 8.0, 1500.0],
                            size=(6, 4))
        perm = rng.permutation(6)
        obj = make_fit_objective(clean_obs)
        assert np.array_equal(obj.evaluate(cands)[perm], obj.evaluate(cands[perm]))


class TestProcessSplit:
    """The fit batch dealt over forked processes, one per usable CPU.

    Each test sets the CPU count, so the split runs on a 1-CPU machine
    too.  After every batch no child may be left: ``os.waitpid(-1,
    WNOHANG)`` raises ``ChildProcessError`` only when none exists.
    """

    @pytest.fixture(scope="class")
    def cands(self):
        rng = np.random.default_rng(11)
        return rng.uniform([0.1, 1.0, 1.0, 100.0], [3.0, 3.0, 8.0, 1500.0], size=(5, 4))

    @staticmethod
    def set_cpus(monkeypatch, cpus):
        monkeypatch.setattr(_util, "_usable_cpus", lambda: cpus)

    @staticmethod
    def assert_no_children():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def raise_on(monkeypatch, marker, exc=ZeroDivisionError, only_in_children=False):
        """Make the solve of any row whose alpha0 is ``marker`` raise ``exc``."""
        solve, parent = repressilator._dopri5, os.getpid()

        def failing(a0, *args):
            if a0 == marker and not (only_in_children and os.getpid() == parent):
                raise exc("planted")
            return solve(a0, *args)

        monkeypatch.setattr(repressilator, "_dopri5", failing)

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_values_byte_identical(self, monkeypatch, clean_obs, cands, k):
        batch = make_fit_objective(clean_obs).batch_fn
        forks = []
        fork = os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        values = {}
        for cpus in (1, 2, 3):
            self.set_cpus(monkeypatch, cpus)
            forks.clear()
            values[cpus] = batch(cands[:k])
            assert len(forks) == max(0, min(cpus, k) - 1)
            assert values[cpus].dtype == np.float64 and values[cpus].shape == (k,)
            self.assert_no_children()
        assert values[2].tobytes() == values[1].tobytes() == values[3].tobytes()

    def test_processes_per_batch(self, monkeypatch):
        self.set_cpus(monkeypatch, 3)
        assert [_util.split_processes(k) for k in (0, 1, 2, 3, 600)] == [0, 1, 2, 3, 3]
        monkeypatch.delattr(os, "fork")
        assert _util.split_processes(600) == 1

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_child_exception_is_the_serial_one(self, monkeypatch, clean_obs, cands, cpus):
        self.raise_on(monkeypatch, cands[1, 0])    # row 1 is in child 1's share
        batch = make_fit_objective(clean_obs).batch_fn
        self.set_cpus(monkeypatch, 1)
        with pytest.raises(ZeroDivisionError):
            batch(cands[:3])
        self.set_cpus(monkeypatch, cpus)
        with pytest.raises(ZeroDivisionError):
            batch(cands[:3])
        self.assert_no_children()

    def test_failed_child_share_scored_in_process(self, monkeypatch, clean_obs, cands):
        batch = make_fit_objective(clean_obs).batch_fn
        self.set_cpus(monkeypatch, 1)
        serial = batch(cands)
        self.raise_on(monkeypatch, cands[1, 0], exc=KeyboardInterrupt, only_in_children=True)
        self.set_cpus(monkeypatch, 2)
        assert batch(cands).tobytes() == serial.tobytes()
        self.assert_no_children()

    def test_unloadable_child_data_scored_in_process(self, monkeypatch, clean_obs, cands):
        batch = make_fit_objective(clean_obs).batch_fn
        self.set_cpus(monkeypatch, 1)
        serial = batch(cands)
        distance, parent = repressilator._mrna_distance, os.getpid()

        def unloadable(*args):   # a child's losses pickle but do not load in the caller
            return distance(*args) if os.getpid() == parent else Unloadable()

        monkeypatch.setattr(repressilator, "_mrna_distance", unloadable)
        for cpus in (2, 3):
            self.set_cpus(monkeypatch, cpus)
            assert batch(cands).tobytes() == serial.tobytes()
            self.assert_no_children()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_first_failing_row_raises(self, monkeypatch, clean_obs, cands, cpus):
        """Rows 2 and 3 raise: row 2's error, as in a serial batch.  Over 2
        processes row 2 fails in the caller's share and row 3 in the child's;
        over 3, row 3 fails in the caller's share and row 2 in a child's."""
        solve, failing = repressilator._dopri5, {cands[2, 0]: 2, cands[3, 0]: 3}

        def planted(a0, *args):
            if a0 in failing:
                raise KeyError(failing[a0])
            return solve(a0, *args)

        monkeypatch.setattr(repressilator, "_dopri5", planted)
        self.set_cpus(monkeypatch, cpus)
        with pytest.raises(KeyError) as exc:
            make_fit_objective(clean_obs).batch_fn(cands)
        assert exc.value.args == (2,)
        self.assert_no_children()

    @pytest.mark.parametrize("cpus, row", [(2, 3), (3, 4)])
    def test_child_killed_mid_batch_scored_in_process(self, monkeypatch, clean_obs, cands,
                                                      cpus, row):
        # child 1's share is rows [1, 3] over 2 processes and [1, 4] over 3:
        # it dies by SIGKILL at its second row
        batch = make_fit_objective(clean_obs).batch_fn
        self.set_cpus(monkeypatch, 1)
        serial = batch(cands)
        solve, parent = repressilator._dopri5, os.getpid()

        def dying(a0, *args):
            if a0 == cands[row, 0] and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return solve(a0, *args)

        monkeypatch.setattr(repressilator, "_dopri5", dying)
        self.set_cpus(monkeypatch, cpus)
        assert batch(cands).tobytes() == serial.tobytes()
        self.assert_no_children()

    def test_fork_failure_scored_in_process(self, monkeypatch, clean_obs, cands):
        batch = make_fit_objective(clean_obs).batch_fn
        self.set_cpus(monkeypatch, 1)
        serial = batch(cands)

        def no_fork():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", no_fork)
        self.set_cpus(monkeypatch, 3)
        assert batch(cands).tobytes() == serial.tobytes()

    def test_parent_exception_reaps_every_child(self, monkeypatch, clean_obs, cands):
        self.raise_on(monkeypatch, cands[0, 0], exc=KeyError)   # the parent's share
        self.set_cpus(monkeypatch, 3)
        with pytest.raises(KeyError):
            make_fit_objective(clean_obs).batch_fn(cands)
        self.assert_no_children()


class TestCsvInterchange:
    def test_observations_round_trip_exact(self, tmp_path):
        obs = generate_observations(TRUE_PARAMS, noise_std=5.0,
                                    rng=np.random.default_rng(2))
        path = tmp_path / "obs.csv"
        write_observations_csv(obs, path)
        back = read_observations_csv(path)
        assert np.array_equal(back.times, obs.times)
        assert np.array_equal(back.mrna, obs.mrna)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,a,b,c\n0,1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_observations_csv(path)

    def test_field_count_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,m1,m2,m3\n0,1,2,3\n1,4,5\n")
        with pytest.raises(ValueError, match=":3"):
            read_observations_csv(path)

    def test_non_numeric_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,m1,m2,m3\n0,1,two,3\n")
        with pytest.raises(ValueError, match=":2"):
            read_observations_csv(path)

    def test_blank_lines_keep_file_line_numbers(self, tmp_path):
        path = tmp_path / "obs_blank.csv"
        path.write_text("\nt,m1,m2,m3\n0,1,2,3\n\n1,1,2,x\n")
        with pytest.raises(ValueError, match=r"obs_blank\.csv:5: non-numeric field"):
            read_observations_csv(path)
        path.write_text("t,m1,m2,m3\n\n0,1,2,3\n  \n\n1,4,5\n")
        with pytest.raises(ValueError, match=r":6: expected 4 fields"):
            read_observations_csv(path)

    @pytest.mark.parametrize("row", ["1,5,nan,3", "inf,5,1,3", "1,-inf,1,3"])
    def test_non_finite_reported_with_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"t,m1,m2,m3\n0,1,2,3\n{row}\n2,1,1,1\n")
        with pytest.raises(ValueError, match=r":3: non-finite field"):
            read_observations_csv(path)

    def test_param_history_schema(self, tmp_path):
        history = [
            Population(np.tile([1.0, 2.0, 5.0, 1000.0], (4, 1)), np.full(4, 3.5)),
            Population(np.array([[1.5, 2.1, 5.2, 990.0], [0.9, 1.9, 4.8, 1010.0]] * 2),
                       np.array([2.5, 2.25] * 2), generation=1),
        ]
        path = tmp_path / "hist.csv"
        write_param_history_csv(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "gen,alpha0,n,beta,alpha,objective"
        assert len(lines) == 9
        assert lines[1] == "0,1.0,2.0,5.0,1000.0,3.5"
        assert lines[6].startswith("1,0.9,")


GOLDEN_PATH = Path(__file__).with_name("repressilator_golden.json")


class TestGolden:
    """Bit-identity of the stepper against values recorded from revde 0.1.0.

    ``repressilator_golden.json`` holds ``float.hex`` of every
    ``integrate`` sample and of the fit objective at fixed candidates:
    the true parameters, both box corners, two interior points, a
    custom grid and initial state, a step underflow (beta=1e100), a
    step budget of 3 and the stiff beta=1e6 candidate, which exhausts
    the default budget.  The values were recorded with the stepper
    written on 6-element numpy arrays; any change to the order of the
    floating-point operations shows up here as a changed bit.
    """

    golden = json.loads(GOLDEN_PATH.read_text())

    @pytest.fixture(scope="class")
    def obs(self):
        spec = self.golden["observations"]
        return generate_observations(TRUE_PARAMS, noise_std=spec["noise_std"],
                                     rng=np.random.default_rng(spec["seed"]))

    @pytest.mark.parametrize("case", golden["cases"], ids=lambda c: c["name"])
    def test_samples_and_fit_bit_identical(self, case, obs):
        kwargs = {k: case[k] for k in ("initial", "times", "max_steps") if k in case}
        if "samples" in case:
            out = integrate(case["params"], **kwargs)
            assert [[v.hex() for v in row] for row in out.tolist()] == case["samples"]
        if "error" in case:
            with pytest.raises(IntegrationError) as info:
                integrate(case["params"], **kwargs)
            assert str(info.value) == case["error"]
        if "fit" in case:
            assert fit_value(case["params"], obs).hex() == case["fit"]


class TestHillCutoff:
    """Below ``_hill_cutoff(n)`` the stepper skips the log of the Hill guard.

    That is sound only if n*log(p) <= 700 holds there for certain, so
    that the guarded form would take alpha / (1 + p^n) as well.
    """

    @staticmethod
    def floats_below(p_hi, count=8):
        p = p_hi
        for _ in range(count):
            p = math.nextafter(p, 0.0)
            yield p

    @settings(max_examples=500, deadline=None)
    @given(hn=st.floats(min_value=0.0, max_value=10.0, exclude_min=True))
    @example(hn=699.0 / 709.0)
    @example(hn=math.nextafter(699.0 / 709.0, math.inf))
    @example(hn=5e-324)
    @example(hn=10.0)
    def test_guard_cannot_fire_below_cutoff(self, hn):
        p_hi = repressilator._hill_cutoff(hn)
        if p_hi == math.inf:
            assert 699.0 / hn >= 709.0
            below = [sys.float_info.max, *self.floats_below(sys.float_info.max)]
        else:
            assert 1.0 < p_hi < sys.float_info.max
            below = list(self.floats_below(p_hi))
        for p in below:
            assert hn * math.log(p) <= 700.0
            assert repressilator._hill(1000.0, hn, p) == 1000.0 / (1.0 + p ** hn)

    def test_zero_n_has_no_cutoff(self):
        assert repressilator._hill_cutoff(0.0) == math.inf
        assert 0.0 * math.log(sys.float_info.max) <= 700.0

    @pytest.mark.parametrize("hn", [-1.0, -5e-324, math.nan])
    def test_negative_or_nan_n_takes_the_guard(self, hn):
        assert repressilator._hill_cutoff(hn) == 0.0

    def test_cutoff_is_where_the_guard_is_near(self):
        # the fast path covers all but the last ~1/700 of log(p)'s range to the guard
        for hn in (1.0, 2.0, 10.0):
            p_hi = repressilator._hill_cutoff(hn)
            assert 699.0 - 1e-9 < hn * math.log(p_hi) < 700.0


def box_floats(lower, upper):
    return st.tuples(*(st.floats(min_value=lo, max_value=hi)
                       for lo, hi in zip(lower.tolist(), upper.tolist())))


class TestReferenceStepper:
    """The inlined stepper against the frozen tuple-based one, bit for bit."""

    @staticmethod
    def assert_same_as_reference(*args):
        got, status = repressilator._dopri5(*args)
        want, want_status = _reference_dopri5._dopri5(*args)
        assert status == want_status
        if status == 0:
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        return status

    # anywhere in the default box, or within 10 % of the truth, where a fit
    # spends most of its solves and each solve takes the most steps
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(params=st.one_of(
        box_floats(DEFAULT_PARAM_BOUNDS.lower, DEFAULT_PARAM_BOUNDS.upper),
        box_floats(TRUE_PARAMS * 0.9, TRUE_PARAMS * 1.1)))
    def test_in_box_samples_bit_identical(self, params):
        self.assert_same_as_reference(*params, DEFAULT_INITIAL_STATE,
                                      default_observation_times(), *repressilator._SOLVE)

    @pytest.mark.parametrize("params, initial", [
        # n = 0, no cutoff; proteins start at exactly 0, where the guard gives alpha
        ((1.0, 0.0, 5.0, 1000.0), (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
        # n below 699/709, cutoff at infinity; p^n of a 1e300 protein stays finite
        ((1.0, 0.98, 5.0, 1000.0), (0.0, 1e300, 0.0, 1.0, 0.0, 3.0)),
        # a protein the guard collapses to 0, one below the cutoff, one below 0
        ((1.0, 100.0, 5.0, 1000.0), (0.0, 1e30, 0.0, 1.0, 0.0, -1.0)),
        ((0.0, 2.0, 0.0, 0.0), (2.0, 2.0, 1.0, 1.0, 3.0, 3.0)),     # pure decay
        ((1.0, 2.0, 1e100, 1000.0), tuple(DEFAULT_INITIAL_STATE)),  # step underflow
    ])
    def test_guard_edges_bit_identical(self, params, initial):
        self.assert_same_as_reference(*params, np.array(initial),
                                      np.linspace(0.0, 10.0, 21), 1e-6, 1e-8, 20_000)

    # one input per branch of the step loop's conditionals; an instrumented
    # copy of the stepper confirmed that each reaches the branch it names
    @pytest.mark.parametrize("params, initial, t_end, max_steps, status", [
        # accepted steps with err == 0, factor 5: every rate is exactly 0, and
        # the step grid shows in the samples through the Hermite weights
        ((0.0, 2.0, 0.0, 0.0), tuple(DEFAULT_INITIAL_STATE), 10.0, 20_000, 0),
        # accepted steps whose factor is clamped at 5
        ((1.0, 2.0, 5.0, 1000.0), tuple(DEFAULT_INITIAL_STATE), 10.0, 20_000, 0),
        # rejected steps whose factor is floored at 0.2: a Hill switch at p = 1
        ((1.0, 1000.0, 1.0, 1e300), (0.0, 3.0, 0.0, 3.0, 0.0, 3.0), 10.0, 20_000, 0),
        # the underflow guard at t > 1: p1 grows as e^t until a step overflows
        ((1.0, 2.0, -1.0, 1000.0), (0.0, 1e300, 0.0, 1.0, 0.0, 3.0), 40.0, 20_000, 1),
        # the step budget runs out one step short: this solve takes 254 steps
        ((1.0, 2.0, 5.0, 1000.0), tuple(DEFAULT_INITIAL_STATE), 10.0, 253, 2),
        # a non-finite trial state shrinks the step, and the solve recovers
        ((1.0, 1000.0, 0.1, 1.7e308), (0.0, 3.0, 0.0, 3.0, 0.0, 3.0), 10.0, 20_000, 0),
    ])
    def test_loop_branches_bit_identical(self, params, initial, t_end, max_steps, status):
        assert self.assert_same_as_reference(*params, np.array(initial),
                                             np.linspace(0.0, t_end, 21), 1e-6, 1e-8,
                                             max_steps) == status


class TestScipyOracle:
    """The batch fit objective against an independent tight DOP853 solve."""

    @staticmethod
    def rhs(_t, y, a0, n, b, a):
        # the model restated, so a fault in the library's RHS cannot cancel
        def hill(p):
            if p <= 0.0:
                return a
            return 0.0 if n * math.log(p) > 700.0 else a / (1.0 + p ** n)

        m1, p1, m2, p2, m3, p3 = y
        return [-m1 + hill(p3) + a0, -b * (p1 - m1),
                -m2 + hill(p1) + a0, -b * (p2 - m2),
                -m3 + hill(p2) + a0, -b * (p3 - m3)]

    def test_matches_dop853(self):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        obs = generate_observations(TRUE_PARAMS, noise_std=5.0,
                                    rng=np.random.default_rng(7))
        rng = np.random.default_rng(11)
        box = DEFAULT_PARAM_BOUNDS
        cands = rng.uniform(box.lower, box.upper, size=(5, 4))
        for cand, got in zip(cands, make_fit_objective(obs).evaluate(cands)):
            sol = solve_ivp(self.rhs, (0.0, obs.times[-1]), DEFAULT_INITIAL_STATE,
                            method="DOP853", t_eval=obs.times, rtol=1e-11, atol=1e-11,
                            args=tuple(cand))
            assert sol.success, sol.message
            sim = sol.y[(0, 2, 4), :].T
            want = np.mean(np.sqrt(np.sum((obs.mrna - sim) ** 2, axis=1)))
            assert got == pytest.approx(want, rel=1e-6, abs=0.0)
