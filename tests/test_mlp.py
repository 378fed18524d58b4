"""MLP classifier head: weights layout, IDX files, error kernels."""

import gzip
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import make_synthetic_images, write_idx
from revde import _util, mlp
from revde.mlp import (
    DEFAULT_WEIGHT_BOUNDS,
    SHAPE,
    IdxCountMismatchError,
    IdxMagicError,
    IdxSizeError,
    IdxTruncatedError,
    ImageDataset,
    classification_error_batch,
    downsample,
    load_idx,
    make_error_objective,
    prepare_dataset,
)


@pytest.fixture(scope="module")
def synth_dataset():
    images, labels = make_synthetic_images(120, seed=1)
    return prepare_dataset(ImageDataset(images.reshape(120, 784) / 255.0, labels))


class TestShape:
    def test_weight_counts(self):
        assert SHAPE.hidden_weights == 3920
        assert SHAPE.output_weights == 200
        assert SHAPE.total_weights == 4120

    def test_default_bounds(self):
        assert DEFAULT_WEIGHT_BOUNDS.dim == 4120
        assert (DEFAULT_WEIGHT_BOUNDS.lower == -1.0).all()
        assert (DEFAULT_WEIGHT_BOUNDS.upper == 1.0).all()


class TestForward:
    """The forward pass as the batch kernel computes it."""

    def test_engineered_routing(self):
        # hidden unit 0 sums the image; only class 5 reads that unit
        w = np.zeros((1, 4120))
        w[0, :196] = 1.0
        w[0, 3920 + 5 * 20] = 1.0
        images = np.full((3, 196), 0.5)
        for label, error in ((5, 0.0), (0, 1.0)):
            dataset = ImageDataset(images, np.full(3, label))
            assert classification_error_batch(w, dataset).tolist() == [error]


class TestDownsample:
    def test_constant_image(self):
        out = downsample(np.full((1, 784), 0.25))
        assert out.shape == (1, 196)
        assert np.allclose(out, 0.25)

    def test_block_average_exact(self):
        img = np.zeros((28, 28))
        img[0, 0], img[0, 1], img[1, 0], img[1, 1] = 0.0, 1.0, 2.0, 3.0
        out = downsample(img.reshape(1, 784))
        assert out.shape == (1, 196)
        assert out[0, 0] == 1.5
        assert out[0, 1] == 0.0

    def test_rejects_other_shapes(self):
        for shape in ((4, 100), (784,), (28, 28), (5, 28, 28), (4, 27, 28), (2, 2, 28, 28)):
            with pytest.raises(ValueError):
                downsample(np.zeros(shape))


class TestIdxFiles:
    def test_round_trip_plain_and_gzip(self, synth_idx_files):
        train = load_idx(synth_idx_files["train_images"], synth_idx_files["train_labels"])
        test = load_idx(synth_idx_files["test_images"], synth_idx_files["test_labels"])
        assert train.count == 120 and test.count == 40
        assert train.pixels == 784
        assert 0.0 <= train.images.min() and train.images.max() <= 1.0
        # uint8 source: every pixel is k/255
        assert np.array_equal(train.images, np.round(train.images * 255) / 255)

    def test_label_bytes_parse(self, tmp_path):
        (tmp_path / "labels.idx").write_bytes(
            struct.pack(">ii", 0x00000801, 2) + bytes([3, 7])
        )
        (tmp_path / "images.idx").write_bytes(
            struct.pack(">iiii", 0x00000803, 2, 28, 28) + bytes(2 * 784)
        )
        ds = load_idx(tmp_path / "images.idx", tmp_path / "labels.idx")
        assert ds.labels.tolist() == [3, 7]

    def test_gzip_detected_by_content_not_suffix(self, tmp_path):
        raw = struct.pack(">ii", 0x00000801, 1) + bytes([4])
        (tmp_path / "labels.bin").write_bytes(gzip.compress(raw))
        (tmp_path / "images.bin").write_bytes(
            struct.pack(">iiii", 0x00000803, 1, 28, 28) + bytes(784)
        )
        ds = load_idx(tmp_path / "images.bin", tmp_path / "labels.bin")
        assert ds.labels.tolist() == [4]

    def test_magic_error(self, tmp_path):
        (tmp_path / "badlab.idx").write_bytes(struct.pack(">ii", 0x00000805, 1) + bytes([1]))
        (tmp_path / "badimg.idx").write_bytes(
            struct.pack(">iiii", 0x00000802, 1, 28, 28) + bytes(784)
        )
        (tmp_path / "images.idx").write_bytes(
            struct.pack(">iiii", 0x00000803, 1, 28, 28) + bytes(784)
        )
        with pytest.raises(IdxMagicError):
            load_idx(tmp_path / "images.idx", tmp_path / "badlab.idx")
        with pytest.raises(IdxMagicError):
            load_idx(tmp_path / "badimg.idx", tmp_path / "badlab.idx")

    def test_truncated_error(self, tmp_path):
        (tmp_path / "short.idx").write_bytes(
            struct.pack(">iiii", 0x00000803, 3, 28, 28) + bytes(784)
        )
        (tmp_path / "labels.idx").write_bytes(
            struct.pack(">ii", 0x00000801, 3) + bytes([0, 1, 2])
        )
        with pytest.raises(IdxTruncatedError):
            load_idx(tmp_path / "short.idx", tmp_path / "labels.idx")
        (tmp_path / "shortlab.idx").write_bytes(struct.pack(">ii", 0x00000801, 5) + bytes(2))
        (tmp_path / "ok.idx").write_bytes(
            struct.pack(">iiii", 0x00000803, 5, 28, 28) + bytes(5 * 784)
        )
        with pytest.raises(IdxTruncatedError):
            load_idx(tmp_path / "ok.idx", tmp_path / "shortlab.idx")

    def test_count_mismatch_error(self, tmp_path):
        (tmp_path / "images.idx").write_bytes(
            struct.pack(">iiii", 0x00000803, 2, 28, 28) + bytes(2 * 784)
        )
        (tmp_path / "labels.idx").write_bytes(
            struct.pack(">ii", 0x00000801, 3) + bytes([0, 1, 2])
        )
        with pytest.raises(IdxCountMismatchError):
            load_idx(tmp_path / "images.idx", tmp_path / "labels.idx")

    def test_negative_size_error(self, tmp_path):
        # the sizes' product matches the payload, so only the sign is wrong
        (tmp_path / "images.idx").write_bytes(
            struct.pack(">iiii", 0x00000803, -1, -2, 2) + bytes(4)
        )
        (tmp_path / "labels.idx").write_bytes(struct.pack(">ii", 0x00000801, 1) + bytes(1))
        with pytest.raises(IdxSizeError, match=r"images\.idx: negative image size in -1x-2x2"):
            load_idx(tmp_path / "images.idx", tmp_path / "labels.idx")
        assert issubclass(IdxSizeError, mlp.IdxError)

    def test_writers_round_trip_values(self, tmp_path):
        images, labels = make_synthetic_images(6, seed=3)
        write_idx(tmp_path / "i.idx", images)
        write_idx(tmp_path / "l.idx", labels)
        ds = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        assert np.array_equal(ds.labels, labels)
        assert np.array_equal((ds.images * 255).round().astype(np.uint8),
                              images.reshape(6, 784))


def _reference_errors(weights_batch, dataset):
    """Error per candidate from a forward pass per image, strict-> argmax."""
    errors = []
    for w in weights_batch:
        # input->hidden block first, row-major, then hidden->output
        w1, w2 = w[:3920].reshape(20, 196), w[3920:].reshape(10, 20)
        wrong = 0
        for x, label in zip(dataset.images, dataset.labels):
            logits = w2 @ np.maximum(w1 @ x, 0.0)
            best = 0
            for c in range(1, 10):
                if logits[c] > logits[best]:   # ties keep the lowest class
                    best = c
            wrong += best != label
        errors.append(wrong / dataset.count)
    return errors


class TestClassificationError:
    def test_zero_weights_predict_class_zero(self, synth_dataset):
        err = classification_error_batch(np.zeros((1, 4120)), synth_dataset)
        assert err.tolist() == [np.mean(synth_dataset.labels != 0)]

    def test_positive_scaling_invariance(self, synth_dataset):
        w = np.random.default_rng(5).uniform(-1, 1, 4120)
        errors = classification_error_batch(np.stack([w, w * 7.5]), synth_dataset)
        assert errors[0] == errors[1]

    def test_random_weights_near_chance(self, synth_dataset):
        rng = np.random.default_rng(0)
        errs = classification_error_batch(rng.uniform(-1, 1, size=(10, 4120)), synth_dataset)
        assert 0.85 < np.mean(errs) < 0.95

    def test_batch_matches_scalar(self, synth_dataset):
        # a batch scores each row as a one-row batch would
        wb = np.random.default_rng(6).uniform(-1, 1, size=(4, 4120))
        batch = classification_error_batch(wb, synth_dataset)
        rows = [classification_error_batch(w[None, :], synth_dataset)[0] for w in wb]
        assert batch.tolist() == rows

    def test_empty_batch(self, synth_dataset):
        assert classification_error_batch(np.zeros((0, 4120)), synth_dataset).shape == (0,)

    def test_error_bounds(self, synth_dataset):
        wb = np.random.default_rng(7).uniform(-1, 1, size=(3, 4120))
        vals = classification_error_batch(wb, synth_dataset)
        assert ((vals >= 0) & (vals <= 1)).all()

    def test_backend_kernels_agree(self, synth_dataset):
        # the numpy kernel is the only form; it must match the reference
        rng = np.random.default_rng(8)
        for k in (3, 1):
            wb = rng.uniform(-1, 1, size=(k, 4120))
            assert classification_error_batch(wb, synth_dataset).tolist() == _reference_errors(
                wb, synth_dataset
            )

    def test_chunks_and_remainder_match_reference(self, synth_dataset):
        chunk = mlp._CHUNK_HIDDEN_VALUES // (SHAPE.hidden_dim * synth_dataset.count)
        wb = np.random.default_rng(10).uniform(-1, 1, size=(2 * chunk + 3, 4120))
        assert classification_error_batch(wb, synth_dataset).tolist() == _reference_errors(
            wb, synth_dataset
        )

    def test_all_tied_logits_pick_class_zero(self, synth_dataset):
        # zero weights, a zero output layer or a dead hidden layer: every
        # logit is 0.0
        rng = np.random.default_rng(12)
        wb = np.zeros((6, 4120))
        wb[2:4, :3920] = rng.uniform(-1, 1, size=(2, 3920))
        wb[4:] = rng.uniform(-1, 1, size=(2, 4120))
        wb[4:, :3920] = -np.abs(wb[4:, :3920])
        expected = np.mean(synth_dataset.labels != 0)
        assert classification_error_batch(wb, synth_dataset).tolist() == [expected] * 6
        assert _reference_errors(wb, synth_dataset) == [expected] * 6

    def test_peak_memory_bounded_by_chunk_budget(self):
        rng = np.random.default_rng(13)
        dataset = ImageDataset(rng.uniform(0, 1, size=(2000, 196)), rng.integers(0, 10, 2000))
        wb = rng.uniform(-1, 1, size=(150, 4120))
        # one chunk's worth in flight, however many threads share it: its
        # hidden activations (the budget, 8 bytes each), half as many
        # logits, a byte per logit marking the classes at the top, and
        # per-image top and label logits and flags.  One product
        # over all 150 candidates would hold 48 MB of hidden activations.
        bound = 2 * 8 * mlp._CHUNK_HIDDEN_VALUES
        tracemalloc.start()
        try:
            classification_error_batch(wb, dataset)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_validation(self, synth_dataset):
        with pytest.raises(ValueError):
            classification_error_batch(np.zeros(4120), synth_dataset)
        with pytest.raises(ValueError):
            classification_error_batch(np.zeros((2, 100)), synth_dataset)


def _argmax_errors(weights_batch, dataset):
    """Error per candidate from np.argmax over its class-last (n, O) logits."""
    errors = np.empty(len(weights_batch))
    for i, w in enumerate(weights_batch):
        w1, w2 = w[:3920].reshape(20, 196), w[3920:].reshape(10, 20)
        hidden = np.maximum(w1 @ dataset.images.T, 0.0)
        pred = np.argmax(hidden.T @ w2.T, axis=1)
        errors[i] = np.count_nonzero(pred != dataset.labels) / dataset.count
    return errors


def _tied_pair(rng, a, b):
    """Weights whose output rows a and b are equal and positive, every
    other row negative: the pair ties at the top of every image whose
    hidden layer is live."""
    w = rng.uniform(-1, 1, 4120)
    w2 = w[3920:].reshape(10, 20)
    w2[:] = -np.abs(w2)
    w2[a] = w2[b] = rng.uniform(0.1, 1, 20)
    return w


# the class pick's cases; a weight row of a non-finite kind holds that
# value at a few entries of that block
PICK_KINDS = ("random", "small", "pair", "zero output", "dead hidden",
              *(f"{value} {block}" for value in ("nan", "inf", "-inf")
                for block in ("hidden", "output")))


def _pick_rows(rng, k, kinds=PICK_KINDS):
    """k weight rows cycling through ``kinds``."""
    rows = np.empty((k, 4120))
    for i in range(k):
        kind = kinds[i % len(kinds)]
        w = rows[i]
        w[:] = rng.uniform(-1, 1, 4120)
        if kind == "small":
            w *= 1e-3
        elif kind == "pair":
            w[:] = _tied_pair(rng, *rng.choice(10, 2, replace=False))
        elif kind == "zero output":
            w[3920:] = 0.0
        elif kind == "dead hidden":
            w[:3920] = -np.abs(w[:3920])
        elif kind != "random":
            value, block = kind.split()
            lo, hi = (0, 3920) if block == "hidden" else (3920, 4120)
            w[rng.integers(lo, hi, 1 + i % 3)] = float(value)
    return rows


class TestClassPick:
    """The max-and-tie pick gives np.argmax's class, ties to the lowest."""

    @pytest.mark.parametrize("k", [0, 1, 3, 7, 8, 9, 150])
    def test_matches_argmax_over_class_last_logits(self, monkeypatch, workload_dataset, k):
        wb = _pick_rows(np.random.default_rng(30 + k), k)
        # non-finite weights give inf - inf and inf * 0 in the products;
        # the caller's errstate reaches every share's thread
        with np.errstate(invalid="ignore", over="ignore"):
            expected = _argmax_errors(wb, workload_dataset).tobytes()
            for cpus in range(1, 6):
                monkeypatch.setattr(_util, "_usable_cpus", lambda: cpus)
                assert classification_error_batch(wb, workload_dataset).tobytes() == expected

    def test_matches_reference_where_finite(self, synth_dataset):
        # not the tied pair: the reference's per-image matrix-vector
        # product sums two equal rows in different orders, so they differ
        # in the last bit at about a third of the images
        wb = _pick_rows(np.random.default_rng(40), 20,
                        ("random", "small", "zero output", "dead hidden"))
        assert classification_error_batch(wb, synth_dataset).tolist() == _reference_errors(
            wb, synth_dataset)

    @pytest.mark.parametrize("pair", [(2, 7), (4, 5), (0, 9), (8, 1)])
    def test_tied_pair_picks_the_lower_class(self, workload_dataset, pair):
        # labels fall below, inside and above every pair
        wb = _tied_pair(np.random.default_rng(41), *pair)[None]
        expected = np.mean(workload_dataset.labels != min(pair))
        assert classification_error_batch(wb, workload_dataset).tolist() == [expected]
        assert _argmax_errors(wb, workload_dataset).tolist() == [expected]


@pytest.fixture(scope="module")
def workload_dataset():
    """2,000 images, the benchmark's size: chunks of 8 candidates."""
    rng = np.random.default_rng(14)
    return ImageDataset(rng.uniform(0, 1, size=(2000, 196)), rng.integers(0, 10, 2000))


@pytest.fixture
def blas_calls():
    """numpy's BLAS thread-count calls, looked up afresh; the count is
    restored after the test."""
    _util._openblas_threads.cache_clear()
    calls = _util._openblas_threads()
    if calls is None:
        pytest.skip("numpy's BLAS has no thread-count calls here")
    before = calls[0]()
    yield calls
    _util._openblas_threads.cache_clear()
    calls[1](before)


class TestThreadSplit:
    """Chunks dealt over one thread per usable CPU, faked from 1 to 5."""

    @staticmethod
    def wrap_chunks(monkeypatch, before):
        """Call ``before(thread, weights)`` ahead of scoring each chunk."""
        chunk_errors = mlp._chunk_errors

        def wrapped(weights, *args):
            before(threading.current_thread(), weights)
            return chunk_errors(weights, *args)

        monkeypatch.setattr(mlp, "_chunk_errors", wrapped)

    def plant(self, monkeypatch):
        """Make every chunk scored off the calling thread raise."""
        caller = threading.current_thread()

        def fail(thread, weights):
            if thread is not caller:
                raise ZeroDivisionError("planted off the caller")

        self.wrap_chunks(monkeypatch, fail)

    @pytest.mark.parametrize("k", [0, 1, 7, 8, 9, 50, 150])
    def test_bytes_match_serial(self, monkeypatch, workload_dataset, k):
        rng = np.random.default_rng(15 + k)
        for wb in (rng.uniform(-1, 1, size=(k, 4120)), rng.uniform(-1e-3, 1e-3, size=(k, 4120))):
            monkeypatch.setattr(_util, "_usable_cpus", lambda: 1)
            serial = classification_error_batch(wb, workload_dataset).tobytes()
            for cpus in range(2, 6):
                monkeypatch.setattr(_util, "_usable_cpus", lambda: cpus)
                assert classification_error_batch(wb, workload_dataset).tobytes() == serial

    def test_chunks_run_on_threads_within_the_budget(self, monkeypatch, workload_dataset,
                                                      blas_calls):
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 2)
        seen = []
        self.wrap_chunks(monkeypatch, lambda thread, weights: seen.append((thread, len(weights))))
        wb = np.random.default_rng(16).uniform(-1, 1, size=(150, 4120))
        classification_error_batch(wb, workload_dataset)
        # two shares of 4-candidate chunks: half the serial chunk each
        assert len({thread for thread, _ in seen}) == 2
        assert sum(rows for _, rows in seen) == 150
        assert max(rows for _, rows in seen) == 4

    @pytest.mark.parametrize("cpus", [2, 5])
    def test_share_exception_raised_in_caller(self, monkeypatch, workload_dataset, blas_calls,
                                              cpus):
        monkeypatch.setattr(_util, "_usable_cpus", lambda: cpus)
        self.plant(monkeypatch)
        active = threading.active_count()
        wb = np.random.default_rng(17).uniform(-1, 1, size=(50, 4120))
        with pytest.raises(ZeroDivisionError, match="planted off the caller"):
            classification_error_batch(wb, workload_dataset)
        assert threading.active_count() == active

    def test_blas_thread_count_restored(self, monkeypatch, workload_dataset, blas_calls):
        get, set_ = blas_calls
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 2)
        set_(3)
        wb = np.random.default_rng(18).uniform(-1, 1, size=(50, 4120))
        inside = []
        self.wrap_chunks(monkeypatch, lambda thread, weights: inside.append(get()))
        classification_error_batch(wb, workload_dataset)
        assert set(inside) == {1}
        assert get() == 3
        self.plant(monkeypatch)
        with pytest.raises(ZeroDivisionError):
            classification_error_batch(wb, workload_dataset)
        assert get() == 3

    def test_share_without_a_thread_runs_in_caller(self, monkeypatch, workload_dataset,
                                                   blas_calls):
        wb = np.random.default_rng(20).uniform(-1, 1, size=(50, 4120))
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 1)
        serial = classification_error_batch(wb, workload_dataset)
        start, started, scored = threading.Thread.start, [], []

        def second_fails(thread):
            if len(started) == 1:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", second_fails)
        self.wrap_chunks(monkeypatch, lambda thread, weights: scored.append(len(weights)))
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 4)
        active = threading.active_count()
        assert classification_error_batch(wb, workload_dataset).tobytes() == serial.tobytes()
        assert sum(scored) == 50
        assert threading.active_count() == active

    @pytest.mark.parametrize("cpus", [1, 2, 5])
    def test_caller_errstate_holds_in_every_share(self, monkeypatch, workload_dataset, cpus):
        # inf output weights times dead hidden units: inf * 0 in every chunk
        wb = np.random.default_rng(21).uniform(-1, 1, size=(50, 4120))
        wb[:, 3920] = np.inf
        monkeypatch.setattr(_util, "_usable_cpus", lambda: cpus)
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            classification_error_batch(wb, workload_dataset)
        with np.errstate(invalid="ignore"):
            classification_error_batch(wb, workload_dataset)

    def test_missing_blas_calls_start_no_thread(self, monkeypatch, workload_dataset,
                                                blas_calls):
        wb = np.random.default_rng(19).uniform(-1, 1, size=(50, 4120))
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 1)
        serial = classification_error_batch(wb, workload_dataset).tobytes()
        monkeypatch.setattr(_util, "_OPENBLAS_THREAD_CALLS", ("missing_get", "missing_set"))
        _util._openblas_threads.cache_clear()
        starts, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: starts.append(thread) or start(thread))
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 4)
        assert classification_error_batch(wb, workload_dataset).tobytes() == serial
        assert starts == []
        assert _util._openblas_threads() is None


class TestPrepareDataset:
    def test_downsamples_raw_rows(self):
        images, labels = make_synthetic_images(10, seed=4)
        ds = prepare_dataset(ImageDataset(images.reshape(10, 784) / 255.0, labels))
        assert ds.pixels == 196
        assert np.array_equal(ds.images, downsample(images.reshape(10, 784) / 255.0))

    def test_keeps_prepared_rows(self, synth_dataset):
        again = prepare_dataset(synth_dataset)
        assert np.array_equal(again.images, synth_dataset.images)

    def test_train_size_takes_first_rows(self, synth_dataset):
        sub = prepare_dataset(synth_dataset, train_size=30)
        assert sub.count == 30
        assert np.array_equal(sub.images, synth_dataset.images[:30])
        assert np.array_equal(sub.labels, synth_dataset.labels[:30])

    def test_shuffle_seed_is_deterministic_permutation(self, synth_dataset):
        a = prepare_dataset(synth_dataset, shuffle_seed=42)
        b = prepare_dataset(synth_dataset, shuffle_seed=42)
        assert np.array_equal(a.images, b.images)
        assert not np.array_equal(a.labels, synth_dataset.labels)
        assert sorted(a.labels.tolist()) == sorted(synth_dataset.labels.tolist())

    def test_invalid_sizes(self, synth_dataset):
        with pytest.raises(ValueError):
            prepare_dataset(synth_dataset, train_size=0)
        with pytest.raises(ValueError):
            prepare_dataset(synth_dataset, train_size=10_000)
        with pytest.raises(ValueError):
            prepare_dataset(ImageDataset(np.zeros((2, 100)), np.zeros(2, dtype=int)))


class TestDatasetValidation:
    def test_pixel_range(self):
        with pytest.raises(ValueError):
            ImageDataset(np.full((2, 196), 1.5), np.zeros(2, dtype=int))

    def test_rejects_nonfinite_pixels(self):
        # a row of NaN pixels was accepted and scored as misclassified
        for bad in (np.nan, np.inf, -np.inf):
            images = np.full((3, 196), 0.5)
            images[1] = bad
            with pytest.raises(ValueError, match="finite"):
                ImageDataset(images, np.zeros(3, dtype=int))

    def test_label_range(self):
        with pytest.raises(ValueError):
            ImageDataset(np.zeros((2, 196)), np.array([0, 10]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ImageDataset(np.zeros((2, 196)), np.zeros(3, dtype=int))

    @pytest.mark.parametrize("shape", [(3, 0), (0, 196), (0, 0)])
    def test_rejects_empty_images(self, shape):
        # (3, 0) failed in numpy's min() with "zero-size array to reduction"
        with pytest.raises(ValueError, match=re.escape(
                f"images must be a non-empty (N, P) array, got {shape}")):
            ImageDataset(np.zeros(shape), np.zeros(shape[0]))

    @pytest.mark.parametrize("labels, shown", [
        ([0.0, 2.7], "2.7 at index 1"), ([0.0, 9.99], "9.99 at index 1"),
        ([np.nan, 1.0], "nan at index 0"), ([1.0, -np.inf], "-inf at index 1")])
    def test_rejects_nonwhole_or_nonfinite_labels(self, labels, shown):
        # the int64 cast truncated 2.7 to 2, and NaN failed only by a cast
        # warning (an error under the suite's filterwarnings)
        with pytest.raises(ValueError, match=f"whole numbers in 0..9, got {shown}"):
            ImageDataset(np.zeros((2, 196)), np.array(labels))

    def test_accepts_whole_float_labels(self):
        ds = ImageDataset(np.zeros((3, 196)), np.array([0.0, 2.0, 9.0]))
        assert ds.labels.dtype == np.int64
        assert ds.labels.tolist() == [0, 2, 9]


class TestObjective:
    def test_counts_and_values(self, synth_dataset):
        obj = make_error_objective(synth_dataset)
        vals = obj.evaluate(np.zeros((2, 4120)))
        assert obj.evaluation_counter == 2
        assert vals[0] == vals[1] == np.mean(synth_dataset.labels != 0)

    def test_requires_prepared_dataset(self):
        images, labels = make_synthetic_images(4, seed=0)
        raw = ImageDataset(images.reshape(4, 784) / 255.0, labels)
        with pytest.raises(ValueError):
            make_error_objective(raw)
