"""MLP classification error over image data, one batch of candidates at a time.

The network is 196-20-10 with ReLU hidden units and NO bias terms; that
is the only decomposition giving the documented 4120-weight count
(196*20 + 20*10 = 3920 + 200).  A candidate weight vector lays out the
input->hidden block first (row-major, 3920 entries) followed by the
hidden->output block (200 entries).  The predicted class is the largest
output logit, ties going to the lowest class (``np.argmax``'s rule);
:func:`classification_error_batch` scores a ``(K, 4120)`` batch, and one
candidate is a one-row batch.  It computes the logits class-major, so
the max over classes is a contiguous reduction, and runs ``np.argmax``
only on images whose top is tied or NaN.  It deals the batch's chunks
over one thread per usable CPU, each holding numpy's BLAS to one thread
(``_util.thread_shares``), so the errors are the same bytes however many
CPUs score them.

Includes one IDX reader (the MNIST distribution format, gzip detected
by magic bytes) that serves both images (3-D) and labels (1-D): the
magic is ``0x0800`` plus the number of dimensions.  Also 2x2 average-pool
downsampling of ``(N, 784)`` rows of 28x28 images to ``(N, 196)``.
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass

import numpy as np

from ._util import split_threads, thread_shares
from .engine import BoxBounds, Objective

__all__ = [
    "MlpShape",
    "SHAPE",
    "ImageDataset",
    "IdxError",
    "IdxMagicError",
    "IdxTruncatedError",
    "IdxCountMismatchError",
    "IdxSizeError",
    "load_idx",
    "downsample",
    "classification_error_batch",
    "prepare_dataset",
    "make_error_objective",
    "DEFAULT_WEIGHT_BOUNDS",
]

@dataclass(frozen=True)
class MlpShape:
    input_dim: int = 196
    hidden_dim: int = 20
    output_dim: int = 10

    @property
    def hidden_weights(self) -> int:
        return self.input_dim * self.hidden_dim

    @property
    def output_weights(self) -> int:
        return self.hidden_dim * self.output_dim

    @property
    def total_weights(self) -> int:
        return self.hidden_weights + self.output_weights


SHAPE = MlpShape()

# optimizer box for each of the 4120 coordinates
DEFAULT_WEIGHT_BOUNDS = BoxBounds(
    lower=np.full(SHAPE.total_weights, -1.0),
    upper=np.full(SHAPE.total_weights, 1.0),
)


@dataclass(frozen=True)
class ImageDataset:
    """Flat image rows in [0, 1] plus integer class labels 0..9."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        images = np.asarray(self.images, dtype=np.float64)
        labels = np.asarray(self.labels)
        if images.ndim != 2 or images.size == 0:
            raise ValueError(f"images must be a non-empty (N, P) array, got {images.shape}")
        if labels.shape != (images.shape[0],):
            raise ValueError(
                f"labels must have shape ({images.shape[0]},), got {labels.shape}"
            )
        if not (images.min() >= 0.0 and images.max() <= 1.0):   # False for NaN too
            raise ValueError("pixel values must be finite and lie in [0, 1]")
        # checked before the int64 cast, which would truncate 2.7 to 2; False for NaN
        value = labels.astype(np.float64)
        bad = ~((value >= 0.0) & (value <= 9.0) & (value == np.floor(value)))
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(f"labels must be whole numbers in 0..9, got {labels[i].item()!r} "
                             f"at index {i}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "labels", labels.astype(np.int64))

    @property
    def count(self) -> int:
        return self.images.shape[0]

    @property
    def pixels(self) -> int:
        return self.images.shape[1]


class IdxError(Exception):
    """Base for IDX parsing failures."""


class IdxMagicError(IdxError):
    pass


class IdxTruncatedError(IdxError):
    pass


class IdxCountMismatchError(IdxError):
    pass


class IdxSizeError(IdxError):
    pass


def _read_idx(path, kind: str, ndim: int) -> np.ndarray:
    """The uint8 array of an ``ndim``-D IDX file (plain or gzip): magic
    ``0x0800 + ndim``, one big-endian int32 size per dimension, payload."""
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        if head == b"\x1f\x8b":
            with gzip.open(fh) as gz:
                data = gz.read()
        else:
            data = fh.read()
    header = 4 + 4 * ndim
    if len(data) < header:
        raise IdxTruncatedError(f"{path}: header needs {header} bytes, file has {len(data)}")
    magic, *dims = struct.unpack(f">{1 + ndim}i", data[:header])
    if magic != 0x800 + ndim:
        raise IdxMagicError(
            f"{path}: bad {kind} magic 0x{magic:08x}, expected 0x{0x800 + ndim:08x}"
        )
    if min(dims) < 0:
        raise IdxSizeError(f"{path}: negative {kind} size in {'x'.join(map(str, dims))}")
    expected = header + math.prod(dims)
    if len(data) != expected:
        shape = f" of {'x'.join(map(str, dims[1:]))}" if ndim > 1 else ""
        raise IdxTruncatedError(
            f"{path}: expected {expected} bytes for {dims[0]} {kind}s{shape}, got {len(data)}"
        )
    return np.frombuffer(data, dtype=np.uint8, offset=header).reshape(dims)


def load_idx(images_path, labels_path) -> ImageDataset:
    """Read an IDX image/label file pair (plain or gzip-compressed)."""
    images = _read_idx(images_path, "image", 3)
    labels = _read_idx(labels_path, "label", 1)
    if images.shape[0] != labels.shape[0]:
        raise IdxCountMismatchError(
            f"{images_path} has {images.shape[0]} images but "
            f"{labels_path} has {labels.shape[0]} labels"
        )
    rows = images.reshape(images.shape[0], math.prod(images.shape[1:]))
    return ImageDataset(images=rows.astype(np.float64) / 255.0, labels=labels.astype(np.int64))


def downsample(images: np.ndarray) -> np.ndarray:
    """(N, 784) rows of 28x28 images -> (N, 196) by non-overlapping 2x2 average pooling."""
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 784:
        raise ValueError(f"expected (N, 784) rows of 28x28 images, got shape {arr.shape}")
    return arr.reshape(-1, 14, 2, 14, 2).mean(axis=(2, 4)).reshape(-1, 196)


# Hidden activations in flight, in float64 values (2.56 MB): 8 candidates
# at 2000 images.  Stacking candidates lets one BLAS product read the
# images once for the chunk instead of once per candidate; the cap keeps
# peak memory flat however many candidates a batch holds.  A batch split
# over w threads gives each a chunk of 1/w of that.
_CHUNK_HIDDEN_VALUES = 320_000


def _chunk_errors(weights, dataset: ImageDataset, label_at, out, buffers) -> None:
    """Score a (c, 4120) chunk into ``out``, in the first c rows of a
    share's buffers: input weights, hidden, logits, top logits, label
    logits, classes at the top, their counts, single tops, hits.
    ``label_at`` indexes each image's label logit in a candidate's
    flattened (O, n) logits."""
    c, n, h_dim = weights.shape[0], dataset.count, SHAPE.hidden_dim
    split = SHAPE.hidden_weights
    w1, h, logits, top, label, at_top, count, single, hit = (b[:c] for b in buffers)
    np.copyto(w1, weights[:, :split].reshape(c, h_dim, SHAPE.input_dim))
    # (c*H, P) @ (P, n): images.T goes to BLAS as a transposed view
    np.matmul(w1.reshape(c * h_dim, SHAPE.input_dim), dataset.images.T,
              out=h.reshape(c * h_dim, n))
    np.maximum(h, 0.0, out=h)
    # (c, O, H) @ (c, H, n): class-major logits, so the max over classes
    # runs down contiguous rows of n images
    np.matmul(weights[:, split:].reshape(c, SHAPE.output_dim, h_dim), h, out=logits)
    np.max(logits, axis=1, out=top)
    np.take(logits.reshape(c, -1), label_at, axis=1, out=label)
    np.equal(logits, top[:, None], out=at_top)
    np.add.reduce(at_top, axis=1, dtype=np.uint8, out=count)
    np.equal(count, 1, out=single)
    np.equal(label, top, out=hit)
    if not single.all():
        # a tie, or a NaN (a NaN top, which no class equals): argmax's
        # pick, the lowest tied class or the first NaN, replaces the hit
        i, j = np.nonzero(~single)
        hit[i, j] = np.argmax(logits[i, :, j], axis=1) == dataset.labels[j]
    np.divide(n - np.count_nonzero(hit, axis=1), n, out=out)


def classification_error_batch(weights_batch, dataset: ImageDataset) -> np.ndarray:
    """Fraction of dataset rows misclassified, per row of a (K, 4120) weight batch.

    A row's predicted class is the argmax of its output logits, with ties
    resolved to the lowest class index and a NaN logit to the first NaN.
    An image counts as right when its label's logit equals the maximum
    over classes and exactly one class reaches that maximum; an image
    where the count is not one (a tie, or a NaN, whose maximum no class
    equals) takes ``np.argmax`` of its logits.  Candidates are scored a chunk
    at a time, sized by ``_CHUNK_HIDDEN_VALUES``, which bounds the memory
    a call takes.  The chunks are dealt over ``_util.split_threads``
    threads (rules in :mod:`revde._util`), each with its own buffers;
    every candidate's error is the same for any split.
    """
    wb = np.ascontiguousarray(weights_batch, dtype=np.float64)
    if wb.ndim != 2 or wb.shape[1] != SHAPE.total_weights:
        raise ValueError(
            f"expected a (K, {SHAPE.total_weights}) weight batch, got shape {wb.shape}"
        )
    if dataset.pixels != SHAPE.input_dim:
        raise ValueError(
            f"dataset rows have {dataset.pixels} pixels, the network expects {SHAPE.input_dim}"
        )
    k, n, h_dim = wb.shape[0], dataset.count, SHAPE.hidden_dim
    chunk = max(1, _CHUNK_HIDDEN_VALUES // (h_dim * n))
    # no more threads than a chunk has candidates, so each thread's chunk
    # holds at least one and the w chunks in flight stay within the budget
    w = split_threads(min(k, chunk))
    chunk //= w
    rows = min(k, chunk)
    buffers = [(np.empty((rows, h_dim, SHAPE.input_dim)), np.empty((rows, h_dim, n)),
                np.empty((rows, SHAPE.output_dim, n)), np.empty((rows, n)), np.empty((rows, n)),
                np.empty((rows, SHAPE.output_dim, n), bool), np.empty((rows, n), np.uint8),
                np.empty((rows, n), bool), np.empty((rows, n), bool)) for _ in range(w)]
    label_at = dataset.labels * n + np.arange(n)
    errors = np.empty(k)

    def share(i: int) -> None:
        for a in range(i * chunk, k, w * chunk):
            _chunk_errors(wb[a : a + chunk], dataset, label_at, errors[a : a + chunk],
                          buffers[i])

    thread_shares(share, w)
    return errors


def prepare_dataset(
    dataset: ImageDataset,
    train_size: int | None = None,
    shuffle_seed: int | None = None,
) -> ImageDataset:
    """Downsample 28x28 rows to 196 pixels and optionally subset.

    The subset is the first ``train_size`` records, matching a
    deterministic read of the source file; pass ``shuffle_seed`` to draw
    a seeded random subset instead.
    """
    images, labels = dataset.images, dataset.labels
    if images.shape[1] == 784:
        images = downsample(images)
    elif images.shape[1] != SHAPE.input_dim:
        raise ValueError(f"cannot prepare rows of {images.shape[1]} pixels")
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(images.shape[0])
        images, labels = images[order], labels[order]
    if train_size is not None:
        if not (0 < train_size <= images.shape[0]):
            raise ValueError(
                f"train_size must be in 1..{images.shape[0]}, got {train_size}"
            )
        images, labels = images[:train_size], labels[:train_size]
    return ImageDataset(images=images, labels=labels)


def make_error_objective(dataset: ImageDataset) -> Objective:
    """Engine-facing objective: candidate weights -> training error."""
    if dataset.pixels != SHAPE.input_dim:
        raise ValueError("prepare_dataset must be applied before optimization")

    def batch(x: np.ndarray) -> np.ndarray:
        return classification_error_batch(x, dataset)

    return Objective(batch, DEFAULT_WEIGHT_BOUNDS)
