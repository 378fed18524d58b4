"""MLP classification error over image data, one batch of candidates at a time.

The network is 196-20-10 with ReLU hidden units and NO bias terms; that
is the only decomposition giving the documented 4120-weight count
(196*20 + 20*10 = 3920 + 200).  A candidate weight vector lays out the
input->hidden block first (row-major, 3920 entries) followed by the
hidden->output block (200 entries).  The predicted class is the argmax
of the output logits; :func:`classification_error_batch` scores a
``(K, 4120)`` batch, and one candidate is a one-row batch.

Includes one IDX reader and one IDX writer (the MNIST distribution
format, gzip detected by magic bytes) that serve both images (3-D) and
labels (1-D): the magic is ``0x0800`` plus the number of dimensions, and
each kind keeps its own checks around them.  Also 2x2 average-pool
downsampling of ``(N, 784)`` rows of 28x28 images to ``(N, 196)``.
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass

import numpy as np

from .engine import BoxBounds, Objective

__all__ = [
    "MlpShape",
    "SHAPE",
    "ImageDataset",
    "IdxError",
    "IdxMagicError",
    "IdxTruncatedError",
    "IdxCountMismatchError",
    "load_idx",
    "write_idx_images",
    "write_idx_labels",
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
        labels = np.asarray(self.labels, dtype=np.int64)
        if images.ndim != 2 or images.shape[0] == 0:
            raise ValueError(f"images must be a non-empty (N, P) array, got {images.shape}")
        if labels.shape != (images.shape[0],):
            raise ValueError(
                f"labels must have shape ({images.shape[0]},), got {labels.shape}"
            )
        if images.min() < 0.0 or images.max() > 1.0:
            raise ValueError("pixel values must lie in [0, 1]")
        if labels.min() < 0 or labels.max() > 9:
            raise ValueError("labels must lie in 0..9")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "labels", labels)

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
    expected = header + math.prod(dims)
    if len(data) != expected:
        shape = f" of {'x'.join(map(str, dims[1:]))}" if ndim > 1 else ""
        raise IdxTruncatedError(
            f"{path}: expected {expected} bytes for {dims[0]} {kind}s{shape}, got {len(data)}"
        )
    return np.frombuffer(data, dtype=np.uint8, offset=header).reshape(dims)


def _write_idx(path, arr: np.ndarray) -> None:
    """Write a uint8 array in IDX format, gzip-compressed if ``path`` ends in .gz."""
    payload = struct.pack(f">{1 + arr.ndim}i", 0x800 + arr.ndim, *arr.shape) + arr.tobytes()
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wb") as fh:
        fh.write(payload)


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


def write_idx_images(path, images: np.ndarray) -> None:
    """Write uint8 images of shape (N, H, W) in IDX format (gzip if *.gz)."""
    arr = np.asarray(images)
    if arr.ndim != 3:
        raise ValueError(f"images must be (N, H, W), got shape {arr.shape}")
    if arr.dtype != np.uint8:
        raise ValueError(f"images must be uint8, got {arr.dtype}")
    _write_idx(path, arr)


def write_idx_labels(path, labels: np.ndarray) -> None:
    """Write class labels 0..255 as a 1-D IDX file (gzip if *.gz)."""
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {arr.shape}")
    if arr.min() < 0 or arr.max() > 255:
        raise ValueError("labels must fit in a byte")
    _write_idx(path, arr.astype(np.uint8))


def downsample(images: np.ndarray) -> np.ndarray:
    """(N, 784) rows of 28x28 images -> (N, 196) by non-overlapping 2x2 average pooling."""
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 784:
        raise ValueError(f"expected (N, 784) rows of 28x28 images, got shape {arr.shape}")
    return arr.reshape(-1, 14, 2, 14, 2).mean(axis=(2, 4)).reshape(-1, 196)


# Hidden activations per chunk of candidates, in float64 values (2.56 MB):
# 8 candidates at 2000 images.  Stacking candidates lets one BLAS product
# read the images once for the chunk instead of once per candidate; the
# cap keeps peak memory flat however many candidates a batch holds.
_CHUNK_HIDDEN_VALUES = 320_000


def _chunk_errors(weights_batch, dataset: ImageDataset) -> np.ndarray:
    c, n, h_dim = weights_batch.shape[0], dataset.count, SHAPE.hidden_dim
    split = SHAPE.hidden_weights
    # (c*H, P) @ (P, n): images.T goes to BLAS as a transposed view
    h = weights_batch[:, :split].reshape(c * h_dim, SHAPE.input_dim) @ dataset.images.T
    np.maximum(h, 0.0, out=h)
    # (c, n, H) @ (c, H, O): class-last logits, which argmax reads in place
    w2t = weights_batch[:, split:].reshape(c, SHAPE.output_dim, h_dim).transpose(0, 2, 1)
    logits = h.reshape(c, h_dim, n).transpose(0, 2, 1) @ w2t
    pred = logits.argmax(axis=2)               # ties keep the lowest class
    return np.count_nonzero(pred != dataset.labels, axis=1) / n


def classification_error_batch(weights_batch, dataset: ImageDataset) -> np.ndarray:
    """Fraction of dataset rows misclassified, per row of a (K, 4120) weight batch.

    A row's predicted class is the argmax of its output logits, with ties
    resolved to the lowest class index.  Candidates are scored a chunk
    at a time, sized by ``_CHUNK_HIDDEN_VALUES``, which bounds the memory
    a call takes.
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
    k = wb.shape[0]
    chunk = max(1, _CHUNK_HIDDEN_VALUES // (SHAPE.hidden_dim * dataset.count))
    errors = np.empty(k)
    for i in range(0, k, chunk):
        errors[i : i + chunk] = _chunk_errors(wb[i : i + chunk], dataset)
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
