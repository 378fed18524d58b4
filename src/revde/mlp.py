"""MLP classification error over image data, one batch of candidates at a time.

The network is 196-20-10 with ReLU hidden units and NO bias terms; that
is the only decomposition giving the documented 4120-weight count
(196*20 + 20*10 = 3920 + 200).  A candidate weight vector lays out the
input->hidden block first (row-major, 3920 entries) followed by the
hidden->output block (200 entries).  The predicted class is the argmax
of the output logits; :func:`classification_error_batch` scores a
``(K, 4120)`` batch, and one candidate is a one-row batch.

Includes an IDX-format reader/writer (the MNIST distribution format,
gzip detected by magic bytes) and 2x2 average-pool downsampling of
``(N, 784)`` rows of 28x28 images to ``(N, 196)``.
"""

from __future__ import annotations

import gzip
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

_IMAGES_MAGIC = 0x00000803
_LABELS_MAGIC = 0x00000801


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


def _read_idx_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        if head == b"\x1f\x8b":
            with gzip.open(fh) as gz:
                return gz.read()
        return fh.read()


def _parse_idx_images(path) -> np.ndarray:
    data = _read_idx_bytes(path)
    if len(data) < 16:
        raise IdxTruncatedError(f"{path}: header needs 16 bytes, file has {len(data)}")
    magic, count, rows, cols = struct.unpack(">iiii", data[:16])
    if magic != _IMAGES_MAGIC:
        raise IdxMagicError(
            f"{path}: bad image magic 0x{magic:08x}, expected 0x{_IMAGES_MAGIC:08x}"
        )
    expected = 16 + count * rows * cols
    if len(data) != expected:
        raise IdxTruncatedError(
            f"{path}: expected {expected} bytes for {count} images of {rows}x{cols}, got {len(data)}"
        )
    pixels = np.frombuffer(data, dtype=np.uint8, offset=16)
    return pixels.reshape(count, rows * cols).astype(np.float64) / 255.0


def _parse_idx_labels(path) -> np.ndarray:
    data = _read_idx_bytes(path)
    if len(data) < 8:
        raise IdxTruncatedError(f"{path}: header needs 8 bytes, file has {len(data)}")
    magic, count = struct.unpack(">ii", data[:8])
    if magic != _LABELS_MAGIC:
        raise IdxMagicError(
            f"{path}: bad label magic 0x{magic:08x}, expected 0x{_LABELS_MAGIC:08x}"
        )
    if len(data) != 8 + count:
        raise IdxTruncatedError(
            f"{path}: expected {8 + count} bytes for {count} labels, got {len(data)}"
        )
    return np.frombuffer(data, dtype=np.uint8, offset=8).astype(np.int64)


def load_idx(images_path, labels_path) -> ImageDataset:
    """Read an IDX image/label file pair (plain or gzip-compressed)."""
    images = _parse_idx_images(images_path)
    labels = _parse_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxCountMismatchError(
            f"{images_path} has {images.shape[0]} images but "
            f"{labels_path} has {labels.shape[0]} labels"
        )
    return ImageDataset(images=images, labels=labels)


def write_idx_images(path, images: np.ndarray) -> None:
    """Write uint8 images of shape (N, H, W) in IDX format (gzip if *.gz)."""
    arr = np.asarray(images)
    if arr.ndim != 3:
        raise ValueError(f"images must be (N, H, W), got shape {arr.shape}")
    if arr.dtype != np.uint8:
        raise ValueError(f"images must be uint8, got {arr.dtype}")
    n, rows, cols = arr.shape
    payload = struct.pack(">iiii", _IMAGES_MAGIC, n, rows, cols) + arr.tobytes()
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wb") as fh:
        fh.write(payload)


def write_idx_labels(path, labels: np.ndarray) -> None:
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {arr.shape}")
    if arr.min() < 0 or arr.max() > 255:
        raise ValueError("labels must fit in a byte")
    payload = struct.pack(">ii", _LABELS_MAGIC, arr.size) + arr.astype(np.uint8).tobytes()
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wb") as fh:
        fh.write(payload)


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
