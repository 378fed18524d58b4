"""Synthetic MNIST-format (IDX) image/label files for the mlp-fit workload.

Ten coarse class templates (7x7 blocks blown up to 28x28) plus Gaussian
pixel noise, so the 196-20-10 network has something learnable.  The
writer here is independent of ``revde.mlp``: it packs the IDX header with
``struct`` and gzips by request, so both branches of the library's IDX
reader (gzip detected from the magic bytes, and plain) run during setup.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path

import numpy as np

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

FILE_NAMES = {
    "train_images": "train-images-idx3-ubyte.gz",
    "train_labels": "train-labels-idx1-ubyte.gz",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def synthetic_images(count: int, rng: np.random.Generator, templates: np.ndarray):
    """uint8 images (count, 28, 28) and uint8 labels (count,)."""
    labels = rng.integers(0, 10, size=count)
    pixels = templates[labels] * 0.8 + rng.normal(0.0, 0.25, size=(count, 28, 28))
    return (np.clip(pixels, 0.0, 1.0) * 255).astype(np.uint8), labels.astype(np.uint8)


def _write(path: Path, payload: bytes) -> None:
    if path.suffix == ".gz":
        # mtime=0 keeps the compressed bytes a function of the seed alone
        with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(payload)
    else:
        path.write_bytes(payload)


def write_idx(images: np.ndarray, labels: np.ndarray, images_path: Path, labels_path: Path) -> None:
    n, rows, cols = images.shape
    _write(images_path, struct.pack(">iiii", IMAGES_MAGIC, n, rows, cols) + images.tobytes())
    _write(labels_path, struct.pack(">ii", LABELS_MAGIC, n) + labels.tobytes())


def generate(out: Path, seed: int, train: int = 2000, test: int = 500) -> dict:
    """Write the four IDX files into ``out``; return paths and raw arrays.

    The templates and both splits are drawn from one generator seeded
    with ``seed``, so the same seed always gives the same bytes.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1D8]))
    templates = rng.uniform(0.0, 1.0, size=(10, 7, 7)).repeat(4, axis=1).repeat(4, axis=2)
    out.mkdir(parents=True, exist_ok=True)
    paths = {key: out / name for key, name in FILE_NAMES.items()}
    result = {"paths": paths}
    for split, count in (("train", train), ("test", test)):
        images, labels = synthetic_images(count, rng, templates)
        write_idx(images, labels, paths[f"{split}_images"], paths[f"{split}_labels"])
        result[split] = (images, labels)
    return result

