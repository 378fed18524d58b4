"""Shared fixtures: synthetic image data and an IDX writer, acceptance-line
reporting, and guards that no test leaves a child process, a thread, a
temp file or an open file descriptor behind."""

import gzip
import os
import struct
import threading

import numpy as np
import pytest

# filled by test_acceptance.py; printed after the run so the pass/fail
# line per criterion survives pytest's output capture
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process, running or unreaped:
    ``os.waitpid(-1, WNOHANG)`` raises ``ChildProcessError`` only when
    the process has no child at all."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process ({'running' if pid == 0 else pid})")


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail a test that leaves alive a thread that was not running before it."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"the test left threads running: {', '.join(left)}")


@pytest.fixture(autouse=True)
def no_temp_left(request):
    """Fail a test that leaves an ``atomic_write_text`` temp file
    (``.tmp-*~``) anywhere under its ``tmp_path``."""
    if "tmp_path" not in request.fixturenames:
        yield
        return
    root = request.getfixturevalue("tmp_path")
    yield
    left = sorted(str(p.relative_to(root)) for p in root.rglob(".tmp-*~"))
    if left:
        pytest.fail(f"the test left temp files: {', '.join(left)}")


@pytest.fixture(autouse=True)
def no_fd_left():
    """Fail a test that leaves open a file descriptor that was not open
    before it; no check where ``/proc/self/fd`` is missing."""
    fds = "/proc/self/fd"
    if not os.path.isdir(fds):
        yield
        return
    before = set(os.listdir(fds))
    yield
    left = sorted(set(os.listdir(fds)) - before, key=int)
    if left:
        pytest.fail(f"the test left file descriptors open: {', '.join(left)}")


def revde_recursion(x1, x2, x3, f):
    """RevDE's offspring as three chained difference mutations.

    The literal on-the-fly substitution: each output feeds the next line,
    which is what the matrix R must reproduce.
    """
    y1 = x1 + f * (x2 - x3)
    y2 = x2 + f * (x3 - y1)
    y3 = x3 + f * (y1 - y2)
    return y1, y2, y3


def make_synthetic_images(n: int, seed: int, template_seed: int = 5):
    """Learnable 10-class image set: coarse random class templates + noise.

    Returns uint8 images (n, 28, 28) and uint8 labels (n,).
    """
    t_rng = np.random.default_rng(template_seed)
    coarse = t_rng.uniform(0.0, 1.0, size=(10, 7, 7))
    templates = coarse.repeat(4, axis=1).repeat(4, axis=2)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n)
    images = np.clip(
        templates[labels] * 0.8 + rng.normal(0.0, 0.25, size=(n, 28, 28)), 0.0, 1.0
    )
    return (images * 255).astype(np.uint8), labels.astype(np.uint8)


def write_idx(path, arr):
    """A uint8 array as an IDX file, packed here from the format rather than
    by the library: big-endian int32 magic 0x0800 + ndim, one int32 size
    per dimension, then the bytes; gzip-compressed when ``path`` ends in .gz."""
    arr = np.asarray(arr, dtype=np.uint8)
    data = struct.pack(f">{1 + arr.ndim}i", 0x800 + arr.ndim, *arr.shape) + arr.tobytes()
    path.write_bytes(gzip.compress(data) if path.suffix == ".gz" else data)


@pytest.fixture(scope="session")
def synth_idx_files(tmp_path_factory):
    """Small IDX fixture pair on disk (plain train, gzip test)."""
    root = tmp_path_factory.mktemp("idx")
    train_images, train_labels = make_synthetic_images(120, seed=1)
    test_images, test_labels = make_synthetic_images(40, seed=2)
    paths = {
        "train_images": root / "train-images.idx",
        "train_labels": root / "train-labels.idx",
        "test_images": root / "test-images.idx.gz",
        "test_labels": root / "test-labels.idx.gz",
    }
    for key, arr in (("train_images", train_images), ("train_labels", train_labels),
                     ("test_images", test_images), ("test_labels", test_labels)):
        write_idx(paths[key], arr)
    return paths
