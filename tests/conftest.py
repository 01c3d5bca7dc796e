"""Shared fixtures: seeded model factories, the dense empirical
distribution of raw sampler reads, an on-disk synthetic dataset in the
standard four-file layout, and a locator for the real digit corpus."""

import gzip
import os
from pathlib import Path

import numpy as np
import pytest

from ebmlp.data import STANDARD_SPLIT_FILES, IdxFile, find_split_file, serialize_idx
from ebmlp.models import Model


def pytest_addoption(parser):
    parser.addoption(
        "--regenerate-golden",
        action="store_true",
        help="rewrite tests/golden/ from this run's outputs (see tests/test_golden.py)",
    )


@pytest.fixture
def make_model():
    """Factory for small seeded models."""

    def _make(n=3, k=2, m=1, seed=0, std=0.5):
        rng = np.random.default_rng(seed)
        return Model(
            rng.normal(0.0, std, size=(k, n)),
            rng.normal(0.0, std, size=(m, k)),
            rng.normal(0.0, std, size=k),
            rng.normal(0.0, std, size=m),
        )

    return _make


@pytest.fixture
def empirical_distribution():
    """Dense empirical probabilities of raw (reads, width) bit rows over
    all 2^width joint states, indexed with bit 0 least significant."""

    def _dense(reads):
        reads = np.asarray(reads, dtype=np.int64)
        index = reads @ (1 << np.arange(reads.shape[1], dtype=np.int64))
        return np.bincount(index, minlength=2 ** reads.shape[1]) / reads.shape[0]

    return _dense


def _synthetic_images(count, labels, rng, side=6):
    """Class 0 lights the left half, class 1 the right, plus pixel noise."""
    images = np.zeros((count, side, side), dtype=np.uint8)
    half = side // 2
    for i, lab in enumerate(labels):
        block = images[i, :, :half] if lab == 0 else images[i, :, half:]
        block[:] = rng.integers(180, 256, size=block.shape)
        images[i] += rng.integers(0, 40, size=(side, side)).astype(np.uint8)
    return images


def _write_idx(path, array, compress=False):
    array = np.ascontiguousarray(array, dtype=np.uint8)
    idx = IdxFile(
        magic=(0x08 << 8) | array.ndim, dims=array.shape, payload=array.tobytes()
    )
    data = serialize_idx(idx)
    if compress:
        path = path.with_name(path.name + ".gz")
        # mtime=0: the gzip header then carries no write time, so two
        # splits written from one seed are equal in bytes
        data = gzip.compress(data, mtime=0)
    path.write_bytes(data)


def _write_synthetic_split(root):
    """A small synthetic corpus in the standard layout under ``root``: 60
    train and 40 test images of classes 0 and 1; the test files are gzipped
    so loaders exercise transparent decompression."""
    rng = np.random.default_rng(1234)
    train_labels = np.array([0, 1] * 30, dtype=np.uint8)
    test_labels = np.array([0, 1] * 20, dtype=np.uint8)
    train_images = _synthetic_images(len(train_labels), train_labels, rng)
    test_images = _synthetic_images(len(test_labels), test_labels, rng)
    _write_idx(root / STANDARD_SPLIT_FILES[0], train_images)
    _write_idx(root / STANDARD_SPLIT_FILES[1], train_labels)
    _write_idx(root / STANDARD_SPLIT_FILES[2], test_images, compress=True)
    _write_idx(root / STANDARD_SPLIT_FILES[3], test_labels, compress=True)


@pytest.fixture(scope="session")
def write_synthetic_split():
    return _write_synthetic_split


@pytest.fixture(scope="session")
def synthetic_split_dir(tmp_path_factory):
    """Directory holding the synthetic corpus of :func:`_write_synthetic_split`."""
    root = tmp_path_factory.mktemp("synthetic-split")
    _write_synthetic_split(root)
    return root


def locate_digit_corpus():
    """Directory with the real digit files, or None when not present.

    Honors EBMLP_DATA_DIR; falls back to <repo>/data.
    """
    root = os.environ.get("EBMLP_DATA_DIR")
    candidates = [Path(root)] if root else []
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for directory in candidates:
        if directory.is_dir() and all(
            find_split_file(directory, stem) for stem in STANDARD_SPLIT_FILES
        ):
            return directory
    return None


@pytest.fixture(scope="session")
def digit_corpus_dir():
    directory = locate_digit_corpus()
    if directory is None:
        pytest.skip(
            "digit image corpus not found: set EBMLP_DATA_DIR or place the "
            "four standard split files under <repo>/data"
        )
    return directory
