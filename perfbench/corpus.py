"""Seeded two-class digit-like corpus in the standard four-file IDX layout.

Class 0 is a ring and class 1 a vertical stroke, drawn on 28x28 pixels with
position, size, slant and width jitter, Gaussian pixel noise on the ink,
and a share of images drawn at low contrast. Trained on 20 of these images
at the RunConfig defaults, backprop passes 70% test accuracy within a few
steps and ends between about 0.85 and 0.99 depending on the seed, not at
1.0. The program under test receives only the files written here.
"""

import gzip
import struct
from pathlib import Path

import numpy as np

SIDE = 28
# Test split sized like the MNIST 0-vs-1 test split (980 zeros, 1135 ones).
TEST_COUNTS = (980, 1135)
TRAIN_COUNTS = (200, 200)
NOISE_STD = 0.3
JITTER = 3.0
WIDTH = (1.0, 1.6)
RADIUS = (5.0, 8.0)
HALF_LENGTH = (6.0, 10.0)
FAINT_SHARE = 0.15
FAINT_CONTRAST = 0.15

SPLIT_FILES = (
    ("train-images-idx3-ubyte", False),
    ("train-labels-idx1-ubyte", False),
    ("t10k-images-idx3-ubyte.gz", True),
    ("t10k-labels-idx1-ubyte.gz", True),
)


def _draw(labels, rng):
    """Float images in [0, 1], one per label."""
    n = labels.shape[0]
    yy, xx = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)
    cx = 13.5 + rng.uniform(-JITTER, JITTER, n)[:, None, None]
    cy = 13.5 + rng.uniform(-JITTER, JITTER, n)[:, None, None]
    width = rng.uniform(*WIDTH, n)[:, None, None]
    radius = rng.uniform(*RADIUS, n)[:, None, None]
    ring = np.exp(-((np.hypot(xx - cx, yy - cy) - radius) ** 2) / (2.0 * width**2))
    slant = rng.uniform(-0.25, 0.25, n)[:, None, None]
    half_len = rng.uniform(*HALF_LENGTH, n)[:, None, None]
    along = np.clip(np.abs(yy - cy) - half_len, 0.0, None)
    across = xx - cx - slant * (yy - cy)
    stroke = np.exp(-(across**2 + along**2) / (2.0 * width**2))
    shape = np.where(labels[:, None, None] == 0, ring, stroke)
    contrast = np.where(rng.random(n) < FAINT_SHARE, FAINT_CONTRAST, 1.0)[:, None, None]
    # Noise multiplies the ink, so the background stays at zero as in
    # scanned digits; additive background noise saturates the hidden layer
    # after one ADAM step and leaves some trials predicting one class.
    noisy = contrast * shape * (1.0 + rng.normal(0.0, NOISE_STD, shape.shape))
    return np.clip(noisy, 0.0, 1.0)


def make_split(counts, rng):
    """(images uint8 [n, 28, 28], labels uint8 [n]) in shuffled order."""
    labels = np.repeat(np.arange(len(counts), dtype=np.uint8), counts)
    labels = labels[rng.permutation(labels.shape[0])]
    images = np.rint(_draw(labels, rng) * 255.0).astype(np.uint8)
    return images, labels


def idx_bytes(array):
    """IDX container for an unsigned-byte array: magic 0x0000 08 <rank>,
    one big-endian uint32 per dimension, then the row-major payload."""
    array = np.ascontiguousarray(array, dtype=np.uint8)
    head = struct.pack(">BBBB", 0, 0, 0x08, array.ndim) + struct.pack(f">{array.ndim}I", *array.shape)
    return head + array.tobytes()


def write_corpus(directory, seed):
    """Write the four split files for ``seed`` into ``directory``; returns
    the test labels so callers can check what the loader read back."""
    rng = np.random.default_rng([seed, 0xD161])
    train_images, train_labels = make_split(TRAIN_COUNTS, rng)
    test_images, test_labels = make_split(TEST_COUNTS, rng)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays = (train_images, train_labels, test_images, test_labels)
    for (name, compress), array in zip(SPLIT_FILES, arrays):
        data = idx_bytes(array)
        (directory / name).write_bytes(gzip.compress(data, compresslevel=6) if compress else data)
    return test_labels
