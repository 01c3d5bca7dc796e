"""IDX-format ingestion, binary-task construction, a synthetic
linearly-separable generator for deterministic tests, and the (inputs,
labels) batch form every gradient reads.

IDX is the MNIST/Fashion-MNIST distribution format: a 4-byte big-endian
magic (two zero bytes, element-type byte, rank byte), one 4-byte big-endian
size per dimension, then the unsigned-byte payload in row-major order.
Gzip-compressed files are detected by their 1f 8b signature and inflated
transparently.
"""

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import rng_from_seed

# Only unsigned-byte payloads (element type 0x08) of rank 1..3 occur in the
# supported datasets.
_UBYTE = 0x08
_MAX_ELEMENTS = 1 << 33

STANDARD_SPLIT_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


@dataclass
class IdxFile:
    magic: int
    dims: tuple
    payload: bytes

    def array(self):
        return np.frombuffer(self.payload, dtype=np.uint8).reshape(self.dims)


def parse_idx(data):
    """Decode one IDX container from bytes."""
    if len(data) < 4:
        raise ValueError("truncated header: fewer than 4 bytes")
    magic = int.from_bytes(data[:4], "big")
    if data[0] != 0 or data[1] != 0:
        raise ValueError(f"bad magic 0x{magic:08x}: first two bytes must be zero")
    ndims = data[3]
    if data[2] != _UBYTE or not 1 <= ndims <= 3:
        raise ValueError(f"unsupported element type or rank in magic 0x{magic:08x}")
    header_end = 4 + 4 * ndims
    if len(data) < header_end:
        raise ValueError("truncated header: missing dimension sizes")
    dims = struct.unpack(f">{ndims}I", data[4:header_end])
    count = 1
    for d in dims:
        count *= d
    if count > _MAX_ELEMENTS:
        raise ValueError(f"dimension overflow: {dims} describes {count} elements")
    payload = bytes(data[header_end:])
    if len(payload) < count:
        raise ValueError(f"truncated payload: expected {count} bytes, found {len(payload)}")
    if len(payload) > count:
        raise ValueError(f"payload length mismatch: expected {count} bytes, found {len(payload)}")
    return IdxFile(magic, dims, payload)


def serialize_idx(idx):
    """Inverse of parse_idx; reproduces the original bytes."""
    head = struct.pack(">I", idx.magic) + struct.pack(f">{len(idx.dims)}I", *idx.dims)
    return head + idx.payload


def load_idx(path):
    """Read an IDX file from disk, inflating gzip transparently."""
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return parse_idx(raw)


def find_split_file(directory, stem):
    """Locate `stem` or `stem.gz` in directory; None when absent."""
    directory = Path(directory)
    for name in (stem, stem + ".gz"):
        candidate = directory / name
        if candidate.is_file():
            return candidate
    return None


def load_standard_split(directory):
    """Load the four canonical MNIST-layout files from a directory.

    Returns (train_images, train_labels, test_images, test_labels) as
    uint8 arrays. Raises FileNotFoundError naming the first missing file.
    """
    arrays = []
    for stem in STANDARD_SPLIT_FILES:
        path = find_split_file(directory, stem)
        if path is None:
            raise FileNotFoundError(f"{stem}[.gz] not found in {directory}")
        arrays.append(load_idx(path).array())
    return tuple(arrays)


@dataclass
class Dataset:
    """Immutable supervised set: row inputs in [0,1]^N, binary labels."""

    inputs: np.ndarray
    labels: np.ndarray
    class_names: tuple = ("0", "1")

    def __post_init__(self):
        self.inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.uint8)
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("inputs must be 2-d and labels 1-d")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError("inputs and labels must have equal length")
        if self.inputs.size and (self.inputs.min() < 0.0 or self.inputs.max() > 1.0):
            raise ValueError("input entries must lie in [0, 1]")
        if np.any(self.labels > 1):
            raise ValueError("labels must be 0 or 1")
        self.inputs.flags.writeable = False
        self.labels.flags.writeable = False

    def __len__(self):
        return self.inputs.shape[0]

    @property
    def n_features(self):
        return self.inputs.shape[1]


def as_batch_arrays(batch):
    """Normalize an (X, Y) batch to float64 arrays of shape (B, N), (B, M).
    X may be one 1-d example and Y may be (B,); anything else raises."""
    if not (isinstance(batch, tuple) and len(batch) == 2):
        raise ValueError("a batch is an (inputs, labels) tuple")
    x = np.atleast_2d(np.asarray(batch[0], dtype=np.float64))
    y = np.asarray(batch[1], dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ValueError(f"batch arrays disagree: inputs {x.shape}, labels {y.shape}")
    return x, y


def label_rows(labels, n_rows):
    """Labels as float64 with one row per example."""
    return np.asarray(labels, dtype=np.float64).reshape(n_rows, -1)


def make_binary_task(train_images, train_labels, test_images, test_labels, class_a, class_b, train_count, seed):
    """Build a balanced two-class task from raw image/label splits.

    The smaller class identifier always maps to label 0 (argument order
    does not matter). Pixels are scaled to [0,1] by /255. The train set
    draws train_count/2 seeded images per class; the test set keeps every
    test-split image of the two classes in split order.
    """
    if class_a == class_b:
        raise ValueError("class_a and class_b must differ")
    if train_count % 2 != 0:
        raise ValueError("train_count must be even")
    lo, hi = sorted((class_a, class_b))

    def flatten(images, rows):
        # select first, so only the kept rows are ever converted to float
        images = np.asarray(images)
        picked = images.reshape(images.shape[0], -1)[rows].astype(np.float64)
        picked /= 255.0
        return picked

    train_labels = np.asarray(train_labels)
    test_labels = np.asarray(test_labels)
    rng = rng_from_seed(seed)
    picked = []
    for cls in (lo, hi):
        idx = np.flatnonzero(train_labels == cls)
        if idx.size < train_count // 2:
            raise ValueError(f"insufficient images of class {cls}: {idx.size} < {train_count // 2}")
        picked.append(rng.choice(idx, size=train_count // 2, replace=False))
    order = rng.permutation(train_count)
    train_idx = np.concatenate(picked)[order]

    test_mask = (test_labels == lo) | (test_labels == hi)
    if not np.any(test_labels == lo) or not np.any(test_labels == hi):
        raise ValueError("both classes must appear in the test split")

    names = (str(lo), str(hi))
    train = Dataset(flatten(train_images, train_idx), (train_labels[train_idx] == hi).astype(np.uint8), names)
    test = Dataset(flatten(test_images, test_mask), (test_labels[test_mask] == hi).astype(np.uint8), names)
    return train, test


def synthetic_task(n_inputs, n_samples, seed, margin=0.1):
    """Linearly separable points in [0,1]^N with a seeded hidden hyperplane.

    Points within `margin` of the hyperplane are rejected, so the classes
    are separated by a gap and small models can fit the set exactly.
    """
    if n_inputs < 1:
        raise ValueError("n_inputs must be >= 1")
    rng = rng_from_seed([seed, n_inputs])
    normal = rng.normal(size=n_inputs)
    normal /= np.linalg.norm(normal)
    inputs = np.empty((n_samples, n_inputs))
    labels = np.empty(n_samples, dtype=np.uint8)
    have = 0
    while have < n_samples:
        batch = rng.random((max(64, n_samples), n_inputs))
        score = (batch - 0.5) @ normal
        keep = np.abs(score) > margin
        take = min(int(keep.sum()), n_samples - have)
        inputs[have : have + take] = batch[keep][:take]
        labels[have : have + take] = (score[keep][:take] > 0).astype(np.uint8)
        have += take
    return Dataset(inputs, labels, ("below", "above"))
