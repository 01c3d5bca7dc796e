"""The one parameter set, read feedforwardly as an MLP or generatively as
an EBM, with its initializers and the flat binary serialization format.

Layout: W1 (K x N), W2 (M x K), hidden bias b (K), output bias c (M).
Both readings take the same ``Model``, so moving weights between them is
``Model.copy()``.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .core import rng_from_seed
from .training import atomic_open

MODEL_MAGIC = b"EBMLP001"

# The default start of a run: hidden width and the weights' standard
# deviation. RunConfig and run_equivalence_experiment read them from here.
N_HIDDEN = 32
INIT_STD = 0.01


def _validate_group(w1, w2, b, c):
    w1 = np.ascontiguousarray(w1, dtype=np.float64)
    w2 = np.ascontiguousarray(w2, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    c = np.ascontiguousarray(c, dtype=np.float64)
    if w1.ndim != 2 or w2.ndim != 2 or b.ndim != 1 or c.ndim != 1:
        raise ValueError("w1/w2 must be 2-d and b/c 1-d")
    k, _ = w1.shape
    m, k2 = w2.shape
    if k2 != k or b.shape[0] != k or c.shape[0] != m:
        raise ValueError(
            f"inconsistent shapes: w1 {w1.shape}, w2 {w2.shape}, b {b.shape}, c {c.shape}"
        )
    for name, a in (("w1", w1), ("w2", w2), ("b", b), ("c", c)):
        if not np.all(np.isfinite(a)):
            raise ValueError(f"non-finite entries in {name}")
    return w1, w2, b, c


@dataclass
class Model:
    """Two-layer weights and biases: z = sigma(W2 sigma(W1 x + b) + c) read
    feedforwardly, an energy over (x, k, y) read generatively."""

    w1: np.ndarray
    w2: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.w1, self.w2, self.b, self.c = _validate_group(self.w1, self.w2, self.b, self.c)

    @property
    def n_visible(self):
        return self.w1.shape[1]

    @property
    def n_hidden(self):
        return self.w1.shape[0]

    @property
    def n_outputs(self):
        return self.w2.shape[0]

    def params(self):
        """Parameter dict in the key set used by the optimizer."""
        return {"w1": self.w1, "w2": self.w2, "b": self.b, "c": self.c}

    def set_params(self, params):
        self.w1, self.w2, self.b, self.c = _validate_group(
            params["w1"], params["w2"], params["b"], params["c"]
        )

    def copy(self):
        return type(self)(self.w1.copy(), self.w2.copy(), self.b.copy(), self.c.copy())

    @classmethod
    def zeros(cls, n_visible, n_hidden, n_outputs):
        return cls(
            np.zeros((n_hidden, n_visible)),
            np.zeros((n_outputs, n_hidden)),
            np.zeros(n_hidden),
            np.zeros(n_outputs),
        )

    @classmethod
    def init_gaussian(cls, n_visible, n_hidden, n_outputs, rng, std=INIT_STD):
        """Weights from N(0, std^2), biases zero."""
        return cls(
            rng.normal(0.0, std, size=(n_hidden, n_visible)),
            rng.normal(0.0, std, size=(n_outputs, n_hidden)),
            np.zeros(n_hidden),
            np.zeros(n_outputs),
        )


# perfbench/bench.py builds models.EbmModel(w1, w2, b, c)
EbmModel = MlpModel = Model


def initial_model(seed, n_features, n_hidden, init_std):
    """The seeded Gaussian start of a run: one output, weights from
    N(0, init_std^2), biases zero. Every track at the same seed starts from
    these parameters, so tracks differ only in training."""
    return Model.init_gaussian(n_features, n_hidden, 1, rng_from_seed([seed, 0x1B17]), std=init_std)


@dataclass
class GradientSet:
    """Per-parameter gradient arrays matching the container layout."""

    dw1: np.ndarray
    dw2: np.ndarray
    db: np.ndarray
    dc: np.ndarray

    def __post_init__(self):
        self.dw1, self.dw2, self.db, self.dc = _validate_group(self.dw1, self.dw2, self.db, self.dc)

    def as_param_dict(self):
        """Gradient dict keyed like Model.params()."""
        return {"w1": self.dw1, "w2": self.dw2, "b": self.db, "c": self.dc}

    def __sub__(self, other):
        return GradientSet(
            self.dw1 - other.dw1, self.dw2 - other.dw2, self.db - other.db, self.dc - other.dc
        )

    def negate(self):
        return GradientSet(-self.dw1, -self.dw2, -self.db, -self.dc)

    def max_abs(self):
        return max(
            float(np.max(np.abs(a))) if a.size else 0.0
            for a in (self.dw1, self.dw2, self.db, self.dc)
        )


def model_to_bytes(model):
    """Serialize: magic, N/K/M as u32 little-endian, then W1 W2 b c as
    little-endian float64 in row-major order."""
    n, k, m = model.n_visible, model.n_hidden, model.n_outputs
    parts = [MODEL_MAGIC, struct.pack("<III", n, k, m)]
    for a in (model.w1, model.w2, model.b, model.c):
        parts.append(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return b"".join(parts)


def model_from_bytes(data):
    if data[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ValueError("bad model file magic")
    off = len(MODEL_MAGIC)
    if len(data) < off + 12:
        raise ValueError("truncated model file header")
    n, k, m = struct.unpack_from("<III", data, off)
    off += 12
    counts = (k * n, m * k, k, m)
    need = off + 8 * sum(counts)
    if len(data) != need:
        raise ValueError(f"truncated model file: expected {need} bytes, got {len(data)}")
    arrays = []
    for count in counts:
        arrays.append(np.frombuffer(data, dtype="<f8", count=count, offset=off).astype(np.float64))
        off += 8 * count
    return Model(arrays[0].reshape(k, n), arrays[1].reshape(m, k), arrays[2], arrays[3])


def save_model(model, path):
    with atomic_open(path, "wb") as fh:
        fh.write(model_to_bytes(model))


def load_model(path):
    with open(path, "rb") as fh:
        return model_from_bytes(fh.read())
