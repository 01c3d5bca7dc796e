"""Activations, the ADAM rule, seeded RNG helpers and atomic file writes
shared by all modules; the bottom layer of the package, importing none of
it.

Everything downstream works in 64-bit floats; the helpers here keep that
contract and stay numerically stable in the saturated sigmoid tails.
"""

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def sigmoid(z):
    """Logistic function 1/(1+exp(-z)), elementwise and overflow-safe."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    # the numerator is 1 where z >= 0 (e <= 1) and e elsewhere: both
    # branches of the stable form in one division
    s = np.maximum(e, z >= 0) / (1.0 + e)
    return s if s.ndim else np.asarray(s)


def softplus(z):
    """log(1 + exp(z)) without overflow for large z."""
    return np.logaddexp(0.0, np.asarray(z, dtype=np.float64))


def logsumexp(a, axis=None):
    """log(sum(exp(a))) with the max factored out for stability."""
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


@dataclass
class AdamState:
    """ADAM accumulators and hyperparameters for a named set of arrays.

    Single-owner mutable: one instance per training run. ``step`` counts
    completed updates and drives the bias correction.
    """

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params, lr, **hyper):
        state = cls(lr=lr, **hyper)
        state.m = {name: np.zeros_like(np.asarray(p, dtype=np.float64)) for name, p in params.items()}
        state.v = {name: np.zeros_like(np.asarray(p, dtype=np.float64)) for name, p in params.items()}
        return state


def adam_update(state, params, grads):
    """One ADAM minimization step. Mutates ``state``, returns updated params.

    ``params`` and ``grads`` are dicts of identically shaped arrays with
    identical key sets; ascent callers negate their gradient first.
    """
    if set(params) != set(grads):
        raise ValueError(f"parameter/gradient key mismatch: {sorted(params)} vs {sorted(grads)}")
    state.step += 1
    t = state.step
    out = {}
    for name, p in params.items():
        p = np.asarray(p, dtype=np.float64)
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {name!r} shape {p.shape}")
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * g * g
        m_hat = state.m[name] / (1.0 - state.beta1**t)
        v_hat = state.v[name] / (1.0 - state.beta2**t)
        out[name] = p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return out


def require_integers(config, names):
    """Raise ValueError unless each named attribute of ``config`` is a Python
    or numpy integer; a bool or an integral float is not a count."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def rng_from_seed(seed):
    """Deterministic Generator for a seed (or sequence of seed words)."""
    return np.random.default_rng(seed)


def derive_seed(base_seed, index):
    """Independent stream seed for the index-th draw site: base XOR index."""
    return int(base_seed) ^ int(index)


@contextmanager
def atomic_open(path, mode="w", newline=None):
    """Write to a temp file beside ``path`` (opened with ``mode``, "w" or
    "wb") and os.replace it into place when the block completes; if it
    raises, ``path`` is untouched and the temp file is removed."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
