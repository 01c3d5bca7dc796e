"""Binary-quadratic and Ising encodings of the clamped conditional.

An annealer draws low-energy states, so the conditional is programmed as a
minimization target: build_conditional_bqm emits coefficients such that
exp(-beta_eff * E_bqm(k, y)), renormalized over (k, y), equals P(k, y | x)
exactly. The Ising form is the spin-variable ({-1,+1}) equivalent with the
change-of-variable constant folded into the offset.

The annealer is programmed from clamped_ising_rows, the closed form of
clamp_to_hardware(bqm_to_ising(build_conditional_bqm(...))) for a whole
minibatch at once; that per-input pipeline stays as its reference and
writes the ``--dump-bqm`` file.
"""

from dataclasses import dataclass, field

import numpy as np

from .mlp import pre_activation

# Programmable coefficient ranges of the target annealer.
H_RANGE = (-2.0, 2.0)
J_RANGE = (-1.0, 1.0)


def _check_square_upper(m, name, strict):
    m = np.ascontiguousarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    low = np.tril(m, 0 if strict else -1)
    if np.any(low != 0.0):
        raise ValueError(f"{name} must be {'strictly ' if strict else ''}upper triangular")
    return m


@dataclass
class Bqm:
    """Energy q.Qq + offset over binary assignments q.

    Q is upper triangular: the diagonal holds linear terms, entries above
    it quadratic terms. Everything below the diagonal is exactly zero.
    """

    n: int
    q: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        self.q = _check_square_upper(self.q, "Q", strict=False)
        if self.q.shape[0] != self.n:
            raise ValueError(f"Q is {self.q.shape[0]}x{self.q.shape[0]} but n={self.n}")
        self.offset = float(self.offset)

    def energy(self, bits):
        bits = np.asarray(bits, dtype=np.float64)
        if bits.shape != (self.n,):
            raise ValueError(f"assignment has shape {bits.shape}, expected ({self.n},)")
        if bits.size and not np.all((bits == 0.0) | (bits == 1.0)):
            raise ValueError("assignment must be binary")
        return float(bits @ self.q @ bits + self.offset)


@dataclass
class IsingModel:
    """Energy -sum_i h_i s_i - sum_{i<j} J_ij s_i s_j + offset over spins
    s in {-1, +1}. J is strictly upper triangular."""

    n: int
    h: np.ndarray
    j: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        self.h = np.ascontiguousarray(self.h, dtype=np.float64)
        self.j = _check_square_upper(self.j, "J", strict=True)
        if self.h.shape != (self.n,) or self.j.shape[0] != self.n:
            raise ValueError(f"h shape {self.h.shape} / J shape {self.j.shape} inconsistent with n={self.n}")
        if not np.all(np.isfinite(self.h)):
            raise ValueError("h has non-finite entries")
        self.offset = float(self.offset)

    def energy(self, spins):
        spins = np.asarray(spins, dtype=np.float64)
        if spins.shape != (self.n,):
            raise ValueError(f"spin vector has shape {spins.shape}, expected ({self.n},)")
        if spins.size and not np.all(np.abs(spins) == 1.0):
            raise ValueError("spins must be -1 or +1")
        return float(-self.h @ spins - spins @ self.j @ spins + self.offset)


def build_conditional_bqm(model, x, beta_eff):
    """Encode P(k, y | x) of a Model as a Bqm over (k, y).

    Variables 0..K-1 are the hidden units, K..K+M-1 the outputs. The
    clamped energy E(x, k, y) enters negated and scaled by 1/beta_eff, so
    the annealer's Boltzmann distribution exp(-beta_eff * E_bqm) at the
    matched inverse temperature reproduces the conditional exactly; the
    offset is zero and the matrix size never depends on the input width.
    """
    beta_eff = float(beta_eff)
    if beta_eff <= 0.0:
        raise ValueError("beta_eff must be positive")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n_visible,):
        raise ValueError(f"x has shape {x.shape}, expected ({model.n_visible},)")
    kk, mm = model.n_hidden, model.n_outputs
    n = kk + mm
    q = np.zeros((n, n))
    q[np.arange(kk), np.arange(kk)] = -pre_activation(model, x)[0] / beta_eff
    q[np.arange(kk, n), np.arange(kk, n)] = -model.c / beta_eff
    q[:kk, kk:] = -model.w2.T / beta_eff
    return Bqm(n, q, 0.0)


def clamped_ising_rows(model, a, beta_eff):
    """The hardware-clipped Ising fields of many clamped inputs, and the
    hidden-output coupling they share, in closed form.

    ``a`` is the (rows, K) pre-activation W1 x + b of the inputs
    (:func:`ebmlp.mlp.pre_activation`). Returns the (rows, K+M) field
    block, hidden units first, and the (K, M) block J[:K, K:]:

    - hidden fields h_k = a_k / (2 beta) + sum_m W2[m, k] / (4 beta);
    - output fields h_m = c_m / (2 beta) + sum_k W2[m, k] / (4 beta);
    - couplings J = W2^T / (4 beta),

    each clipped into its range. Row r equals the h of
    ``clamp_to_hardware(bqm_to_ising(build_conditional_bqm(model, x_r,
    beta_eff)))`` up to float rounding, and the block its J[:K, K:]. The
    input enters only the hidden fields and the couplings come from W2
    alone, so the graph is bipartite and the same for every row.
    """
    two, four = 2.0 * beta_eff, 4.0 * beta_eff
    h_rows = np.empty((a.shape[0], model.n_hidden + model.n_outputs))
    h_rows[:, : model.n_hidden] = a / two + model.w2.sum(axis=0) / four
    h_rows[:, model.n_hidden :] = model.c / two + model.w2.sum(axis=1) / four
    return np.clip(h_rows, *H_RANGE), np.clip(model.w2.T / four, *J_RANGE)


def bqm_to_ising(bqm):
    """Exact change of variables q_i = (s_i + 1) / 2.

    Energies agree on every assignment; the constant produced by the
    substitution lands in the offset.
    """
    q = bqm.q
    diag = np.diag(q)
    upper = np.triu(q, 1)
    cross = upper.sum(axis=1) + upper.sum(axis=0)
    h = -(diag / 2.0 + cross / 4.0)
    j = -upper / 4.0
    offset = bqm.offset + diag.sum() / 2.0 + upper.sum() / 4.0
    return IsingModel(bqm.n, h, j, offset)


@dataclass
class ClipEntry:
    term: str  # "h" or "J"
    index: tuple
    before: float
    after: float

    @property
    def shift(self):
        return abs(self.after - self.before)


@dataclass
class ClampReport:
    """Which coefficients clamp_to_hardware altered and by how much."""

    clips: list = field(default_factory=list)

    def __bool__(self):
        # any clipped coefficient changes the sampled Boltzmann distribution
        return bool(self.clips)

    def __len__(self):
        return len(self.clips)

    @property
    def max_shift(self):
        return max((c.shift for c in self.clips), default=0.0)


def clamp_to_hardware(ising, h_range=H_RANGE, j_range=J_RANGE):
    """Clip h into h_range and J into j_range; returns (model, report).

    Clipping (not rescaling) matches programming real hardware: values are
    capped at the programmable limits and the report says what changed.
    """
    h = np.clip(ising.h, *h_range)
    j = np.clip(ising.j, *j_range)
    report = ClampReport()
    for i in np.flatnonzero(h != ising.h):
        report.clips.append(ClipEntry("h", (int(i),), float(ising.h[i]), float(h[i])))
    for i, k in zip(*np.nonzero(j != ising.j)):
        report.clips.append(ClipEntry("J", (int(i), int(k)), float(ising.j[i, k]), float(j[i, k])))
    return IsingModel(ising.n, h, np.triu(j, 1), ising.offset), report


def _coefficient_lines(n, offset, linear, quadratic):
    lines = [f"{n} {offset:.17g}"]
    for i in range(n):
        lines.append(f"{i} {i} {linear[i]:.17g}")
    for i, k in zip(*np.nonzero(np.triu(quadratic, 1))):
        lines.append(f"{i} {k} {quadratic[i, k]:.17g}")
    return "\n".join(lines) + "\n"


def bqm_to_text(bqm):
    """Interchange format: header `n offset`, `i i value` linear lines,
    `i j value` (i<j) nonzero quadratic lines, 17 significant digits."""
    return _coefficient_lines(bqm.n, bqm.offset, np.diag(bqm.q), bqm.q)


def ising_to_text(ising):
    """Same layout as bqm_to_text with h on the diagonal lines."""
    return _coefficient_lines(ising.n, ising.offset, ising.h, ising.j)
