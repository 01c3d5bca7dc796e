"""Samplers over the clamped conditional P(k, y | x).

Three interchangeable implementations: ExactSampler (enumeration oracle),
GibbsSampler (block Gibbs on the conditionals), and SimAnnealSampler (a
quantum-annealer stand-in that consumes the quadratic-model encoding:
build_conditional_bqm -> bqm_to_ising -> clamp_to_hardware -> Metropolis
anneal). With beta_sim equal to the beta_eff used in the encoding and no
coefficient clipping, the anneal's end-of-schedule distribution matches
the conditional it was built from.

Each sampler draws a whole minibatch of clamped inputs in one kernel call
(``sample_batch``, raw reads); ``sample`` aggregates one input's reads
into a SampleSet.
"""

from dataclasses import dataclass, field

import numpy as np

# gibbs_chain is unused here but stays bound: perfbench/selftest.py patches it in this module
from ._kernels import anneal_block, gibbs_block, gibbs_chain  # noqa: F401
from .bqm import bqm_to_ising, build_conditional_bqm, clamp_to_hardware
from .core import rng_from_seed

ANNEAL_SCHEDULES = ("geometric", "linear")


@dataclass
class SamplerConfig:
    """Knobs shared by all samplers; each implementation reads its subset.

    ``reads`` is the only read-count setting: trainers draw what the
    sampler is configured to draw, and only a direct ``sample`` or
    ``sample_batch`` call can ask for another count. beta_sim defaults to
    beta_eff, which makes the simulated annealer's target distribution
    exactly the encoded conditional; setting it apart studies
    hardware-calibration error.
    """

    beta_eff: float = 16.0
    reads: int = 1000
    burn_in: int = 100
    thin: int = 1
    anneal_sweeps: int = 1000
    anneal_beta_start: float = 0.1
    anneal_schedule: str = "geometric"
    beta_sim: float = None
    seed: int = 0

    def __post_init__(self):
        if self.beta_eff <= 0.0:
            raise ValueError("beta_eff must be positive")
        if self.reads < 1:
            raise ValueError("reads must be >= 1")
        if self.burn_in < 0 or self.thin < 1 or self.anneal_sweeps < 1:
            raise ValueError("burn_in >= 0, thin >= 1, anneal_sweeps >= 1 required")
        if self.anneal_beta_start <= 0.0:
            raise ValueError("anneal_beta_start must be positive")
        if self.anneal_schedule not in ANNEAL_SCHEDULES:
            raise ValueError(f"anneal_schedule must be one of {ANNEAL_SCHEDULES}")
        if self.beta_sim is not None and self.beta_sim <= 0.0:
            raise ValueError("beta_sim must be positive when given")

    @property
    def effective_beta_sim(self):
        return self.beta_eff if self.beta_sim is None else self.beta_sim

    def anneal_betas(self):
        """Inverse-temperature ramp consumed by the anneal kernel."""
        end = self.effective_beta_sim
        if self.anneal_schedule == "geometric":
            return np.geomspace(self.anneal_beta_start, end, self.anneal_sweeps)
        return np.linspace(self.anneal_beta_start, end, self.anneal_sweeps)


@dataclass
class SampleSet:
    """Aggregated reads from one clamped data point.

    Rows of ``assignments`` are unique (k, y) bit vectors, k in the first
    n_hidden columns; ``counts`` holds occurrence counts summing to
    total_reads. Metadata records sampler name, the beta the reads target,
    and the seed actually used.
    """

    assignments: np.ndarray
    counts: np.ndarray
    total_reads: int
    n_hidden: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.assignments = np.ascontiguousarray(self.assignments, dtype=np.uint8)
        self.counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if self.assignments.ndim != 2 or self.assignments.shape[0] != self.counts.shape[0]:
            raise ValueError("assignments and counts disagree on the number of rows")
        if np.any(self.assignments > 1):
            raise ValueError("assignments must be binary")
        if int(self.counts.sum()) != self.total_reads:
            raise ValueError("counts must sum to total_reads")
        if not 0 <= self.n_hidden <= self.assignments.shape[1]:
            raise ValueError("n_hidden outside assignment width")

    @classmethod
    def from_reads(cls, raw, n_hidden, metadata=None):
        """Collapse raw per-read rows into unique assignments with counts."""
        raw = np.ascontiguousarray(raw, dtype=np.uint8)
        assignments, counts = np.unique(raw, axis=0, return_counts=True)
        return cls(assignments, counts, raw.shape[0], n_hidden, metadata or {})

    def weights(self):
        return self.counts / self.total_reads

    def y_distribution(self):
        """Unique y patterns and their empirical probabilities."""
        y_bits = self.assignments[:, self.n_hidden :]
        patterns, inverse = np.unique(y_bits, axis=0, return_inverse=True)
        w = np.bincount(inverse, weights=self.weights(), minlength=patterns.shape[0])
        return patterns.astype(np.float64), w

    def empirical_probabilities(self, n_bits):
        """Dense probability vector over all 2^n_bits joint states, indexed
        with bit 0 least significant. Oracle-comparison helper."""
        weights = 1 << np.arange(self.assignments.shape[1], dtype=np.int64)
        index = self.assignments.astype(np.int64) @ weights
        dense = np.zeros(2**n_bits)
        dense[index] = self.weights()
        return dense


class Sampler:
    """Common construction and seed plumbing.

    Subclasses implement ``sample_batch``, which draws raw reads for a
    whole minibatch from one seed; ``sample`` aggregates one clamped
    input's reads into a SampleSet, with ``metadata`` describing them.
    """

    name = "base"

    def __init__(self, config=None):
        self.config = config or SamplerConfig()

    def sample_batch(self, model, xs, reads=None, seed=None):
        """Raw reads for every row of ``xs``: a (rows, reads, K+M) uint8
        array, k bits first. One seed covers the whole batch."""
        raise NotImplementedError

    def metadata(self, model, x, seed):
        """Sampler name, the beta the reads target, and the seed used."""
        return {"sampler": self.name, "beta": 1.0, "seed": seed}

    def sample(self, model, x, reads=None, seed=None):
        """Aggregated reads for one clamped input."""
        reads, seed = self._resolve(reads, seed)
        x = np.asarray(x, dtype=np.float64)
        raw = self.sample_batch(model, x[None, :], reads, seed)[0]
        return SampleSet.from_reads(raw, model.n_hidden, self.metadata(model, x, seed))

    def _resolve(self, reads, seed):
        if reads is None:
            reads = self.config.reads
        if seed is None:
            seed = self.config.seed
        if reads < 1:
            raise ValueError("reads must be >= 1")
        return int(reads), int(seed)


def _rows(xs):
    return np.atleast_2d(np.asarray(xs, dtype=np.float64))


class ExactSampler(Sampler):
    """Enumerates the 2^(K+M) states and samples the exact conditional."""

    name = "exact"

    def distribution(self, model, x):
        from .ebm import exact_conditional

        return exact_conditional(model, x)

    def sample_batch(self, model, xs, reads=None, seed=None):
        reads, seed = self._resolve(reads, seed)
        rng = rng_from_seed(seed)
        batch = []
        for x in _rows(xs):
            dist = self.distribution(model, x)
            batch.append(np.repeat(dist.states, rng.multinomial(reads, dist.probs), axis=0))
        return np.stack(batch)


class GibbsSampler(Sampler):
    """Block Gibbs on the conditional: k | x,y then y | x,k per sweep."""

    name = "gibbs"

    def sample_batch(self, model, xs, reads=None, seed=None):
        reads, seed = self._resolve(reads, seed)
        a_rows = _rows(xs) @ model.w1.T + model.b
        cfg = self.config
        return gibbs_block(a_rows, model.w2, model.c, reads, cfg.burn_in, cfg.thin, seed)

    def metadata(self, model, x, seed):
        return {**super().metadata(model, x, seed), "burn_in": self.config.burn_in, "thin": self.config.thin}


def layer_coupling(ising, n_hidden):
    """The hidden-output block J[:K, K:] of a clamped Ising model.

    Raises ValueError when J couples two hidden or two output units: the
    layer-block anneal would then sample the wrong distribution.
    """
    j = ising.j
    if np.any(j[:n_hidden, :n_hidden]) or np.any(j[n_hidden:, n_hidden:]):
        raise ValueError("Ising couplings within a layer: the layer-block anneal needs a bipartite hidden-output graph")
    return j[:n_hidden, n_hidden:]


class SimAnnealSampler(Sampler):
    """Quantum-annealer stand-in on the encoded and clamped Ising model.

    Each read is an independent Metropolis anneal from uniform spins along
    the configured beta ramp; the collected bits follow roughly the
    Boltzmann distribution at the final inverse temperature.
    """

    name = "simanneal"

    def prepare(self, model, x):
        """The hardware-programming pipeline; returns (ising, clamp report)."""
        bqm = build_conditional_bqm(model, x, self.config.beta_eff)
        return clamp_to_hardware(bqm_to_ising(bqm))

    def sample_batch(self, model, xs, reads=None, seed=None):
        reads, seed = self._resolve(reads, seed)
        prepared = [self.prepare(model, x)[0] for x in _rows(xs)]
        # x enters only the fields; the couplings come from W2 alone, so
        # every row shares the first row's.
        coupling = layer_coupling(prepared[0], model.n_hidden)
        h_rows = np.stack([ising.h for ising in prepared])
        return anneal_block(h_rows, coupling, self.config.anneal_betas(), reads, seed)

    def metadata(self, model, x, seed):
        _, report = self.prepare(model, x)
        return {
            "sampler": self.name,
            "beta": self.config.effective_beta_sim,
            "beta_eff": self.config.beta_eff,
            "seed": seed,
            "clipped_coefficients": len(report),
            "max_clip_shift": report.max_shift,
        }


SAMPLERS = {cls.name: cls for cls in (ExactSampler, GibbsSampler, SimAnnealSampler)}


def make_sampler(name, config=None):
    """Instantiate a sampler by registry name ('exact', 'gibbs', 'simanneal')."""
    try:
        cls = SAMPLERS[name]
    except KeyError:
        raise ValueError(f"unknown sampler {name!r}; choose from {sorted(SAMPLERS)}") from None
    return cls(config)
