"""Samplers over the clamped conditional P(k, y | x).

Three interchangeable implementations: ExactSampler (enumeration oracle),
GibbsSampler (block Gibbs on the conditionals), and SimAnnealSampler (a
quantum-annealer stand-in: the clipped Ising model of every input in the
minibatch, formed in closed form from the pre-activation by
:func:`ebmlp.bqm.clamped_ising_rows`, then a Metropolis anneal). With
beta_sim equal to the beta_eff used in the encoding and no coefficient
clipping, the anneal's end-of-schedule distribution matches the
conditional it was built from.

Each sampler has one method, ``sample_batch``: it draws raw reads for a
whole minibatch of clamped inputs in one kernel call.
"""

from dataclasses import dataclass, field

import numpy as np

# gibbs_chain is unused here but stays bound: perfbench/selftest.py patches it in this module
from ._kernels import anneal_block, gibbs_block, gibbs_chain  # noqa: F401
from .bqm import clamped_ising_rows
from .core import derive_seed, rng_from_seed
from .mlp import pre_activation

ANNEAL_SCHEDULES = ("geometric", "linear")


@dataclass
class SamplerConfig:
    """Knobs shared by all samplers; each implementation reads its subset.

    ``reads`` is the only read-count setting: trainers draw what the
    sampler is configured to draw, and only a direct ``sample_batch`` call
    can ask for another count. Likewise ``seed`` is the only sampler seed:
    trainers derive each step's seed from it. beta_sim defaults to
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
        """Inverse-temperature ramp consumed by the anneal kernel; its last
        sweep runs at effective_beta_sim."""
        end = self.effective_beta_sim
        ramp = np.geomspace if self.anneal_schedule == "geometric" else np.linspace
        betas = ramp(self.anneal_beta_start, end, self.anneal_sweeps)
        betas[-1] = end  # a one-sweep ramp is [anneal_beta_start]; longer ones already end here
        return betas


def sampler_seed(seed):
    """The SamplerConfig.seed of a run seeded ``seed``: a tagged derivation,
    so sampler draws stay independent of the run's other seeded streams."""
    return derive_seed(seed, 0x5EED)


# perfbench/bench.py hooks __post_init__ and perfbench/selftest.py patches
# from_reads, so both stay until the benchmark counts reads from
# sample_batch (ROADMAP item 1); nothing in the package builds one.
@dataclass
class SampleSet:
    """Aggregated reads from one clamped data point.

    Rows of ``assignments`` are unique (k, y) bit vectors, k in the first
    n_hidden columns; ``counts`` holds occurrence counts summing to
    total_reads.
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


class Sampler:
    """Common construction and seed plumbing; subclasses implement
    ``sample_batch``."""

    name = "base"

    def __init__(self, config=None):
        self.config = config or SamplerConfig()

    def sample_batch(self, model, xs, reads=None, seed=None):
        """Raw reads for every row of ``xs``: a (rows, reads, K+M) uint8
        array, k bits first. One seed covers the whole batch; ``reads``
        and ``seed`` default to the configured ones."""
        raise NotImplementedError

    def _resolve(self, reads, seed):
        if reads is None:
            reads = self.config.reads
        if seed is None:
            seed = self.config.seed
        if reads < 1:
            raise ValueError("reads must be >= 1")
        return int(reads), int(seed)


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
        for x in np.atleast_2d(np.asarray(xs, dtype=np.float64)):
            dist = self.distribution(model, x)
            batch.append(np.repeat(dist.states, rng.multinomial(reads, dist.probs), axis=0))
        return np.stack(batch)


class GibbsSampler(Sampler):
    """Block Gibbs on the conditional: k | x,y then y | x,k per sweep."""

    name = "gibbs"

    def sample_batch(self, model, xs, reads=None, seed=None):
        reads, seed = self._resolve(reads, seed)
        cfg = self.config
        return gibbs_block(pre_activation(model, xs), model.w2, model.c, reads, cfg.burn_in, cfg.thin, seed)


class SimAnnealSampler(Sampler):
    """Quantum-annealer stand-in on the encoded and clamped Ising model.

    Each read is an independent Metropolis anneal from uniform spins along
    the configured beta ramp; the collected bits follow roughly the
    Boltzmann distribution at the final inverse temperature.
    """

    name = "simanneal"

    def sample_batch(self, model, xs, reads=None, seed=None):
        reads, seed = self._resolve(reads, seed)
        h_rows, coupling = clamped_ising_rows(model, pre_activation(model, xs), self.config.beta_eff)
        return anneal_block(h_rows, coupling, self.config.anneal_betas(), reads, seed)


SAMPLERS = {cls.name: cls for cls in (ExactSampler, GibbsSampler, SimAnnealSampler)}


def make_sampler(name, config=None):
    """Instantiate a sampler by registry name ('exact', 'gibbs', 'simanneal')."""
    try:
        cls = SAMPLERS[name]
    except KeyError:
        raise ValueError(f"unknown sampler {name!r}; choose from {sorted(SAMPLERS)}") from None
    return cls(config)
