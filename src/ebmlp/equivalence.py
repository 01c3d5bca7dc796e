"""Weight transfer between the two model views and the lockstep
cross-evaluation experiment.

The parameterizations are layout-identical, so transfer is an identity
copy; everything interesting is in how differently the two training rules
move the shared starting point, measured per step by swapped-weight losses,
the four test accuracies, and the symmetrized KL divergence between the
models' output distributions.
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .core import derive_seed, rng_from_seed
from .models import EbmModel, MlpModel
from .training import atomic_open, fit, TrainOptions
from . import ebm, mlp
from .samplers import GibbsSampler, SamplerConfig

REPORT_SCHEMA_VERSION = 1

REPORT_COLUMNS = (
    "step",
    "mlp_loss",
    "mlp_loss_ebm_weights",
    "ebm_loglik",
    "ebm_loglik_mlp_weights",
    "acc_mlp",
    "acc_mlp_ebm_weights",
    "acc_ebm",
    "acc_ebm_mlp_weights",
    "kl_nats",
)


def transfer_weights(source):
    """Identity copy of (W1, W2, b, c) into the other model kind.

    EbmModel in, MlpModel out, and vice versa; applying it twice returns a
    bitwise-identical parameter set.
    """
    target = MlpModel if isinstance(source, EbmModel) else EbmModel
    return target(source.w1.copy(), source.w2.copy(), source.b.copy(), source.c.copy())


def symmetrized_kl(p_outputs, q_outputs, clamp=1e-12):
    """Mean over examples of D(p||q) + D(q||p) for Bernoulli outputs, nats.

    Multi-output rows sum over outputs before the example mean. Parameters
    are clamped to [clamp, 1-clamp] first, matching the loss clamp.
    """
    p = np.clip(np.asarray(p_outputs, dtype=np.float64), clamp, 1.0 - clamp)
    q = np.clip(np.asarray(q_outputs, dtype=np.float64), clamp, 1.0 - clamp)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    direct = p * np.log(p / q) + (1.0 - p) * np.log((1.0 - p) / (1.0 - q))
    reverse = q * np.log(q / p) + (1.0 - q) * np.log((1.0 - q) / (1.0 - p))
    both = np.atleast_1d(direct + reverse)
    return float(both.reshape(both.shape[0], -1).sum(axis=1).mean())


@dataclass
class EquivalenceReport:
    """Per-step series of the lockstep experiment; one entry per step
    including step 0 (the shared initialization)."""

    steps: list = field(default_factory=list)
    mlp_loss: list = field(default_factory=list)
    mlp_loss_ebm_weights: list = field(default_factory=list)
    ebm_loglik: list = field(default_factory=list)
    ebm_loglik_mlp_weights: list = field(default_factory=list)
    acc_mlp: list = field(default_factory=list)
    acc_mlp_ebm_weights: list = field(default_factory=list)
    acc_ebm: list = field(default_factory=list)
    acc_ebm_mlp_weights: list = field(default_factory=list)
    kl_nats: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @staticmethod
    def _attr(column):
        # the "step" column is stored in the `steps` list
        return "steps" if column == "step" else column

    def _series(self):
        return {name: getattr(self, self._attr(name)) for name in REPORT_COLUMNS}

    def append(self, **values):
        if set(values) != set(REPORT_COLUMNS):
            raise ValueError(f"report row must provide exactly {REPORT_COLUMNS}")
        if values["kl_nats"] < 0.0:
            raise ValueError("kl_nats must be nonnegative")
        for name in REPORT_COLUMNS:
            getattr(self, self._attr(name)).append(values[name])

    def __len__(self):
        return len(self.steps)

    @property
    def max_kl(self):
        return max(self.kl_nats)

    @property
    def final_kl(self):
        return self.kl_nats[-1]

    def to_csv(self, path):
        with atomic_open(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_COLUMNS)
            for row in zip(*(self._series()[name] for name in REPORT_COLUMNS)):
                writer.writerow([repr(v) if isinstance(v, float) else v for v in row])

    def to_json(self, path):
        payload = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "metadata": self.metadata,
            "series": self._series(),
        }
        with atomic_open(path) as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _output_probabilities(ebm_model, inputs):
    """P(y_j = 1 | x) per example from the exact conditional marginal."""
    y_states, scores = ebm._y_scores(ebm_model, np.asarray(inputs, dtype=np.float64))
    scores = scores - scores.max(axis=1, keepdims=True)
    probs = np.exp(scores)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs @ y_states.astype(np.float64)


def run_equivalence_experiment(train_set, test_set, n_hidden=32, options=None, sampler=None, init_std=0.01):
    """Train an MLP (backprop) and an EBM (sampled conditional gradient)
    in lockstep from one shared Gaussian initialization and identical batch
    sequences, cross-evaluating transferred weights each step.

    The EBM's negative phase uses Gibbs sampling unless another sampler is
    given; its log-likelihood series is evaluated exactly via the closed
    form, which is tractable at any hidden width.
    """
    options = options or TrainOptions()
    rng = rng_from_seed([options.seed, 0x1B17])
    mlp_model = MlpModel.init_gaussian(train_set.n_features, n_hidden, 1, rng, std=init_std)
    ebm_model = transfer_weights(mlp_model)
    if sampler is None:
        sampler = GibbsSampler(SamplerConfig(seed=derive_seed(options.seed, 0x5EED)))

    report = EquivalenceReport(
        metadata={
            "n_hidden": n_hidden,
            "steps": options.steps,
            "batch_size": options.batch_size,
            "lr": options.lr,
            "seed": options.seed,
            "sampler": sampler.name,
            "train_examples": len(train_set),
            "test_examples": len(test_set),
        }
    )

    # Both readings take any parameter container, so each model is read
    # the other way directly, without a transferred copy.
    def record(step):
        report.append(
            step=step,
            mlp_loss=mlp.mean_cross_entropy(mlp_model, train_set.inputs, train_set.labels),
            mlp_loss_ebm_weights=mlp.mean_cross_entropy(ebm_model, train_set.inputs, train_set.labels),
            ebm_loglik=ebm.mean_log_likelihood(ebm_model, train_set),
            ebm_loglik_mlp_weights=ebm.mean_log_likelihood(mlp_model, train_set),
            acc_mlp=mlp.accuracy(mlp_model, test_set),
            acc_mlp_ebm_weights=mlp.accuracy(ebm_model, test_set),
            acc_ebm=ebm.accuracy(ebm_model, test_set),
            acc_ebm_mlp_weights=ebm.accuracy(mlp_model, test_set),
            kl_nats=symmetrized_kl(
                np.atleast_2d(mlp.forward(mlp_model, test_set.inputs)),
                _output_probabilities(ebm_model, test_set.inputs),
            ),
        )

    learners = [(mlp_model, mlp.backprop_gradient), (ebm_model, ebm.sampled_gradient(sampler, options))]
    fit(learners, train_set, options, record)
    return report
