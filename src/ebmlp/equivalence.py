"""The lockstep cross-evaluation experiment.

The MLP and the EBM are two readings of one parameter set, so both start
from copies of one ``Model``; everything interesting is in how differently
the two training rules move the shared starting point, measured per step by
swapped-weight losses, the four test accuracies, and the symmetrized KL
divergence between the models' output distributions.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .models import INIT_STD, initial_model, N_HIDDEN
from .training import atomic_open, fit, label_rows, StepTable, TrainOptions
from . import ebm, mlp
from .samplers import GibbsSampler, SamplerConfig, sampler_seed

REPORT_SCHEMA_VERSION = 1


def symmetrized_kl(p_outputs, q_outputs, clamp=1e-12):
    """Mean over examples of D(p||q) + D(q||p) for Bernoulli outputs, nats.

    Multi-output rows sum over outputs before the example mean. Parameters
    are clamped to [clamp, 1-clamp] first, matching the loss clamp. The
    divergence is nonnegative, so a total that rounding pushed below zero
    (near-equal outputs) is returned as 0.0.
    """
    p = np.clip(np.asarray(p_outputs, dtype=np.float64), clamp, 1.0 - clamp)
    q = np.clip(np.asarray(q_outputs, dtype=np.float64), clamp, 1.0 - clamp)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    direct = p * np.log(p / q) + (1.0 - p) * np.log((1.0 - p) / (1.0 - q))
    reverse = q * np.log(q / p) + (1.0 - q) * np.log((1.0 - q) / (1.0 - p))
    both = np.atleast_1d(direct + reverse)
    return max(float(both.reshape(both.shape[0], -1).sum(axis=1).mean()), 0.0)


@dataclass
class EquivalenceReport(StepTable):
    """Per-step series of the lockstep experiment; one entry per step
    including step 0 (the shared initialization)."""

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

    def append(self, **values):
        if set(values) != set(REPORT_COLUMNS):
            raise ValueError(f"report row must provide exactly {REPORT_COLUMNS}")
        if values["kl_nats"] < 0.0:
            raise ValueError("kl_nats must be nonnegative")
        self._add_row(*(values[name] for name in REPORT_COLUMNS))

    @property
    def max_kl(self):
        return max(self.kl_nats)

    @property
    def final_kl(self):
        return self.kl_nats[-1]

    def to_json(self, path):
        payload = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "metadata": self.metadata,
            "series": self.series(),
        }
        with atomic_open(path) as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


REPORT_COLUMNS = tuple(header for _, header in EquivalenceReport.columns())


def _output_probabilities(y_states, scores):
    """P(y_j = 1 | x) per row of ``scores`` (as :func:`ebmlp.ebm.y_scores`
    returns them) from the exact conditional marginal."""
    scores = scores - scores.max(axis=1, keepdims=True)
    probs = np.exp(scores)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs @ y_states.astype(np.float64)


def _readings(model, dataset):
    """Both readings of one model on one dataset from one pre-activation:
    the MLP outputs and the EBM's (y patterns, y-scores)."""
    a = mlp.pre_activation(model, dataset.inputs)
    return mlp.outputs(model, a), ebm.y_scores(model, a)


def run_equivalence_experiment(train_set, test_set, n_hidden=N_HIDDEN, options=None, sampler=None, init_std=INIT_STD):
    """Train an MLP (backprop) and an EBM (sampled conditional gradient)
    in lockstep from one shared Gaussian initialization and identical batch
    sequences, cross-evaluating each model's weights the other way each step.

    The EBM's negative phase uses Gibbs sampling unless another sampler is
    given; its log-likelihood series is evaluated exactly via the closed
    form, which is tractable at any hidden width.
    """
    options = options or TrainOptions()
    mlp_model = initial_model(options.seed, train_set.n_features, n_hidden, init_std)
    ebm_model = mlp_model.copy()
    if sampler is None:
        sampler = GibbsSampler(SamplerConfig(seed=sampler_seed(options.seed)))

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

    # Both readings take any Model, so each model is read both ways from
    # its own pre-activation, once per dataset and step.
    train_labels = label_rows(train_set.labels, len(train_set))

    def record(step):
        (z_mlp, (y_states, scores_mlp)), (z_ebm, (_, scores_ebm)) = (
            _readings(model, test_set) for model in (mlp_model, ebm_model)
        )
        (fit_mlp, (_, fit_scores_mlp)), (fit_ebm, (_, fit_scores_ebm)) = (
            _readings(model, train_set) for model in (mlp_model, ebm_model)
        )
        report.append(
            step=step,
            mlp_loss=mlp.cross_entropy(train_labels, fit_mlp),
            mlp_loss_ebm_weights=mlp.cross_entropy(train_labels, fit_ebm),
            ebm_loglik=ebm.scored_log_likelihood(fit_scores_ebm, train_labels),
            ebm_loglik_mlp_weights=ebm.scored_log_likelihood(fit_scores_mlp, train_labels),
            acc_mlp=mlp.exact_match(mlp.threshold(z_mlp), test_set.labels),
            acc_mlp_ebm_weights=mlp.exact_match(mlp.threshold(z_ebm), test_set.labels),
            acc_ebm=mlp.exact_match(ebm.most_probable(y_states, scores_ebm), test_set.labels),
            acc_ebm_mlp_weights=mlp.exact_match(ebm.most_probable(y_states, scores_mlp), test_set.labels),
            kl_nats=symmetrized_kl(z_mlp, _output_probabilities(y_states, scores_ebm)),
        )

    learners = [(mlp_model, mlp.backprop_gradient), (ebm_model, ebm.sampled_gradient(sampler, options))]
    fit(learners, train_set, options, record)
    return report
