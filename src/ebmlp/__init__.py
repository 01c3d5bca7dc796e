"""ebmlp: train sigmoid MLP classifiers through the gradient of an
equivalent conditional energy-based model, with pluggable samplers (exact
enumeration, block Gibbs, simulated annealing over a BQM/Ising encoding)
standing in for annealing hardware.
"""

from .bqm import (
    Bqm,
    ClampReport,
    IsingModel,
    bqm_to_ising,
    bqm_to_text,
    build_conditional_bqm,
    clamp_to_hardware,
    ising_to_text,
)
from .data import Dataset, IdxFile, load_idx, load_standard_split, make_binary_task, parse_idx, serialize_idx, synthetic_task
from .ebm import (
    accuracy as ebm_accuracy,
    conditional_log_likelihood,
    energy,
    exact_conditional,
    grad_conditional_ll,
    mean_log_likelihood,
)
from .equivalence import EquivalenceReport, run_equivalence_experiment, symmetrized_kl
from .experiments import RunConfig, TRACKS, TrialSummary, bench_runtime, run_track, summarize_trials
from .mlp import accuracy as mlp_accuracy, cross_entropy, forward, grad_backprop
from .models import GradientSet, Model, initial_model, load_model, save_model
from .samplers import ExactSampler, GibbsSampler, SamplerConfig, SimAnnealSampler, make_sampler
from .training import train_ebm, train_mlp, TrainingTrace, TrainOptions

__version__ = "0.1.0"


# perfbench/run.py prints this at the start of every benchmark run.
def active_backend():
    """Name of the sampling kernels, which are always the numpy ones."""
    return "numpy"


__all__ = [
    "Bqm",
    "ClampReport",
    "Dataset",
    "EquivalenceReport",
    "ExactSampler",
    "GibbsSampler",
    "GradientSet",
    "IdxFile",
    "IsingModel",
    "Model",
    "RunConfig",
    "SamplerConfig",
    "SimAnnealSampler",
    "TRACKS",
    "TrainOptions",
    "TrainingTrace",
    "TrialSummary",
    "active_backend",
    "bench_runtime",
    "bqm_to_ising",
    "bqm_to_text",
    "build_conditional_bqm",
    "clamp_to_hardware",
    "conditional_log_likelihood",
    "cross_entropy",
    "ebm_accuracy",
    "energy",
    "exact_conditional",
    "forward",
    "grad_backprop",
    "grad_conditional_ll",
    "initial_model",
    "ising_to_text",
    "load_idx",
    "load_model",
    "load_standard_split",
    "make_binary_task",
    "make_sampler",
    "mean_log_likelihood",
    "mlp_accuracy",
    "parse_idx",
    "run_equivalence_experiment",
    "run_track",
    "save_model",
    "serialize_idx",
    "summarize_trials",
    "symmetrized_kl",
    "synthetic_task",
    "train_ebm",
    "train_mlp",
    "__version__",
]
