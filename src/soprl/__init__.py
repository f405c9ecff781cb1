"""Off-policy actor-critic engine with output normalization, inverting
gradients, and recency-emphasizing replay sampling, on toy control tasks."""

import os as _os

# the workloads are many small float64 matmuls; multithreaded BLAS only
# adds contention there, so default to one thread unless the caller chose
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .actions import (ActionBounds, clip_action, invert_gradients, normalize_output,
                      saturation_fraction, squash, squashed_policy_entropy)
from .agent import AgentConfig, SopAgent, evaluate_policy, soft_update_targets, train
from .envs import dp_oracle, env_names, make_env
from .harness import ExperimentConfig, parse_config, run_experiment
from .replay import (EreConfig, PerfTracker, ReplayBuffer, SumTree, Transition,
                     adapt_eta, ere_range, per_sample, per_update_priorities,
                     sample_ere, sample_exponential, sample_uniform)

__all__ = [
    "ActionBounds", "AgentConfig", "EreConfig", "ExperimentConfig",
    "PerfTracker", "ReplayBuffer", "SopAgent", "SumTree",
    "Transition", "adapt_eta", "clip_action", "dp_oracle", "env_names",
    "ere_range", "evaluate_policy", "invert_gradients", "make_env",
    "normalize_output", "parse_config", "per_sample", "per_update_priorities",
    "run_experiment", "sample_ere", "sample_exponential", "sample_uniform",
    "saturation_fraction", "soft_update_targets", "squash",
    "squashed_policy_entropy", "train",
]

__version__ = "0.1.0"
