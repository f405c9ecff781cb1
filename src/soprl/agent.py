"""Deterministic-policy off-policy learner with clipped double-Q targets.

One update step regresses each critic (Q network) onto a shared smoothed
target, ascends the first critic through the policy (normalize -> tanh
squash, or the inverting-gradients route), and Polyak-averages the critics'
target networks.  Variants toggle the normalization, the second critic,
target smoothing, or swap squashing for inverting gradients.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import nets, replay
from .actions import (ActionBounds, InvertingGradientsHead, TanhHead,
                      saturation_fraction)
from .envs import ToyEnv
from .replay import EreConfig, ReplayBuffer, Transition
from .seeds import derive_seed, make_rng

VARIANTS = ("sop", "sop_ig", "no_norm", "single_q", "no_smoothing")
SAMPLERS = tuple(replay.SAMPLER_CLASSES)


@dataclass(frozen=True)
class AgentConfig:
    """All training hyperparameters; defaults follow the reference setup."""

    gamma: float = 0.99
    tau: float = 0.005
    sigma: float = 0.29
    batch_size: int = 256
    lr: float = 3e-4
    hidden_dim: int = 64
    buffer_capacity: int = 1_000_000
    sampler: str = "uniform"
    variant: str = "sop"
    eta0: float = 0.995
    per_beta1: float = 0.4
    per_beta2: float = 0.4
    exp_lambda: float = 5e-6
    warmup_steps: int = 1000
    per_priority_floor: ClassVar[float] = 1e-6
    per_max_priority_init: ClassVar[bool] = True
    per_normalize_weights: ClassVar[bool] = True

    def __post_init__(self):
        """Every message starts with the offending field's name and a colon."""
        checks = (("gamma", 0.0 < self.gamma < 1.0, "must be in (0, 1)"),
                  ("tau", 0.0 < self.tau <= 1.0, "must be in (0, 1]"),
                  ("sigma", 0.0 < self.sigma < np.inf, "must be finite and > 0"),
                  ("lr", 0.0 < self.lr < np.inf, "must be finite and > 0"),
                  ("batch_size", self.batch_size >= 1, "must be >= 1"),
                  ("hidden_dim", self.hidden_dim >= 1, "must be >= 1"),
                  ("buffer_capacity", self.buffer_capacity >= 1, "must be >= 1"),
                  ("warmup_steps", self.warmup_steps >= 0, "must be >= 0"),
                  ("eta0", 0.0 < self.eta0 <= 1.0, "must be in (0, 1]"),
                  ("per_beta1", 0.0 <= self.per_beta1 < np.inf, "must be finite and >= 0"),
                  ("per_beta2", 0.0 <= self.per_beta2 < np.inf, "must be finite and >= 0"),
                  ("exp_lambda", 0.0 < self.exp_lambda < np.inf, "must be in (0, inf)"),
                  ("variant", self.variant in VARIANTS, f"must be one of {VARIANTS}"),
                  ("sampler", self.sampler in SAMPLERS, f"must be one of {SAMPLERS}"))
        for name, ok, msg in checks:
            if not ok:
                raise ValueError(f"{name}: {msg}")

    def ere_config(self) -> EreConfig:
        return EreConfig(eta0=self.eta0)


def _mean(x: np.ndarray) -> float:
    """``float(np.mean(x))`` bit for bit: the same ``np.add.reduce`` sum over
    the same count, without np.mean's wrapper."""
    return float(np.add.reduce(x, axis=None) / x.size)


def soft_update_targets(agent: SopAgent, tau: float) -> None:
    """Polyak-average each critic into its target:
    target <- (1 - tau) * target + tau * online."""
    for critic in agent.critics:
        critic.target.flat *= 1.0 - tau
        critic.target.flat += tau * critic.params.flat


class SopAgent:
    """Owns the networks, config, bounds, and derived RNG streams for one run.

    ``policy`` has no target; ``critics`` holds two Q networks for the
    clipped double-Q target, or one under ``single_q``."""

    def __init__(self, state_dim: int, action_dim: int, bounds: ActionBounds,
                 cfg: AgentConfig, seed: int):
        self.cfg = cfg
        self.bounds = bounds
        self.state_dim = state_dim
        self.action_dim = action_dim
        rng_init = make_rng(seed, "init")
        self.rng_explore = make_rng(seed, "explore")
        self.rng_target = make_rng(seed, "target-noise")
        self.rng_sampler = make_rng(seed, "sampler")
        self.rng_warmup = make_rng(seed, "warmup")
        # drawn in the order policy, q1, q2: single_q skips only the last draw
        self.policy = nets.TrainedNet(nets.init_mlp(state_dim, cfg.hidden_dim,
                                                    action_dim, rng_init))
        qs = [nets.init_mlp(state_dim + action_dim, cfg.hidden_dim, 1, rng_init)
              for _ in range(1 if cfg.variant == "single_q" else 2)]
        self.critics = tuple(nets.TrainedNet(q, q.copy()) for q in qs)
        self.head = (InvertingGradientsHead(bounds) if cfg.variant == "sop_ig"
                     else TanhHead(bounds, normalize=cfg.variant != "no_norm"))
        # a noise variance that rounds to 0 (entropy log(0)) or overflows (+inf or
        # NaN) has no finite entropy: refused before training
        with np.errstate(all="ignore"):
            entropy = self.head.entropy(np.zeros((1, action_dim)), cfg.sigma, [0])
        if not math.isfinite(entropy):
            size = "small" if entropy == -math.inf else "large"
            raise ValueError(f"sigma: {cfg.sigma!r} is too {size} for a finite entropy")

    # -- acting ------------------------------------------------------------

    def policy_mu(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Raw policy output and the noise-free action it selects."""
        mu = nets.mlp_forward(self.policy.params, states)
        center = self.head.center(mu)
        return mu, self.head.action(center, np.zeros_like(center))

    def act(self, state_vec: np.ndarray) -> np.ndarray:
        """The exploring action: Gaussian noise added to the head's center."""
        center = self.head.center(nets.mlp_forward(self.policy.params, state_vec))
        noise = ((self.cfg.sigma * self.head.noise_unit)
                 * self.rng_explore.standard_normal(self.action_dim))
        return self.head.action(center, noise)

    # -- updates -----------------------------------------------------------

    def compute_q_targets(self, batch: dict[str, np.ndarray]) -> np.ndarray:
        """Smoothed bootstrap targets, r only at terminals: the minimum over
        the critics' targets (clipped double-Q when there are two)."""
        cfg = self.cfg
        s2 = batch["next_states"]
        n = s2.shape[0]
        if n == 0:
            raise ValueError("empty batch")
        center = self.head.center(nets.mlp_forward(self.policy.params, s2))
        if cfg.variant != "no_smoothing":
            delta = cfg.sigma * self.rng_target.standard_normal((n, self.action_dim))
        else:
            delta = np.zeros((n, self.action_dim))
        a2 = self.head.action(center, delta * self.head.noise_unit)
        q_in = np.concatenate([s2, a2], axis=1)
        bootstrap = nets.mlp_forward(self.critics[0].target, q_in)[:, 0]
        for critic in self.critics[1:]:
            bootstrap = np.minimum(bootstrap, nets.mlp_forward(critic.target, q_in)[:, 0])
        not_done = ~batch["dones"]
        return batch["rewards"] + cfg.gamma * not_done * bootstrap

    def q_update(self, batch: dict[str, np.ndarray], targets: np.ndarray,
                 is_weights: np.ndarray | None = None) -> tuple[float, np.ndarray]:
        """One Adam step on each critic; returns the loss and per-sample |td|."""
        cfg = self.cfg
        n = targets.shape[0]
        w = 1.0 if is_weights is None else np.asarray(is_weights)
        q_in = np.concatenate([batch["states"], batch["actions"]], axis=1)
        abs_errs = []
        total_loss = 0.0
        for critic in self.critics:
            pred, cache = nets.mlp_forward_cached(critic.params, q_in)
            err = pred[:, 0] - targets
            abs_errs.append(np.abs(err))
            loss = _mean((w * err) * err)
            if not math.isfinite(loss):
                raise FloatingPointError("non-finite Q loss")
            total_loss += loss
            grad_out = (2.0 * w * err / n)[:, None]
            nets.mlp_backward_cached(critic.params, cache, grad_out, out=critic.grads)
            nets.adam_step(critic, cfg.lr)
        td = 0.5 * (abs_errs[0] + abs_errs[1]) if len(abs_errs) == 2 else abs_errs[0]
        return total_loss / len(self.critics), td

    def policy_objective_and_grads(self, batch: dict[str, np.ndarray],
                                   out: nets.MlpParams | None = None
                                   ) -> tuple[float, nets.MlpParams]:
        """Mean Q1(s, action_of(s)) and its ascent gradient w.r.t. the policy,
        where Q1 is the first critic.

        The action head maps the raw output to Q1's action input and carries
        dQ1/da back to the raw output (see ``TanhHead.forward_vjp`` and
        ``InvertingGradientsHead.forward_vjp``).  The gradient goes into
        ``out`` when it is given, else into a fresh container.
        """
        s = batch["states"]
        n = s.shape[0]
        if n == 0:
            raise ValueError("empty batch")
        q1 = self.critics[0].params
        mu, cache = nets.mlp_forward_cached(self.policy.params, s)
        a, vjp = self.head.forward_vjp(mu)
        q_in = np.concatenate([s, a], axis=1)
        q, q_cache = nets.mlp_forward_cached(q1, q_in)
        objective = _mean(q)
        q_in_grad = nets.mlp_input_grad(q1, q_cache, np.full((n, 1), 1.0 / n))
        mu_grad = vjp(q_in_grad[:, self.state_dim:])
        if not math.isfinite(objective):
            raise FloatingPointError("non-finite policy objective")
        grads = nets.mlp_backward_cached(self.policy.params, cache, mu_grad, out=out)
        return objective, grads

    def policy_update(self, batch: dict[str, np.ndarray]) -> float:
        """One Adam ascent step on the policy; Q parameters are untouched."""
        policy = self.policy
        objective, grads = self.policy_objective_and_grads(batch, out=policy.grads)
        np.negative(grads.flat, out=grads.flat)  # adam minimizes; flip to ascend
        nets.adam_step(policy, self.cfg.lr)
        return objective


@dataclass
class EvalRow:
    """One learning-record checkpoint; extra fields beyond the CSV schema
    (post-normalization magnitude) support the diagnostics tests."""

    step: int
    eval_return_mean: float
    eval_return_std: float
    entropy_estimate: float
    saturation_fraction: float
    mean_abs_mu_pre_norm: float
    mean_abs_mu_post_norm: float
    eta_current: float | None
    wall_ms: float


@dataclass
class TrainRecord:
    rows: list[EvalRow] = field(default_factory=list)


def evaluate_policy(agent: SopAgent, env: ToyEnv, rollouts: int,
                    seed: int) -> tuple[float, float, dict[str, np.ndarray]]:
    """Deterministic rollouts with derived per-rollout seeds, taking each
    step's action from one ``policy_mu`` call.

    Returns (mean, population std) of the undiscounted returns plus the
    visited raw policy outputs / delivered actions for diagnostics.
    """
    if rollouts < 1:
        raise ValueError("need at least one rollout")
    returns = np.zeros(rollouts)
    mus, acts, starts = [], [], []
    for i in range(rollouts):
        s = env.reset(derive_seed(seed, "rollout", i))
        starts.append(s.copy())
        total, done = 0.0, False
        while not done:
            mu_raw, a = agent.policy_mu(s)
            mus.append(mu_raw)
            acts.append(a)
            s, r, done = env.step(a)
            total += r
        returns[i] = total
    diag = {"mu_raw": np.array(mus), "actions": np.array(acts),
            "start_states": np.array(starts)}
    return float(np.mean(returns)), float(np.std(returns)), diag


def _diagnostics(agent: SopAgent, diag: dict[str, np.ndarray], step: int,
                 seed: int) -> tuple[float, float, float, float]:
    mu_raw = diag["mu_raw"]
    sat = saturation_fraction(diag["actions"], agent.bounds)
    pre = float(np.mean(np.abs(mu_raw)))
    post_mu = agent.head.center(mu_raw)
    post = float(np.mean(np.abs(post_mu)))
    # policy entropy at a few reference states
    refs = post_mu[:: max(1, len(post_mu) // 5)][:5]
    seeds = [derive_seed(seed, "entropy", step, i) for i in range(len(refs))]
    entropy = agent.head.entropy(refs, agent.cfg.sigma, seeds)
    return entropy, sat, pre, post


def train(env: ToyEnv, cfg: AgentConfig, total_steps: int, seed: int,
          eval_interval: int = 5000, eval_rollouts: int = 5,
          record_walltime: bool = False) -> tuple[TrainRecord, SopAgent]:
    """Run episodes, updating after each one with as many steps as it lasted.

    Evaluation checkpoints land at the first episode boundary at or past
    each multiple of ``eval_interval`` (episodes and updates are atomic).
    """
    if eval_interval < 1:
        raise ValueError("eval_interval must be positive")
    spec = env.spec
    agent = SopAgent(spec.state_dim, spec.action_dim, spec.bounds, cfg,
                     derive_seed(seed, "agent"))
    eval_env = env.clone()
    buffer = ReplayBuffer(cfg.buffer_capacity, spec.state_dim, spec.action_dim)
    sampler = replay.SAMPLER_CLASSES[cfg.sampler](cfg, buffer)
    record = TrainRecord()
    t_start = time.perf_counter()
    next_eval = eval_interval
    episode_idx = 0
    env_steps = 0

    while env_steps < total_steps:
        s = env.reset(derive_seed(seed, "episode", episode_idx))
        episode_idx += 1
        ep_return = 0.0
        ep_len = 0
        done = False
        while not done and env_steps < total_steps:
            if env_steps < cfg.warmup_steps:
                a = agent.rng_warmup.uniform(spec.bounds.low, spec.bounds.high)
            else:
                a = agent.act(s)
            s2, r, done = env.step(a)
            buffer.push(Transition(s, a, r, s2, done))
            s = s2
            ep_return += r
            ep_len += 1
            env_steps += 1
        sampler.episode_done(env_steps, ep_return)
        if env_steps > cfg.warmup_steps:
            for k in range(1, ep_len + 1):
                batch, slots, weights = sampler.draw(k, ep_len, agent.rng_sampler)
                targets = agent.compute_q_targets(batch)
                _, td = agent.q_update(batch, targets, weights)
                sampler.learned(slots, td)
                agent.policy_update(batch)
                soft_update_targets(agent, cfg.tau)
        if env_steps >= next_eval:
            mean, std, diag = evaluate_policy(agent, eval_env, eval_rollouts,
                                              derive_seed(seed, "eval", env_steps))
            entropy, sat, pre, post = _diagnostics(agent, diag, env_steps, seed)
            wall = (time.perf_counter() - t_start) * 1000.0 if record_walltime else 0.0
            record.rows.append(EvalRow(env_steps, mean, std, entropy, sat, pre, post,
                                       sampler.eta, wall))
            next_eval = (env_steps // eval_interval + 1) * eval_interval
    return record, agent

