"""Deterministic-policy off-policy learner with clipped double-Q targets.

One update step regresses both Q networks onto a shared smoothed target,
ascends the first Q network through the policy (normalize -> tanh squash,
or the inverting-gradients route), and Polyak-averages the target networks.
Variants toggle the normalization, the second Q network, target smoothing,
or swap squashing for inverting gradients.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import nets, replay
from .actions import (ActionBounds, InvertingGradientsHead, TanhHead,
                      saturation_fraction)
from .envs import ToyEnv
from .replay import EreConfig, PerfTracker, ReplayBuffer, SumTree, Transition
from .seeds import derive_seed, make_rng

VARIANTS = ("sop", "sop_ig", "no_norm", "single_q", "no_smoothing")
SAMPLERS = ("uniform", "ere", "per", "exp")


@dataclass(frozen=True)
class AgentConfig:
    """All training hyperparameters; defaults follow the reference setup."""

    gamma: float = 0.99
    tau: float = 0.005
    sigma_explore: float = 0.29
    sigma_target: float = 0.29
    batch_size: int = 256
    lr: float = 3e-4
    hidden_dim: int = 64
    buffer_capacity: int = 1_000_000
    sampler: str = "uniform"
    variant: str = "sop"
    eta0: float = 0.995
    ere_c_min: int | None = None
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
                  ("sigma_explore", self.sigma_explore > 0.0, "must be > 0"),
                  ("sigma_target", self.sigma_target >= 0.0, "must be >= 0"),
                  ("lr", 0.0 < self.lr < np.inf, "must be finite and > 0"),
                  ("batch_size", self.batch_size >= 1, "must be >= 1"),
                  ("hidden_dim", self.hidden_dim >= 1, "must be >= 1"),
                  ("buffer_capacity", self.buffer_capacity >= 1, "must be >= 1"),
                  ("warmup_steps", self.warmup_steps >= 0, "must be >= 0"),
                  ("per_beta1", 0.0 <= self.per_beta1 < np.inf, "must be finite and >= 0"),
                  ("per_beta2", 0.0 <= self.per_beta2 < np.inf, "must be finite and >= 0"),
                  ("exp_lambda", 0.0 < self.exp_lambda < np.inf, "must be in (0, inf)"),
                  ("variant", self.variant in VARIANTS, f"must be one of {VARIANTS}"),
                  ("sampler", self.sampler in SAMPLERS, f"must be one of {SAMPLERS}"))
        for name, ok, msg in checks:
            if not ok:
                raise ValueError(f"{name}: {msg}")
        cmin = self.ere_config().resolved_c_min(self.buffer_capacity, self.batch_size)
        if self.batch_size > cmin:
            raise ValueError(f"batch_size: {self.batch_size} exceeds ERE c_min {cmin}")

    def ere_config(self) -> EreConfig:
        return EreConfig(eta0=self.eta0, c_min=self.ere_c_min)

    @property
    def twin_q(self) -> bool:
        return self.variant != "single_q"

    @property
    def smooths_targets(self) -> bool:
        return self.variant != "no_smoothing"


@dataclass
class AgentState:
    """Policy/Q parameters, their targets, optimizer moments, and counters."""

    policy: nets.MlpParams
    q1: nets.MlpParams
    q2: nets.MlpParams
    q1_target: nets.MlpParams
    q2_target: nets.MlpParams
    policy_adam: nets.AdamState
    q1_adam: nets.AdamState
    q2_adam: nets.AdamState
    env_steps: int = 0
    updates: int = 0


def init_agent_state(state_dim: int, action_dim: int, hidden_dim: int,
                     rng: np.random.Generator) -> AgentState:
    policy = nets.init_mlp(state_dim, hidden_dim, action_dim, rng)
    q1 = nets.init_mlp(state_dim + action_dim, hidden_dim, 1, rng)
    q2 = nets.init_mlp(state_dim + action_dim, hidden_dim, 1, rng)
    return AgentState(
        policy=policy, q1=q1, q2=q2,
        q1_target=q1.copy(), q2_target=q2.copy(),
        policy_adam=nets.AdamState.for_params(policy),
        q1_adam=nets.AdamState.for_params(q1),
        q2_adam=nets.AdamState.for_params(q2),
    )


def soft_update_targets(state: AgentState, tau: float) -> None:
    """Polyak-average online parameters into the targets:
    target <- (1 - tau) * target + tau * online."""
    for online, target in ((state.q1, state.q1_target), (state.q2, state.q2_target)):
        target.flat *= 1.0 - tau
        target.flat += tau * online.flat


class SopAgent:
    """Owns the state, config, bounds, and derived RNG streams for one run."""

    def __init__(self, state_dim: int, action_dim: int, bounds: ActionBounds,
                 cfg: AgentConfig, seed: int):
        self.cfg = cfg
        self.bounds = bounds
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.rng_init = make_rng(seed, "init")
        self.rng_explore = make_rng(seed, "explore")
        self.rng_target = make_rng(seed, "target-noise")
        self.rng_sampler = make_rng(seed, "sampler")
        self.rng_warmup = make_rng(seed, "warmup")
        self.state = init_agent_state(state_dim, action_dim, cfg.hidden_dim,
                                      self.rng_init)
        self.head = (InvertingGradientsHead(bounds) if cfg.variant == "sop_ig"
                     else TanhHead(bounds, normalize=cfg.variant != "no_norm"))

    # -- acting ------------------------------------------------------------

    def policy_mu(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Raw policy output and the action head's noise-free center."""
        mu = nets.mlp_forward(self.state.policy, states)
        return mu, self.head.center(mu)

    def act(self, state_vec: np.ndarray, mode: str = "explore",
            rng: np.random.Generator | None = None) -> np.ndarray:
        if mode not in ("explore", "evaluate"):
            raise ValueError("mode must be 'explore' or 'evaluate'")
        rng = rng if rng is not None else self.rng_explore
        _, center = self.policy_mu(state_vec)
        noise = np.zeros(self.action_dim)
        if mode == "explore":
            noise = ((self.cfg.sigma_explore * self.head.noise_unit)
                     * rng.standard_normal(self.action_dim))
        return self.head.action(center, noise)

    # -- updates -----------------------------------------------------------

    def compute_q_targets(self, batch: dict[str, np.ndarray],
                          delta: np.ndarray | None = None) -> np.ndarray:
        """Smoothed clipped double-Q bootstrap targets, r only at terminals.

        ``delta`` overrides the smoothing noise, in the head's noise units."""
        cfg = self.cfg
        s2 = batch["next_states"]
        n = s2.shape[0]
        if n == 0:
            raise ValueError("empty batch")
        center = self.head.center(nets.mlp_forward(self.state.policy, s2))
        if delta is None:
            if cfg.smooths_targets:
                delta = cfg.sigma_target * self.rng_target.standard_normal(
                    (n, self.action_dim))
            else:
                delta = np.zeros((n, self.action_dim))
        a2 = self.head.action(center, delta * self.head.noise_unit)
        q_in = np.concatenate([s2, a2], axis=1)
        t1 = nets.mlp_forward(self.state.q1_target, q_in)[:, 0]
        if cfg.twin_q:
            t2 = nets.mlp_forward(self.state.q2_target, q_in)[:, 0]
            bootstrap = np.minimum(t1, t2)
        else:
            bootstrap = t1
        not_done = ~batch["dones"]
        return batch["rewards"] + cfg.gamma * not_done * bootstrap

    def q_update(self, batch: dict[str, np.ndarray], targets: np.ndarray,
                 is_weights: np.ndarray | None = None) -> tuple[float, np.ndarray]:
        """One Adam step on each Q net; returns the loss and per-sample |td|."""
        cfg = self.cfg
        n = targets.shape[0]
        w = np.ones(n) if is_weights is None else np.asarray(is_weights)
        q_in = np.concatenate([batch["states"], batch["actions"]], axis=1)
        abs_errs = []
        total_loss = 0.0
        q_nets = [(self.state.q1, self.state.q1_adam)]
        if cfg.twin_q:
            q_nets.append((self.state.q2, self.state.q2_adam))
        for params, adam in q_nets:
            pred, cache = nets.mlp_forward_cached(params, q_in)
            err = pred[:, 0] - targets
            abs_errs.append(np.abs(err))
            loss = float(np.mean(w * err * err))
            if not np.isfinite(loss):
                raise FloatingPointError("non-finite Q loss")
            total_loss += loss
            grad_out = (2.0 * w * err / n)[:, None]
            grads, _ = nets.mlp_backward_cached(params, cache, grad_out)
            nets.adam_step(adam, params, grads, cfg.lr)
        self.state.updates += 1
        td = 0.5 * (abs_errs[0] + abs_errs[1]) if len(abs_errs) == 2 else abs_errs[0]
        return total_loss / len(abs_errs), td

    def policy_objective_and_grads(self, batch: dict[str, np.ndarray]) -> tuple[float, nets.MlpParams]:
        """Mean Q1(s, action_of(s)) and its ascent gradient w.r.t. the policy.

        The action head maps the raw output to Q1's action input and carries
        dQ1/da back to the raw output (see ``TanhHead.forward_vjp`` and
        ``InvertingGradientsHead.forward_vjp``).
        """
        s = batch["states"]
        n = s.shape[0]
        if n == 0:
            raise ValueError("empty batch")
        mu, cache = nets.mlp_forward_cached(self.state.policy, s)
        a, vjp = self.head.forward_vjp(mu)
        q_in = np.concatenate([s, a], axis=1)
        q, q_cache = nets.mlp_forward_cached(self.state.q1, q_in)
        objective = float(np.mean(q))
        q_in_grad = nets.mlp_input_grad(self.state.q1, q_cache, np.full((n, 1), 1.0 / n))
        mu_grad = vjp(q_in_grad[:, self.state_dim:])
        if not np.isfinite(objective):
            raise FloatingPointError("non-finite policy objective")
        grads, _ = nets.mlp_backward_cached(self.state.policy, cache, mu_grad)
        return objective, grads

    def policy_update(self, batch: dict[str, np.ndarray]) -> float:
        """One Adam ascent step on the policy; Q parameters are untouched."""
        objective, grads = self.policy_objective_and_grads(batch)
        np.negative(grads.flat, out=grads.flat)  # adam minimizes; flip to ascend
        nets.adam_step(self.state.policy_adam, self.state.policy, grads,
                       self.cfg.lr)
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
    """Deterministic rollouts with derived per-rollout seeds.

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
            mu_raw, _ = agent.policy_mu(s)
            mus.append(mu_raw)
            a = agent.act(s, mode="evaluate")
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
    entropy = agent.head.entropy(refs, agent.cfg.sigma_explore, seeds)
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
    tracker = PerfTracker()
    ere_cfg = cfg.ere_config()
    tree = None
    if cfg.sampler == "per":
        tree = SumTree(cfg.buffer_capacity, beta1=cfg.per_beta1, beta2=cfg.per_beta2,
                       priority_floor=cfg.per_priority_floor)
    record = TrainRecord()
    eta = cfg.eta0
    t_start = time.perf_counter()
    next_eval = eval_interval
    episode_idx = 0

    def run_eval(step: int) -> None:
        mean, std, diag = evaluate_policy(agent, eval_env, eval_rollouts,
                                          derive_seed(seed, "eval", step))
        entropy, sat, pre, post = _diagnostics(agent, diag, step, seed)
        wall = (time.perf_counter() - t_start) * 1000.0 if record_walltime else 0.0
        record.rows.append(EvalRow(step, mean, std, entropy, sat, pre, post,
                                   eta if cfg.sampler == "ere" else None, wall))

    def draw_batch(k: int, k_upd: int):
        if cfg.sampler == "uniform":
            slots = replay.sample_uniform(buffer, cfg.batch_size, agent.rng_sampler)
            return buffer.gather(slots), slots, None
        if cfg.sampler == "ere":
            slots = replay.sample_ere(buffer, k, k_upd, ere_cfg, eta,
                                      cfg.batch_size, agent.rng_sampler)
            return buffer.gather(slots), slots, None
        if cfg.sampler == "exp":
            slots = replay.sample_exponential(buffer, cfg.exp_lambda,
                                              cfg.batch_size, agent.rng_sampler)
            return buffer.gather(slots), slots, None
        batch, slots, weights = replay.per_sample(tree, buffer, cfg.batch_size,
                                                  agent.rng_sampler,
                                                  cfg.per_normalize_weights)
        return batch, slots, weights

    while agent.state.env_steps < total_steps:
        s = env.reset(derive_seed(seed, "episode", episode_idx))
        episode_idx += 1
        ep_return = 0.0
        ep_len = 0
        done = False
        while not done and agent.state.env_steps < total_steps:
            if agent.state.env_steps < cfg.warmup_steps:
                a = agent.rng_warmup.uniform(spec.bounds.low, spec.bounds.high)
            else:
                a = agent.act(s, mode="explore")
            s2, r, done = env.step(a)
            slot = buffer.push(Transition(s, a, r, s2, done))
            if tree is not None:
                tree.set_raw(np.array([slot]), np.array([tree.max_raw_priority]))
            s = s2
            ep_return += r
            ep_len += 1
            agent.state.env_steps += 1
        tracker.update(agent.state.env_steps, ep_return, cfg.buffer_capacity)
        if cfg.sampler == "ere":
            eta = replay.adapt_eta(ere_cfg, tracker)
        if agent.state.env_steps > cfg.warmup_steps and buffer.size > 0:
            k_upd = ep_len
            for k in range(1, k_upd + 1):
                batch, slots, weights = draw_batch(k, k_upd)
                targets = agent.compute_q_targets(batch)
                _, td = agent.q_update(batch, targets, weights)
                if tree is not None:
                    replay.per_update_priorities(tree, slots, td)
                agent.policy_update(batch)
                soft_update_targets(agent.state, cfg.tau)
        if agent.state.env_steps >= next_eval:
            run_eval(agent.state.env_steps)
            while next_eval <= agent.state.env_steps:
                next_eval += eval_interval
    return record, agent


def save_agent(path: str, agent: SopAgent) -> None:
    """Checkpoint all parameter sets and counters into one npz archive."""
    arrays: dict[str, np.ndarray] = {}
    parts = {"policy": agent.state.policy, "q1": agent.state.q1, "q2": agent.state.q2,
             "q1_target": agent.state.q1_target, "q2_target": agent.state.q2_target}
    for prefix, params in parts.items():
        for name, arr in params.named_tensors():
            arrays[f"{prefix}.{name}"] = arr
    arrays["counters"] = np.array([agent.state.env_steps, agent.state.updates],
                                  dtype=np.int64)
    np.savez(path, **arrays)


def load_agent_params(path: str) -> dict[str, nets.MlpParams | np.ndarray]:
    """Load a checkpoint back into parameter containers keyed by network."""
    out: dict[str, nets.MlpParams | np.ndarray] = {}
    with np.load(path) as data:
        prefixes = sorted({k.split(".")[0] for k in data.files if "." in k})
        for prefix in prefixes:
            n = len([k for k in data.files if k.startswith(prefix + ".W")])
            out[prefix] = nets.MlpParams(
                [np.asarray(data[f"{prefix}.W{i}"]) for i in range(n)],
                [np.asarray(data[f"{prefix}.b{i}"]) for i in range(n)])
        out["counters"] = np.asarray(data["counters"])
    return out
