import dataclasses
import tracemalloc

import numpy as np
import pytest

import soprl.replay
from soprl import nets
from soprl.actions import ActionBounds
from soprl.agent import (SAMPLERS, VARIANTS, AgentConfig, SopAgent, soft_update_targets,
                         train)
from soprl.envs import PointMass1D, make_env


def desk_cfg(**overrides):
    base = dict(buffer_capacity=2000, hidden_dim=8, batch_size=16,
                warmup_steps=50)
    base.update(overrides)
    return AgentConfig(**base)


def zero_params(params):
    for _, arr in params.named_tensors():
        arr[...] = 0.0


def constant_net(params, value):
    """Zero all weights so the net outputs exactly its final bias."""
    zero_params(params)
    params.biases[-1][...] = value


def make_agent(cfg=None, state_dim=1, action_dim=1, scale=1.0, seed=0):
    cfg = cfg or desk_cfg()
    return SopAgent(state_dim, action_dim, ActionBounds.symmetric(scale, action_dim),
                    cfg, seed=seed)


def batch_of(n, state_dim=1, action_dim=1, seed=0, terminal=False):
    rng = np.random.default_rng(seed)
    return {
        "states": rng.uniform(-1, 1, (n, state_dim)),
        "actions": rng.uniform(-1, 1, (n, action_dim)),
        "rewards": rng.uniform(-1, 0, n),
        "next_states": rng.uniform(-1, 1, (n, state_dim)),
        "dones": np.full(n, terminal),
    }


def params_equal(a, b):
    return all(np.array_equal(x, y) for (_, x), (_, y) in
               zip(a.named_tensors(), b.named_tensors()))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AgentConfig(gamma=1.5)
        with pytest.raises(ValueError):
            AgentConfig(tau=0.0)
        with pytest.raises(ValueError):
            AgentConfig(variant="ddpg")
        with pytest.raises(ValueError):
            AgentConfig(sampler="rank")

    def test_reference_defaults(self):
        cfg = AgentConfig()
        assert (cfg.gamma, cfg.tau, cfg.batch_size) == (0.99, 0.005, 256)
        assert cfg.sigma == 0.29
        assert cfg.lr == 3e-4
        assert cfg.buffer_capacity == 1_000_000
        assert cfg.eta0 == 0.995
        assert (cfg.per_beta1, cfg.per_beta2) == (0.4, 0.4)
        assert cfg.exp_lambda == 5e-6


class TestAct:
    def test_evaluate_zero_policy_gives_zero_action(self):
        agent = make_agent()
        zero_params(agent.policy.params)
        a = agent.act(np.array([0.7]), mode="evaluate")
        assert a[0] == 0.0

    def test_explore_reproducible_with_seeded_rng(self):
        agent = make_agent()
        s = np.array([0.3])
        agent.rng_explore = np.random.default_rng(5)
        a1 = agent.act(s)
        agent.rng_explore = np.random.default_rng(5)
        a2 = agent.act(s)
        assert np.array_equal(a1, a2)

    def test_explore_std_matches_pushforward(self):
        agent = make_agent(scale=2.0)
        zero_params(agent.policy.params)
        agent.rng_explore = np.random.default_rng(1)
        acts = np.array([agent.act(np.zeros(1))[0] for _ in range(10_000)])
        ref = 2.0 * np.tanh(0.29 * np.random.default_rng(2).standard_normal(200_000))
        assert abs(acts.std() - ref.std()) / ref.std() < 0.05

    def test_ig_variant_clips_without_tanh(self):
        agent = make_agent(desk_cfg(variant="sop_ig"), scale=0.5)
        constant_net(agent.policy.params, 3.0)  # way outside the box
        a = agent.act(np.array([0.0]), mode="evaluate")
        assert a[0] == 0.5

    def test_invalid_mode_rejected(self):
        agent = make_agent()
        with pytest.raises(ValueError):
            agent.act(np.zeros(1), mode="test")


class TestComputeQTargets:
    def test_hand_arithmetic_with_stub_targets(self):
        agent = make_agent()
        constant_net(agent.critics[0].target, 2.0)
        constant_net(agent.critics[1].target, 3.0)
        batch = batch_of(4)
        batch["rewards"] = np.ones(4)
        y = agent.compute_q_targets(batch)
        np.testing.assert_allclose(y, 1.0 + 0.99 * 2.0)

    def test_terminal_transitions_use_reward_only(self):
        agent = make_agent()
        constant_net(agent.critics[0].target, 2.0)
        constant_net(agent.critics[1].target, 3.0)
        batch = batch_of(4, terminal=True)
        batch["rewards"] = np.full(4, -1.0)
        np.testing.assert_allclose(agent.compute_q_targets(batch), -1.0)

    def test_single_q_bypasses_min(self):
        batch = batch_of(4)
        batch["rewards"] = np.ones(4)
        twin = make_agent()
        constant_net(twin.critics[0].target, 3.0)
        constant_net(twin.critics[1].target, 2.0)
        np.testing.assert_allclose(twin.compute_q_targets(batch), 1.0 + 0.99 * 2.0)
        agent = make_agent(desk_cfg(variant="single_q"))
        constant_net(agent.critics[0].target, 3.0)
        # the one critic's target is used as it is, with no min to lower it
        np.testing.assert_allclose(agent.compute_q_targets(batch), 1.0 + 0.99 * 3.0)

    def test_min_never_exceeds_either_target_alone(self):
        agent = make_agent(desk_cfg(), state_dim=2, action_dim=1)
        batch = batch_of(32, state_dim=2)
        noise = agent.rng_target.bit_generator.state
        y_min = agent.compute_q_targets(batch)
        alone = []
        for critic in agent.critics:  # each critic's target alone, same noise
            agent.rng_target.bit_generator.state = noise
            agent.critics = (critic,)
            alone.append(agent.compute_q_targets(batch))
        assert np.all(y_min <= alone[0]) and np.all(y_min <= alone[1])
        # rounding is monotone, so the min of the targets is the min of the sums
        assert np.array_equal(y_min, np.minimum(*alone))

    def test_no_smoothing_equals_zero_delta(self):
        agent = make_agent(desk_cfg(variant="no_smoothing"))
        batch = batch_of(8)
        y = agent.compute_q_targets(batch)
        s2 = batch["next_states"]
        center = agent.head.center(nets.mlp_forward(agent.policy.params, s2))
        q_in = np.concatenate([s2, agent.head.action(center, np.zeros((8, 1)))], axis=1)
        t1, t2 = (nets.mlp_forward(c.target, q_in)[:, 0] for c in agent.critics)
        assert np.array_equal(y, batch["rewards"] + 0.99 * np.minimum(t1, t2))

    def test_no_norm_drops_normalization(self):
        cfg = desk_cfg(variant="no_norm")
        agent = make_agent(cfg)
        # saturating raw outputs differ once normalization is removed
        constant_net(agent.policy.params, 4.0)
        agent_n = make_agent(desk_cfg(), seed=0)  # same seed: same targets, same noise
        for c, c_n in zip(agent.critics, agent_n.critics):
            assert params_equal(c.target, c_n.target)
        constant_net(agent_n.policy.params, 4.0)
        batch = batch_of(8)
        y_raw = agent.compute_q_targets(batch)
        y_norm = agent_n.compute_q_targets(batch)
        assert not np.allclose(y_raw, y_norm)

    def test_empty_batch_rejected(self):
        agent = make_agent()
        with pytest.raises(ValueError):
            agent.compute_q_targets(batch_of(0))


class TestQUpdate:
    def test_exact_targets_leave_params_unchanged(self):
        agent = make_agent()
        for critic in agent.critics:
            constant_net(critic.params, 1.5)
        before = [critic.params.copy() for critic in agent.critics]
        batch = batch_of(8)
        loss, td = agent.q_update(batch, np.full(8, 1.5))
        assert loss == 0.0
        assert np.all(td == 0.0)
        for critic, prev in zip(agent.critics, before):
            assert params_equal(critic.params, prev)

    def test_loss_decreases_on_repeated_updates(self):
        agent = make_agent(desk_cfg(lr=1e-2))
        batch = batch_of(16)
        targets = np.full(16, 0.7)
        first, _ = agent.q_update(batch, targets)
        for _ in range(30):
            last, _ = agent.q_update(batch, targets)
        assert last < first

    def test_single_sample_one_parameter_descent(self):
        # Q reduced to its output bias: one update on one sample must cut
        # the squared error for a small learning rate
        agent = make_agent(desk_cfg(lr=1e-3))
        for critic in agent.critics:
            constant_net(critic.params, 0.0)
        batch = batch_of(1)
        target = np.array([1.0])
        before, _ = agent.q_update(batch, target)
        after = float((agent.critics[0].params.biases[-1][0] - 1.0) ** 2)
        assert after < before == 1.0

    def test_unit_is_weights_match_unweighted(self):
        a1 = make_agent(seed=3)
        a2 = make_agent(seed=3)
        batch = batch_of(8)
        targets = np.linspace(-1, 1, 8)
        loss_w, td_w = a1.q_update(batch, targets, is_weights=np.ones(8))
        loss_u, td_u = a2.q_update(batch, targets)
        assert loss_w == loss_u
        assert np.array_equal(td_w, td_u)
        assert params_equal(a1.critics[0].params, a2.critics[0].params)

    def test_td_error_is_average_of_both_nets(self):
        agent = make_agent()
        constant_net(agent.critics[0].params, 2.0)
        constant_net(agent.critics[1].params, 1.0)
        batch = batch_of(4)
        _, td = agent.q_update(batch, np.zeros(4))
        np.testing.assert_allclose(td, 0.5 * (2.0 + 1.0))

    def test_single_q_leaves_second_net_untouched(self):
        # single_q has no second critic to train: its one critic takes the
        # same step as the twin's first, and no second critic appears
        twin = make_agent(seed=5)
        agent = make_agent(desk_cfg(variant="single_q"), seed=5)
        before = agent.critics[0].params.copy()
        for a in (twin, agent):
            a.q_update(batch_of(8), np.ones(8))
        assert len(agent.critics) == 1
        assert not params_equal(agent.critics[0].params, before)
        assert params_equal(agent.critics[0].params, twin.critics[0].params)

    def test_policy_untouched_by_q_update(self):
        agent = make_agent()
        before = agent.policy.params.copy()
        agent.q_update(batch_of(8), np.ones(8))
        assert params_equal(agent.policy.params, before)

    def test_nonfinite_target_raises(self):
        agent = make_agent()
        with pytest.raises(FloatingPointError):
            agent.q_update(batch_of(4), np.array([np.nan, 0, 0, 0]))


class TestPolicyUpdate:
    def test_constant_q_gives_zero_gradient(self):
        agent = make_agent()
        constant_net(agent.critics[0].params, 5.0)
        before = agent.policy.params.copy()
        agent.policy_update(batch_of(8))
        assert params_equal(agent.policy.params, before)

    def test_q_nets_bit_identical_after_policy_update(self):
        agent = make_agent()
        before = [critic.params.copy() for critic in agent.critics]
        agent.policy_update(batch_of(8))
        for critic, prev in zip(agent.critics, before):
            assert params_equal(critic.params, prev)

    def test_scalar_policy_converges_to_quadratic_optimum(self):
        # Q(s, a) = -|a - 0.3| built exactly from two relu units; ascending
        # it must drive the squashed scalar policy output to 0.3
        cfg = desk_cfg(lr=3e-3)
        agent = make_agent(cfg, scale=2.0)
        q = agent.critics[0].params
        zero_params(q)
        q.weights[0][1, 0] = 1.0   # action input -> unit 0: relu(a - 0.3)
        q.biases[0][0] = -0.3
        q.weights[0][1, 1] = -1.0  # unit 1: relu(0.3 - a)
        q.biases[0][1] = 0.3
        q.weights[1][0, 0] = 1.0   # pass-through second hidden layer
        q.weights[1][1, 1] = 1.0
        q.weights[2][0, 0] = -1.0
        q.weights[2][1, 0] = -1.0
        zero_params(agent.policy.params)
        batch = batch_of(4)
        for _ in range(4000):
            agent.policy_update(batch)
        mu = nets.mlp_forward(agent.policy.params, batch["states"])
        a = 2.0 * np.tanh(mu)
        np.testing.assert_allclose(a, 0.3, atol=1e-3)

    def test_gradient_matches_finite_differences_through_chain(self):
        agent = make_agent(desk_cfg(), state_dim=2, seed=5)
        batch = batch_of(6, state_dim=2, seed=6)
        # make the normalization branch active for some rows
        agent.policy.params.biases[-1][...] = 1.2
        _, grads = agent.policy_objective_and_grads(batch)
        h = 1e-6
        worst = 0.0
        for tensors in ("weights", "biases"):
            for p, g in zip(getattr(agent.policy.params, tensors),
                            getattr(grads, tensors)):
                flat_p, flat_g = p.reshape(-1), g.reshape(-1)
                for i in range(flat_p.size):
                    orig = flat_p[i]
                    flat_p[i] = orig + h
                    up, _ = agent.policy_objective_and_grads(batch)
                    flat_p[i] = orig - h
                    down, _ = agent.policy_objective_and_grads(batch)
                    flat_p[i] = orig
                    numeric = (up - down) / (2 * h)
                    denom = max(abs(flat_g[i]), abs(numeric), 1e-10)
                    worst = max(worst, abs(flat_g[i] - numeric) / denom)
        assert worst < 1e-4

    def test_ig_gradient_matches_frozen_factor_objective(self):
        # with the gradient factors frozen, the IG update equals the exact
        # gradient of <c, p(theta)> for c = factor * dQ/dp
        from soprl.actions import clip_action, invert_gradients
        cfg = desk_cfg(variant="sop_ig")
        agent = make_agent(cfg, seed=7)
        batch = batch_of(5, seed=8)
        s = batch["states"]
        n = len(s)
        mu, cache = nets.mlp_forward_cached(agent.policy.params, s)
        q_in = np.concatenate([s, mu], axis=1)
        _, q_cache = nets.mlp_forward_cached(agent.critics[0].params, q_in)
        q_grad = nets.mlp_input_grad(agent.critics[0].params, q_cache, np.full((n, 1), 1 / n))
        c = invert_gradients(q_grad[:, 1:], clip_action(mu, agent.bounds), agent.bounds)
        _, grads = agent.policy_objective_and_grads(batch)
        h = 1e-6
        p = agent.policy.params.weights[1]
        g = grads.weights[1]
        for idx in [(0, 0), (2, 3), (5, 1)]:
            orig = p[idx]
            p[idx] = orig + h
            up = np.sum(c * nets.mlp_forward(agent.policy.params, s))
            p[idx] = orig - h
            down = np.sum(c * nets.mlp_forward(agent.policy.params, s))
            p[idx] = orig
            numeric = (up - down) / (2 * h)
            assert abs(g[idx] - numeric) / max(abs(numeric), 1e-10) < 1e-4


class TestSoftUpdate:
    def test_fixed_point(self):
        # equality up to the one-ulp wobble of the convex blend arithmetic
        agent = make_agent()
        for critic in agent.critics:
            critic.target = critic.params.copy()
        soft_update_targets(agent, tau=0.005)
        for (_, a), (_, b) in zip(agent.critics[0].params.named_tensors(),
                                  agent.critics[0].target.named_tensors()):
            np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-16)

    def test_blend_coefficient(self):
        agent = make_agent()
        constant_net(agent.critics[0].params, 1.0)
        zero_params(agent.critics[0].target)
        soft_update_targets(agent, tau=0.005)
        assert agent.critics[0].target.biases[-1][0] == pytest.approx(0.005)

    def test_geometric_contraction(self):
        agent = make_agent()
        constant_net(agent.critics[0].params, 1.0)
        zero_params(agent.critics[0].target)
        gaps = []
        for _ in range(3):
            soft_update_targets(agent, tau=0.1)
            gaps.append(1.0 - agent.critics[0].target.biases[-1][0])
        np.testing.assert_allclose(np.diff(np.log(gaps)), np.log(0.9), rtol=1e-9)

    def test_target_lag_bound(self):
        agent = make_agent(seed=11)
        prev = agent.critics[0].target.copy()
        agent.q_update(batch_of(8), np.ones(8))
        soft_update_targets(agent, tau=0.005)
        worst_t, worst_on = 0.0, 0.0
        for (_, t), (_, p), (_, on) in zip(agent.critics[0].target.named_tensors(),
                                           prev.named_tensors(),
                                           agent.critics[0].params.named_tensors()):
            worst_t = max(worst_t, np.max(np.abs(t - p)))
            worst_on = max(worst_on, np.max(np.abs(on - p)))
        assert worst_t <= 0.005 * worst_on + 1e-15

    @pytest.mark.parametrize("variant", ["sop", "single_q"])
    def test_moves_only_each_target_toward_its_critic(self, variant):
        agent = make_agent(desk_cfg(variant=variant), seed=12)
        for _ in range(3):  # critics and targets apart
            agent.q_update(batch_of(8), np.ones(8))
        policy = agent.policy.params.copy()
        online = [c.params.copy() for c in agent.critics]
        targets = [c.target.copy() for c in agent.critics]
        soft_update_targets(agent, tau=0.1)
        assert params_equal(agent.policy.params, policy)
        for critic, o, t in zip(agent.critics, online, targets):
            assert params_equal(critic.params, o)
            assert np.array_equal(critic.target.flat, (1 - 0.1) * t.flat + 0.1 * o.flat)
            assert not np.array_equal(critic.target.flat, t.flat)


class TestNetworks:
    def test_single_q_builds_one_critic(self):
        twin = make_agent(desk_cfg(), seed=4)
        for variant in VARIANTS:
            agent = make_agent(desk_cfg(variant=variant), seed=4)
            assert len(agent.critics) == (1 if variant == "single_q" else 2)
            assert agent.policy.target is None
            # q2 is drawn last, so the policy and q1 do not depend on it
            assert params_equal(agent.policy.params, twin.policy.params)
            assert params_equal(agent.critics[0].params, twin.critics[0].params)
            for critic in agent.critics:
                assert params_equal(critic.target, critic.params)
                assert critic.target.flat is not critic.params.flat


class TestTrain:
    def test_zero_steps_empty_record_untouched_params(self):
        env = make_env("pointmass1d")
        record, agent = train(env, desk_cfg(), 0, seed=4, eval_interval=10)
        assert record.rows == []
        assert agent.critics[0].adam.t == 0
        assert agent.policy.adam.t == 0

    def test_bit_identical_records_across_runs(self):
        env = make_env("pointmass1d")
        cfg = desk_cfg()
        r1, _ = train(env, cfg, 300, seed=9, eval_interval=100)
        r2, _ = train(make_env("pointmass1d"), cfg, 300, seed=9, eval_interval=100)
        assert len(r1.rows) == len(r2.rows) > 0
        for a, b in zip(r1.rows, r2.rows):
            assert a == b

    def test_no_updates_before_warmup(self):
        env = make_env("pointmass1d")
        record, agent = train(env, desk_cfg(warmup_steps=1000), 400, seed=2,
                              eval_interval=200)
        assert agent.critics[0].adam.t == 0
        assert len(record.rows) == 2

    @pytest.mark.parametrize("sampler, owner, name", [
        ("uniform", soprl.replay, "sample_uniform"), ("ere", soprl.replay, "sample_ere"),
        ("exp", soprl.replay, "sample_exponential"), ("per", soprl.replay, "per_sample"),
        ("per", soprl.replay, "per_update_priorities"),
        *[(s, soprl.replay.PerfTracker, "update") for s in SAMPLERS]])
    def test_replay_patched_in_its_module_sees_every_call(self, sampler, owner, name,
                                                          monkeypatch):
        # perfbench checks and times these through their module attributes
        calls = []
        orig = getattr(owner, name)

        def spy(*args, **kwargs):
            calls.append(args)
            return orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        _, agent = train(make_env("pointmass1d"), desk_cfg(sampler=sampler), 200, seed=3,
                         eval_interval=100)
        episodes, updates = 200 // 50, agent.critics[0].adam.t
        assert updates == 150  # the three episodes after the warmup episode
        assert len(calls) == (episodes if owner is soprl.replay.PerfTracker else updates)

    def test_per_and_exp_samplers_run(self):
        for sampler in ("per", "exp"):
            env = make_env("pointmass1d")
            record, agent = train(env, desk_cfg(sampler=sampler), 200, seed=1,
                                  eval_interval=100)
            assert agent.critics[0].adam.t > 0

    def test_ig_variant_runs(self):
        env = make_env("pointmass1d")
        record, agent = train(env, desk_cfg(variant="sop_ig"), 200, seed=1,
                              eval_interval=100)
        assert agent.critics[0].adam.t > 0

    def test_ig_variant_evaluates_on_asymmetric_box(self):
        class ShiftedPointMass(PointMass1D):
            """pointmass1d whose action box is [0, 2], moved by a - 1."""

            def __init__(self):
                super().__init__()
                self.spec = dataclasses.replace(self.spec,
                                                bounds=ActionBounds([0.0], [2.0]))

            def _transition(self, state, action, t):
                return super()._transition(state, 0.1 * (action - 1.0), t)

        record, agent = train(ShiftedPointMass(), desk_cfg(variant="sop_ig"), 200,
                              seed=1, eval_interval=100)
        assert agent.critics[0].adam.t > 0 and len(record.rows) == 2
        for row in record.rows:
            assert 0.0 <= row.saturation_fraction <= 1.0
            assert np.isfinite(row.entropy_estimate)

    def test_eta_column_only_for_ere(self):
        env = make_env("pointmass1d")
        rec_u, _ = train(env, desk_cfg(), 150, seed=1, eval_interval=100)
        rec_e, _ = train(make_env("pointmass1d"), desk_cfg(sampler="ere"), 150,
                         seed=1, eval_interval=100)
        assert rec_u.rows[0].eta_current is None
        assert rec_e.rows[0].eta_current == pytest.approx(0.995)


@pytest.mark.parametrize("variant", ["sop", "sop_ig"])
def test_warm_update_allocates_nothing_of_batch_size(variant):
    """A 256x64 float64 activation is 128 KiB; a warm update at the desk size
    keeps its transient heap peak below two of them."""
    cfg = AgentConfig(variant=variant, batch_size=256, hidden_dim=64,
                      buffer_capacity=20_000)
    agent = make_agent(cfg, state_dim=2, action_dim=2, scale=0.1)
    batch = batch_of(256, state_dim=2, action_dim=2, seed=5)

    def update():
        agent.q_update(batch, agent.compute_q_targets(batch))
        agent.policy_update(batch)
        soft_update_targets(agent, cfg.tau)

    update()  # makes the activation buffers
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        update()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 1024


@pytest.mark.parametrize("variant", VARIANTS)
def test_warm_update_builds_no_params(variant, monkeypatch):
    """Gradients go into buffers the agent made once; no update builds an
    MlpParams, weighted (PER) or not."""
    cfg = AgentConfig(variant=variant, batch_size=32, hidden_dim=16, buffer_capacity=2000)
    agent = make_agent(cfg, state_dim=2, action_dim=2, scale=0.1)
    batch = batch_of(32, state_dim=2, action_dim=2, seed=6)
    weights = np.linspace(0.5, 1.0, 32)

    def update():
        agent.q_update(batch, agent.compute_q_targets(batch))
        agent.q_update(batch, agent.compute_q_targets(batch), weights)
        agent.policy_update(batch)
        soft_update_targets(agent, cfg.tau)

    update()
    built = []
    post_init = nets.MlpParams.__post_init__

    def counting_post_init(self):
        built.append(type(self))
        post_init(self)

    monkeypatch.setattr(nets.MlpParams, "__post_init__", counting_post_init)
    nets.zeros_like_params(agent.critics[0].params)
    assert len(built) == 1  # the probe sees a build
    update()
    assert len(built) == 1
