import dataclasses
import tracemalloc

import numpy as np
import pytest

import soprl.replay
from soprl import nets
from soprl.actions import ActionBounds
from soprl.agent import (AgentConfig, SopAgent, load_agent_params, save_agent,
                         soft_update_targets, train)
from soprl.envs import PointMass1D, make_env


def desk_cfg(**overrides):
    base = dict(buffer_capacity=2000, hidden_dim=8, batch_size=16,
                warmup_steps=50, ere_c_min=16)
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

    def test_batch_must_fit_ere_floor(self):
        with pytest.raises(ValueError, match="c_min"):
            AgentConfig(buffer_capacity=2000, batch_size=256, ere_c_min=100)

    def test_reference_defaults(self):
        cfg = AgentConfig()
        assert (cfg.gamma, cfg.tau, cfg.batch_size) == (0.99, 0.005, 256)
        assert (cfg.sigma_explore, cfg.sigma_target) == (0.29, 0.29)
        assert cfg.lr == 3e-4
        assert cfg.buffer_capacity == 1_000_000
        assert cfg.eta0 == 0.995
        assert (cfg.per_beta1, cfg.per_beta2) == (0.4, 0.4)
        assert cfg.exp_lambda == 5e-6


class TestAct:
    def test_evaluate_zero_policy_gives_zero_action(self):
        agent = make_agent()
        zero_params(agent.state.policy)
        a = agent.act(np.array([0.7]), mode="evaluate")
        assert a[0] == 0.0

    def test_explore_reproducible_with_seeded_rng(self):
        agent = make_agent()
        s = np.array([0.3])
        a1 = agent.act(s, rng=np.random.default_rng(5))
        a2 = agent.act(s, rng=np.random.default_rng(5))
        assert np.array_equal(a1, a2)

    def test_explore_std_matches_pushforward(self):
        agent = make_agent(scale=2.0)
        zero_params(agent.state.policy)
        rng = np.random.default_rng(1)
        acts = np.array([agent.act(np.zeros(1), rng=rng)[0] for _ in range(10_000)])
        ref = 2.0 * np.tanh(0.29 * np.random.default_rng(2).standard_normal(200_000))
        assert abs(acts.std() - ref.std()) / ref.std() < 0.05

    def test_ig_variant_clips_without_tanh(self):
        agent = make_agent(desk_cfg(variant="sop_ig"), scale=0.5)
        constant_net(agent.state.policy, 3.0)  # way outside the box
        a = agent.act(np.array([0.0]), mode="evaluate")
        assert a[0] == 0.5

    def test_invalid_mode_rejected(self):
        agent = make_agent()
        with pytest.raises(ValueError):
            agent.act(np.zeros(1), mode="test")


class TestComputeQTargets:
    def test_hand_arithmetic_with_stub_targets(self):
        agent = make_agent()
        constant_net(agent.state.q1_target, 2.0)
        constant_net(agent.state.q2_target, 3.0)
        batch = batch_of(4)
        batch["rewards"] = np.ones(4)
        y = agent.compute_q_targets(batch)
        np.testing.assert_allclose(y, 1.0 + 0.99 * 2.0)

    def test_terminal_transitions_use_reward_only(self):
        agent = make_agent()
        constant_net(agent.state.q1_target, 2.0)
        constant_net(agent.state.q2_target, 3.0)
        batch = batch_of(4, terminal=True)
        batch["rewards"] = np.full(4, -1.0)
        np.testing.assert_allclose(agent.compute_q_targets(batch), -1.0)

    def test_single_q_bypasses_min(self):
        agent = make_agent(desk_cfg(variant="single_q"))
        constant_net(agent.state.q1_target, 3.0)
        constant_net(agent.state.q2_target, 2.0)
        batch = batch_of(4)
        batch["rewards"] = np.ones(4)
        np.testing.assert_allclose(agent.compute_q_targets(batch), 1.0 + 0.99 * 3.0)

    def test_min_never_exceeds_either_target_alone(self):
        agent = make_agent(desk_cfg(), state_dim=2, action_dim=1)
        batch = batch_of(32, state_dim=2)
        delta = np.random.default_rng(3).standard_normal((32, 1)) * 0.29
        y_min = agent.compute_q_targets(batch, delta=delta)
        agent.cfg = dataclasses.replace(agent.cfg, variant="single_q")
        y_q1 = agent.compute_q_targets(batch, delta=delta)
        agent.state.q1_target, agent.state.q2_target = (agent.state.q2_target,
                                                        agent.state.q1_target)
        y_q2 = agent.compute_q_targets(batch, delta=delta)
        assert np.all(y_min <= y_q1 + 1e-15)
        assert np.all(y_min <= y_q2 + 1e-15)

    def test_no_smoothing_equals_zero_delta(self):
        agent = make_agent(desk_cfg(variant="no_smoothing"))
        batch = batch_of(8)
        y = agent.compute_q_targets(batch)
        y_explicit = agent.compute_q_targets(batch, delta=np.zeros((8, 1)))
        assert np.array_equal(y, y_explicit)

    def test_no_norm_drops_normalization(self):
        cfg = desk_cfg(variant="no_norm")
        agent = make_agent(cfg)
        # saturating raw outputs differ once normalization is removed
        constant_net(agent.state.policy, 4.0)
        agent_n = make_agent(desk_cfg(), seed=0)
        for (_, dst), (_, src) in zip(agent_n.state.q1_target.named_tensors(),
                                      agent.state.q1_target.named_tensors()):
            dst[...] = src
        for (_, dst), (_, src) in zip(agent_n.state.q2_target.named_tensors(),
                                      agent.state.q2_target.named_tensors()):
            dst[...] = src
        constant_net(agent_n.state.policy, 4.0)
        batch = batch_of(8)
        delta = np.zeros((8, 1))
        y_raw = agent.compute_q_targets(batch, delta=delta)
        y_norm = agent_n.compute_q_targets(batch, delta=delta)
        assert not np.allclose(y_raw, y_norm)

    def test_empty_batch_rejected(self):
        agent = make_agent()
        with pytest.raises(ValueError):
            agent.compute_q_targets(batch_of(0))


class TestQUpdate:
    def test_exact_targets_leave_params_unchanged(self):
        agent = make_agent()
        constant_net(agent.state.q1, 1.5)
        constant_net(agent.state.q2, 1.5)
        before1, before2 = agent.state.q1.copy(), agent.state.q2.copy()
        batch = batch_of(8)
        loss, td = agent.q_update(batch, np.full(8, 1.5))
        assert loss == 0.0
        assert np.all(td == 0.0)
        assert params_equal(agent.state.q1, before1)
        assert params_equal(agent.state.q2, before2)

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
        constant_net(agent.state.q1, 0.0)
        constant_net(agent.state.q2, 0.0)
        batch = batch_of(1)
        target = np.array([1.0])
        before, _ = agent.q_update(batch, target)
        after = float((agent.state.q1.biases[-1][0] - 1.0) ** 2)
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
        assert params_equal(a1.state.q1, a2.state.q1)

    def test_td_error_is_average_of_both_nets(self):
        agent = make_agent()
        constant_net(agent.state.q1, 2.0)
        constant_net(agent.state.q2, 1.0)
        batch = batch_of(4)
        _, td = agent.q_update(batch, np.zeros(4))
        np.testing.assert_allclose(td, 0.5 * (2.0 + 1.0))

    def test_single_q_leaves_second_net_untouched(self):
        agent = make_agent(desk_cfg(variant="single_q"))
        before = agent.state.q2.copy()
        agent.q_update(batch_of(8), np.ones(8))
        assert params_equal(agent.state.q2, before)

    def test_policy_untouched_by_q_update(self):
        agent = make_agent()
        before = agent.state.policy.copy()
        agent.q_update(batch_of(8), np.ones(8))
        assert params_equal(agent.state.policy, before)

    def test_nonfinite_target_raises(self):
        agent = make_agent()
        with pytest.raises(FloatingPointError):
            agent.q_update(batch_of(4), np.array([np.nan, 0, 0, 0]))


class TestPolicyUpdate:
    def test_constant_q_gives_zero_gradient(self):
        agent = make_agent()
        constant_net(agent.state.q1, 5.0)
        before = agent.state.policy.copy()
        agent.policy_update(batch_of(8))
        assert params_equal(agent.state.policy, before)

    def test_q_nets_bit_identical_after_policy_update(self):
        agent = make_agent()
        b1, b2 = agent.state.q1.copy(), agent.state.q2.copy()
        agent.policy_update(batch_of(8))
        assert params_equal(agent.state.q1, b1)
        assert params_equal(agent.state.q2, b2)

    def test_scalar_policy_converges_to_quadratic_optimum(self):
        # Q(s, a) = -|a - 0.3| built exactly from two relu units; ascending
        # it must drive the squashed scalar policy output to 0.3
        cfg = desk_cfg(lr=3e-3)
        agent = make_agent(cfg, scale=2.0)
        q = agent.state.q1
        zero_params(q)
        q.weights[0][1, 0] = 1.0   # action input -> unit 0: relu(a - 0.3)
        q.biases[0][0] = -0.3
        q.weights[0][1, 1] = -1.0  # unit 1: relu(0.3 - a)
        q.biases[0][1] = 0.3
        q.weights[1][0, 0] = 1.0   # pass-through second hidden layer
        q.weights[1][1, 1] = 1.0
        q.weights[2][0, 0] = -1.0
        q.weights[2][1, 0] = -1.0
        zero_params(agent.state.policy)
        batch = batch_of(4)
        for _ in range(4000):
            agent.policy_update(batch)
        mu = nets.mlp_forward(agent.state.policy, batch["states"])
        a = 2.0 * np.tanh(mu)
        np.testing.assert_allclose(a, 0.3, atol=1e-3)

    def test_gradient_matches_finite_differences_through_chain(self):
        agent = make_agent(desk_cfg(), state_dim=2, seed=5)
        batch = batch_of(6, state_dim=2, seed=6)
        # make the normalization branch active for some rows
        agent.state.policy.biases[-1][...] = 1.2
        _, grads = agent.policy_objective_and_grads(batch)
        h = 1e-6
        worst = 0.0
        for tensors in ("weights", "biases"):
            for p, g in zip(getattr(agent.state.policy, tensors),
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
        mu, cache = nets.mlp_forward_cached(agent.state.policy, s)
        q_in = np.concatenate([s, mu], axis=1)
        _, q_cache = nets.mlp_forward_cached(agent.state.q1, q_in)
        q_grad = nets.mlp_input_grad(agent.state.q1, q_cache, np.full((n, 1), 1 / n))
        c = invert_gradients(q_grad[:, 1:], clip_action(mu, agent.bounds), agent.bounds)
        _, grads = agent.policy_objective_and_grads(batch)
        h = 1e-6
        p = agent.state.policy.weights[1]
        g = grads.weights[1]
        for idx in [(0, 0), (2, 3), (5, 1)]:
            orig = p[idx]
            p[idx] = orig + h
            up = np.sum(c * nets.mlp_forward(agent.state.policy, s))
            p[idx] = orig - h
            down = np.sum(c * nets.mlp_forward(agent.state.policy, s))
            p[idx] = orig
            numeric = (up - down) / (2 * h)
            assert abs(g[idx] - numeric) / max(abs(numeric), 1e-10) < 1e-4


class TestSoftUpdate:
    def test_fixed_point(self):
        # equality up to the one-ulp wobble of the convex blend arithmetic
        agent = make_agent()
        agent.state.q1_target = agent.state.q1.copy()
        agent.state.q2_target = agent.state.q2.copy()
        soft_update_targets(agent.state, tau=0.005)
        for (_, a), (_, b) in zip(agent.state.q1.named_tensors(),
                                  agent.state.q1_target.named_tensors()):
            np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-16)

    def test_blend_coefficient(self):
        agent = make_agent()
        constant_net(agent.state.q1, 1.0)
        zero_params(agent.state.q1_target)
        soft_update_targets(agent.state, tau=0.005)
        assert agent.state.q1_target.biases[-1][0] == pytest.approx(0.005)

    def test_geometric_contraction(self):
        agent = make_agent()
        constant_net(agent.state.q1, 1.0)
        zero_params(agent.state.q1_target)
        gaps = []
        for _ in range(3):
            soft_update_targets(agent.state, tau=0.1)
            gaps.append(1.0 - agent.state.q1_target.biases[-1][0])
        np.testing.assert_allclose(np.diff(np.log(gaps)), np.log(0.9), rtol=1e-9)

    def test_target_lag_bound(self):
        agent = make_agent(seed=11)
        prev = agent.state.q1_target.copy()
        agent.q_update(batch_of(8), np.ones(8))
        soft_update_targets(agent.state, tau=0.005)
        worst_t, worst_on = 0.0, 0.0
        for (_, t), (_, p), (_, on) in zip(agent.state.q1_target.named_tensors(),
                                           prev.named_tensors(),
                                           agent.state.q1.named_tensors()):
            worst_t = max(worst_t, np.max(np.abs(t - p)))
            worst_on = max(worst_on, np.max(np.abs(on - p)))
        assert worst_t <= 0.005 * worst_on + 1e-15


class TestTrain:
    def test_zero_steps_empty_record_untouched_params(self):
        env = make_env("pointmass1d")
        record, agent = train(env, desk_cfg(), 0, seed=4, eval_interval=10)
        assert record.rows == []
        fresh = make_agent(desk_cfg(), seed=0)  # different seed path; compare adam t
        assert agent.state.updates == 0
        assert agent.state.policy_adam.t == 0

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
        assert agent.state.updates == 0
        assert len(record.rows) == 2

    def test_ere_requested_windows_nonincreasing(self, monkeypatch):
        seen = []
        orig = soprl.replay.sample_ere

        def spy(buffer, k, k_upd, cfg, eta, batch, rng):
            seen.append((k, soprl.replay.ere_range(k, k_upd, buffer.capacity, cfg,
                                                   eta, batch)))
            return orig(buffer, k, k_upd, cfg, eta, batch, rng)

        monkeypatch.setattr(soprl.replay, "sample_ere", spy)
        env = make_env("pointmass1d")
        train(env, desk_cfg(sampler="ere"), 200, seed=3, eval_interval=100)
        assert seen
        phases = {}
        for k, window in seen:
            phases.setdefault(k, window)
        ks = sorted(phases)
        windows = [phases[k] for k in ks]
        assert all(a >= b for a, b in zip(windows, windows[1:]))

    def test_per_and_exp_samplers_run(self):
        for sampler in ("per", "exp"):
            env = make_env("pointmass1d")
            record, agent = train(env, desk_cfg(sampler=sampler), 200, seed=1,
                                  eval_interval=100)
            assert agent.state.updates > 0

    def test_ig_variant_runs(self):
        env = make_env("pointmass1d")
        record, agent = train(env, desk_cfg(variant="sop_ig"), 200, seed=1,
                              eval_interval=100)
        assert agent.state.updates > 0

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
        assert agent.state.updates > 0 and len(record.rows) == 2
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


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        env = make_env("pointmass1d")
        _, agent = train(env, desk_cfg(), 120, seed=6, eval_interval=60)
        path = str(tmp_path / "agent.npz")
        save_agent(path, agent)
        loaded = load_agent_params(path)
        assert params_equal(loaded["policy"], agent.state.policy)
        assert params_equal(loaded["q1_target"], agent.state.q1_target)
        assert loaded["counters"][0] == agent.state.env_steps


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
        soft_update_targets(agent.state, cfg.tau)

    update()  # makes the activation buffers
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        update()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 1024
