import dataclasses

import numpy as np
import pytest

from soprl.actions import ActionBounds
from soprl.envs import BoundaryLure, EnvSpec, PointMass1D, env_names, make_env

from oracles import dp_oracle


class TestInterface:
    def test_reset_deterministic_for_seed(self):
        env = make_env("pointmass1d")
        assert np.array_equal(env.reset(123), env.reset(123))

    def test_pointmass_initial_state_range(self):
        env = make_env("pointmass1d")
        starts = np.array([env.reset(s)[0] for s in range(200)])
        assert np.all((-1 <= starts) & (starts <= 1))

    def test_distinct_seeds_distinct_starts(self):
        env = make_env("pointmass1d")
        starts = {float(env.reset(s)[0]) for s in range(1000)}
        assert len(starts) == 1000

    def test_step_dynamics_and_reward(self):
        env = PointMass1D()
        env.reset(0)
        env._state = np.array([0.5])
        s, r, done = env.step(np.array([-0.1]))
        assert s[0] == pytest.approx(0.4)
        assert r == pytest.approx(-0.16)
        assert not done

    def test_zero_at_origin(self):
        env = PointMass1D()
        env.reset(0)
        env._state = np.array([0.0])
        s, r, _ = env.step(np.array([0.0]))
        assert s[0] == 0.0 and r == 0.0

    def test_out_of_bounds_action_clipped(self):
        env = PointMass1D()
        env.reset(0)
        env._state = np.array([0.0])
        s1, _, _ = env.step(np.array([5.0]))
        assert s1[0] == pytest.approx(0.1)

    def test_clipping_idempotent(self):
        env_a, env_b = PointMass1D(), PointMass1D()
        env_a.reset(7)
        env_b.reset(7)
        sa, ra, _ = env_a.step(np.array([0.5]))
        sb, rb, _ = env_b.step(np.array([0.1]))
        assert np.array_equal(sa, sb) and ra == rb

    def test_step_after_terminal_raises(self):
        env = PointMass1D()
        env.reset(0)
        for _ in range(env.spec.horizon):
            env.step(np.zeros(1))
        with pytest.raises(RuntimeError):
            env.step(np.zeros(1))

    def test_wrong_action_dim_rejected(self):
        env = make_env("pointmass2d")
        env.reset(0)
        with pytest.raises(ValueError):
            env.step(np.zeros(1))

    def test_trajectory_fully_determined(self):
        for name in env_names():
            env_a, env_b = make_env(name), make_env(name)
            sa, sb = env_a.reset(5), env_b.reset(5)
            rng = np.random.default_rng(0)
            actions = rng.uniform(-0.1, 0.1, (10, env_a.spec.action_dim))
            for a in actions:
                ra = env_a.step(a)
                rb = env_b.step(a)
                assert np.array_equal(ra[0], rb[0]) and ra[1] == rb[1]

    def test_pointmass_rewards_bounded(self):
        for name in ("pointmass1d", "pointmass2d"):
            env = make_env(name)
            env.reset(3)
            rng = np.random.default_rng(1)
            done = False
            while not done:
                _, r, done = env.step(rng.uniform(-0.1, 0.1, env.spec.action_dim))
                assert -1.0 <= r <= 0.0

    def test_unknown_env_rejected(self):
        with pytest.raises(ValueError):
            make_env("cartpole")

    def test_spec_describe_mentions_name(self):
        assert "pointmass1d" in make_env("pointmass1d").spec.describe()

    def test_specs_are_shared_read_only_class_constants(self):
        for name in env_names():
            env = make_env(name)
            assert "__init__" not in vars(type(env))
            assert env.spec is type(env).spec is make_env(name).spec
            with pytest.raises(ValueError, match="read-only"):
                env.spec.bounds.high[0] = 1.0

    def test_specs_compare_and_hash_by_value(self):
        specs = {}
        for name in env_names():
            spec = make_env(name).spec
            fields = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
            fields["bounds"] = ActionBounds(spec.bounds.low.copy(), spec.bounds.high.copy())
            rebuilt = EnvSpec(**fields)
            assert rebuilt is not spec and rebuilt == spec and hash(rebuilt) == hash(spec)
            specs[spec] = name
            assert specs[rebuilt] == name
        assert len(specs) == len(env_names())


class TestBoundaryLure:
    def test_bonus_only_early_and_near_bound(self):
        env = BoundaryLure()
        env.reset(0)
        _, r_early_bound, _ = env.step(np.array([0.095]))
        assert r_early_bound == pytest.approx(-(0.095 - 0.03) ** 2 + 0.05)
        env2 = BoundaryLure()
        env2.reset(0)
        _, r_early_interior, _ = env2.step(np.array([0.03]))
        assert r_early_interior == pytest.approx(0.0)
        # past the lure window the bonus disappears
        env3 = BoundaryLure()
        env3.reset(0)
        for _ in range(20):
            env3.step(np.array([0.0]))
        _, r_late_bound, _ = env3.step(np.array([0.095]))
        assert r_late_bound == pytest.approx(-(0.095 - 0.03) ** 2)

    def test_bound_beats_interior_during_window(self):
        env = BoundaryLure()
        env.reset(0)
        _, r_bound, _ = env.step(np.array([0.095]))
        assert r_bound > 0.0  # the lure genuinely pays early

    def test_state_is_normalized_time(self):
        env = BoundaryLure()
        s = env.reset(0)
        assert s[0] == 0.0
        s, _, _ = env.step(np.zeros(1))
        assert s[0] == pytest.approx(1 / env.spec.horizon)


class TestDpOracle:
    def test_origin_start_is_zero(self):
        oracle = dp_oracle("pointmass1d")
        assert oracle.value_at(0.0) == pytest.approx(0.0, abs=1e-9)

    def test_unit_start_matches_greedy_path_sum(self):
        # from x0=1 with max step 0.1 the optimal path visits 0.9 ... 0.1, 0
        expected = -sum((0.1 * k) ** 2 for k in range(1, 10))
        oracle = dp_oracle("pointmass1d", state_res=1025, action_res=257)
        assert oracle.value_at(1.0) == pytest.approx(expected, abs=2e-3)

    def test_resolution_convergence_under_one_percent(self):
        lo = dp_oracle("pointmass1d", 256, 64).mean_return
        hi = dp_oracle("pointmass1d", 512, 128).mean_return
        assert abs(hi - lo) / abs(hi) < 0.01

    def test_mean_return_matches_closed_form(self):
        # E over U(-1,1) of the greedy path sum: sum_k (1-0.1k)^3 / 3
        expected = -sum((1 - 0.1 * k) ** 3 for k in range(1, 10)) / 3
        oracle = dp_oracle("pointmass1d", 2049, 513)
        assert oracle.mean_return == pytest.approx(expected, rel=2e-3)

    def test_pointmass2d_value_is_sum_of_axes(self):
        oracle = dp_oracle("pointmass2d", 257, 65)
        both = oracle.value_at(np.array([0.5, -0.5]))
        left = oracle.value_at(np.array([0.5, 0.0]))
        right = oracle.value_at(np.array([0.0, -0.5]))
        assert oracle.value_at(np.array([0.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
        assert both == pytest.approx(left + right, abs=1e-9)

    def test_boundarylure_oracle_counts_window_bonus(self):
        oracle = dp_oracle("boundarylure", action_res=2001)
        # 10 window steps collecting the bonus at 0.09, 40 interior steps at 0
        expected = 10 * (-(0.09 - 0.03) ** 2 + 0.05)
        assert oracle.mean_return == pytest.approx(expected, abs=1e-3)

    def test_resolution_floor_enforced(self):
        with pytest.raises(ValueError):
            dp_oracle("pointmass1d", 16, 64)
