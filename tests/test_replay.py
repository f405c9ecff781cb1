import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soprl.replay import (EXP_SEGMENT, EreConfig, PerfTracker, ReplayBuffer,
                          SumTree, Transition, adapt_eta, ere_range,
                          exponential_segment_masses, per_sample,
                          per_update_priorities, sample_ere,
                          sample_exponential, sample_uniform)


def trans(i, state_dim=1, action_dim=1):
    return Transition(np.full(state_dim, float(i)), np.zeros(action_dim),
                      float(i), np.full(state_dim, float(i) + 0.5), False)


def fill(buffer, n):
    for i in range(n):
        buffer.push(trans(i))


class LevelWalkTree(SumTree):
    """Oracle: the level-by-level write, recomputing the parents of the
    ``np.unique`` touched set at every level up to the root."""

    def set_raw(self, slots, raw_priorities):
        slots = np.atleast_1d(np.asarray(slots, dtype=np.int64))
        raw = np.atleast_1d(np.asarray(raw_priorities, dtype=np.float64))
        self.max_raw_priority = max(self.max_raw_priority, float(np.max(raw)))
        idx = slots + self.n_leaves - 1
        self.nodes[idx] = raw ** self.beta1
        self.writes += slots.size
        if self.writes >= self.rebuild_every:
            self.rebuild()
            return
        if self.n_leaves == 1:
            return
        parents = np.unique((idx - 1) // 2)
        while True:
            self.nodes[parents] = self.nodes[2 * parents + 1] + self.nodes[2 * parents + 2]
            if parents[0] == 0:
                break
            parents = np.unique((parents - 1) // 2)


def tree_state(tree):
    return tree.nodes.copy(), tree.max_raw_priority, tree.writes


def assert_unchanged(tree, state):
    nodes, max_raw, writes = state
    assert np.array_equal(tree.nodes, nodes)
    assert (tree.max_raw_priority, tree.writes) == (max_raw, writes)


class TestBuffer:
    def test_push_and_most_recent(self):
        buf = ReplayBuffer(4, 1, 1)
        buf.push(trans(7))
        assert buf.size == 1
        assert buf.rewards[buf.recent_slot(0)] == 7.0

    def test_fifo_eviction(self):
        buf = ReplayBuffer(3, 1, 1)
        fill(buf, 4)
        assert buf.size == 3
        rewards = [buf.rewards[buf.recent_slot(i)] for i in range(3)]
        assert rewards == [3.0, 2.0, 1.0]  # newest first, item 0 evicted

    def test_dimension_mismatch_rejected(self):
        buf = ReplayBuffer(4, 2, 1)
        with pytest.raises(ValueError):
            buf.push(trans(0, state_dim=1))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=60),
           st.integers(0, 2 ** 31 - 1))
    def test_interleaved_push_sample_indices_valid(self, ops, seed):
        rng = np.random.default_rng(seed)
        buf = ReplayBuffer(8, 1, 1)
        count = 0
        for op in ops:
            if op == 0 or buf.size == 0:
                buf.push(trans(count))
                count += 1
            else:
                slots = sample_uniform(buf, 4, rng)
                assert np.all((0 <= slots) & (slots < buf.capacity))
                gathered = buf.gather(slots)
                assert gathered["states"].shape == (4, 1)

    def test_fifo_enumeration_matches_reverse_insertion(self):
        buf = ReplayBuffer(5, 1, 1)
        fill(buf, 8)
        got = [buf.rewards[buf.recent_slot(i)] for i in range(buf.size)]
        assert got == [7.0, 6.0, 5.0, 4.0, 3.0]


class TestUniformSampler:
    def test_size_one_buffer_returns_copies(self):
        buf = ReplayBuffer(4, 1, 1)
        buf.push(trans(9))
        slots = sample_uniform(buf, 6, np.random.default_rng(0))
        assert np.all(slots == slots[0])
        assert buf.gather(slots)["rewards"][0] == 9.0

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError):
            sample_uniform(ReplayBuffer(4, 1, 1), 2, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        buf = ReplayBuffer(100, 1, 1)
        fill(buf, 100)
        a = sample_uniform(buf, 32, np.random.default_rng(5))
        b = sample_uniform(buf, 32, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_frequencies_within_three_sigma(self):
        # frozen seed: an all-slots 3-sigma check over 1000 slots holds for
        # only a small fraction of seeds by chance, so one is pinned
        buf = ReplayBuffer(1000, 1, 1)
        fill(buf, 1000)
        rng = np.random.default_rng(50)
        draws = 1_000_000
        counts = np.bincount(sample_uniform(buf, draws, rng), minlength=1000)
        p = 1.0 / 1000
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.max(np.abs(counts - draws * p)) < 3 * sigma


class TestEreSchedule:
    def test_eta_one_gives_full_buffer(self):
        cfg = EreConfig(eta0=1.0, c_min=1)
        for k in (1, 10, 500):
            assert ere_range(k, 500, 10_000, cfg, 1.0) == 10_000

    def test_reference_end_of_phase_value(self):
        cfg = EreConfig(eta0=0.995, c_min=5000)
        c = ere_range(1000, 1000, 1_000_000, cfg, 0.995)
        assert c == round(1_000_000 * 0.995 ** 1000)
        assert c >= 6000

    def test_phase_length_invariance(self):
        cfg = EreConfig(eta0=0.995, c_min=5000)
        assert (ere_range(500, 500, 1_000_000, cfg, 0.995)
                == ere_range(1000, 1000, 1_000_000, cfg, 0.995))

    def test_floor_applies(self):
        cfg = EreConfig(eta0=0.9, c_min=5000)
        assert ere_range(1000, 1000, 1_000_000, cfg, 0.9) == 5000

    def test_zero_exponent_spans_buffer(self):
        cfg = EreConfig(eta0=0.5, c_min=1)
        assert ere_range(0, 100, 12345, cfg, 0.5) == 12345

    def test_config_validation(self):
        with pytest.raises(ValueError, match="^eta0: "):
            EreConfig(eta0=1.5)
        for c_min in (0, -5):
            with pytest.raises(ValueError, match="^c_min: must be >= 1"):
                EreConfig(c_min=c_min)
        assert EreConfig(c_min=1).resolved_c_min(100) == 1

    def test_default_c_min_scales_with_capacity(self):
        cfg = EreConfig(eta0=0.995)
        assert cfg.resolved_c_min(1_000_000) == 5000
        assert cfg.resolved_c_min(1_000_000, batch=8192) == 8192
        assert cfg.resolved_c_min(20_000, batch=256) == 256
        assert cfg.resolved_c_min(100_000, batch=64) == 500

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 999), st.floats(0.9, 1.0))
    def test_monotone_in_k_and_eta(self, k, eta):
        cfg = EreConfig(eta0=0.995, c_min=1)
        assert ere_range(k, 1000, 100_000, cfg, eta) >= ere_range(k + 1, 1000, 100_000, cfg, eta)
        assert ere_range(k, 1000, 100_000, cfg, min(1.0, eta + 0.05)) >= ere_range(
            k, 1000, 100_000, cfg, eta)


class TestEreSampler:
    def test_eta_one_matches_uniform(self):
        buf = ReplayBuffer(50, 1, 1)
        fill(buf, 50)
        cfg = EreConfig(eta0=1.0, c_min=1)
        a = sample_ere(buf, 1, 10, cfg, 1.0, 16, np.random.default_rng(3))
        b = sample_uniform(buf, 16, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_degenerate_window_returns_newest(self):
        buf = ReplayBuffer(100, 1, 1)
        fill(buf, 100)
        cfg = EreConfig(eta0=0.001, c_min=1)
        slots = sample_ere(buf, 1000, 1000, cfg, 0.001, 8, np.random.default_rng(0))
        assert np.all(buf.rewards[slots] == 99.0)

    def test_window_capped_by_current_size(self):
        buf = ReplayBuffer(1000, 1, 1)
        fill(buf, 10)
        cfg = EreConfig(eta0=1.0, c_min=1)
        slots = sample_ere(buf, 1, 10, cfg, 1.0, 64, np.random.default_rng(1))
        assert np.all(buf.rewards[slots] >= 0.0)
        assert np.all(slots < 10)

    def test_empty_buffer_rejected(self):
        cfg = EreConfig()
        with pytest.raises(ValueError):
            sample_ere(ReplayBuffer(10, 1, 1), 1, 10, cfg, 0.995, 4,
                       np.random.default_rng(0))

    def test_real_sampler_matches_analytic_curve(self):
        # replay the draw-then-push scenario with the actual buffer+sampler
        # and compare per-position counts against the exact expectation;
        # pinned seed as with every everywhere-3-sigma check
        from soprl.analysis import SamplingScenario, count_variances, expected_counts
        n = updates = 200
        eta = 0.996
        cfg = EreConfig(eta0=eta, c_min=1)
        scn = SamplingScenario(n, updates, eta, "full")
        trials = 400
        rng = np.random.default_rng(15)
        counts = np.zeros(scn.n_positions)
        dummy = Transition(np.zeros(1), np.zeros(1), 0.0, np.zeros(1), False)
        for _ in range(trials):
            buf = ReplayBuffer(n, 1, 1)
            for _ in range(n):
                buf.push(dummy)
            inserted = n  # pushes so far; position 0 is the oldest pre-fill item
            for k in range(1, updates + 1):
                slot = sample_ere(buf, k, updates, cfg, eta, 1, rng)[0]
                recency = (buf.cursor - 1 - slot) % buf.capacity
                counts[inserted - 1 - recency] += 1
                buf.push(dummy)
                inserted += 1
        exact = expected_counts(scn)
        sigma = np.sqrt(count_variances(scn) / trials)
        live = sigma > 0
        z = np.abs(counts[live] / trials - exact[live]) / sigma[live]
        assert np.max(z) < 3.0


class TestSumTree:
    def test_all_equal_priorities_sample_uniformly(self):
        tree = SumTree(8, beta1=1.0)
        tree.set_raw(np.arange(8), np.ones(8))
        probs = tree.probabilities()
        np.testing.assert_allclose(probs, 1.0 / 8)

    def test_doubling_a_priority_doubles_its_probability(self):
        tree = SumTree(10, beta1=1.0)
        tree.set_raw(np.arange(10), np.ones(10))
        base = tree.probabilities().copy()
        tree.set_raw(np.array([3]), np.array([2.0]))
        probs = tree.probabilities()
        ratio = (probs[3] / probs[0]) / (base[3] / base[0])
        assert ratio == pytest.approx(2.0, rel=1e-12)

    def test_root_equals_leaf_sum_and_nodes_consistent(self):
        rng = np.random.default_rng(4)
        tree = SumTree(300)
        tree.set_raw(np.arange(300), rng.uniform(0.1, 5.0, 300))
        for _ in range(50):
            slots = rng.integers(0, 300, 20)
            per_update_priorities(tree, slots, rng.uniform(0, 3, 20))
        parents = np.arange(tree.n_leaves - 1)
        lhs = tree.nodes[parents]
        rhs = tree.nodes[2 * parents + 1] + tree.nodes[2 * parents + 2]
        assert np.array_equal(lhs, rhs)
        assert tree.total == pytest.approx(np.sum(tree.leaf_values()), rel=1e-12)

    def test_priority_floor_enforced(self):
        tree = SumTree(4)
        with pytest.raises(ValueError):
            tree.set_raw(np.array([0]), np.array([0.0]))

    def test_invalid_slot_rejected(self):
        tree = SumTree(4)
        with pytest.raises(IndexError):
            per_update_priorities(tree, np.array([4]), np.array([1.0]))

    def test_zero_td_errors_give_uniform_sampling(self):
        tree = SumTree(6, beta1=0.4)
        per_update_priorities(tree, np.arange(6), np.zeros(6))
        np.testing.assert_allclose(tree.leaf_values(),
                                   tree.priority_floor ** 0.4)
        np.testing.assert_allclose(tree.probabilities(), 1.0 / 6)

    def test_rebuild_triggered_by_write_budget(self):
        tree = SumTree(16, rebuild_every=10)
        rng = np.random.default_rng(0)
        for _ in range(5):
            tree.set_raw(rng.integers(0, 16, 4), rng.uniform(1, 2, 4))
        assert tree.writes < 10  # reset by the triggered rebuild

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 31), st.floats(0.01, 10)),
                    min_size=1, max_size=64))
    def test_parent_child_exactness_after_any_updates(self, writes):
        tree = SumTree(32)
        for slot, pri in writes:
            tree.set_raw(np.array([slot]), np.array([pri]))
        parents = np.arange(tree.n_leaves - 1)
        assert np.array_equal(tree.nodes[parents],
                              tree.nodes[2 * parents + 1] + tree.nodes[2 * parents + 2])

    @pytest.mark.parametrize("slots, raw", [
        ([1], [np.nan]),
        ([1], [np.inf]),
        ([1], [-np.inf]),
        ([1, 2, 3], [5.0, np.nan, 2.0]),
        ([1, 2, 3], [5.0, 2.0]),
        ([1], [5.0, 2.0]),
        ([1], []),
    ], ids=["nan", "inf", "-inf", "nan-in-batch", "short-priorities",
            "long-priorities", "no-priorities"])
    def test_bad_priorities_rejected_before_any_change(self, slots, raw):
        tree = SumTree(8)
        tree.set_raw(np.arange(8), np.linspace(1.0, 2.0, 8))
        before = tree_state(tree)
        with pytest.raises(ValueError):
            tree.set_raw(np.array(slots), np.array(raw))
        assert_unchanged(tree, before)

    def test_bad_slot_rejected_before_any_change(self):
        tree = SumTree(8)
        before = tree_state(tree)
        with pytest.raises(IndexError):
            tree.set_raw(np.array([1, 8]), np.array([5.0, 2.0]))
        assert_unchanged(tree, before)

    @pytest.mark.parametrize("raw", [[], [2.0]], ids=["no-priorities", "one-priority"])
    def test_empty_write_is_a_no_op(self, raw):
        tree = SumTree(8)
        tree.set_raw(np.arange(8), np.linspace(1.0, 2.0, 8))
        before = tree_state(tree)
        tree.set_raw(np.array([], dtype=np.int64), np.array(raw))
        assert_unchanged(tree, before)

    def test_one_priority_broadcasts_to_every_slot(self):
        tree, oracle = SumTree(16, beta1=0.7), LevelWalkTree(16, beta1=0.7)
        for t in (tree, oracle):
            t.set_raw(np.array([3, 9, 9, 15]), np.array([2.5]))
        assert np.array_equal(tree.nodes, oracle.nodes)
        assert np.array_equal(tree.leaf_values()[[3, 9, 15]], np.full(3, 2.5 ** 0.7))

    def test_last_write_to_a_repeated_slot_wins(self):
        tree = SumTree(16, beta1=1.0)
        tree.set_raw(np.array([4, 7, 4]), np.array([1.0, 2.0, 3.0]))
        assert tree.leaf_values()[4] == 3.0
        assert tree.total == 5.0

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1, 3, 32, 300, 1000]), st.sampled_from([10, 100_000]),
           st.lists(st.lists(st.tuples(st.integers(0, 999), st.floats(1e-6, 10.0)),
                             min_size=1, max_size=40),
                    min_size=1, max_size=30),
           st.floats(0.1, 1.0))
    def test_bitwise_equal_to_level_walk(self, capacity, rebuild_every, writes, beta1):
        # mixed one-slot and batch writes, slots folded into the capacity so
        # that small trees see many repeated slots within one batch
        tree = SumTree(capacity, beta1=beta1, rebuild_every=rebuild_every)
        oracle = LevelWalkTree(capacity, beta1=beta1, rebuild_every=rebuild_every)
        for batch in writes:
            slots = np.array([s % capacity for s, _ in batch])
            raw = np.array([p for _, p in batch])
            tree.set_raw(slots, raw)
            oracle.set_raw(slots, raw)
            assert np.array_equal(tree.nodes, oracle.nodes)
            assert tree.writes == oracle.writes
            assert tree.max_raw_priority == oracle.max_raw_priority

    @pytest.mark.parametrize("batch", [1, 2, 256, 5000])
    def test_bitwise_equal_to_level_walk_at_depth_twenty(self, batch):
        # a mostly-untouched 1e6-leaf tree: the levels near the leaves take
        # the sparse path, the narrow levels near the root the whole-level one
        rng = np.random.default_rng(batch)
        tree, oracle = SumTree(1_000_000), LevelWalkTree(1_000_000)
        base = rng.uniform(1e-3, 2.0, 1_000_000)
        tree.set_raw(np.arange(1_000_000), base)
        oracle.set_raw(np.arange(1_000_000), base)
        for _ in range(3):
            slots = rng.integers(0, 1_000_000, batch)
            raw = rng.uniform(1e-3, 2.0, batch)
            tree.set_raw(slots, raw)
            oracle.set_raw(slots, raw)
        assert np.array_equal(tree.nodes, oracle.nodes)


class TestPerSampling:
    def test_probabilities_follow_priority_ratio(self):
        tree = SumTree(2, beta1=1.0)
        tree.set_raw(np.arange(2), np.array([1.0, 2.0]))
        np.testing.assert_allclose(tree.probabilities(), [1 / 3, 2 / 3])

    def test_is_weights_one_for_uniform_priorities(self):
        buf = ReplayBuffer(64, 1, 1)
        fill(buf, 64)
        tree = SumTree(64, beta1=1.0, beta2=0.4)
        tree.set_raw(np.arange(64), np.ones(64))
        _, _, weights = per_sample(tree, buf, 16, np.random.default_rng(0))
        np.testing.assert_allclose(weights, 1.0)

    def test_unnormalized_weights_match_formula(self):
        buf = ReplayBuffer(8, 1, 1)
        fill(buf, 8)
        tree = SumTree(8, beta1=1.0, beta2=0.5)
        tree.set_raw(np.arange(8), np.linspace(1, 2, 8))
        _, slots, weights = per_sample(tree, buf, 64, np.random.default_rng(1),
                                       normalize_weights=False)
        p = tree.leaf_values()[slots] / tree.total
        np.testing.assert_allclose(weights, (1.0 / (8 * p)) ** 0.5)

    def test_empty_buffer_rejected(self):
        tree = SumTree(8)
        tree.set_raw(np.arange(8), np.ones(8))
        with pytest.raises(ValueError):
            per_sample(tree, ReplayBuffer(8, 1, 1), 4, np.random.default_rng(0))

    def test_sampling_frequency_proportional(self):
        # frozen seed, as with every all-slots 3-sigma statistical check
        n = 1000
        buf = ReplayBuffer(n, 1, 1)
        fill(buf, n)
        rng_p = np.random.default_rng(77)
        tree = SumTree(n, beta1=1.0)
        tree.set_raw(np.arange(n), rng_p.uniform(0.5, 3.0, n))
        probs = tree.probabilities()
        draws = 1_000_000
        counts = np.zeros(n)
        rng = np.random.default_rng(63)
        for _ in range(10):
            slots = tree.sample_slots(draws // 10, rng)
            counts += np.bincount(slots, minlength=n)
        sigma = np.sqrt(draws * probs * (1 - probs))
        z = np.abs(counts - draws * probs) / sigma
        assert np.max(z) < 3.0


class TestExponentialSampler:
    def test_flat_limit_for_tiny_lambda(self):
        masses = exponential_segment_masses(2000, 1e-12, 100)
        rel = np.max(masses) / np.min(masses) - 1.0
        assert rel < 1e-6

    def test_adjacent_indices_equally_likely_within_segment(self):
        buf = ReplayBuffer(200, 1, 1)
        fill(buf, 200)
        rng = np.random.default_rng(3)
        slots = sample_exponential(buf, 0.01, 200_000, rng)
        recency = (buf.cursor - 1 - slots) % buf.capacity
        c10 = np.sum(recency == 10)
        c11 = np.sum(recency == 11)
        assert abs(c10 - c11) < 5 * np.sqrt(c10 + c11)

    def test_segment_masses_strictly_decreasing(self):
        masses = exponential_segment_masses(1000, 0.01, 100)
        assert np.all(np.diff(masses) < 0)

    def test_lambda_must_be_positive(self):
        buf = ReplayBuffer(10, 1, 1)
        fill(buf, 10)
        with pytest.raises(ValueError):
            sample_exponential(buf, 0.0, 4, np.random.default_rng(0))

    def test_recent_mass_closed_form(self):
        # probability of the most recent 1e5 of 1e6 indices, lambda=5e-6
        masses = exponential_segment_masses(1_000_000, 5e-6, 100)
        frac = masses[:1000].sum() / masses.sum()
        expected = (1 - np.exp(-0.5)) / (1 - np.exp(-5.0))
        assert frac == pytest.approx(expected, rel=1e-9)
        assert abs(frac - (1 - np.exp(-0.5))) / (1 - np.exp(-0.5)) < 0.01

    @pytest.mark.parametrize("size", [1, 99, 100, 101, 20_000, 1_000_000])
    @pytest.mark.parametrize("lam", [5e-6, 1e-3])
    def test_same_slots_and_generator_state_as_choice(self, size, lam):
        buf = ReplayBuffer(size, 1, 1)
        buf.cursor, buf.size = 37 % size, size  # contents are never read
        got_rng, want_rng = np.random.default_rng(size), np.random.default_rng(size)
        for batch in (256, 1):
            got = sample_exponential(buf, lam, batch, got_rng)
            masses = exponential_segment_masses(size, lam, EXP_SEGMENT)
            probs = masses / masses.sum()
            seg = want_rng.choice(probs.size, size=batch, p=probs)
            starts = seg * EXP_SEGMENT
            lengths = np.minimum(starts + EXP_SEGMENT, size) - starts
            want = buf.recent_slot(starts + want_rng.integers(0, lengths))
            assert np.array_equal(got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_segment_frequencies_within_three_sigma(self):
        # 200 segments with 20k draws expected in the least likely one;
        # frozen seed, as with every all-cells 3-sigma check
        size, lam = 20_000, 1e-4
        buf = ReplayBuffer(size, 1, 1)
        fill(buf, size)
        rng = np.random.default_rng(6)
        draws = 2_000_000
        slots = sample_exponential(buf, lam, draws, rng)
        recency = (buf.cursor - 1 - slots) % buf.capacity
        counts = np.bincount(recency // EXP_SEGMENT, minlength=size // EXP_SEGMENT)
        masses = exponential_segment_masses(size, lam, EXP_SEGMENT)
        probs = masses / masses.sum()
        sigma = np.sqrt(draws * probs * (1 - probs))
        assert np.max(np.abs(counts - draws * probs) / sigma) < 3.0

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_lambda_must_be_finite_and_positive(self, lam):
        buf = ReplayBuffer(10, 1, 1)
        fill(buf, 10)
        with pytest.raises(ValueError):
            sample_exponential(buf, lam, 4, np.random.default_rng(0))


class TestTrackerAndAdaptiveEta:
    def test_constant_returns_zero_improvement(self):
        tr = PerfTracker()
        for step in range(0, 1200, 100):
            tr.update(step, 5.0, capacity=1000)
        assert tr.i_recent == 0.0

    def test_linear_ramp_constant_improvement(self):
        tr = PerfTracker()
        for step in range(0, 2100, 100):
            tr.update(step, float(step), capacity=1000)
        assert tr.i_recent == pytest.approx(500.0)
        assert tr.i_max == pytest.approx(500.0)

    def test_warmup_returns_eta0(self):
        tr = PerfTracker()
        cfg = EreConfig(eta0=0.995)
        tr.update(100, 1.0, capacity=1000)
        assert tr.i_recent is None
        assert adapt_eta(cfg, tr) == 0.995

    def test_adapt_eta_formula_points(self):
        cfg = EreConfig(eta0=0.995)
        tr = PerfTracker()
        tr.i_recent, tr.i_max = 1.0, 1.0
        assert adapt_eta(cfg, tr) == pytest.approx(0.995)
        tr.i_recent = 0.0
        assert adapt_eta(cfg, tr) == pytest.approx(1.0)
        tr.i_recent = 0.5
        assert adapt_eta(cfg, tr) == pytest.approx(0.9975)

    def test_negative_recent_clamped_to_uniform(self):
        cfg = EreConfig(eta0=0.995)
        tr = PerfTracker()
        tr.i_recent, tr.i_max = -2.0, 1.0
        assert adapt_eta(cfg, tr) == 1.0

    def test_i_max_monotone(self):
        tr = PerfTracker()
        rng = np.random.default_rng(0)
        prev_max = 0.0
        for i, step in enumerate(range(0, 5000, 50)):
            tr.update(step, float(rng.standard_normal()), capacity=1000)
            assert tr.i_max >= prev_max
            prev_max = tr.i_max
            if tr.i_recent is not None:
                assert tr.i_max >= tr.i_recent

    def test_nonmonotone_timestep_rejected(self):
        tr = PerfTracker()
        tr.update(100, 1.0, capacity=1000)
        with pytest.raises(ValueError):
            tr.update(50, 1.0, capacity=1000)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 400), st.floats(-10, 10)), min_size=1,
                    max_size=80),
           st.integers(1, 1000))
    def test_bounded_history_matches_full_history(self, episodes, capacity):
        # the full-history rule, kept here as the oracle
        tr, cfg = PerfTracker(), EreConfig(eta0=0.99)
        steps, rets, i_max = [], [], 0.0
        step = 0
        for length, ret in episodes:
            step += length
            tr.update(step, ret, capacity)
            steps.append(step)
            rets.append(ret)
            target = step - capacity // 2
            if target < steps[0]:
                assert tr.i_recent is None
                continue
            pos = bisect.bisect_left(steps, target)
            if pos > 0 and (pos == len(steps)
                            or target - steps[pos - 1] <= steps[pos] - target):
                pos -= 1
            i_recent = ret - rets[pos]
            i_max = max(i_max, i_recent)
            assert tr.i_recent == i_recent
            assert tr.i_max == i_max
            oracle = PerfTracker()
            oracle.i_recent, oracle.i_max = i_recent, i_max
            assert adapt_eta(cfg, tr) == adapt_eta(cfg, oracle)

    def test_history_bounded_by_half_capacity(self):
        tr = PerfTracker()
        for step in range(100, 1_000_001, 100):
            tr.update(step, 0.0, capacity=100_000)
        assert len(tr.timesteps) == len(tr.returns) == 501
        assert tr.timesteps[0] == 950_000

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-5, 5), st.floats(0.01, 5), st.floats(0.9, 1.0))
    def test_eta_always_in_range(self, i_recent, i_max, eta0):
        cfg = EreConfig(eta0=eta0)
        tr = PerfTracker()
        tr.i_recent, tr.i_max = i_recent, i_max
        eta = adapt_eta(cfg, tr)
        assert eta0 - 1e-12 <= eta <= 1.0 + 1e-12
