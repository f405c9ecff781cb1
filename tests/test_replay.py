import bisect
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soprl.agent import AgentConfig
from soprl.replay import (EXP_SEGMENT, SAMPLER_CLASSES, EreConfig, PerfTracker,
                          ReplayBuffer, SumTree, Transition, _segment_cdf, adapt_eta,
                          ere_range, exponential_segment_masses, per_sample,
                          per_update_priorities, sample_ere,
                          sample_exponential, sample_uniform)

from oracles import probabilities


def trans(i, state_dim=1, action_dim=1):
    return Transition(np.full(state_dim, float(i)), np.zeros(action_dim),
                      float(i), np.full(state_dim, float(i) + 0.5), False)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


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


def where_descent(tree, batch, rng):
    """Oracle: the PER descent over the 0-based ``nodes``, branching with
    ``np.where`` at every level."""
    nodes = tree.nodes
    targets = rng.random(batch) * tree.total
    idx = np.zeros(batch, dtype=np.int64)
    while idx[0] < tree.n_leaves - 1:
        left = 2 * idx + 1
        left_sum = nodes[left]
        go_left = targets < left_sum
        targets = np.where(go_left, targets, targets - left_sum)
        idx = np.where(go_left, left, left + 1)
    return idx - (tree.n_leaves - 1)


def assert_descent_matches_where(tree, batch, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(tree.sample_slots(batch, rng),
                          where_descent(tree, batch, oracle_rng))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


class FixedTargets:
    """Stands in for a generator: ``random`` returns the given fractions."""

    def __init__(self, fractions):
        self.fractions = np.array(fractions)

    def random(self, batch):
        assert batch == self.fractions.size
        return self.fractions.copy()

    def integers(self, low, high):
        return np.zeros_like(high)


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
        assert buf.gather(buf.recent_slot(np.array([0])))["rewards"].tolist() == [7.0]

    def test_fifo_eviction(self):
        buf = ReplayBuffer(3, 1, 1)
        fill(buf, 4)
        assert buf.size == 3
        rewards = buf.gather(buf.recent_slot(np.arange(3)))["rewards"].tolist()
        assert rewards == [3.0, 2.0, 1.0]  # newest first, item 0 evicted

    def test_dimension_mismatch_rejected(self):
        buf = ReplayBuffer(4, 2, 1)
        with pytest.raises(ValueError):
            buf.push(trans(0, state_dim=1))

    @pytest.mark.parametrize("pushed", [0, 2, 3, 5], ids=lambda n: f"pushed{n}")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field,at", [("state", 0), ("state", 1), ("action", 0),
                                          ("action", 1), ("reward", None),
                                          ("next_state", 0), ("next_state", 1)])
    def test_non_finite_transition_refused_before_any_write(self, pushed, bad, field, at):
        # capacity 3: empty, partly full, just full and wrapped; when full the
        # slot at the cursor holds the oldest transition
        buf = ReplayBuffer(3, 2, 2)
        for i in range(pushed):
            buf.push(Transition(np.full(2, i + 0.25), np.full(2, -i - 0.5), float(i),
                                np.full(2, i + 0.75), i % 2 == 0))
        fields = {"state": np.ones(2), "action": np.ones(2), "reward": 1.0,
                  "next_state": np.ones(2)}
        if at is None:
            fields[field] = bad
        else:
            fields[field][at] = bad
        before = buf._rows.copy(), buf.dones.copy(), buf.cursor, buf.size
        with pytest.raises(ValueError, match="not finite"):
            buf.push(Transition(**fields, done=True))
        assert same_bits(buf._rows, before[0]) and np.array_equal(buf.dones, before[1])
        assert (buf.cursor, buf.size) == before[2:]

    def test_finite_extremes_are_kept(self):
        # a row whose sum overflows, subnormals and signed zeros are all finite
        buf = ReplayBuffer(2, 2, 1)
        t = Transition(np.array([1.7e308, 1.7e308]), np.array([-0.0]), 5e-324,
                       np.array([-1.7e308, 0.0]), False)
        slot = buf.push(t)
        assert same_bits(buf._rows[slot], np.array([1.7e308, 1.7e308, -0.0, 5e-324,
                                                    -1.7e308, 0.0]))

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
        got = buf.gather(buf.recent_slot(np.arange(buf.size)))["rewards"].tolist()
        assert got == [7.0, 6.0, 5.0, 4.0, 3.0]

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 3]),
           st.sampled_from([1, 3, 17]), st.data())
    def test_gather_matches_per_field_reference(self, sd, ad, capacity, data):
        """The row layout is invisible: a batch is what indexing five
        per-field arrays gave, as fresh C-contiguous arrays."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
        buf = ReplayBuffer(capacity, sd, ad)
        # per-field reference of the ring: push k lands in slot k % capacity
        ref = {"states": [np.zeros(sd)] * capacity, "actions": [np.zeros(ad)] * capacity,
               "rewards": [0.0] * capacity, "next_states": [np.zeros(sd)] * capacity,
               "dones": [False] * capacity}
        for k in range(data.draw(st.integers(1, 3 * capacity))):
            t = Transition(rng.normal(size=sd), rng.normal(size=ad), float(rng.normal()),
                           rng.normal(size=sd), bool(rng.integers(2)))
            assert buf.push(t) == k % capacity
            for name, value in zip(ref, (t.state, t.action, t.reward, t.next_state, t.done)):
                ref[name][k % capacity] = value
        slots = np.array(data.draw(st.lists(st.integers(-capacity, capacity - 1), max_size=9)),
                         dtype=np.int64)
        before = buf._rows.copy(), buf.dones.copy()
        batch = buf.gather(slots)

        b = slots.size
        shapes = {"states": (b, sd), "actions": (b, ad), "rewards": (b,),
                  "next_states": (b, sd), "dones": (b,)}
        assert list(batch) == list(ref)
        for name, got in batch.items():
            want = np.array([ref[name][s] for s in slots]).reshape(shapes[name])
            assert got.dtype == (bool if name == "dones" else np.float64)
            assert got.shape == shapes[name]
            assert got.flags.c_contiguous and got.flags.owndata
            assert np.array_equal(got, want)
            got[...] = 1  # writing into the batch leaves the buffer as it was
        assert np.array_equal(buf._rows, before[0]) and np.array_equal(buf.dones, before[1])

        every = buf.gather(np.arange(capacity))  # the fields read back what was pushed
        for s in range(capacity):
            for name in ref:
                assert np.array_equal(every[name][s], ref[name][s])
        for bad in (capacity, -capacity - 1):
            with pytest.raises(IndexError):
                buf.gather(np.array([0, bad]))


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
        assert np.all(buf.gather(slots)["rewards"] == 99.0)

    def test_window_capped_by_current_size(self):
        buf = ReplayBuffer(1000, 1, 1)
        fill(buf, 10)
        cfg = EreConfig(eta0=1.0, c_min=1)
        slots = sample_ere(buf, 1, 10, cfg, 1.0, 64, np.random.default_rng(1))
        assert np.all(buf.gather(slots)["rewards"] >= 0.0)
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
        probs = probabilities(tree)
        np.testing.assert_allclose(probs, 1.0 / 8)

    def test_doubling_a_priority_doubles_its_probability(self):
        tree = SumTree(10, beta1=1.0)
        tree.set_raw(np.arange(10), np.ones(10))
        base = probabilities(tree).copy()
        tree.set_raw(np.array([3]), np.array([2.0]))
        probs = probabilities(tree)
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
        np.testing.assert_allclose(probabilities(tree), 1.0 / 6)

    def test_rebuild_triggered_by_write_budget(self):
        tree = SumTree(16, rebuild_every=10)
        rng = np.random.default_rng(0)
        for _ in range(5):
            tree.set_raw(rng.integers(0, 16, 4), rng.uniform(1, 2, 4))
        assert tree.writes < 10  # reset by the triggered rebuild

    def test_one_slot_write_reaching_the_budget_calls_rebuild(self):
        class CountedRebuild(SumTree):
            rebuilds = 0

            def rebuild(self):
                self.rebuilds += 1
                super().rebuild()

        tree, oracle = CountedRebuild(16, rebuild_every=3), LevelWalkTree(16, rebuild_every=3)
        for slot in range(7):
            tree.set_raw(np.array([slot]), np.array([1.5 + slot]))
            oracle.set_raw(np.array([slot]), np.array([1.5 + slot]))
            assert tree.rebuilds == (slot + 1) // 3
            assert tree.writes == oracle.writes == (slot + 1) % 3
        assert np.array_equal(tree.nodes, oracle.nodes)

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
        ([1], [1e-7]),
        (1, np.nan),
        (1, 1e-7),
        ([1, 2, 3], [5.0, np.nan, 2.0]),
        ([1, 2, 3], [5.0, 1e-7, 2.0]),
        ([1, 2, 3], [5.0, 2.0]),
        ([1], [5.0, 2.0]),
        ([1], []),
    ], ids=["nan", "inf", "-inf", "below-floor", "nan-scalar", "below-floor-scalar",
            "nan-in-batch", "below-floor-in-batch", "short-priorities",
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

    @pytest.mark.parametrize("slot, raw", [
        ([-1], [5.0]),
        ([8], [5.0]),
        (8, 5.0),
        ([8], [np.nan]),  # the slot is checked before the priority
    ], ids=["minus-one", "capacity", "capacity-scalar", "capacity-nan"])
    def test_bad_one_slot_rejected_before_any_change(self, slot, raw):
        tree = SumTree(8)
        tree.set_raw(np.arange(8), np.linspace(1.0, 2.0, 8))
        before = tree_state(tree)
        with pytest.raises(IndexError):
            tree.set_raw(np.array(slot), np.array(raw))
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

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1, 2, 3, 32, 1000]), st.sampled_from([5, 100_000]),
           st.lists(st.tuples(st.integers(0, 999), st.floats(1e-6, 10.0), st.booleans()),
                    min_size=1, max_size=60),
           st.floats(0.1, 2.0))
    def test_one_slot_writes_bitwise_equal_to_level_walk(self, capacity, rebuild_every,
                                                         writes, beta1):
        # one slot per call, given as 1-element arrays or as 0-d ones
        tree = SumTree(capacity, beta1=beta1, rebuild_every=rebuild_every)
        oracle = LevelWalkTree(capacity, beta1=beta1, rebuild_every=rebuild_every)
        for slot, raw, flat in writes:
            slot %= capacity
            tree.set_raw(np.array(slot if flat else [slot]), np.array(raw if flat else [raw]))
            oracle.set_raw(np.array([slot]), np.array([raw]))
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
        assert tree.writes == oracle.writes
        assert tree.max_raw_priority == oracle.max_raw_priority

    def test_overflowing_stored_priority_rejected_before_any_change(self):
        tree = SumTree(4, beta1=2.0)
        tree.set_raw(np.arange(4), np.linspace(1.0, 2.0, 4))
        before = tree_state(tree)
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(ValueError):
            tree.set_raw(np.array([1]), np.array([1e200]))
        assert_unchanged(tree, before)

    def test_tree_with_overflowing_total_cannot_be_sampled(self):
        tree = SumTree(4, beta1=1.0)
        with pytest.warns(RuntimeWarning, match="overflow"):
            tree.set_raw(np.array([1, 3]), np.array([1e308, 1e308]))
        assert tree.total == np.inf
        with pytest.raises(ValueError, match="total is inf"):
            tree.sample_slots(8, np.random.default_rng(0))


class TestNodesLayout:
    """``nodes`` is the public 0-based layout: root at 0, children of node i
    at 2i + 1 and 2i + 2, leaves from ``n_leaves - 1``."""

    @pytest.mark.parametrize("capacity", [1, 2, 3, 300])
    def test_length_and_leaf_offset(self, capacity):
        tree = SumTree(capacity, beta1=1.0)
        tree.set_raw(np.arange(capacity), np.arange(1.0, capacity + 1.0))
        assert tree.nodes.shape == (2 * tree.n_leaves - 1,)
        assert np.array_equal(tree.nodes[tree.n_leaves - 1:][:capacity], tree.leaf_values())
        assert tree.nodes[0] == tree.total

    def test_edit_in_place_is_seen_by_total_and_sampling(self):
        tree = SumTree(4, beta1=1.0)
        tree.set_raw(np.arange(4), np.ones(4))
        restored = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])
        tree.nodes[:] = restored  # as a snapshot restore writes the nodes back
        assert tree.total == 1.0
        assert np.array_equal(tree.leaf_values(), [0.0, 0.0, 0.0, 1.0])
        assert set(tree.sample_slots(64, np.random.default_rng(0))) == {3}
        tree.nodes[0] = 0.0
        with pytest.raises(ValueError, match="total is 0.0"):
            tree.sample_slots(1, np.random.default_rng(0))

    def test_nodes_cannot_be_rebound(self):
        tree = SumTree(4)
        with pytest.raises(AttributeError):
            tree.nodes = np.zeros(7)


class TestDescent:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2, 3, 32, 300, 1000]),
           st.lists(st.tuples(st.integers(0, 999),
                              st.one_of(st.just(0.0), st.floats(1e-6, 10.0))),
                    min_size=1, max_size=60),
           st.floats(0.1, 1.0), st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_equal_to_where_descent(self, capacity, writes, beta1, batch, seed):
        # zero-priority leaves, including unwritten ones and the padding, and
        # slots folded into the capacity so that small trees repeat them
        tree = SumTree(capacity, beta1=beta1, priority_floor=0.0)
        slots = np.array([s % capacity for s, _ in writes])
        tree.set_raw(slots, np.array([p for _, p in writes]))
        if tree.total == 0.0:
            tree.set_raw(slots[:1], np.array([1.0]))
        assert_descent_matches_where(tree, batch, seed)

    def test_equal_to_where_descent_at_depth_twenty(self):
        rng = np.random.default_rng(256)
        tree = SumTree(1_000_000)
        tree.set_raw(np.arange(1_000_000), rng.uniform(1e-3, 2.0, 1_000_000))
        for _ in range(3):
            tree.set_raw(rng.integers(0, 1_000_000, 256), rng.uniform(1e-3, 2.0, 256))
            assert_descent_matches_where(tree, 256, int(rng.integers(2**32)))

    @pytest.mark.parametrize("fraction, slot", [
        (0.0, 1),  # target 0 equals the zero left sum: slot 0 is never drawn
        (0.3, 2),  # 3 of 10 equals the root's left sum, then 0 goes left
        (0.6, 3),  # 6 of 10: right at the root, then 3 equals leaf 2
        (0.9, 3),
    ])
    def test_target_equal_to_a_left_sum_goes_right(self, fraction, slot):
        tree = SumTree(4, beta1=1.0, priority_floor=0.0)
        tree.set_raw(np.arange(4), np.array([0.0, 3.0, 3.0, 4.0]))
        assert tree.sample_slots(1, FixedTargets([fraction])) == [slot]
        assert where_descent(tree, 1, FixedTargets([fraction])) == [slot]

    @pytest.mark.parametrize("capacity", [3, 8])
    def test_target_rounded_past_the_last_leaf_draws_it(self, capacity):
        # the target rounds to 1.7 and, less the root's left sum 0.6, to 1.1:
        # equal to leaf 2, so the descent would step right onto empty slot 3
        tree = SumTree(capacity, beta1=1.0)
        tree.set_raw(np.arange(3), np.array([0.1, 0.5, 1.1]))
        top = FixedTargets([np.nextafter(1.0, 0.0)])
        assert tree.sample_slots(1, top).tolist() == [2]
        buf = ReplayBuffer(capacity, 1, 1)
        fill(buf, 3)
        _, slots, weights = per_sample(tree, buf, 1, top)
        assert slots.tolist() == [2] and np.isfinite(weights).all()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(1e-6, 1e3), st.integers(1, 20).map(lambda k: k / 10)),
                    min_size=1, max_size=300),
           st.integers(0, 300), st.sampled_from([0.4, 1.0]))
    @example([0.1, 0.5, 1.1], 0, 1.0)
    @example([0.1, 0.5, 1.1], 5, 1.0)
    def test_top_target_draws_a_written_slot(self, raw, empty, beta1):
        # the first len(raw) slots of a tree with ``empty`` more are written
        tree = SumTree(len(raw) + empty, beta1=beta1)
        tree.set_raw(np.arange(len(raw)), np.array(raw))
        [slot] = tree.sample_slots(1, FixedTargets([np.nextafter(1.0, 0.0)]))
        assert slot < len(raw) and tree.leaf_values()[slot] > 0.0


class TestPerSampling:
    def test_probabilities_follow_priority_ratio(self):
        tree = SumTree(2, beta1=1.0)
        tree.set_raw(np.arange(2), np.array([1.0, 2.0]))
        np.testing.assert_allclose(probabilities(tree), [1 / 3, 2 / 3])

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

    def test_overflowing_weights_refused_naming_beta2(self):
        buf = ReplayBuffer(8, 1, 1)
        fill(buf, 8)
        tree = SumTree(8, beta1=1.0, beta2=2000.0)
        tree.set_raw(np.arange(8), np.linspace(1, 2, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(ValueError, match="^beta2: "):
                per_sample(tree, buf, 16, np.random.default_rng(0))

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
        probs = probabilities(tree)
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
        masses = exponential_segment_masses(2000, 1e-12)
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
        masses = exponential_segment_masses(1000, 0.01)
        assert np.all(np.diff(masses) < 0)

    def test_lambda_must_be_positive(self):
        buf = ReplayBuffer(10, 1, 1)
        fill(buf, 10)
        with pytest.raises(ValueError):
            sample_exponential(buf, 0.0, 4, np.random.default_rng(0))

    def test_recent_mass_closed_form(self):
        # probability of the most recent 1e5 of 1e6 indices, lambda=5e-6
        masses = exponential_segment_masses(1_000_000, 5e-6)
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
            masses = exponential_segment_masses(size, lam)
            probs = masses / masses.sum()
            seg = want_rng.choice(probs.size, size=batch, p=probs)
            starts = seg * EXP_SEGMENT
            lengths = np.minimum(starts + EXP_SEGMENT, size) - starts
            want = buf.recent_slot(starts + want_rng.integers(0, lengths))
            assert np.array_equal(got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("size", [1, 99, 100, 101, 20_000, 1_000_000])
    @pytest.mark.parametrize("lam", [5e-6, 1e-3])
    def test_guide_table_segments_equal_searchsorted(self, size, lam):
        # keys on every bucket edge b/G and every CDF value, and next to them
        cdf, guide = _segment_cdf(size, lam)
        edges = np.arange(guide.size) / guide.size
        keys = np.concatenate([edges, cdf])
        keys = np.concatenate([keys, np.nextafter(keys, 0.0), np.nextafter(keys, 1.0)])
        keys = keys[(keys >= 0.0) & (keys < 1.0)]
        buf = ReplayBuffer(size, 1, 1)
        buf.cursor, buf.size = 37 % size, size  # contents are never read
        slots = sample_exponential(buf, lam, keys.size, FixedTargets(keys))
        seg = (buf.cursor - 1 - slots) % size // EXP_SEGMENT  # FixedTargets draws offset 0
        assert np.array_equal(seg, cdf.searchsorted(keys, side="right"))

    def test_table_rebuilt_as_the_buffer_grows(self):
        # every size a new CDF and guide table, against Generator.choice
        lam, buf = 3e-3, ReplayBuffer(3000, 1, 1)
        got_rng, want_rng = np.random.default_rng(8), np.random.default_rng(8)
        for size in range(1, 3001, 37):
            buf.cursor, buf.size = size % 3000, size
            got = sample_exponential(buf, lam, 64, got_rng)
            masses = exponential_segment_masses(size, lam)
            seg = want_rng.choice(masses.size, size=64, p=masses / masses.sum())
            starts = seg * EXP_SEGMENT
            lengths = np.minimum(starts + EXP_SEGMENT, size) - starts
            assert np.array_equal(got, buf.recent_slot(starts + want_rng.integers(0, lengths)))
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
        masses = exponential_segment_masses(size, lam)
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


# (length, return) per episode; the 300-step one wraps the 250-slot ring, and
# the returns take ERE's eta from eta0 = 0.9 to 0.9375 and then 1.0
EPISODES = [(40, -5.0), (60, -4.0), (300, -1.0), (30, -3.0), (50, 0.5), (40, 2.0),
            (30, 1.0), (70, 3.0), (30, -2.0)]


def replay_cfg(sampler):
    return AgentConfig(sampler=sampler, buffer_capacity=250, batch_size=8, eta0=0.9,
                       exp_lambda=0.01)


def fake_td(batch, k):
    """|TD| errors that vary with the batch and the update, without an agent;
    some exceed 1, the priority a new slot gets before any write."""
    return 2.0 * np.abs(np.sin(batch["rewards"] + 0.1 * k))


def replay_by_hand(cfg, rng, rebuild_every):
    """The oracle: the sampler functions called one by one, in the order
    train() called them before the sampler objects, with PER's new-slot
    priority written on every env step."""
    buffer = ReplayBuffer(cfg.buffer_capacity, 1, 1)
    tracker = PerfTracker()
    ere_cfg = cfg.ere_config()
    tree = None
    if cfg.sampler == "per":
        tree = SumTree(cfg.buffer_capacity, beta1=cfg.per_beta1, beta2=cfg.per_beta2,
                       rebuild_every=rebuild_every)
    eta = cfg.eta0
    draws, etas, steps = [], [], 0
    for ep_len, ep_return in EPISODES:
        for _ in range(ep_len):
            slot = buffer.push(trans(steps))
            if tree is not None:
                tree.set_raw(np.array([slot]), np.array([tree.max_raw_priority]))
            steps += 1
        tracker.update(steps, ep_return, cfg.buffer_capacity)
        if cfg.sampler == "ere":
            eta = adapt_eta(ere_cfg, tracker)
        for k in range(1, ep_len + 1):
            if cfg.sampler == "uniform":
                slots = sample_uniform(buffer, cfg.batch_size, rng)
            elif cfg.sampler == "ere":
                slots = sample_ere(buffer, k, ep_len, ere_cfg, eta, cfg.batch_size, rng)
            elif cfg.sampler == "exp":
                slots = sample_exponential(buffer, cfg.exp_lambda, cfg.batch_size, rng)
            if tree is None:
                batch, weights = buffer.gather(slots), None
            else:
                batch, slots, weights = per_sample(tree, buffer, cfg.batch_size, rng)
            if tree is not None:
                per_update_priorities(tree, slots, fake_td(batch, k))
            draws.append((batch, slots, weights))
        etas.append(eta if cfg.sampler == "ere" else None)
    return draws, etas, tree, buffer


def replay_by_object(cfg, rng, rebuild_every):
    buffer = ReplayBuffer(cfg.buffer_capacity, 1, 1)
    sampler = SAMPLER_CLASSES[cfg.sampler](cfg, buffer)
    if cfg.sampler == "per":
        sampler.tree.rebuild_every = rebuild_every
    draws, etas, steps = [], [], 0
    for ep_len, ep_return in EPISODES:
        for _ in range(ep_len):
            buffer.push(trans(steps))
            steps += 1
        sampler.episode_done(steps, ep_return)
        for k in range(1, ep_len + 1):
            batch, slots, weights = sampler.draw(k, ep_len, rng)
            sampler.learned(slots, fake_td(batch, k))
            draws.append((batch, slots, weights))
        etas.append(sampler.eta)
    return draws, etas, getattr(sampler, "tree", None), buffer


def same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# a 300-write budget rebuilds the trees mid-run: inside an episode's one-slot
# inserts by hand, at an episode's end by object
@pytest.mark.parametrize("sampler, rebuild_every",
                         [pytest.param(s, 100_000, id=s) for s in SAMPLER_CLASSES]
                         + [pytest.param("per", 300, id="per-rebuild300")])
def test_sampler_object_replays_the_functions_bit_for_bit(sampler, rebuild_every):
    cfg = replay_cfg(sampler)
    rng_hand, rng_obj = np.random.default_rng(17), np.random.default_rng(17)
    hand, hand_etas, hand_tree, hand_buffer = replay_by_hand(cfg, rng_hand, rebuild_every)
    obj, obj_etas, obj_tree, obj_buffer = replay_by_object(cfg, rng_obj, rebuild_every)
    assert hand_buffer.cursor == obj_buffer.cursor != sum(n for n, _ in EPISODES)
    assert len(hand) == len(obj) == sum(n for n, _ in EPISODES)
    for (batch_h, slots_h, w_h), (batch_o, slots_o, w_o) in zip(hand, obj):
        assert same_array(slots_h, slots_o)
        assert batch_h.keys() == batch_o.keys()
        assert all(same_array(batch_h[key], batch_o[key]) for key in batch_h)
        assert (w_h is None) == (w_o is None) == (sampler != "per")
        assert w_h is None or same_array(w_h, w_o)
    assert hand_etas == obj_etas
    if sampler == "ere":
        assert set(obj_etas) == {0.9, 0.9375, 1.0}
    assert (hand_tree is None) == (obj_tree is None) == (sampler != "per")
    if obj_tree is not None:
        assert same_array(hand_tree.nodes, obj_tree.nodes)
        assert hand_tree.max_raw_priority == obj_tree.max_raw_priority > 1.0
    assert rng_hand.bit_generator.state == rng_obj.bit_generator.state
