import tracemalloc

import numpy as np
import pytest

from soprl.analysis import (SamplingScenario, count_variances, empirical_counts,
                            expected_counts, retained_slice)


def harmonic_tail(n):
    """Closed-form oracle for the empty-start uniform curve."""
    inv = 1.0 / np.arange(1, n + 1)
    return np.cumsum(inv[::-1])[::-1]


def dense_probabilities(scn):
    """Oracle: per-update draw probabilities, shape (updates, n_positions).

    Row k holds 1/w_k inside that update's window and 0 elsewhere.
    """
    lo, hi = scn.window_bounds()
    w = (hi - lo + 1).astype(np.float64)
    p = np.zeros((scn.updates, scn.n_positions))
    for k in range(scn.updates):
        p[k, lo[k]:hi[k] + 1] = 1.0 / w[k]
    return p


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("start", ["empty", "full"])
    @pytest.mark.parametrize("eta", [1.0, 0.996])
    @pytest.mark.parametrize("capacity, updates", [(1, 1), (7, 5), (60, 60), (300, 200)])
    def test_counts_and_variances_bitwise(self, start, eta, capacity, updates):
        scn = SamplingScenario(capacity, updates, eta, start)
        p = dense_probabilities(scn)
        assert np.array_equal(expected_counts(scn), p.sum(axis=0))
        assert np.array_equal(count_variances(scn), (p * (1.0 - p)).sum(axis=0))

    def test_no_dense_matrix_at_benchmark_size(self):
        # the dense form is 1k x 21k float64 = 168 MB here, twice for the variances
        scn = SamplingScenario(20_000, 1000, 0.996, "full")
        tracemalloc.start()
        try:
            expected_counts(scn)
            count_variances(scn)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20


class TestUniformEmpty:
    def test_matches_harmonic_formula(self):
        counts = expected_counts(SamplingScenario(1000, 1000, 1.0, "empty"))
        np.testing.assert_allclose(counts, harmonic_tail(1000), rtol=1e-12)

    def test_first_and_last_values(self):
        counts = expected_counts(SamplingScenario(1000, 1000, 1.0, "empty"))
        assert counts[-1] == pytest.approx(0.001, abs=1e-15)
        assert counts[0] == pytest.approx(7.4855, abs=1e-4)

    def test_strictly_decreasing(self):
        counts = expected_counts(SamplingScenario(500, 500, 1.0, "empty"))
        assert np.all(np.diff(counts) < 0)

    def test_conservation(self):
        counts = expected_counts(SamplingScenario(800, 800, 1.0, "empty"))
        assert counts.sum() == pytest.approx(800.0, rel=1e-12)


class TestUniformFull:
    def test_newest_prefill_counted_once(self):
        counts = expected_counts(SamplingScenario(1000, 1000, 1.0, "full"))
        assert counts[999] == pytest.approx(1.0, rel=1e-12)   # newest pre-existing
        assert counts[1999] == 0.0                            # last arrival

    def test_new_data_is_linear(self):
        n = 1000
        counts = expected_counts(SamplingScenario(n, n, 1.0, "full"))
        new = counts[n:]
        expected = (n - np.arange(1, n + 1)) / n
        np.testing.assert_allclose(new, expected, rtol=1e-12)

    def test_conservation_over_all_positions(self):
        counts = expected_counts(SamplingScenario(700, 700, 1.0, "full"))
        assert counts.sum() == pytest.approx(700.0, rel=1e-12)


class TestEre:
    def test_eta_one_reduces_to_uniform_bitwise(self):
        # every window spans all items present, so the counts are the uniform ones
        ks = np.arange(1, 301)
        assert np.array_equal(SamplingScenario(300, 300, 1.0, "empty").window_sizes(), ks)
        assert np.all(SamplingScenario(300, 300, 1.0, "full").window_sizes() == 300)

    def test_nonnegative_and_conserving(self):
        counts = expected_counts(SamplingScenario(1000, 1000, 0.996, "full"))
        assert np.all(counts >= 0)
        assert counts.sum() == pytest.approx(1000.0, rel=1e-12)

    def test_flatter_than_uniform_on_retained_range(self):
        scn = SamplingScenario(1000, 1000, 0.996, "full")
        ere = expected_counts(scn)[retained_slice(scn)]
        uni_scn = SamplingScenario(1000, 1000, 1.0, "full")
        uni = expected_counts(uni_scn)[retained_slice(uni_scn)]

        def maxmin(x):
            pos = x[x > 0]
            return pos.max() / pos.min()

        assert maxmin(ere) < maxmin(uni)

    def test_variance_ordering(self):
        scn_ere = SamplingScenario(1000, 1000, 0.996, "full")
        scn_full = SamplingScenario(1000, 1000, 1.0, "full")
        scn_empty = SamplingScenario(1000, 1000, 1.0, "empty")
        v_ere = np.var(expected_counts(scn_ere)[retained_slice(scn_ere)])
        v_full = np.var(expected_counts(scn_full)[retained_slice(scn_full)])
        v_empty = np.var(expected_counts(scn_empty)[retained_slice(scn_empty)])
        assert v_ere < v_full < v_empty

    def test_windows_never_exceed_present_items(self):
        scn = SamplingScenario(100, 100, 0.99, "empty")
        w = scn.window_sizes()
        assert np.all(w <= np.arange(1, 101))

    def test_probability_rows_sum_to_one(self):
        scn = SamplingScenario(200, 200, 0.995, "full")
        p = dense_probabilities(scn)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-12)


def max_z_on_retained(scn, trials, seed):
    """Worst z-score over the positions still in the buffer at the end.

    The check is restricted to the retained range (the plotted curve) and
    runs at a pinned seed: with ~1000 positions, an everywhere-3-sigma
    event only holds for a few percent of seeds by chance.
    """
    emp, sigma = empirical_counts(scn, trials, np.random.default_rng(seed))
    exact = expected_counts(scn)
    ret = retained_slice(scn)
    e, x, s = emp[ret], exact[ret], sigma[ret]
    live = s > 0
    return float(np.max(np.abs(e[live] - x[live]) / s[live]))


class TestEmpirical:
    def test_uniform_full_within_three_sigma(self):
        assert max_z_on_retained(SamplingScenario(1000, 1000, 1.0, "full"),
                                 10_000, seed=40) < 3.0

    def test_ere_within_three_sigma(self):
        assert max_z_on_retained(SamplingScenario(1000, 1000, 0.996, "full"),
                                 10_000, seed=104) < 3.0

    def test_uniform_empty_within_three_sigma(self):
        assert max_z_on_retained(SamplingScenario(1000, 1000, 1.0, "empty"),
                                 10_000, seed=111) < 3.0

    def test_single_trial_reproducible(self):
        scn = SamplingScenario(100, 100, 0.99, "empty")
        a, _ = empirical_counts(scn, 1, np.random.default_rng(3))
        b, _ = empirical_counts(scn, 1, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_variances_match_bernoulli_formula(self):
        scn = SamplingScenario(50, 50, 1.0, "empty")
        p = dense_probabilities(scn)
        np.testing.assert_allclose(count_variances(scn), (p * (1 - p)).sum(axis=0))


class TestScenarioValidation:
    def test_empty_start_requires_updates_within_capacity(self):
        with pytest.raises(ValueError, match=r"^updates: .* <= buffer$"):
            SamplingScenario(100, 200, 1.0, "empty")

    def test_bad_start_rejected(self):
        with pytest.raises(ValueError):
            SamplingScenario(100, 100, 1.0, "center")
