import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from soprl.actions import (ActionBounds, TanhHead, clip_action,
                           invert_gradients, normalize_output,
                           saturation_fraction, squash, squash_grad,
                           squashed_policy_entropy)

from oracles import normalize_output_vjp

finite_vec = st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=8)


class TestNormalizeOutput:
    def test_small_vector_unchanged(self):
        mu = np.array([0.1, -0.2, 0.3])
        assert np.array_equal(normalize_output(mu), mu)

    def test_rescaled_by_mean_magnitude(self):
        np.testing.assert_allclose(normalize_output(np.array([2.0, 4.0, 6.0])),
                                   [0.5, 1.0, 1.5], rtol=0, atol=0)

    def test_signs_preserved(self):
        np.testing.assert_allclose(normalize_output(np.array([-3.0, 3.0])),
                                   [-1.0, 1.0])

    def test_batch_rows_handled_independently(self):
        batch = np.array([[0.5, 0.5], [4.0, 0.0]])
        out = normalize_output(batch)
        np.testing.assert_allclose(out, [[0.5, 0.5], [2.0, 0.0]])

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            normalize_output(np.zeros((3, 0)))

    @settings(max_examples=200, deadline=None)
    @given(finite_vec)
    def test_mean_magnitude_capped_at_one(self, vals):
        out = normalize_output(np.array(vals))
        assert np.mean(np.abs(out)) <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(finite_vec)
    def test_never_increases_magnitudes_and_keeps_signs(self, vals):
        mu = np.array(vals)
        out = normalize_output(mu)
        assert np.all(np.abs(out) <= np.abs(mu))
        assert np.all(out * mu >= 0.0)

    @settings(max_examples=100, deadline=None)
    @given(finite_vec, st.floats(1.0, 100.0))
    def test_scale_invariance_above_threshold(self, vals, c):
        mu = np.array(vals)
        if np.mean(np.abs(mu)) <= 1.0:
            mu = mu + np.sign(mu + 0.5) * 2.0  # push onto the rescaling branch
        np.testing.assert_allclose(normalize_output(c * mu), normalize_output(mu),
                                   rtol=1e-12, atol=1e-12)

    def test_vjp_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for scale in (0.2, 3.0):  # both branches
            mu = rng.standard_normal(5) * scale
            v = rng.standard_normal(5)
            h = 1e-7
            numeric = np.zeros(5)
            for j in range(5):
                e = np.zeros(5)
                e[j] = h
                numeric[j] = (np.sum(v * normalize_output(mu + e))
                              - np.sum(v * normalize_output(mu - e))) / (2 * h)
            np.testing.assert_allclose(normalize_output_vjp(mu, v), numeric,
                                       rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("mu", [
        [[0.1, -0.2, 0.3], [0.5, -0.0, -0.9]],
        [[2.5, -0.4, 1.7], [0.1, 0.2, -0.3], [-3.0, 0.0, 4.0]],
        [[2.0627060966641606, -2.9770747452050585, 0.9957444419292649], [0.1, 0.2, 0.3]],
    ], ids=["identity", "over-one", "ulp-guard"])
    def test_tanh_head_forward_vjp_is_bitwise_the_public_pair(self, mu):
        mu = np.array(mu)
        g = np.mean(np.abs(mu), axis=-1, keepdims=True)
        overshoots = (g[:, 0] > 1.0) & (np.mean(np.abs(mu / g), axis=-1) > 1.0)
        assert overshoots.any() == (mu[0, 0] == 2.0627060966641606)  # the ulp guard runs
        bounds = ActionBounds.symmetric(2.0, 3)
        a_grad = np.random.default_rng(1).standard_normal(mu.shape)
        action, vjp = TanhHead(bounds, normalize=True).forward_vjp(mu)
        h = normalize_output(mu)
        want_grad = normalize_output_vjp(mu, a_grad * squash_grad(h, bounds))
        for got, want in ((action, squash(h, np.zeros_like(h), bounds)),
                          (vjp(a_grad), want_grad)):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestSquash:
    def test_zero_in_zero_out(self):
        b = ActionBounds.symmetric(1.0, 1)
        assert squash(np.zeros(1), np.zeros(1), b)[0] == 0.0

    def test_large_input_saturates_to_bound(self):
        b = ActionBounds.symmetric(1.0, 1)
        assert squash(np.array([50.0]), np.zeros(1), b)[0] == pytest.approx(1.0, abs=1e-10)

    def test_scalar_value(self):
        b = ActionBounds.symmetric(2.0, 1)
        out = squash(np.array([0.5]), np.array([0.1]), b)
        assert out[0] == pytest.approx(2 * np.tanh(0.6), abs=1e-12)

    def test_strictly_inside_open_bounds(self):
        # float64 tanh rounds to exactly 1.0 past |u| ~ 19, so strictness is
        # only observable below that rounding threshold
        b = ActionBounds.symmetric(1.5, 3)
        rng = np.random.default_rng(1)
        a = squash(rng.uniform(-18, 18, (100, 3)), np.zeros((100, 3)), b)
        assert np.all(np.abs(a) < 1.5)

    def test_shape_mismatch_raises(self):
        b = ActionBounds.symmetric(1.0, 2)
        with pytest.raises(ValueError):
            squash(np.zeros(2), np.zeros(3), b)


class TestInvertGradients:
    def test_zero_factor_at_pushed_boundary(self):
        b = ActionBounds.symmetric(1.0, 2)
        out = invert_gradients(np.array([1.0, -1.0]), np.array([1.0, -1.0]), b)
        np.testing.assert_allclose(out, [0.0, 0.0])

    def test_midpoint_scales_by_half(self):
        b = ActionBounds(low=np.array([-1.0, 0.0]), high=np.array([3.0, 2.0]))
        mid = np.array([1.0, 1.0])
        out = invert_gradients(np.array([2.0, -2.0]), mid, b)
        np.testing.assert_allclose(out, [1.0, -1.0])

    def test_downward_push_near_low_bound_nearly_zeroed(self):
        b = ActionBounds.symmetric(1.0, 1)
        out = invert_gradients(np.array([-5.0]), np.array([-0.999]), b)
        assert -0.005 < out[0] <= 0.0  # same sign direction, tiny magnitude

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-10, 10, allow_nan=False))
    def test_factor_in_unit_interval_inside_bounds(self, p, g):
        b = ActionBounds.symmetric(1.0, 1)
        out = invert_gradients(np.array([g]), np.array([p]), b)
        if g != 0:
            factor = out[0] / g
            assert -1e-12 <= factor <= 1.0

    def test_out_of_bounds_input_inverts_sign(self):
        b = ActionBounds.symmetric(1.0, 1)
        out = invert_gradients(np.array([1.0]), np.array([1.5]), b)
        assert out[0] < 0.0


class TestClipAndSaturation:
    def test_clip_examples(self):
        b = ActionBounds.symmetric(1.0, 2)
        np.testing.assert_allclose(clip_action(np.array([0.3, -0.4]), b), [0.3, -0.4])
        np.testing.assert_allclose(clip_action(np.array([2.0, 0.0]), b), [1.0, 0.0])
        np.testing.assert_allclose(clip_action(np.array([-5.0, 0.2]), b), [-1.0, 0.2])

    def test_saturation_all_at_bounds(self):
        b = ActionBounds.symmetric(2.0, 2)
        acts = np.array([[2.0, -2.0], [-2.0, 2.0]])
        assert saturation_fraction(acts, b) == 1.0

    def test_saturation_zero_for_centered(self):
        b = ActionBounds.symmetric(2.0, 2)
        assert saturation_fraction(np.zeros((5, 2)), b) == 0.0

    def test_saturation_half(self):
        b = ActionBounds.symmetric(1.0, 1)
        acts = np.array([[1.0], [0.0], [-1.0], [0.0]])
        assert saturation_fraction(acts, b) == 0.5

    def test_saturation_invariant_to_permutation(self):
        rng = np.random.default_rng(2)
        b = ActionBounds.symmetric(1.0, 3)
        acts = rng.uniform(-1, 1, (20, 3))
        shuffled = acts[rng.permutation(20)]
        assert saturation_fraction(acts, b) == saturation_fraction(shuffled, b)

    def test_saturation_measured_from_center_of_asymmetric_box(self):
        # box [0, 2] x [-1, 3]: centers (1, 1), half ranges (1, 2)
        b = ActionBounds(np.array([0.0, -1.0]), np.array([2.0, 3.0]))
        acts = np.array([[0.0, 1.0], [2.0, 2.5], [1.0, 3.0], [1.5, -0.99]])
        # saturated: 0.0 and 2.0 (first dim), 3.0 and -0.99 (second dim)
        assert saturation_fraction(acts, b) == 0.5
        assert saturation_fraction(np.ones((3, 2)), b) == 0.0

    def test_empty_batch_rejected(self):
        b = ActionBounds.symmetric(1.0, 1)
        with pytest.raises(ValueError):
            saturation_fraction(np.zeros((0, 1)), b)


def entropy_quadrature(mu, sigma, m):
    """Direct -integral p log p over the action space, independent route."""
    def density(a):
        u = np.arctanh(a / m)
        phi = np.exp(-((u - mu) ** 2) / (2 * sigma ** 2)) / np.sqrt(2 * np.pi * sigma ** 2)
        return phi / (m * (1.0 - (a / m) ** 2))

    val, _ = integrate.quad(lambda a: -density(a) * np.log(density(a)),
                            -m * (1 - 1e-13), m * (1 - 1e-13), limit=300)
    return val


class TestSquashedEntropy:
    def test_upper_bound_by_gaussian_entropy(self):
        b = ActionBounds.symmetric(2.0, 3)
        mu = np.array([0.3, -0.1, 1.0])
        sigma = 0.29
        est = squashed_policy_entropy(mu, sigma, b, 5000, seed=0)
        h_u = 1.5 * np.log(2 * np.pi * np.e * sigma ** 2)
        assert est <= h_u + 3 * np.log(2.0)

    def test_matches_quadrature_oracle(self):
        b = ActionBounds.symmetric(1.0, 1)
        est = squashed_policy_entropy(np.zeros(1), 0.29, b, 400_000, seed=11)
        oracle = entropy_quadrature(0.0, 0.29, 1.0)
        assert abs(est - oracle) < 1e-2

    def test_saturation_destroys_entropy(self):
        b = ActionBounds.symmetric(1.0, 1)
        h0 = squashed_policy_entropy(np.array([0.0]), 0.29, b, 20_000, seed=3)
        h5 = squashed_policy_entropy(np.array([5.0]), 0.29, b, 20_000, seed=3)
        assert h5 < h0

    def test_deterministic_given_seed(self):
        b = ActionBounds.symmetric(1.0, 2)
        args = (np.array([0.5, -0.5]), 0.3, b, 1000)
        assert squashed_policy_entropy(*args, seed=9) == squashed_policy_entropy(*args, seed=9)

    def test_rejects_bad_args(self):
        b = ActionBounds.symmetric(1.0, 1)
        with pytest.raises(ValueError):
            squashed_policy_entropy(np.zeros(1), 0.0, b, 10, seed=0)
        with pytest.raises(ValueError):
            squashed_policy_entropy(np.zeros(1), 0.1, b, 0, seed=0)


class TestBoundsAndNoise:
    def test_noise_config_validates(self):
        from soprl.agent import AgentConfig
        assert AgentConfig().sigma == 0.29
        with pytest.raises(ValueError, match="^sigma: "):
            AgentConfig(sigma=-0.1)

    def test_sigma_explore_must_be_positive(self):
        # one sigma scales exploration and target noise; no_smoothing is the
        # variant without target noise
        from soprl.agent import AgentConfig
        for sigma in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="^sigma: must be finite and > 0"):
                AgentConfig(sigma=sigma)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            ActionBounds(low=np.array([1.0]), high=np.array([0.0]))
        with pytest.raises(ValueError):
            ActionBounds.symmetric(0.0, 1)

    def test_bounds_own_read_only_copies(self):
        low, high = np.array([-1.0]), np.array([1.0])
        b = ActionBounds(low, high)
        low[0], high[0] = 5.0, 6.0  # the caller's arrays, not the box
        assert (b.low.tolist(), b.high.tolist(), b.half_range.tolist()) == ([-1.0], [1.0], [1.0])
        for field in (b.low, b.high, b.center, b.half_range):
            with pytest.raises(ValueError, match="read-only"):
                field[0] = 0.0

    def test_tanh_head_refuses_an_asymmetric_box(self):
        b = ActionBounds(low=np.array([0.0]), high=np.array([2.0]))
        with pytest.raises(ValueError, match="^tanh squashing requires symmetric bounds$"):
            TanhHead(b, normalize=True)
        # the same tolerance as before: a center within 1e-12 * max(M, 1) of 0
        TanhHead(ActionBounds([-1.0], [1.0 + 1e-12]), normalize=True)
        with pytest.raises(ValueError, match="symmetric"):
            TanhHead(ActionBounds([-1.0], [1.0 + 4e-12]), normalize=True)

    def test_tanh_head_squashes_to_the_read_only_half_range(self):
        b = ActionBounds(low=np.array([-0.5, -2.0]), high=np.array([0.5, 2.0]))
        assert np.array_equal(b.half_range, [0.5, 2.0])
        assert b.half_range is b.half_range  # worked out once, at construction
        with pytest.raises(ValueError):
            b.half_range[0] = 1.0
        a = TanhHead(b, normalize=False).action(np.full(2, 3.0), np.zeros(2))
        assert np.array_equal(a, b.half_range * np.tanh(3.0))


class TestBoundsAreValues:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_equal_boxes_compare_and_hash_alike(self, dim):
        a = ActionBounds.symmetric(0.1, dim)
        b = ActionBounds(np.full(dim, -0.1), [0.1] * dim)
        assert a == b and hash(a) == hash(b)
        assert {a: "box"}[b] == "box"

    def test_negative_zero_bound_equals_zero(self):
        a = ActionBounds([-0.0, -1.0], [1.0, 1.0])
        b = ActionBounds([0.0, -1.0], [1.0, 1.0])
        assert a == b and hash(a) == hash(b)

    def test_different_boxes_differ(self):
        box = ActionBounds.symmetric(0.1, 2)
        for other in (ActionBounds.symmetric(0.2, 2), ActionBounds.symmetric(0.1, 1),
                      ActionBounds([-0.1, -0.1], [0.1, 0.2]),
                      ActionBounds([-0.2, -0.1], [0.1, 0.1])):
            assert box != other
        assert len({box, ActionBounds.symmetric(0.2, 2), ActionBounds.symmetric(0.1, 2)}) == 2
