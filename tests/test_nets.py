import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soprl import nets

from oracles import finite_diff_check


def make_params(weights, biases):
    return nets.MlpParams([np.asarray(w, dtype=float) for w in weights],
                          [np.asarray(b, dtype=float) for b in biases])


def same_bits(a, b):
    """Bitwise equality, so -0.0 and +0.0 (and NaN payloads) count as different."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def wide_floats(rng, shape, zeros=0.2):
    """Normal draws scaled over 16 decades, with a share of +0.0 and -0.0."""
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    x[rng.random(shape) < zeros] = 0.0
    x[rng.random(shape) < zeros / 2] *= -0.0
    return x


def backward(params, x, output_grad):
    """Parameter and input gradients of <output, output_grad>."""
    _, cache = nets.mlp_forward_cached(params, x)
    return (nets.mlp_backward_cached(params, cache, output_grad),
            nets.mlp_input_grad(params, cache, output_grad))


def finite_diff_grads(params, x, output_grad, h=1e-6):
    """Independent oracle: central differences of <output, output_grad>."""
    grads = nets.zeros_like_params(params)
    for tensors in ("weights", "biases"):
        for p, g in zip(getattr(params, tensors), getattr(grads, tensors)):
            flat_p, flat_g = p.reshape(-1), g.reshape(-1)
            for i in range(flat_p.size):
                orig = flat_p[i]
                flat_p[i] = orig + h
                up = np.sum(nets.mlp_forward(params, x) * output_grad)
                flat_p[i] = orig - h
                down = np.sum(nets.mlp_forward(params, x) * output_grad)
                flat_p[i] = orig
                flat_g[i] = (up - down) / (2 * h)
    return grads


class TestForward:
    def test_zero_net_maps_anything_to_zero(self):
        rng = np.random.default_rng(0)
        params = nets.zeros_like_params(nets.init_mlp(3, 8, 2, rng))
        out = nets.mlp_forward(params, rng.standard_normal(3))
        assert np.array_equal(out, np.zeros(2))

    def test_identity_path_passes_positive_input(self):
        # single chain of 1x1 identity weights; ReLU transparent for x > 0
        params = make_params([[[1.0]], [[1.0]], [[1.0]]], [[0.0], [0.0], [0.0]])
        assert nets.mlp_forward(params, np.array([2.5]))[0] == pytest.approx(2.5)
        # negative input is clipped at the first hidden layer
        assert nets.mlp_forward(params, np.array([-2.5]))[0] == 0.0

    def test_hand_evaluated_2_2_2_1_net(self):
        # frozen weights, input (1, -1); value computed by hand:
        # z1 = (1*1 + (-1)*(-1), 1*2 + (-1)*1) = (2, 1) -> relu same
        # z2 = (2*1 + 1*0 - 1, 2*(-1) + 1*3 + 0) = (1, 1) -> relu same
        # y  = 1*2 + 1*(-1) + 0.5 = 1.5
        params = make_params(
            [[[1.0, 2.0], [-1.0, 1.0]], [[1.0, -1.0], [0.0, 3.0]], [[2.0], [-1.0]]],
            [[0.0, 0.0], [-1.0, 0.0], [0.5]])
        out = nets.mlp_forward(params, np.array([1.0, -1.0]))
        assert out[0] == pytest.approx(1.5, abs=1e-12)

    def test_dimension_mismatch_raises(self):
        params = nets.init_mlp(3, 4, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            nets.mlp_forward(params, np.zeros(4))

    def test_batch_matches_per_sample(self):
        # batched BLAS kernels may round differently than row-at-a-time ones;
        # the contract is mathematical equivalence, not bit equality
        rng = np.random.default_rng(1)
        params = nets.init_mlp(3, 8, 2, rng)
        xs = rng.standard_normal((6, 3))
        batched = nets.mlp_forward(params, xs)
        rows = np.stack([nets.mlp_forward(params, x) for x in xs])
        np.testing.assert_allclose(batched, rows, rtol=1e-13, atol=0)

    def test_repeated_forward_is_bit_identical(self):
        rng = np.random.default_rng(1)
        params = nets.init_mlp(3, 8, 2, rng)
        xs = rng.standard_normal((6, 3))
        assert np.array_equal(nets.mlp_forward(params, xs),
                              nets.mlp_forward(params, xs))


class TestBackward:
    def test_zero_cotangent_gives_zero_gradients(self):
        rng = np.random.default_rng(2)
        params = nets.init_mlp(4, 8, 3, rng)
        grads, input_grad = backward(params, rng.standard_normal(4), np.zeros(3))
        for _, arr in grads.named_tensors():
            assert not arr.any()
        assert not input_grad.any()

    def test_linear_layer_weight_grad_is_outer_product(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((3, 2))
        # emulate a single linear layer by making hidden layers wide identities
        x = rng.standard_normal(3)
        g = rng.standard_normal(2)
        params = make_params([w], [np.zeros(2)])
        grads, input_grad = backward(params, x, g)
        assert np.allclose(grads.weights[0], np.outer(x, g))
        assert np.allclose(input_grad, w @ g)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        params = nets.init_mlp(3, 6, 2, rng)
        x = rng.standard_normal((4, 3))
        g = rng.standard_normal((4, 2))
        analytic, _ = backward(params, x, g)
        numeric = finite_diff_grads(params, x, g)
        for (_, a), (_, n) in zip(analytic.named_tensors(), numeric.named_tensors()):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-12)
            assert np.max(np.abs(a - n) / denom) < 1e-4

    def test_shape_closure(self):
        rng = np.random.default_rng(5)
        params = nets.init_mlp(5, 7, 3, rng)
        grads, _ = backward(params, rng.standard_normal(5), rng.standard_normal(3))
        for (_, p), (_, g) in zip(params.named_tensors(), grads.named_tensors()):
            assert p.shape == g.shape

    @pytest.mark.parametrize("grad_fn", [nets.mlp_backward_cached, nets.mlp_input_grad])
    def test_output_grad_rows_must_match_the_forward(self, grad_fn):
        # one row would otherwise broadcast over the cached batch
        rng = np.random.default_rng(19)
        params = nets.init_mlp(3, 4, 1, rng)
        _, cache = nets.mlp_forward_cached(params, rng.standard_normal((5, 3)))
        with pytest.raises(ValueError, match="batch size"):
            grad_fn(params, cache, np.ones((1, 1)))

    def test_input_grad_shortcut_matches_full_backward(self):
        rng = np.random.default_rng(6)
        params = nets.init_mlp(4, 9, 2, rng)
        x = rng.standard_normal((5, 4))
        g = rng.standard_normal((5, 2))
        _, cache = nets.mlp_forward_cached(params, x)
        _, full = matmul_backward(params, cache, g)
        assert same_bits(nets.mlp_input_grad(params, cache, g), full)


class TestCacheContract:
    """A cache is valid until the next cached forward of the same params."""

    def test_cache_survives_other_passes(self):
        rng = np.random.default_rng(12)
        params = nets.init_mlp(3, 8, 2, rng)
        other = nets.init_mlp(3, 8, 2, rng)
        x, g = rng.standard_normal((5, 3)), rng.standard_normal((5, 2))
        _, cache = nets.mlp_forward_cached(params, x)
        _, other_cache = nets.mlp_forward_cached(other, rng.standard_normal((5, 3)))
        nets.mlp_backward_cached(other, other_cache, g)
        nets.mlp_input_grad(other, other_cache, g)
        nets.mlp_forward(other, rng.standard_normal((5, 3)))
        nets.mlp_forward(params, rng.standard_normal((5, 3)))
        nets.mlp_forward_cached(params, rng.standard_normal(3))
        grads = nets.mlp_backward_cached(params, cache, g)
        input_grad = nets.mlp_input_grad(params, cache, g)
        expected, expected_input = backward(params.copy(), x, g)
        assert np.array_equal(grads.flat, expected.flat)
        assert np.array_equal(input_grad, expected_input)

    def test_outputs_and_gradients_are_fresh_arrays(self):
        rng = np.random.default_rng(13)
        params = nets.init_mlp(3, 8, 2, rng)
        x, g = rng.standard_normal((4, 3)), rng.standard_normal((4, 2))
        y1, cache = nets.mlp_forward_cached(params, x)
        grads1 = nets.mlp_backward_cached(params, cache, g)
        input1 = nets.mlp_input_grad(params, cache, g)
        kept = y1.copy(), grads1.flat.copy(), input1.copy()
        y2, cache = nets.mlp_forward_cached(params, x + 1.0)
        nets.mlp_backward_cached(params, cache, g)
        nets.mlp_forward(params, x - 1.0)
        assert np.array_equal(y1, kept[0]) and not np.array_equal(y1, y2)
        assert np.array_equal(grads1.flat, kept[1])
        assert np.array_equal(input1, kept[2])

    @pytest.mark.parametrize("build", ["init_mlp", "copy", "zeros_like_params", "lists",
                                       "constructor"])
    def test_tensors_are_views_of_flat(self, build):
        params = nets.init_mlp(3, 5, 2, np.random.default_rng(14))
        if build == "copy":
            params = params.copy()
        elif build == "zeros_like_params":
            params = nets.zeros_like_params(params)
        elif build == "lists":
            params = make_params([w.copy() for w in params.weights],
                                 [b.copy() for b in params.biases])
        elif build == "constructor":  # from views into another network's flat
            params = nets.MlpParams(params.weights, params.biases)
        assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
        offset = 0
        for _, arr in params.named_tensors():
            assert arr.base is params.flat
            assert arr.ctypes.data == params.flat.ctypes.data + 8 * offset
            offset += arr.size
        assert offset == params.flat.size
        params.flat[:] = np.arange(params.flat.size)
        assert params.weights[0][0, 1] == 1.0 and params.biases[-1][-1] == offset - 1

    def test_copy_owns_its_memory(self):
        params = nets.init_mlp(3, 5, 2, np.random.default_rng(15))
        twin = params.copy()
        assert not np.shares_memory(params.flat, twin.flat)
        twin.flat += 1.0
        assert np.array_equal(params.flat + 1.0, twin.flat)


class TestGradientBuffers:
    """``out=`` hands the backward pass a caller-owned gradient container."""

    @pytest.mark.parametrize("dout", [1, 2])
    def test_out_is_returned_and_fully_overwritten(self, dout):
        rng = np.random.default_rng(17)
        params = nets.init_mlp(3, 8, dout, rng)
        x, g = rng.standard_normal((5, 3)), rng.standard_normal((5, dout))
        _, cache = nets.mlp_forward_cached(params, x)
        fresh = nets.mlp_backward_cached(params, cache, g)
        out = nets.zeros_like_params(params)
        out.flat[:] = np.nan  # any element left unwritten stays NaN
        assert nets.mlp_backward_cached(params, cache, g, out=out) is out
        assert same_bits(out.flat, fresh.flat)

    def test_default_still_returns_a_fresh_container(self):
        rng = np.random.default_rng(18)
        params = nets.init_mlp(3, 8, 1, rng)
        _, cache = nets.mlp_forward_cached(params, rng.standard_normal((4, 3)))
        g = rng.standard_normal((4, 1))
        first = nets.mlp_backward_cached(params, cache, g)
        second = nets.mlp_backward_cached(params, cache, g)
        assert not np.shares_memory(first.flat, second.flat)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        rng = np.random.default_rng(7)
        net = nets.TrainedNet(nets.init_mlp(2, 4, 1, rng))
        before = net.params.copy()
        nets.adam_step(net, lr=0.1)
        for (_, a), (_, b) in zip(net.params.named_tensors(), before.named_tensors()):
            assert np.array_equal(a, b)
        assert net.t == 1

    def test_first_step_moves_by_lr(self):
        # single scalar parameter w=0, g=1: bias-corrected first step is
        # lr * 1 / (1 + eps) which is -0.1 up to the epsilon offset
        net = nets.TrainedNet(make_params([[[0.0]]], [[0.0]]))
        net.grads.weights[0][0, 0] = 1.0
        nets.adam_step(net, lr=0.1)
        assert net.params.weights[0][0, 0] == pytest.approx(-0.1, abs=1e-8)

    def test_quadratic_loss_decreases(self):
        # loss(w) = (w - 3)^2 minimized by repeated adam steps
        net = nets.TrainedNet(make_params([[[0.0]]], [[0.0]]))
        losses = []
        for _ in range(2):
            w = net.params.weights[0][0, 0]
            losses.append((w - 3.0) ** 2)
            net.grads.weights[0][0, 0] = 2.0 * (w - 3.0)
            nets.adam_step(net, lr=0.05)
        w = net.params.weights[0][0, 0]
        losses.append((w - 3.0) ** 2)
        assert losses[1] < losses[0] and losses[2] < losses[1]

    def test_nonfinite_gradient_names_tensor(self):
        rng = np.random.default_rng(8)
        net = nets.TrainedNet(nets.init_mlp(2, 4, 1, rng))
        net.grads.weights[1][0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="W1"):
            nets.adam_step(net, lr=0.1)

    def test_matches_the_temporaries_formula_bitwise(self):
        rng = np.random.default_rng(19)
        net = nets.TrainedNet(nets.init_mlp(3, 16, 2, rng))
        ref = net.params.flat.copy()
        m, v = np.zeros_like(ref), np.zeros_like(ref)
        b1, b2, eps, lr = nets.ADAM_BETA1, nets.ADAM_BETA2, nets.ADAM_EPS, 3e-4
        for t in range(1, 51):
            net.grads.flat[:] = wide_floats(rng, net.grads.flat.shape) * 1e-6
            nets.adam_step(net, lr=lr)
            g = net.grads.flat
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            ref -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
            assert same_bits(net.m, m) and same_bits(net.v, v)
            assert same_bits(net.params.flat, ref)

    def test_step_counter_increments(self):
        net = nets.TrainedNet(make_params([[[0.0]]], [[0.0]]))
        net.grads.weights[0][0, 0] = 1.0
        for expected in (1, 2, 3):
            nets.adam_step(net, lr=0.01)
            assert net.t == expected

    def test_moments_start_zeroed_in_their_own_flat_buffers(self):
        net = nets.TrainedNet(nets.init_mlp(3, 5, 2, np.random.default_rng(20)))
        for moment in (net.m, net.v):
            assert moment.dtype == np.float64 and moment.flags.c_contiguous
            assert moment.shape == net.params.flat.shape and not moment.any()
            assert not np.shares_memory(moment, net.params.flat)
            assert not np.shares_memory(moment, net.grads.flat)
        assert not np.shares_memory(net.m, net.v)


class TestFiniteDiffCheck:
    def test_linear_net_is_essentially_exact(self):
        rng = np.random.default_rng(9)
        params = make_params([rng.standard_normal((3, 2))],
                             [rng.standard_normal(2)])
        err = finite_diff_check(params, rng.standard_normal((3, 3)),
                                probe_step=1e-6)
        assert err < 1e-8

    def test_random_net_below_tolerance(self):
        rng = np.random.default_rng(10)
        params = nets.init_mlp(4, 10, 3, rng)
        err = finite_diff_check(params, rng.standard_normal((5, 4)), 1e-5)
        assert err < 1e-4

    def test_corrupted_gradient_is_detected(self):
        rng = np.random.default_rng(11)
        params = nets.init_mlp(3, 6, 1, rng)
        x = rng.standard_normal((4, 3))
        _, cache = nets.mlp_forward_cached(params, x)
        analytic = nets.mlp_backward_cached(params, cache, np.ones((4, 1)))
        # double the largest output-layer weight gradient
        idx = np.unravel_index(np.argmax(np.abs(analytic.weights[2])),
                               analytic.weights[2].shape)
        analytic.weights[2][idx] *= 2.0
        err = finite_diff_check(params, x, 1e-5, analytic=analytic)
        assert err > 0.3

    def test_corrupted_hidden_layer_gradient_is_detected(self):
        # the kink mask recomputes the pre-activations; a hidden-layer
        # coordinate must still be probed
        rng = np.random.default_rng(16)
        params = nets.init_mlp(3, 6, 1, rng)
        x = rng.standard_normal((4, 3))
        assert finite_diff_check(params, x, 1e-5) < 1e-4
        analytic, _ = backward(params, x, np.ones((4, 1)))
        idx = np.unravel_index(np.argmax(np.abs(analytic.weights[0])),
                               analytic.weights[0].shape)
        analytic.weights[0][idx] *= 2.0
        assert finite_diff_check(params, x, 1e-5, analytic=analytic) > 0.3

    def test_rejects_nonpositive_probe(self):
        params = nets.init_mlp(2, 4, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            finite_diff_check(params, np.zeros(2), 0.0)


class TestDeterminismAndCheckpoint:
    def test_same_seed_same_params_and_outputs(self):
        a = nets.init_mlp(3, 8, 2, np.random.default_rng(42))
        b = nets.init_mlp(3, 8, 2, np.random.default_rng(42))
        x = np.linspace(-1, 1, 3)
        assert np.array_equal(nets.mlp_forward(a, x), nets.mlp_forward(b, x))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 8), st.integers(1, 4),
       st.integers(0, 2 ** 31 - 1))
def test_backward_shapes_congruent_for_any_architecture(din, hidden, dout, seed):
    rng = np.random.default_rng(seed)
    params = nets.init_mlp(din, hidden, dout, rng)
    grads, input_grad = backward(params, rng.standard_normal(din), rng.standard_normal(dout))
    for (_, p), (_, g) in zip(params.named_tensors(), grads.named_tensors()):
        assert p.shape == g.shape
    assert input_grad.shape == (1, din)


def matmul_backward(params, cache, upstream):
    """Reference backward pass with every step a plain ``np.matmul``."""
    weights, biases = [None] * params.n_layers, [None] * params.n_layers
    for i in range(params.n_layers - 1, -1, -1):
        inp = cache.x if i == 0 else cache.hidden[i - 1]
        weights[i] = np.matmul(inp.T, upstream)
        biases[i] = np.sum(upstream, axis=0)
        upstream = np.matmul(upstream, params.weights[i].T)
        if i > 0:
            upstream = upstream * (cache.hidden[i - 1] > 0.0)
    return np.concatenate([t.ravel() for pair in zip(weights, biases) for t in pair]), upstream


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300), st.integers(1, 64), st.integers(1, 4),
       st.integers(0, 2 ** 31 - 1))
def test_one_wide_output_backward_is_bitwise_the_matmul(rows, hidden, din, seed):
    # the step back through a 1-wide output layer is a padded two-column
    # matmul; every gradient, signed zeros included, must equal the matmul's bits
    rng = np.random.default_rng(seed)
    params = nets.init_mlp(din, hidden, 1, rng)
    params.weights[-1][...] = wide_floats(rng, params.weights[-1].shape)
    _, cache = nets.mlp_forward_cached(params, rng.standard_normal((rows, din)))
    g = wide_floats(rng, (rows, 1))
    w = params.weights[-1]
    step = nets._matmul(g, w.T, np.full((rows, hidden), np.nan))
    assert same_bits(step, np.matmul(g, w.T))
    ref_flat, ref_input = matmul_backward(params, cache, g)
    assert same_bits(nets.mlp_backward_cached(params, cache, g).flat, ref_flat)
    assert same_bits(nets.mlp_input_grad(params, cache, g), ref_input)


def matmul_forward(params, x):
    """Reference forward pass with every layer a plain ``np.matmul``."""
    hidden, h = [], x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = np.maximum(np.matmul(h, w) + b, 0.0)
        hidden.append(h)
    return np.matmul(h, params.weights[-1]) + params.biases[-1], hidden


def with_nonfinite(rng, x, values, share=0.1):
    """``x`` with a share of its entries drawn from ``values``."""
    x = x.copy()
    hit = rng.random(x.shape) < share
    x[hit] = rng.choice(values, size=int(hit.sum()))
    return x


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(1, 4), st.booleans(), st.integers(0, 2 ** 31 - 1))
def test_one_column_forward_is_bitwise_the_matmul(hidden, dout, nonfinite, seed):
    # fan_in 1 puts the first layer on the zero-padded path, and hidden 1 the
    # inner layers too; 1, 256 and 1 rows again reuse the pads across calls.
    # A stray term in a pad's zero column or row adds only a signed zero to a
    # finite product, which a sum that starts from +0.0 hides; an inf operand
    # turns it into NaN.  NaN enters only through x, so that no product has
    # two NaN operands and every NaN payload is defined.
    rng = np.random.default_rng(seed)
    params = nets.init_mlp(1, hidden, dout, rng)
    params.flat[:] = wide_floats(rng, params.flat.shape)
    if nonfinite:
        for w in params.weights:
            w[...] = with_nonfinite(rng, w, [np.inf, -np.inf])
    for rows in (1, 256, 1):
        x = wide_floats(rng, (rows, 1))
        if nonfinite:
            x = with_nonfinite(rng, x, [np.inf, -np.inf, np.nan])
        with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf
            ref_out, ref_hidden = matmul_forward(params, x)
            out, cache = nets.mlp_forward_cached(params, x)
            uncached = nets.mlp_forward(params, x)
        assert same_bits(out, ref_out)
        assert len(cache.hidden) == len(ref_hidden)
        assert all(same_bits(h, r) for h, r in zip(cache.hidden, ref_hidden))
        assert same_bits(uncached, ref_out)
