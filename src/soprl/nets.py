"""Small feed-forward networks with explicit parameters and exact backprop.

The policy and both Q functions are two-hidden-layer ReLU MLPs with a
linear output.  Parameters live in plain float64 numpy arrays so that the
backward pass can be written out exactly and checked against central
finite differences.  Each network's weights and biases are views into one
contiguous ``flat`` vector; gradients and the Adam moments share that
layout, so the optimizer and the Polyak average are whole-vector ops.
A ``TrainedNet`` holds all of one network's training state.

Inputs may be a single vector ``(d,)`` or a batch ``(B, d)``; outputs match
the input rank.

Every forward writes the hidden activations into buffers the network owns
per batch size, and the backward pass writes each layer's gradient over the
activation it has just finished with, so a steady-state update allocates
nothing of batch size.  The cache a cached forward returns points into those
buffers and, like an autodiff tape, serves one backward pass
(``mlp_backward_cached`` or ``mlp_input_grad``); a second one is refused.  It
is valid until that pass or the next forward of the same params object at
the same batch size; batches of another size and passes of other networks
leave it intact.  Outputs and input gradients are fresh arrays; parameter
gradients (``mlp_backward_cached``, which skips the input gradient) are too,
unless the caller passes its own buffer as ``out``.

A layer product whose left operand has one column (the first layer of a
network with one input, and every step back through a layer with one
output) runs as a two-column matmul against a zero column, in pads kept per
shape.  It gives the one-column matmul's bits at BLAS speed (see ``_matmul``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class MlpParams:
    """Per-layer weights and biases, as views into one flat vector.

    ``weights[i]`` has shape (fan_in, fan_out); hidden layers use ReLU, the
    final layer is linear.  The same container is reused for gradients,
    which makes shape congruence automatic.  The given arrays are copied
    into ``flat`` (order W0, b0, W1, b1, ...); when ``flat`` is given
    instead, they only supply the shapes of the views into it.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray | None = field(default=None, repr=False)
    # layer widths, input first; set once, since the views never change shape
    sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # hidden-activation buffers of every forward, by batch rows
    _acts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        tensors = [t for pair in zip(self.weights, self.biases) for t in pair]
        if self.flat is None:
            self.flat = np.concatenate([np.ravel(np.asarray(t, dtype=np.float64))
                                        for t in tensors])
        views, offset = [], 0
        for t in tensors:
            views.append(self.flat[offset:offset + np.size(t)].reshape(np.shape(t)))
            offset += np.size(t)
        self.weights, self.biases = views[0::2], views[1::2]
        self.sizes = tuple(w.shape[0] for w in self.weights) + (self.weights[-1].shape[1],)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "MlpParams":
        return MlpParams(self.weights, self.biases, self.flat.copy())

    def named_tensors(self):
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            yield f"W{i}", w
            yield f"b{i}", b

    def check_finite(self) -> None:
        if np.isfinite(self.flat).all():
            return
        for name, arr in self.named_tensors():
            if not np.all(np.isfinite(arr)):
                raise FloatingPointError(f"non-finite gradient in tensor {name}")

    def _hidden_buffers(self, rows: int) -> list[np.ndarray]:
        if rows not in self._acts:
            self._acts[rows] = [np.empty((rows, w.shape[1])) for w in self.weights[:-1]]
        return self._acts[rows]


def init_mlp(input_dim: int, hidden_dim: int, output_dim: int,
             rng: np.random.Generator) -> MlpParams:
    """Two hidden ReLU layers, linear output.

    Weights are uniform in +-1/sqrt(fan_in); biases start at zero.
    """
    sizes = (input_dim, hidden_dim, hidden_dim, output_dim)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases)


def zeros_like_params(params: MlpParams) -> MlpParams:
    return MlpParams(params.weights, params.biases, np.zeros_like(params.flat))


def _as_batch(x: np.ndarray, expected_dim: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != expected_dim:
        raise ValueError(f"{what} has shape {x.shape}, expected (*, {expected_dim})")
    return x


@dataclass
class ForwardCache:
    """Input and hidden activations of a forward pass, for one backward pass.

    ``hidden`` holds the network's own buffers (see the module docstring);
    ``spent`` is set by the backward pass that overwrites them.
    """

    x: np.ndarray
    hidden: list[np.ndarray]
    spent: bool = False


# zero-padded operands of one-column products, by product shape: an (rows, 2)
# pad for ``a`` and a (2, cols) pad for ``b``, each with a view of the part
# that is written.  They are made zeroed, only that part is ever written, and
# their contents never outlive a call.
_PADS: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` into ``out``, or into a fresh array when ``out`` is None.

    When ``a`` has one column, every element of the product is a single
    ``a_i * b_j``, and numpy's own loop for that case runs far below BLAS
    speed.  The operands go instead into pads whose second column (of ``a``)
    and second row (of ``b``) are zero, and the two-column matmul runs on
    those.  Each element is then ``a_i * b_j`` plus ``0 * 0 = +0.0``, and
    adding +0.0 is exact, so in any order and with or without FMA it is
    fl(a_i * b_j) with -0.0 turned into +0.0.  The one-column matmul starts
    its sum from +0.0, which gives the same bits.
    """
    if a.shape[1] != 1:
        return np.matmul(a, b, out=out)
    shape = (a.shape[0], b.shape[1])
    pads = _PADS.get(shape)
    if pads is None:
        pad_a, pad_b = np.zeros((shape[0], 2)), np.zeros((2, shape[1]))
        pads = _PADS[shape] = (pad_a, pad_b, pad_a[:, :1], pad_b[:1])
    pad_a, pad_b, column, row = pads
    np.copyto(column, a)
    np.copyto(row, b)
    return np.matmul(pad_a, pad_b, out=out)


def mlp_forward_cached(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass; the cache serves one backward pass, until the next
    forward of ``params`` at this batch size."""
    x2d = _as_batch(x, params.sizes[0], "input")
    hidden, h = params._hidden_buffers(x2d.shape[0]), x2d
    for buf, w, b in zip(hidden, params.weights[:-1], params.biases[:-1]):
        _matmul(h, w, buf)
        buf += b
        h = np.maximum(buf, 0.0, out=buf)
    out = _matmul(h, params.weights[-1])
    out += params.biases[-1]
    return out, ForwardCache(x2d, hidden)


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Evaluate the network; deterministic, float64.  Like every forward, it
    replaces the cache of ``params`` at this batch size."""
    y, _ = mlp_forward_cached(params, x)  # which checks ``x``
    return y[0] if np.ndim(x) == 1 else y


def _backprop(params: MlpParams, cache: ForwardCache, output_grad: np.ndarray,
              grads: MlpParams | None) -> np.ndarray | None:
    """Carry ``output_grad`` back from the output: into the parameter
    gradients ``grads`` when given, else to the input, whose gradient it
    returns.  Each hidden layer's ReLU mask ``h > 0`` (which equals ``z > 0``)
    is read before its gradient overwrites ``h``, which spends the cache."""
    upstream = _as_batch(output_grad, params.sizes[-1], "output_grad")
    if upstream.shape[0] != cache.x.shape[0]:
        raise ValueError("output_grad batch size does not match forward input")
    if cache.spent:
        raise ValueError("cache already spent by a backward pass; run the forward again")
    cache.spent = True
    for i in range(params.n_layers - 1, -1, -1):
        if grads is not None:
            inp = cache.x if i == 0 else cache.hidden[i - 1]
            np.matmul(inp.T, upstream, out=grads.weights[i])
            np.add.reduce(upstream, axis=0, out=grads.biases[i])
        if i == 0:
            return None if grads is not None else _matmul(upstream, params.weights[0].T)
        h = cache.hidden[i - 1]
        mask = h > 0.0
        upstream = _matmul(upstream, params.weights[i].T, h)
        upstream *= mask


def mlp_backward_cached(params: MlpParams, cache: ForwardCache, output_grad: np.ndarray,
                        out: MlpParams | None = None) -> MlpParams:
    """Exact gradients of <output, output_grad> w.r.t. the parameters only.

    They go into ``out`` when it is given (every element is overwritten) and
    into a fresh container otherwise."""
    grads = zeros_like_params(params) if out is None else out
    _backprop(params, cache, output_grad, grads)
    return grads


def mlp_input_grad(params: MlpParams, cache: ForwardCache,
                   output_grad: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the input only; skips the parameter gradients."""
    return _backprop(params, cache, output_grad, None)


@dataclass
class TrainedNet:
    """One trained network: its parameters, its Polyak target if it has one,
    the gradient buffer (overwritten by each backward pass), and the Adam
    moments ``m`` and ``v`` (flat, in the layout of ``params.flat``) and
    step count ``t`` of its updates."""

    params: MlpParams
    target: MlpParams | None = None
    grads: MlpParams = field(init=False, repr=False)
    m: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)
    t: int = 0

    def __post_init__(self):
        self.grads = zeros_like_params(self.params)
        self.m = np.zeros_like(self.params.flat)
        self.v = np.zeros_like(self.params.flat)


def adam_step(net: TrainedNet, lr: float) -> None:
    """One Adam update of ``net``'s parameters from its gradients, in place."""
    net.grads.check_finite()
    net.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** net.t
    bc2 = 1.0 - ADAM_BETA2 ** net.t
    m, v, g = net.m, net.v, net.grads.flat
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * np.square(g)
    net.params.flat -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)

