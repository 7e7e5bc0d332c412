"""Forward and backward passes for the five layer types in the network.

Conventions shared by every op here:

* The API is batch-major: every op takes a batch ``[B, T, features]``
  (``[B, features]`` for the dense layer), and a single sample is a batch of
  one. Outputs and input-gradients carry the batch axis, while parameter
  gradients are *summed* over the batch (the model's caller divides).
* Storage is time-major and batch-minor. Each op keeps its input, cache,
  output and input-gradient as contiguous ``[T, C, B]`` arrays (``[C, B]``
  for the dense layer) and returns the caller's batch-major view of its
  result, not a copy. An op copies an argument only when the argument's
  ``[T, C, B]`` view is not contiguous, so the layers of ``model.forward``
  and ``model.backward`` hand each other views and nothing is copied
  between them. In this layout one time step of the batch is one
  contiguous ``[C, B]`` block: the conv's windows, the LSTM's gates and
  state, and each step's GEMM operands are contiguous, with the batch axis
  innermost.
* numpy reports arbitrary strides (often 0) for a size-1 axis such as
  B = 1 or C = 1, so a strided view of the storage takes its strides from
  the shape, never from the array's ``strides``.
* ``forward`` returns ``(output, cache)``; the cache holds exactly the
  intermediates the matching ``backward`` needs and is consumed by it. It
  refers to the parameter arrays rather than copying them, so the backward
  must run before they are updated. A forward that no backward follows
  (``training`` false) returns no cache and keeps only what its next step
  reads: the LSTM's state is two steps deep. No op writes into its input or
  its upstream gradient.
* Backward passes are exact analytic gradients of the forward map.

Conv1d lowers the convolution to one GEMM over unfolded windows: window t of
``[T, C, B]`` storage is rows t..t+W-1, one contiguous ``[W*C, B]`` block, so
im2col is a read-only strided view ``[T', W*C, B]`` and the output is one
batched matmul with the kernels as ``[K, W*C]``.

LSTM cell:

    o,i,f = sigmoid(W x_t + U h_{t-1} + b)      g = tanh(W x_t + U h_{t-1} + b)
    c_t = f * c_{t-1} + i * g                   h_t = o * tanh(c_t)

with h_0 = c_0 = 0.

``LstmParams`` holds W [4H,F], U [4H,H] and b [4H] stacked, each gate's H
rows in ``GATES`` order: o, i, f, g. The rows of the three sigmoid gates are
multiplied by 0.5, which is exact because the factor is a power of two, so
one ``tanh`` over a step's [4H,B] block gives every gate:
sigmoid(z) = (tanh(z/2) + 1) / 2 for o, i, f and tanh(z) for g.
A step is a ``W @ x_t`` and a ``U @ h_{t-1}`` GEMM into its [4H,B] gate
block and in-place elementwise calls, each gate a contiguous [H,B] block.
Backward forms every gate's derivative factor for all steps before the loop,
keeps only the [H,B] chain and one ``U.T @ dpre_t`` GEMM inside it, and then
gets dW, dU, db and grad_x after it.

Max pooling keeps its input and output; backward sends each gradient to the
earliest position in its window that equals the max.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# the order of the gates' rows in LstmParams: the three sigmoid gates first,
# and the three gates whose derivative goes through dc last
GATES = ("o", "i", "f", "g")


@dataclass
class Conv1dParams:
    kernels: np.ndarray  # [K_out, W, F_in]
    bias: np.ndarray  # [K_out]

    def __post_init__(self):
        if self.kernels.ndim != 3:
            raise ConfigError(f"conv kernels must be [K,W,F], got {self.kernels.shape}")
        if self.bias.shape != (self.kernels.shape[0],):
            raise ConfigError(
                f"conv bias shape {self.bias.shape} does not match {self.kernels.shape[0]} kernels"
            )


@dataclass
class LstmParams:
    """Input weights W [4H,F], recurrent weights U [4H,H] and biases b [4H],
    each gate's H rows in ``GATES`` order."""

    w: np.ndarray
    u: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        h = self.u.shape[-1]
        shapes = (self.w.shape[:1], self.u.shape, self.b.shape)
        if self.w.ndim != 2 or shapes != ((4 * h,), (4 * h, h), (4 * h,)):
            raise ConfigError(
                f"LSTM weights {self.w.shape}, {self.u.shape} and {self.b.shape} "
                "disagree on hidden/input size"
            )


@dataclass
class DenseParams:
    weight: np.ndarray  # [out, in]
    bias: np.ndarray  # [out]

    def __post_init__(self):
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ConfigError(
                f"dense weight {self.weight.shape} and bias {self.bias.shape} disagree"
            )


@dataclass
class LayerCache:
    kind: str
    data: dict = field(default_factory=dict)


def _stored(x: np.ndarray, rank: int, what: str) -> np.ndarray:
    """``x``, a batch of rank-``rank`` samples, as contiguous batch-minor storage."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != rank + 1:
        raise ConfigError(f"{what} expects a batch of rank-{rank} samples, got shape {x.shape}")
    return np.ascontiguousarray(x.transpose(*range(1, rank + 1), 0))


def _caller(yf: np.ndarray) -> np.ndarray:
    """The batch-major view of batch-minor storage ``yf`` that callers see."""
    return yf.transpose(yf.ndim - 1, *range(yf.ndim - 1))


def _upstream(grad: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    """The upstream gradient as storage, checked against the storage ``shape``
    of the cached forward output. The result may share memory with ``grad``."""
    g = np.asarray(grad, dtype=np.float64)
    expected = (shape[-1], *shape[:-1])
    if g.shape != expected:
        raise ConfigError(
            f"{what}: gradient shape {g.shape} does not match cached forward output {expected}"
        )
    return _stored(g, len(shape) - 1, what)


def _im2col(xf: np.ndarray, width: int) -> np.ndarray:
    """Read-only view [T-W+1, W*C, B] of contiguous [T,C,B] storage; its
    strides come from the shape, as a size-1 axis may report any stride."""
    t, c, b = xf.shape
    item = xf.itemsize
    return np.lib.stride_tricks.as_strided(
        xf, (t - width + 1, width * c, b), (c * b * item, b * item, item), writeable=False
    )


# --- Conv1D (valid padding, stride 1) ---


def conv1d_forward(x: np.ndarray, p: Conv1dParams):
    """y[t,k] = b[k] + sum_{w,f} kernels[k,w,f] * x[t+w,f]; output length T-W+1."""
    xf = _stored(x, 2, "conv1d_forward")
    k_out, width, f_in = p.kernels.shape
    t, f, _ = xf.shape
    if f != f_in:
        raise ConfigError(f"conv1d input has {f} features but kernels expect {f_in}")
    if t < width:
        raise ConfigError(
            f"conv1d needs at least {width} time steps, got {t}"
        )
    yf = np.matmul(p.kernels.reshape(k_out, width * f_in), _im2col(xf, width))
    yf += p.bias[:, None]
    cache = LayerCache("conv1d", {"x": xf, "params": p})
    return _caller(yf), cache


def conv1d_backward(grad_y: np.ndarray, cache: LayerCache):
    """Gradients of conv1d_forward: returns (grad_x, grad_kernels, grad_bias)."""
    if cache.kind != "conv1d":
        raise ConfigError(f"conv1d_backward got a {cache.kind!r} cache")
    xf = cache.data["x"]
    p: Conv1dParams = cache.data["params"]
    k_out, width, f_in = p.kernels.shape
    t, _, b = xf.shape
    t_out = t - width + 1
    g = _upstream(grad_y, (t_out, k_out, b), "conv1d_backward")
    # g and the windows as [K, T'*B] and [W*C, T'*B] copies: one GEMM, and
    # a bias sum along contiguous rows
    g2 = g.transpose(1, 0, 2).reshape(k_out, t_out * b)
    cols = _im2col(xf, width).transpose(1, 0, 2).reshape(width * f_in, t_out * b)
    grad_kernels = g2 @ cols.T
    grad_bias = g2.sum(axis=1)
    # each window's gradient, [T', W, C, B], added back at its W shifts
    grad_cols = np.matmul(p.kernels.reshape(k_out, width * f_in).T, g)
    grad_cols = grad_cols.reshape(t_out, width, f_in, b)
    grad_x = np.zeros_like(xf)
    for w in range(width):
        grad_x[w : w + t_out] += grad_cols[:, w]
    return _caller(grad_x), grad_kernels.reshape(p.kernels.shape), grad_bias


# --- MaxPooling1D (non-overlapping windows, remainder dropped) ---


def maxpool1d_forward(x: np.ndarray, window: int):
    """Max over consecutive windows; output length floor(T/window), ties -> earliest."""
    if window < 1:
        raise ConfigError(f"pool window must be >= 1, got {window}")
    xf = _stored(x, 2, "maxpool1d_forward")
    t = xf.shape[0]
    if t < window:
        raise ConfigError(
            f"maxpool1d needs at least {window} time steps, got {t}"
        )
    t_out = t // window
    blocks = xf[: t_out * window].reshape(t_out, window, *xf.shape[1:])
    # folded from the last position: np.maximum returns its second operand
    # on a tie, so an exact tie (e.g. -0.0 against 0.0) keeps the earliest
    y = blocks[:, window - 1].copy()
    for j in range(window - 2, -1, -1):
        np.maximum(y, blocks[:, j], out=y)
    cache = LayerCache("maxpool1d", {"x": xf, "y": y, "window": window})
    return _caller(y), cache


def maxpool1d_backward(grad_y: np.ndarray, cache: LayerCache):
    """Route each output gradient to the earliest input position holding the max."""
    if cache.kind != "maxpool1d":
        raise ConfigError(f"maxpool1d_backward got a {cache.kind!r} cache")
    xf = cache.data["x"]
    y = cache.data["y"]
    window = cache.data["window"]
    g = _upstream(grad_y, y.shape, "maxpool1d_backward")
    t_out = y.shape[0]
    blocks = xf[: t_out * window].reshape(t_out, window, *y.shape[1:])
    grad_x = np.zeros(xf.shape)
    # splitting one axis of a slice is always a view, so writes land in grad_x
    grad_blocks = grad_x[: t_out * window].reshape(blocks.shape)
    # multiplying by the 0/1 mask is exact for finite gradients and, unlike a
    # masked copy, runs at full vector speed; adding 0.0 at the end turns the
    # -0.0 that g * False gives where g < 0 into +0.0
    unrouted = np.ones(y.shape, dtype=bool)
    for j in range(window - 1):
        hit = blocks[:, j] == y
        hit &= unrouted
        np.multiply(g, hit, out=grad_blocks[:, j])
        unrouted ^= hit
    np.multiply(g, unrouted, out=grad_blocks[:, window - 1])
    grad_blocks += 0.0
    return _caller(grad_x)


# --- LSTM ---


def lstm_forward(x: np.ndarray, p: LstmParams, return_sequence: bool, training: bool = True):
    """Run the gated recurrence over T steps from h_0 = c_0 = 0.

    Returns the full hidden sequence ``[B,T,H]`` when ``return_sequence``
    else the final state ``[B,H]``. With ``training`` false no backward can
    follow: the cache is None and the gates and state are kept one and two
    steps deep, and each step projects its own input; in training the gates
    keep every step, and one matmul before the loop projects all of them.
    The views a step writes (each gate, the sigmoid rows, the step's slot of
    each state buffer) are made once per call, before the loop, so a step
    only indexes lists.
    """
    xf = _stored(x, 2, "lstm_forward")
    t, f, b = xf.shape
    if f != p.w.shape[1]:
        raise ConfigError(
            f"lstm input has {f} features but params expect {p.w.shape[1]}"
        )
    if t < 1:
        raise ConfigError("lstm needs at least 1 time step, got 0")
    hs = p.u.shape[1]
    w, u, bias = p.w, p.u, p.b
    # sigmoid(z) = (tanh(z / 2) + 1) / 2: halving the o, i, f rows is exact
    scale = np.ones((4 * hs, 1))
    scale[: 3 * hs] = 0.5
    u_scaled = u * scale
    w_scaled = w * scale
    # one full [4H,B] block: adding it each step costs less than a broadcast
    bias_scaled = np.repeat(bias[:, None] * scale, b, axis=1)
    # ring buffers: step s lives at s % depth, and a depth of T keeps every step
    gates = np.empty((t if training else 1, 4 * hs, b))
    depth = t if training else 2
    c = np.empty((depth, hs, b))
    tanh_c = np.empty((depth, hs, b))
    h = np.empty((t if training or return_sequence else depth, hs, b))
    ig = np.empty((hs, b))
    recurrent = np.empty((4 * hs, b))
    # each step's views, made once per call: a gate slot as (z, its sigmoid
    # rows, o, i, f, g), and step s's slot of each state buffer
    slots = [(z, z[: 3 * hs], *(z[k * hs : (k + 1) * hs] for k in range(4))) for z in gates]
    gates_at, c_at, tanh_c_at, h_at = (
        [views[s % len(views)] for s in range(t)] for views in (slots, list(c), list(tanh_c), list(h))
    )
    if training:  # the gates are T deep: every step's input projection at once
        np.matmul(w_scaled, xf, out=gates)
        gates += bias_scaled
    for s, x_t in enumerate(xf):
        z, sig, o_t, i_t, f_t, g_t = gates_at[s]
        c_t, tanh_c_t, h_t = c_at[s], tanh_c_at[s], h_at[s]
        if not training:
            np.matmul(w_scaled, x_t, out=z)
            z += bias_scaled
        if s:
            np.matmul(u_scaled, h_at[s - 1], out=recurrent)
            z += recurrent
        np.tanh(z, out=z)
        sig += 1.0
        sig *= 0.5
        if s:
            np.multiply(f_t, c_at[s - 1], out=c_t)
            np.multiply(i_t, g_t, out=ig)
            c_t += ig
        else:
            np.multiply(i_t, g_t, out=c_t)
        np.tanh(c_t, out=tanh_c_t)
        np.multiply(o_t, tanh_c_t, out=h_t)
    out = _caller(h if return_sequence else h_at[t - 1])
    if not training:
        return out, None
    cache = LayerCache(
        "lstm",
        {
            "x": xf,
            "w": w,
            "u": u,
            "gates": gates,
            "c": c,
            "tanh_c": tanh_c,
            "h": h,
            "return_sequence": return_sequence,
        },
    )
    return out, cache


def lstm_backward(grad_out: np.ndarray, cache: LayerCache):
    """Backpropagation through time over all steps.

    Returns ``(grad_x, grad_params)``, grad_params an ``LstmParams`` of
    stacked gradients.
    The derivatives are built in the cache's own buffers, so the cache is
    emptied and cannot be used again.
    """
    if cache.kind != "lstm":
        raise ConfigError(f"lstm_backward got a {cache.kind!r} cache")
    if not cache.data:
        raise ConfigError("lstm_backward got a cache a backward pass already used")
    return_sequence = cache.data["return_sequence"]
    t, hs, b = cache.data["h"].shape
    shape = (t, hs, b) if return_sequence else (hs, b)
    g_out = _upstream(grad_out, shape, "lstm_backward")
    data, cache.data = cache.data, {}
    dpre, c, tanh_c, h = data["gates"], data["c"], data["tanh_c"], data["h"]

    # Each pre-activation derivative is dc_t (gates i, f, g) or dh_t (gate o)
    # times a factor that needs no recurrence. The factors are formed here for
    # every step, in place of the activations; c and tanh(c) are reused too.
    o, i, f, g = (dpre[:, k * hs : (k + 1) * hs] for k in range(4))
    forget = f.copy()  # for the loop's dc_{t-1} = dc_t * f_t
    # f <- f (1 - f) c_{t-1}, with c_0 = 0
    np.subtract(1.0, forget, out=f)
    f *= forget
    f[0] = 0.0
    f[1:] *= c[:-1]
    # c <- dc_t / dh_t = o (1 - tanh(c)^2)
    dc_per_dh = c
    np.multiply(tanh_c, tanh_c, out=dc_per_dh)
    np.subtract(1.0, dc_per_dh, out=dc_per_dh)
    dc_per_dh *= o
    # o <- o (1 - o) tanh(c)
    tanh_c *= o
    np.subtract(1.0, o, out=o)
    o *= tanh_c
    # g <- i (1 - g^2) and i <- i (1 - i) g, by way of the free tanh(c) buffer
    d_g = tanh_c
    np.multiply(g, g, out=d_g)
    np.subtract(1.0, d_g, out=d_g)
    d_g *= i
    g *= i
    np.subtract(1.0, i, out=i)
    i *= g
    g[...] = d_g

    u_t = data["u"].T
    # a copy: g_out may be the caller's array, and the loop writes into dh
    dh = np.zeros((hs, b)) if return_sequence else g_out.copy()
    dc = np.zeros((hs, b))
    tmp = np.empty((hs, b))
    for s in range(t - 1, -1, -1):
        if return_sequence:
            dh += g_out[s]
        np.multiply(dh, dc_per_dh[s], out=tmp)
        dc += tmp
        d_ifg = dpre[s, hs:].reshape(3, hs, b)
        d_ifg *= dc
        dpre[s, :hs] *= dh
        dc *= forget[s]
        if s:
            np.matmul(u_t, dpre[s], out=dh)

    # one copy of dpre as [4H, T*B] for the weight gradients
    d2 = dpre.transpose(1, 0, 2).reshape(4 * hs, t * b)
    dw = d2 @ data["x"].transpose(1, 0, 2).reshape(-1, t * b).T
    du = d2[:, b:] @ h[:-1].transpose(1, 0, 2).reshape(hs, (t - 1) * b).T  # h_0 = 0
    db = d2.sum(axis=1)
    grad_x = np.matmul(data["w"].T, dpre)
    return _caller(grad_x), LstmParams(w=dw, u=du, b=db)


# --- Dropout (inverted: survivors scaled at train time) ---


def dropout(x: np.ndarray, rate: float, training: bool, rng=None):
    """Zero each element with probability ``rate`` and rescale survivors.

    Inference mode is the identity. ``rng`` is required only when a mask is
    actually drawn (training with rate > 0). The output keeps the memory
    layout of ``x``.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0,1), got {rate}")
    x = np.asarray(x, dtype=np.float64)
    if not training or rate == 0.0:
        cache = LayerCache("dropout", {"mask": None, "rate": rate, "shape": x.shape})
        return x, cache
    if rng is None:
        raise ConfigError("dropout in training mode needs an rng")
    # drawn in the caller's shape, stored in the layout of x
    mask = np.greater_equal(rng.random(x.shape), rate, out=np.empty_like(x, dtype=bool))
    cache = LayerCache("dropout", {"mask": mask, "rate": rate, "shape": x.shape})
    return _masked(x, mask, rate), cache


def _masked(x: np.ndarray, mask: np.ndarray, rate: float) -> np.ndarray:
    # empty_like keeps the layout of x, where x * mask could be C-ordered
    y = np.multiply(x, mask, out=np.empty_like(x))
    y /= 1.0 - rate
    return y


def dropout_backward(grad_y: np.ndarray, cache: LayerCache):
    if cache.kind != "dropout":
        raise ConfigError(f"dropout_backward got a {cache.kind!r} cache")
    g = np.asarray(grad_y, dtype=np.float64)
    if g.shape != cache.data["shape"]:
        raise ConfigError(
            f"dropout_backward: gradient shape {g.shape} does not match "
            f"cached input shape {cache.data['shape']}"
        )
    mask = cache.data["mask"]
    if mask is None:
        return g
    return _masked(g, mask, cache.data["rate"])


# --- Dense (linear, no activation) ---


def dense_forward(x: np.ndarray, p: DenseParams):
    """y = W x + b for each row of a batch [B, in]."""
    xf = _stored(x, 1, "dense_forward")
    if xf.shape[0] != p.weight.shape[1]:
        raise ConfigError(
            f"dense input has {xf.shape[0]} features but weight expects {p.weight.shape[1]}"
        )
    y = p.weight @ xf
    y += p.bias[:, None]
    cache = LayerCache("dense", {"x": xf, "params": p})
    return _caller(y), cache


def dense_backward(grad_y: np.ndarray, cache: LayerCache):
    if cache.kind != "dense":
        raise ConfigError(f"dense_backward got a {cache.kind!r} cache")
    xf = cache.data["x"]
    p: DenseParams = cache.data["params"]
    g = _upstream(grad_y, (p.weight.shape[0], xf.shape[1]), "dense_backward")
    grad_w = g @ xf.T
    grad_b = g.sum(axis=1)
    grad_x = p.weight.T @ g
    return _caller(grad_x), grad_w, grad_b
