"""Forward and backward passes for the five layer types in the network.

Conventions shared by every op here:

* A single sample is rank-2 ``[T, features]`` (rank-1 ``[features]`` for the
  dense layer). Each op also accepts the same input with a leading batch
  axis; outputs and input-gradients then carry the batch axis too, while
  parameter gradients are *summed* over the batch (the model averages).
* ``forward`` returns ``(output, cache)``; the cache holds exactly the
  intermediates the matching ``backward`` needs and is consumed by it.
* Backward passes are exact analytic gradients of the forward map.

LSTM cell, gate order i, f, o, g:

    i,f,o = sigmoid(W x_t + U h_{t-1} + b)      g = tanh(W x_t + U h_{t-1} + b)
    c_t = f * c_{t-1} + i * g                   h_t = o * tanh(c_t)

with h_0 = c_0 = 0.

The LSTM kernels keep ``LstmParams`` per gate but stack it on each call into
W [4H,F], U [4H,H] and b [4H], gates in the order o, i, f, g. The rows of
the three sigmoid gates are multiplied by 0.5, which is exact because the
factor is a power of two, so one ``tanh`` over a step's [B,4H] block gives
every gate: sigmoid(z) = (tanh(z/2) + 1) / 2 for o, i, f and tanh(z) for g.
The input is projected for all steps by one GEMM over [T*B,F]. The gate, c,
tanh(c) and h buffers are time-major ([T,B,.]), so a step reads and writes
contiguous blocks with one recurrent GEMM and in-place elementwise calls;
outputs are batch-major views. Backward forms every gate's derivative factor
for all steps before the loop, keeps only the [B,H] chain and one
``dpre_t @ U`` GEMM inside it, and then gets dW, dU, db and grad_x as one
GEMM or sum each over dpre [T*B,4H].

Max pooling keeps its input and output; backward sends each gradient to the
earliest position in its window that equals the max.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, SequenceTooShortError

GATES = ("i", "f", "o", "g")
# stacking order inside the LSTM kernels: the three sigmoid gates first, and
# the three gates whose derivative goes through dc last
_ORDER = ("o", "i", "f", "g")


@dataclass
class Conv1dParams:
    kernels: np.ndarray  # [K_out, W, F_in]
    bias: np.ndarray  # [K_out]

    def __post_init__(self):
        if self.kernels.ndim != 3:
            raise ShapeError(f"conv kernels must be [K,W,F], got {self.kernels.shape}")
        if self.bias.shape != (self.kernels.shape[0],):
            raise ShapeError(
                f"conv bias shape {self.bias.shape} does not match {self.kernels.shape[0]} kernels"
            )


@dataclass
class LstmParams:
    """Per-gate input weights [H,F], recurrent weights [H,H] and biases [H]."""

    w: dict  # gate -> [H, F_in]
    u: dict  # gate -> [H, H]
    b: dict  # gate -> [H]

    def __post_init__(self):
        h, f = self.w["i"].shape
        for g in GATES:
            if self.w[g].shape != (h, f) or self.u[g].shape != (h, h) or self.b[g].shape != (h,):
                raise ShapeError(f"LSTM gate '{g}' weights disagree on hidden/input size")

    @property
    def hidden_size(self) -> int:
        return self.w["i"].shape[0]

    @property
    def input_size(self) -> int:
        return self.w["i"].shape[1]


@dataclass
class DenseParams:
    weight: np.ndarray  # [out, in]
    bias: np.ndarray  # [out]

    def __post_init__(self):
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ShapeError(
                f"dense weight {self.weight.shape} and bias {self.bias.shape} disagree"
            )


@dataclass
class LayerCache:
    kind: str
    data: dict = field(default_factory=dict)
    batched: bool = True  # False when forward saw a single unbatched sample


def _as_batch3(x: np.ndarray, what: str):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        return x[None, :, :], False
    if x.ndim == 3:
        return x, True
    raise ShapeError(f"{what} expects [T,F] or [B,T,F], got shape {x.shape}")


def _windows(x3: np.ndarray, width: int) -> np.ndarray:
    # view [B, T-W+1, F, W]; zero-copy
    return np.lib.stride_tricks.sliding_window_view(x3, width, axis=1)


# --- Conv1D (valid padding, stride 1) ---


def conv1d_forward(x: np.ndarray, p: Conv1dParams):
    """y[t,k] = b[k] + sum_{w,f} kernels[k,w,f] * x[t+w,f]; output length T-W+1."""
    x3, batched = _as_batch3(x, "conv1d_forward")
    k_out, width, f_in = p.kernels.shape
    if x3.shape[2] != f_in:
        raise ShapeError(
            f"conv1d input has {x3.shape[2]} features but kernels expect {f_in}"
        )
    t = x3.shape[1]
    if t < width:
        raise SequenceTooShortError(
            f"conv1d needs at least {width} time steps, got {t}"
        )
    win = _windows(x3, width)  # [B, T', F, W]
    y = np.tensordot(win, p.kernels, axes=([3, 2], [1, 2])) + p.bias  # [B, T', K]
    cache = LayerCache("conv1d", {"x": x3, "params": p}, batched)
    return (y if batched else y[0]), cache


def conv1d_backward(grad_y: np.ndarray, cache: LayerCache):
    """Gradients of conv1d_forward: returns (grad_x, grad_kernels, grad_bias)."""
    if cache.kind != "conv1d":
        raise ShapeError(f"conv1d_backward got a {cache.kind!r} cache")
    x3 = cache.data["x"]
    p: Conv1dParams = cache.data["params"]
    k_out, width, f_in = p.kernels.shape
    t_out = x3.shape[1] - width + 1
    g = np.asarray(grad_y, dtype=np.float64)
    if not cache.batched:
        g = g[None]
    if g.shape != (x3.shape[0], t_out, k_out):
        raise ShapeError(
            f"conv1d_backward: gradient shape {grad_y.shape} does not match "
            f"cached forward output {(x3.shape[0], t_out, k_out)}"
        )
    win = _windows(x3, width)  # [B, T', F, W]
    grad_bias = g.sum(axis=(0, 1))
    # [K, F, W] -> [K, W, F]
    grad_kernels = np.tensordot(g, win, axes=([0, 1], [0, 1])).transpose(0, 2, 1)
    grad_x = np.zeros_like(x3)
    for w in range(width):
        grad_x[:, w : w + t_out, :] += g @ p.kernels[:, w, :]
    if not cache.batched:
        grad_x = grad_x[0]
    return grad_x, np.ascontiguousarray(grad_kernels), grad_bias


# --- MaxPooling1D (non-overlapping windows, remainder dropped) ---


def maxpool1d_forward(x: np.ndarray, window: int):
    """Max over consecutive windows; output length floor(T/window), ties -> earliest."""
    if window < 1:
        raise ConfigError(f"pool window must be >= 1, got {window}")
    x3, batched = _as_batch3(x, "maxpool1d_forward")
    b, t, k = x3.shape
    if t < window:
        raise SequenceTooShortError(
            f"maxpool1d needs at least {window} time steps, got {t}"
        )
    t_out = t // window
    blocks = x3[:, : t_out * window, :].reshape(b, t_out, window, k)
    # folded from the last position: np.maximum returns its second operand
    # on a tie, so an exact tie (e.g. -0.0 against 0.0) keeps the earliest
    y = blocks[:, :, window - 1, :].copy()
    for j in range(window - 2, -1, -1):
        np.maximum(y, blocks[:, :, j, :], out=y)
    cache = LayerCache("maxpool1d", {"x": x3, "y": y, "window": window}, batched)
    return (y if batched else y[0]), cache


def maxpool1d_backward(grad_y: np.ndarray, cache: LayerCache):
    """Route each output gradient to the earliest input position holding the max."""
    if cache.kind != "maxpool1d":
        raise ShapeError(f"maxpool1d_backward got a {cache.kind!r} cache")
    x3 = cache.data["x"]
    y = cache.data["y"]
    window = cache.data["window"]
    b, t, k = x3.shape
    t_out = y.shape[1]
    g = np.asarray(grad_y, dtype=np.float64)
    if not cache.batched:
        g = g[None]
    if g.shape != y.shape:
        raise ShapeError(
            f"maxpool1d_backward: gradient shape {grad_y.shape} does not match "
            f"cached forward output {y.shape}"
        )
    blocks = x3[:, : t_out * window, :].reshape(b, t_out, window, k)
    grad_x = np.zeros((b, t, k))
    # splitting one axis of a slice is always a view, so writes land in grad_x
    grad_blocks = grad_x[:, : t_out * window, :].reshape(b, t_out, window, k)
    # multiplying by the 0/1 mask is exact for finite gradients and, unlike a
    # masked copy, runs at full vector speed; adding 0.0 at the end turns the
    # -0.0 that g * False gives where g < 0 into +0.0
    unrouted = np.ones(y.shape, dtype=bool)
    for j in range(window - 1):
        hit = blocks[:, :, j, :] == y
        hit &= unrouted
        np.multiply(g, hit, out=grad_blocks[:, :, j, :])
        unrouted ^= hit
    np.multiply(g, unrouted, out=grad_blocks[:, :, window - 1, :])
    grad_blocks += 0.0
    return grad_x if cache.batched else grad_x[0]


# --- LSTM ---


def lstm_forward(x: np.ndarray, p: LstmParams, return_sequence: bool):
    """Run the gated recurrence over T steps from h_0 = c_0 = 0.

    Returns the full hidden sequence ``[T,H]`` when ``return_sequence`` else
    the final state ``[H]`` (batched variants carry the leading axis).
    """
    x3, batched = _as_batch3(x, "lstm_forward")
    b, t, f = x3.shape
    if f != p.input_size:
        raise ShapeError(
            f"lstm input has {f} features but params expect {p.input_size}"
        )
    hs = p.hidden_size
    w, u, bias = (np.concatenate([part[g] for g in _ORDER]) for part in (p.w, p.u, p.b))
    # sigmoid(z) = (tanh(z / 2) + 1) / 2: halving the o, i, f rows is exact
    scale = np.ones((4 * hs, 1))
    scale[: 3 * hs] = 0.5
    u_scaled_t = (u * scale).T
    x_tm = np.ascontiguousarray(x3.transpose(1, 0, 2)).reshape(t * b, f)
    gates = x_tm @ (w * scale).T
    # in place: a second array this size costs more in page faults than the sum
    gates += bias * scale[:, 0]
    gates = gates.reshape(t, b, 4 * hs)
    c = np.empty((t, b, hs))
    tanh_c = np.empty((t, b, hs))
    h = np.empty((t, b, hs))
    ig = np.empty((b, hs))
    for s in range(t):
        z = gates[s]
        if s:
            z += h[s - 1] @ u_scaled_t
        np.tanh(z, out=z)
        sig = z[:, : 3 * hs]
        sig += 1.0
        sig *= 0.5
        o_t, i_t, f_t, g_t = (z[:, k * hs : (k + 1) * hs] for k in range(4))
        if s:
            np.multiply(f_t, c[s - 1], out=c[s])
            np.multiply(i_t, g_t, out=ig)
            c[s] += ig
        else:
            np.multiply(i_t, g_t, out=c[s])
        np.tanh(c[s], out=tanh_c[s])
        np.multiply(o_t, tanh_c[s], out=h[s])
    cache = LayerCache(
        "lstm",
        {
            "x": x_tm,
            "w": w,
            "u": u,
            "gates": gates,
            "c": c,
            "tanh_c": tanh_c,
            "h": h,
            "return_sequence": return_sequence,
        },
        batched,
    )
    out = h.transpose(1, 0, 2) if return_sequence else h[-1]
    return (out if batched else out[0]), cache


def lstm_backward(grad_out: np.ndarray, cache: LayerCache):
    """Backpropagation through time over all steps.

    Returns ``(grad_x, grad_params)`` where grad_params mirrors LstmParams.
    The derivatives are built in the cache's own buffers, so the cache is
    emptied and cannot be used again.
    """
    if cache.kind != "lstm":
        raise ShapeError(f"lstm_backward got a {cache.kind!r} cache")
    if not cache.data:
        raise ShapeError("lstm_backward got a cache a backward pass already used")
    return_sequence = cache.data["return_sequence"]
    t, b, hs = cache.data["h"].shape
    g_out = np.asarray(grad_out, dtype=np.float64)
    if not cache.batched:
        g_out = g_out[None]
    expected = (b, t, hs) if return_sequence else (b, hs)
    if g_out.shape != expected:
        raise ShapeError(
            f"lstm_backward: gradient shape {grad_out.shape} does not match "
            f"cached forward output {expected}"
        )
    if return_sequence:
        g_out = g_out.transpose(1, 0, 2)
    data, cache.data = cache.data, {}
    dpre, c, tanh_c, h = data["gates"], data["c"], data["tanh_c"], data["h"]

    # Each pre-activation derivative is dc_t (gates i, f, g) or dh_t (gate o)
    # times a factor that needs no recurrence. The factors are formed here for
    # every step, in place of the activations; c and tanh(c) are reused too.
    o, i, f, g = (dpre.reshape(t, b, 4, hs)[:, :, k, :] for k in range(4))
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

    u = data["u"]
    dh = np.zeros((b, hs)) if return_sequence else g_out.copy()
    dc = np.zeros((b, hs))
    tmp = np.empty((b, hs))
    for s in range(t - 1, -1, -1):
        if return_sequence:
            dh += g_out[s]
        np.multiply(dh, dc_per_dh[s], out=tmp)
        dc += tmp
        d_ifg = dpre[s, :, hs:].reshape(b, 3, hs)
        d_ifg *= dc[:, None, :]
        dpre[s, :, :hs] *= dh
        dc *= forget[s]
        if s:
            np.matmul(dpre[s], u, out=dh)

    dpre = dpre.reshape(t * b, 4 * hs)
    dw = dpre.T @ data["x"]
    du = dpre[b:].T @ h[:-1].reshape((t - 1) * b, hs)  # h_0 = 0
    db = dpre.sum(axis=0)
    grad_x = (dpre @ data["w"]).reshape(t, b, -1).transpose(1, 0, 2)
    rows = {gate: slice(k * hs, (k + 1) * hs) for k, gate in enumerate(_ORDER)}
    return (grad_x if cache.batched else grad_x[0]), LstmParams(
        w={gate: dw[r] for gate, r in rows.items()},
        u={gate: du[r] for gate, r in rows.items()},
        b={gate: db[r] for gate, r in rows.items()},
    )


# --- Dropout (inverted: survivors scaled at train time) ---


def dropout(x: np.ndarray, rate: float, training: bool, rng=None):
    """Zero each element with probability ``rate`` and rescale survivors.

    Inference mode is the identity. ``rng`` is required only when a mask is
    actually drawn (training with rate > 0).
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0,1), got {rate}")
    x = np.asarray(x, dtype=np.float64)
    if not training or rate == 0.0:
        cache = LayerCache("dropout", {"mask": None, "rate": rate, "shape": x.shape})
        return x.copy(), cache
    if rng is None:
        raise ConfigError("dropout in training mode needs an rng")
    mask = rng.random(x.shape) >= rate
    y = x * mask / (1.0 - rate)
    cache = LayerCache("dropout", {"mask": mask, "rate": rate, "shape": x.shape})
    return y, cache


def dropout_backward(grad_y: np.ndarray, cache: LayerCache):
    if cache.kind != "dropout":
        raise ShapeError(f"dropout_backward got a {cache.kind!r} cache")
    g = np.asarray(grad_y, dtype=np.float64)
    if g.shape != cache.data["shape"]:
        raise ShapeError(
            f"dropout_backward: gradient shape {g.shape} does not match "
            f"cached input shape {cache.data['shape']}"
        )
    mask = cache.data["mask"]
    if mask is None:
        return g.copy()
    return g * mask / (1.0 - cache.data["rate"])


# --- Dense (linear, no activation) ---


def dense_forward(x: np.ndarray, p: DenseParams):
    """y = W x + b for a single sample [in] or a batch [B, in]."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x2, batched = x[None, :], False
    elif x.ndim == 2:
        x2, batched = x, True
    else:
        raise ShapeError(f"dense_forward expects [in] or [B,in], got {x.shape}")
    if x2.shape[1] != p.weight.shape[1]:
        raise ShapeError(
            f"dense input has {x2.shape[1]} features but weight expects {p.weight.shape[1]}"
        )
    y = x2 @ p.weight.T + p.bias
    cache = LayerCache("dense", {"x": x2, "params": p}, batched)
    return (y if batched else y[0]), cache


def dense_backward(grad_y: np.ndarray, cache: LayerCache):
    if cache.kind != "dense":
        raise ShapeError(f"dense_backward got a {cache.kind!r} cache")
    x2 = cache.data["x"]
    p: DenseParams = cache.data["params"]
    g = np.asarray(grad_y, dtype=np.float64)
    if not cache.batched:
        g = g[None]
    if g.shape != (x2.shape[0], p.weight.shape[0]):
        raise ShapeError(
            f"dense_backward: gradient shape {grad_y.shape} does not match "
            f"cached forward output {(x2.shape[0], p.weight.shape[0])}"
        )
    grad_w = g.T @ x2
    grad_b = g.sum(axis=0)
    grad_x = g @ p.weight
    if not cache.batched:
        grad_x = grad_x[0]
    return grad_x, grad_w, grad_b
