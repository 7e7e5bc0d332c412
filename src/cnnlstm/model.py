"""The full network: three conv/pool/LSTM stages feeding a linear unit.

Layer order is fixed:

    Input -> Conv1D -> MaxPool1D -> LSTM(seq) -> Dropout
          -> Conv1D -> MaxPool1D -> LSTM(seq) -> Dropout
          -> Conv1D -> MaxPool1D -> LSTM(last) -> Dense(1)

Conv outputs pass through tanh (the dense head stays linear, the regression
target is a single scaled price). Each conv shortens the sequence by W-1 and
each pool divides it by the pool window; the config validates that the
sequence survives all three stages.

Every parameter lives in one float64 vector ``theta``, laid out by
``layout``: the optimisers update it in place, and ``backward`` returns one
gradient laid out the same way.
"""

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import layers
from .errors import ConfigError, DataError
from .layers import GATES, Conv1dParams, DenseParams, LstmParams
from .optim import mse
from .pipeline import PreprocessState, preprocess_lines, read_preprocess_block
from .textio import array_lines, config_lines, int_tuple, read_config, read_file, write_lines

CKPT_MAGIC = "CNNLSTM-CKPT"
CKPT_VERSION = "v3"


@dataclass
class ModelConfig:
    features: int
    lookback: int = 64
    conv_filters: tuple = (32, 64, 64)
    kernel_width: int = 3
    pool_window: int = 2
    lstm_units: tuple = (64, 64, 64)
    dropout_rate: float = 0.2
    seed: int = 42

    def validate(self):
        if len(self.conv_filters) != 3 or len(self.lstm_units) != 3:
            raise ConfigError("conv_filters and lstm_units must each list 3 stages")
        extents = (self.features, self.lookback, self.kernel_width, self.pool_window,
                   *self.conv_filters, *self.lstm_units)
        if any(int(e) != e or e < 1 for e in extents):
            raise ConfigError(f"all extents must be positive integers: {extents}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0,1), got {self.dropout_rate}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self.stage_lengths()
        return self

    def stage_lengths(self):
        """Sequence length after (conv, pool) of each stage; errors if it dies."""
        t = self.lookback
        out = []
        for stage in range(3):
            after_conv = t - self.kernel_width + 1
            if after_conv < 1:
                raise ConfigError(
                    f"stage {stage + 1}: conv reduces sequence length {t} below 1 "
                    f"(kernel width {self.kernel_width})"
                )
            after_pool = after_conv // self.pool_window
            if after_pool < 1:
                raise ConfigError(
                    f"stage {stage + 1}: pool window {self.pool_window} reduces "
                    f"length {after_conv} below 1"
                )
            out.append((after_conv, after_pool))
            t = after_pool
        return out


CKPT_GATES = ("i", "f", "o", "g")  # the order in which a checkpoint lists an LSTM's gates


def layout(config: ModelConfig):
    """Where each parameter lives in ``theta``: ``(blocks, names, n_weights)``.

    ``blocks`` maps each array a layer reads (``conv1.kernels``, the stacked
    ``lstm1.w``, ``lstm1.u`` and ``lstm1.b``, ...) to its ``(start, shape)``.
    Every weight comes before every bias, so L2 decays the prefix
    ``theta[:n_weights]``. ``names`` maps each checkpoint name, in checkpoint
    order, to its block and the rows of it that it names: ``lstm1.w_i`` is
    gate i's H rows of ``lstm1.w``, whose gates lie in ``layers.GATES`` order.
    """
    weights, biases, names = {}, {}, {}
    whole = slice(None)
    f_in = config.features
    for s, (k, h) in enumerate(zip(config.conv_filters, config.lstm_units), start=1):
        kernels, bias, lstm = f"conv{s}.kernels", f"conv{s}.bias", f"lstm{s}"
        weights.update({kernels: (k, config.kernel_width, f_in),
                        f"{lstm}.w": (4 * h, k), f"{lstm}.u": (4 * h, h)})
        biases.update({bias: (k,), f"{lstm}.b": (4 * h,)})
        names.update({kernels: (kernels, whole), bias: (bias, whole)})
        for gate in CKPT_GATES:
            rows = slice(GATES.index(gate) * h, (GATES.index(gate) + 1) * h)
            names.update({f"{lstm}.{part}_{gate}": (f"{lstm}.{part}", rows) for part in "wub"})
        f_in = h
    weights["dense.weight"], biases["dense.bias"] = (1, f_in), (1,)
    names.update({name: (name, whole) for name in ("dense.weight", "dense.bias")})
    blocks, start = {}, 0
    for name, shape in {**weights, **biases}.items():
        blocks[name] = (start, shape)
        start += math.prod(shape)
    return blocks, names, sum(math.prod(shape) for shape in weights.values())


class Model:
    """A network: its config and every parameter in one float64 vector ``theta``.

    ``blocks`` and ``params`` are views of ``theta``, by layer array and by
    checkpoint name (see ``layout``). ``params`` is read-only: a parameter
    changes by writing into ``theta`` or a view, never by rebinding a name,
    which would detach it from ``theta``.
    """

    def __init__(self, config: ModelConfig, theta=None):
        """``theta``, if given, is the float64 vector to keep the parameters
        in (a buffer shared with another process, say); by default a new
        vector of zeros."""
        self.config = config
        self._layout = layout(config)
        self.n_weights = self._layout[2]
        size = sum(math.prod(shape) for _, shape in self._layout[0].values())
        if theta is None:
            try:
                theta = np.zeros(size)
            except (ValueError, MemoryError) as exc:  # extents read from a file or config
                raise ConfigError(f"a model of {size} parameters cannot be allocated: {exc}") from None
        elif theta.shape != (size,) or theta.dtype != np.float64:
            raise ConfigError(f"theta must be {size} float64 values, got {theta.dtype} {theta.shape}")
        self.theta = theta
        self.blocks, params = self.views(self.theta)
        self.params = MappingProxyType(params)

    def views(self, vec: np.ndarray):
        """``vec``, laid out like ``theta``, as views by block and by checkpoint name."""
        blocks_at, names, _ = self._layout
        blocks = {name: vec[a : a + math.prod(shape)].reshape(shape)
                  for name, (a, shape) in blocks_at.items()}
        return blocks, {name: blocks[block][rows] for name, (block, rows) in names.items()}

    def conv(self, stage: int) -> Conv1dParams:
        return Conv1dParams(self.blocks[f"conv{stage}.kernels"], self.blocks[f"conv{stage}.bias"])

    def lstm(self, stage: int) -> LstmParams:
        return LstmParams(*(self.blocks[f"lstm{stage}.{part}"] for part in "wub"))

    def dense(self) -> DenseParams:
        return DenseParams(self.blocks["dense.weight"], self.blocks["dense.bias"])


def _glorot(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def build(config: ModelConfig) -> Model:
    """Initialize all parameters deterministically from the config seed.

    Glorot-uniform weights; biases zero except the LSTM forget gate at 1.0.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    model = Model(config)
    # drawn in checkpoint order, an LSTM weight gate by gate
    for name, param in model.params.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "kernels":
            k, w, f = param.shape
            param[...] = _glorot(rng, param.shape, w * f, w * k)
        elif leaf == "weight" or leaf[:2] in ("w_", "u_"):
            out, f_in = param.shape
            param[...] = _glorot(rng, param.shape, f_in, out)
        elif leaf == "b_f":
            param[...] = 1.0
    return model


def forward(model: Model, batch: np.ndarray, training: bool, rng=None):
    """Predict one scalar per sample; returns ``(predictions, caches)``.

    In training mode ``caches`` is a list: each stage's ``(conv cache, tanh
    output, pool cache, LSTM cache, dropout cache)``, then the dense cache;
    ``backward`` empties it. Inference keeps no caches and returns None for
    them, so each stage's intermediates are freed as the next stage
    replaces them.
    """
    x = np.asarray(batch, dtype=np.float64)
    cfg = model.config
    if x.ndim != 3 or x.shape[1] != cfg.lookback or x.shape[2] != cfg.features:
        raise ConfigError(
            f"batch shape {x.shape} does not match config "
            f"[B, {cfg.lookback}, {cfg.features}]"
        )
    stages = []
    for stage in (1, 2, 3):
        last = stage == 3
        y, conv_cache = layers.conv1d_forward(x, model.conv(stage))
        np.tanh(y, out=y)
        p, pool_cache = layers.maxpool1d_forward(y, cfg.pool_window)
        h, lstm_cache = layers.lstm_forward(
            p, model.lstm(stage), return_sequence=not last, training=training
        )
        x, drop_cache = (h, None) if last else layers.dropout(h, cfg.dropout_rate, training, rng)
        if training:
            stages.append((conv_cache, y, pool_cache, lstm_cache, drop_cache))
    out, dense_cache = layers.dense_forward(x, model.dense())
    preds = out[:, 0]
    if not training:
        return preds, None
    return preds, stages + [dense_cache]


def backward(model: Model, caches: list, grad_predictions: np.ndarray,
             out=None) -> np.ndarray:
    """Sum over the batch of per-sample parameter gradients, laid out like ``theta``.

    ``caches`` is the list a training-mode ``forward`` returned; it is
    emptied before any gradient is written, so a second call with it fails.
    ``grad_predictions[i]`` is the upstream derivative for sample i's scalar
    prediction. A sum, not a mean, so that the sums of two slices of a batch
    add up to the batch's (see ``loss_sums``). It is written into ``out``, a
    vector like ``theta``, if given.
    """
    if not caches:
        raise ConfigError("backward needs unconsumed caches from a training-mode forward")
    *stages, dense_cache = caches
    caches.clear()
    g = np.asarray(grad_predictions, dtype=np.float64)
    if g.ndim != 1:
        raise ConfigError(f"grad_predictions must be rank-1, got shape {g.shape}")
    # the blocks partition it, and each is written
    grad = np.empty_like(model.theta) if out is None else out
    blocks, _ = model.views(grad)
    dx, blocks["dense.weight"][...], blocks["dense.bias"][...] = layers.dense_backward(
        g[:, None], dense_cache
    )
    for stage in (3, 2, 1):
        conv_cache, a, pool_cache, lstm_cache, drop_cache = stages[stage - 1]
        if drop_cache is not None:
            dx = layers.dropout_backward(dx, drop_cache)
        dx, lstm_grads = layers.lstm_backward(dx, lstm_cache)
        for part in "wub":
            blocks[f"lstm{stage}.{part}"][...] = getattr(lstm_grads, part)
        dx = layers.maxpool1d_backward(dx, pool_cache)
        dx *= 1.0 - a * a  # tanh after conv
        dx, blocks[f"conv{stage}.kernels"][...], blocks[f"conv{stage}.bias"][...] = (
            layers.conv1d_backward(dx, conv_cache)
        )
    return grad


def loss_sums(model: Model, batch, targets, rng, out=None):
    """``(sse, grad_sum)``: the squared-error sum of one training batch, whose
    dropout masks ``rng`` draws, and its exact gradient (the upstream of
    ``backward`` is 2*(pred - target)), laid out like ``theta`` and written
    into ``out`` if given. Divided by B they are bitwise the batch's ``mse``
    and d(MSE)/d(theta); the sums of two slices of a batch add up to its own.
    """
    preds, caches = forward(model, batch, training=True, rng=rng)
    diff = preds - np.asarray(targets)
    return float(np.sum(diff * diff)), backward(model, caches, 2.0 * diff, out)


def _finite_difference(loss, arr: np.ndarray, eps: float) -> np.ndarray:
    """Central differences of ``loss()`` with respect to every entry of ``arr``.

    ``arr`` is perturbed in place, one entry at a time, and restored.
    """
    out = np.zeros_like(arr)
    flat = arr.reshape(-1)  # a view, so the perturbation reaches ``loss``
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        up = loss()
        flat[i] = saved - eps
        down = loss()
        flat[i] = saved
        out.reshape(-1)[i] = (up - down) / (2.0 * eps)
    return out


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


def grad_check(model: Model, batch, targets=None, eps: float = 1e-6, rng_seed: int = 0):
    """Worst relative deviation of analytic vs central finite-difference grads.

    Every forward uses a fresh rng with the same seed, so dropout masks are
    identical across the two-sided evaluations. The deviation for each
    parameter named in the checkpoint, an LSTM gate's rows on their own, is
    max|a-n| / max(max|a|, max|n|, 1e-12); returns ``(worst, per_parameter)``.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if targets is None:
        targets = np.random.default_rng(rng_seed + 1).random(batch.shape[0])
    _, grad = loss_sums(model, batch, targets, np.random.default_rng(rng_seed))
    grad /= batch.shape[0]
    _, analytic = model.views(grad)

    def loss():
        preds, _ = forward(model, batch, training=True, rng=np.random.default_rng(rng_seed))
        return mse(preds, targets)

    report = {
        name: _relative_error(analytic[name], _finite_difference(loss, param, eps))
        for name, param in model.params.items()
    }
    return max(report.values()), report


# --- checkpoint serialization ---


def save(model: Model, preprocess: PreprocessState, path):
    """Write config echo, preprocessing state, and all parameters.

    The header and preprocessing state are text; each parameter is one
    binary64 block line (see ``textio``). A failed save leaves any previous
    file at ``path`` untouched.
    """
    lines = [f"{CKPT_MAGIC} {CKPT_VERSION}", *config_lines(model.config)]
    lines.extend(preprocess_lines(preprocess))
    for name, param in model.params.items():
        lines.append(f"param {name} {','.join(str(d) for d in param.shape)}")
        lines.extend(array_lines(param))
    write_lines(path, lines)


def load(path):
    """Read a checkpoint; returns ``(Model, PreprocessState)``.

    Version, structural, and shape problems raise distinct errors; a line
    after the last parameter block is a structural one.
    """
    reader = read_file(path, CKPT_MAGIC, CKPT_VERSION, "checkpoint")
    config = read_config(reader, ModelConfig)
    preprocess = read_preprocess_block(reader)
    model = Model(config)
    for name, param in model.params.items():
        header = reader.next().split()
        if len(header) != 3 or header[0] != "param":
            raise reader.error(f"expected 'param {name} ...', got {' '.join(header)!r}")
        if header[1] != name:
            raise reader.error(f"expected parameter {name!r}, got {header[1]!r}")
        stored = reader.convert(header[2], int_tuple, f"{name} shape")
        if stored != param.shape:
            raise DataError(
                f"{path}: parameter {name} has shape {stored}, config implies {param.shape}"
            )
        param[...] = reader.read_array(param.size).reshape(param.shape)
    reader.expect_end()
    return model, preprocess


# --- seeded verification instances (used by the gradcheck command) ---


def verification_config(features: int = 3, lookback: int = 16, seed: int = 0) -> ModelConfig:
    return ModelConfig(
        features=features,
        lookback=lookback,
        conv_filters=(4, 4, 4),
        kernel_width=2,
        pool_window=2,
        lstm_units=(4, 4, 4),
        dropout_rate=0.1,
        seed=seed,
    )


def run_gradient_checks(seed: int = 0, eps: float = 1e-6):
    """Per-layer and full-stack finite-difference checks on small instances,
    each layer on a batch of one.

    Returns an ordered list of ``(name, worst_relative_error)``.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    results = []

    def check(name, forward, backward, wrt, out_shape):
        """Weight ``forward()``'s output with a random sheet so the loss is
        scalar, and compare ``backward(sheet, cache)``, one gradient per array
        in ``wrt``, with central differences against that array."""
        sheet = rng.standard_normal(out_shape)

        def loss():
            return float((forward()[0] * sheet).sum())

        grads = backward(sheet, forward()[1])
        results.append((name, max(_relative_error(g, _finite_difference(loss, arr, eps))
                                  for g, arr in zip(grads, wrt, strict=True))))

    x = rng.standard_normal((1, 8, 3))
    p = Conv1dParams(kernels=rng.standard_normal((2, 3, 3)), bias=rng.standard_normal(2))
    check("conv1d", lambda: layers.conv1d_forward(x, p), layers.conv1d_backward,
          [x, p.kernels, p.bias], (1, 6, 2))

    # continuous random input, ties have probability zero
    x = rng.standard_normal((1, 9, 2))
    check("maxpool1d", lambda: layers.maxpool1d_forward(x, 2),
          lambda g, cache: [layers.maxpool1d_backward(g, cache)], [x], (1, 4, 2))

    # T=8, H=4, all params and input; each gate drawn in checkpoint order
    x = rng.standard_normal((1, 8, 3))
    order = [CKPT_GATES.index(gate) for gate in GATES]
    p = LstmParams(
        w=0.5 * rng.standard_normal((4, 4, 3))[order].reshape(16, 3),
        u=0.5 * rng.standard_normal((4, 4, 4))[order].reshape(16, 4),
        b=0.1 * rng.standard_normal((4, 4))[order].reshape(16),
    )

    def by_gate(params):
        """Each gate's rows on their own, so one normaliser cannot hide a small gate's error."""
        return [getattr(params, part)[k * 4 : (k + 1) * 4] for part in "wub" for k in range(4)]

    def lstm_backward(g, cache):
        gx, gp = layers.lstm_backward(g, cache)
        return [gx, *by_gate(gp)]

    check("lstm", lambda: layers.lstm_forward(x, p, return_sequence=True), lstm_backward,
          [x, *by_gate(p)], (1, 8, 4))

    x = rng.standard_normal((1, 5))
    p = DenseParams(weight=rng.standard_normal((2, 5)), bias=rng.standard_normal(2))
    check("dense", lambda: layers.dense_forward(x, p), layers.dense_backward,
          [x, p.weight, p.bias], (1, 2))

    # an identical seed reproduces the mask on every forward
    x = rng.standard_normal((1, 6, 3))
    check("dropout",
          lambda: layers.dropout(x, 0.4, training=True, rng=np.random.default_rng(seed + 7)),
          lambda g, cache: [layers.dropout_backward(g, cache)], [x], (1, 6, 3))

    config = verification_config(seed=seed)
    net = build(config)
    batch = rng.standard_normal((2, config.lookback, config.features))
    targets = rng.random(2)
    results.append(("full_stack", grad_check(net, batch, targets, eps, seed)[0]))
    return results
