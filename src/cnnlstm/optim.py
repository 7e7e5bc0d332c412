"""Loss, learning-rate schedule, and the two parameter-update rules.

The L2 penalty is realized as an additive ``l2 * w`` term in the gradient of
every *weight* tensor; bias tensors (names ending in ``bias`` or a ``b_*``
gate component) are never decayed. For Adam the penalty enters the gradient
before the moment updates (classic Adam-with-L2, not decoupled).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass
class OptimConfig:
    optimizer: str = "sgd"  # sgd | adam
    lr0: float = 0.01
    decay_factor: float = 0.96
    decay_every: int = 5
    l2: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8

    def validate(self):
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"optimizer must be sgd or adam, got {self.optimizer!r}")
        # zero is allowed: an lr=0 run is the canonical no-op training check
        if not 0.0 <= self.lr0 < float("inf"):
            raise ConfigError(f"lr0 must be finite and >= 0, got {self.lr0}")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ConfigError(f"decay_factor must be in (0,1], got {self.decay_factor}")
        if self.decay_every < 1:
            raise ConfigError(f"decay_every must be >= 1, got {self.decay_every}")
        if not 0.0 <= self.l2 < float("inf"):
            raise ConfigError(f"l2 must be finite and >= 0, got {self.l2}")
        # checked whichever optimizer runs; a beta of 1 divides by zero in
        # Adam's bias correction
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"beta1 and beta2 must be in [0,1), got {self.beta1}, {self.beta2}")
        if not self.eps_adam > 0.0:
            raise ConfigError(f"eps_adam must be > 0, got {self.eps_adam}")
        return self


@dataclass
class AdamState:
    """First/second moment per parameter plus the shared step counter."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def init_adam_state(params: dict) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
        t=0,
    )


def is_bias(name: str) -> bool:
    leaf = name.rsplit(".", 1)[-1]
    return leaf == "bias" or leaf.startswith("b_")


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    """(1/B) * sum (pred - target)^2 over two equal-length rank-1 tensors."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.ndim != 1 or target.ndim != 1:
        raise ShapeError(f"mse expects rank-1 tensors, got {pred.shape} and {target.shape}")
    if pred.shape != target.shape:
        raise ShapeError(f"mse length mismatch: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise ShapeError("mse needs at least one sample")
    diff = pred - target
    return float(np.mean(diff * diff))


def schedule_lr(epoch: int, cfg: OptimConfig) -> float:
    """Step decay: lr0 * decay_factor^floor(epoch / decay_every)."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr0 * cfg.decay_factor ** (epoch // cfg.decay_every)


def _check_match(params: dict, grads: dict):
    if params.keys() != grads.keys():
        missing = sorted(set(params) ^ set(grads))
        raise ShapeError(f"params/grads key mismatch: {missing}")
    for k in params:
        if params[k].shape != grads[k].shape:
            raise ShapeError(
                f"gradient for {k} has shape {grads[k].shape}, parameter is {params[k].shape}"
            )


def sgd_step(params: dict, grads: dict, lr: float, l2: float = 0.0) -> dict:
    """w <- w - lr*(g + l2*w) for weights, w <- w - lr*g for biases. Pure."""
    _check_match(params, grads)
    out = {}
    for k, w in params.items():
        g = grads[k]
        if l2 != 0.0 and not is_bias(k):
            g = g + l2 * w
        out[k] = w - lr * g
    return out


def adam_step(
    params: dict,
    grads: dict,
    state: AdamState,
    lr: float,
    l2: float = 0.0,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps_adam: float = 1e-8,
):
    """Standard bias-corrected Adam; returns (new params, new state). Pure."""
    _check_match(params, grads)
    t = state.t + 1
    new_m, new_v, out = {}, {}, {}
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for k, w in params.items():
        g = grads[k]
        if l2 != 0.0 and not is_bias(k):
            g = g + l2 * w
        m = beta1 * state.m[k] + (1.0 - beta1) * g
        v = beta2 * state.v[k] + (1.0 - beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        out[k] = w - lr * m_hat / (np.sqrt(v_hat) + eps_adam)
        new_m[k] = m
        new_v[k] = v
    return out, AdamState(m=new_m, v=new_v, t=t)
