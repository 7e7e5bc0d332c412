"""Loss, learning-rate schedule, and the two parameter-update rules.

Both rules update the model's flat parameter vector ``theta`` in place.
Every weight comes before every bias in ``theta`` (see ``model.layout``),
so the L2 penalty is an additive ``l2 * w`` term in the gradient of the
prefix ``theta[:n_weights]``; the biases after it are never decayed. For
Adam the penalty enters the gradient before the moment updates (classic
Adam-with-L2, not decoupled).
"""

from dataclasses import dataclass

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
    """Adam's settings, the step count, and the first and second moments of
    every entry of ``theta``; ``adam_step`` updates it in place."""

    cfg: OptimConfig
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_adam_state(theta: np.ndarray, cfg: OptimConfig) -> AdamState:
    return AdamState(cfg, np.zeros_like(theta), np.zeros_like(theta))


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


def _penalised(theta: np.ndarray, grad: np.ndarray, l2: float, n_weights: int) -> np.ndarray:
    """``grad`` plus ``l2 * w`` on the weights ``theta[:n_weights]``; a new
    array unless ``l2`` is zero."""
    if grad.shape != theta.shape:
        raise ShapeError(f"gradient has shape {grad.shape}, theta has {theta.shape}")
    if l2 == 0.0:
        return grad
    grad = grad.copy()
    grad[:n_weights] += l2 * theta[:n_weights]
    return grad


def sgd_step(theta: np.ndarray, grad: np.ndarray, lr: float, l2: float, n_weights: int):
    """w <- w - lr*(g + l2*w) for weights, w <- w - lr*g for biases, in place."""
    theta -= lr * _penalised(theta, grad, l2, n_weights)


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState, lr: float, l2: float,
              n_weights: int):
    """Standard bias-corrected Adam; updates ``theta`` and ``state`` in place."""
    g = _penalised(theta, grad, l2, n_weights)
    state.t += 1
    beta1, beta2 = state.cfg.beta1, state.cfg.beta2
    state.m *= beta1
    state.m += (1.0 - beta1) * g
    state.v *= beta2
    state.v += (1.0 - beta2) * g * g
    m_hat = state.m / (1.0 - beta1**state.t)
    v_hat = state.v / (1.0 - beta2**state.t)
    theta -= lr * m_hat / (np.sqrt(v_hat) + state.cfg.eps_adam)
