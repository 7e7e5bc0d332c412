"""Flat key=value run configuration.

One file drives an entire run: pipeline knobs, model architecture, training
and optimizer settings. ``#`` starts a comment, blank lines are ignored,
unknown keys are fatal. Every key has a default, so an empty (or absent)
config is a valid run.
"""

from dataclasses import dataclass, replace

from .errors import ConfigError
from .model import ModelConfig
from .optim import OptimConfig
from .pipeline import PrepareConfig
from .textio import float_tuple, int_tuple
from .training import TrainConfig


def _bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"expected on/off, got {raw!r}")


# key -> (parser, default)
SCHEMA = {
    # pipeline
    "lookback": (int, 64),
    "horizon": (int, 1),
    "corr_threshold": (float, 0.5),
    "pca": (_bool, True),
    "pca_variance": (float, 0.95),
    "split_ratios": (float_tuple, (0.7, 0.2, 0.1)),
    "split_mode": (str, "chronological"),
    # model
    "conv_filters": (int_tuple, (32, 64, 64)),
    "kernel_width": (int, 3),
    "pool_window": (int, 2),
    "lstm_units": (int_tuple, (64, 64, 64)),
    "dropout_rate": (float, 0.2),
    # training
    "epochs": (int, 50),
    "batch_size": (int, 32),
    "shuffle": (_bool, True),
    # optimizer
    "optimizer": (str, "sgd"),
    "lr0": (float, 0.01),
    "decay_factor": (float, 0.96),
    "decay_every": (int, 5),
    "l2": (float, 1e-4),
    "beta1": (float, 0.9),
    "beta2": (float, 0.999),
    "eps_adam": (float, 1e-8),
    # shared
    "seed": (int, 42),
}


@dataclass
class RunConfig:
    """Union of every knob, materialized from SCHEMA defaults plus overrides."""

    values: dict

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key) from None

    def with_seed(self, seed: int) -> "RunConfig":
        updated = dict(self.values)
        updated["seed"] = seed
        return replace(self, values=updated)

    def prepare_config(self) -> PrepareConfig:
        return PrepareConfig(
            lookback=self.lookback,
            horizon=self.horizon,
            corr_threshold=self.corr_threshold,
            pca=self.pca,
            pca_variance=self.pca_variance,
            ratios=self.split_ratios,
            split_mode=self.split_mode,
            seed=self.seed,
        ).validate()

    def model_config(self, features: int, lookback: int = None) -> ModelConfig:
        return ModelConfig(
            features=features,
            lookback=self.lookback if lookback is None else lookback,
            conv_filters=self.conv_filters,
            kernel_width=self.kernel_width,
            pool_window=self.pool_window,
            lstm_units=self.lstm_units,
            dropout_rate=self.dropout_rate,
            seed=self.seed,
        ).validate()

    def optim_config(self) -> OptimConfig:
        return OptimConfig(
            optimizer=self.optimizer,
            lr0=self.lr0,
            decay_factor=self.decay_factor,
            decay_every=self.decay_every,
            l2=self.l2,
            beta1=self.beta1,
            beta2=self.beta2,
            eps_adam=self.eps_adam,
        ).validate()

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            optim=self.optim_config(),
            seed=self.seed,
            shuffle=self.shuffle,
        ).validate()


def default_config() -> RunConfig:
    return RunConfig(values={k: default for k, (_, default) in SCHEMA.items()})


def parse_config_text(text: str, origin: str = "<config>") -> RunConfig:
    values = {k: default for k, (_, default) in SCHEMA.items()}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}, line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{origin}, line {lineno}: unknown key {key!r}")
        parser, _ = SCHEMA[key]
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{origin}, line {lineno}: bad value for {key}: {exc}") from None
    return RunConfig(values=values)


def load_config(path=None) -> RunConfig:
    if path is None:
        return default_config()
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, origin=str(path))
