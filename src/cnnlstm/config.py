"""Flat key=value run configuration.

One file drives an entire run: pipeline knobs, model architecture, training
and optimizer settings. ``#`` starts a comment, blank lines are ignored,
unknown keys are fatal. Every key has a default, so an empty (or absent)
config is a valid run.

The keys are the fields of ``PrepareConfig``, ``ModelConfig``,
``TrainConfig`` and ``OptimConfig`` that have a plain default (see
``textio.key_fields``); each takes its default and its parser from the
field, and a key two dataclasses share takes the first one's default.
"""

from dataclasses import MISSING, dataclass, fields, replace

from .errors import ConfigError
from .model import ModelConfig
from .optim import OptimConfig
from .pipeline import PrepareConfig
from .textio import field_parser, key_fields
from .training import TrainConfig


def _schema(*classes) -> dict:
    schema = {}
    for cls in classes:
        for f in key_fields(cls):
            if f.default is not MISSING:
                schema.setdefault(f.name, (field_parser(f), f.default))
    return schema


# key -> (parser, default)
SCHEMA = _schema(PrepareConfig, ModelConfig, TrainConfig, OptimConfig)


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

    def build(self, cls, **given):
        """A validated ``cls`` from the values of its fields that are keys, then ``given``."""
        values = {f.name: self.values[f.name] for f in fields(cls) if f.name in self.values}
        return cls(**{**values, **given}).validate()

    def prepare_config(self) -> PrepareConfig:
        return self.build(PrepareConfig)

    def model_config(self, features: int, lookback: int = None) -> ModelConfig:
        lookback = self.lookback if lookback is None else lookback
        return self.build(ModelConfig, features=features, lookback=lookback)

    def train_config(self) -> TrainConfig:
        return self.build(TrainConfig, optim=self.build(OptimConfig))


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
