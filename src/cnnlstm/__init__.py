"""OHLCV forecasting toolkit.

A self-contained pipeline from raw daily stock data to price forecasts:
three-sigma cleaning, mean imputation, moving-average/yield features,
correlation-based selection, PCA, and a conv/pool/LSTM stack trained with
hand-derived backpropagation under SGD or Adam.
"""

from .config import RunConfig, default_config, load_config, parse_config_text
from .errors import CnnLstmError
from .metrics import MetricsReport, explained_variance, max_error, r2
from .model import Model, ModelConfig, build, forward, grad_check, load, save
from .optim import OptimConfig, adam_step, mse, schedule_lr, sgd_step
from .pipeline import (
    FeatureFrame,
    PrepareConfig,
    PreparedData,
    WindowedDataset,
    load_dataset,
    load_ohlcv,
    prepare_dataset,
    save_dataset,
)
from .synth import synthetic_ohlcv
from .training import TrainConfig, TrainReport, evaluate, predict, train

__version__ = "0.1.0"

__all__ = [
    "CnnLstmError",
    "FeatureFrame",
    "MetricsReport",
    "Model",
    "ModelConfig",
    "OptimConfig",
    "PrepareConfig",
    "PreparedData",
    "RunConfig",
    "TrainConfig",
    "TrainReport",
    "WindowedDataset",
    "adam_step",
    "build",
    "default_config",
    "evaluate",
    "explained_variance",
    "forward",
    "grad_check",
    "load",
    "load_config",
    "load_dataset",
    "load_ohlcv",
    "max_error",
    "mse",
    "parse_config_text",
    "predict",
    "prepare_dataset",
    "r2",
    "save",
    "save_dataset",
    "schedule_lr",
    "sgd_step",
    "synthetic_ohlcv",
    "train",
]
