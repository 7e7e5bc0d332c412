"""Training loop, split evaluation, and checkpoint-driven prediction."""

import time
from dataclasses import dataclass, field

import numpy as np

from . import metrics as metrics_mod
from . import pipeline as pl
from .errors import CompatibilityError, ConfigError, DivergenceError, PipelineError
from .model import Model, backward, forward
from .optim import AdamState, OptimConfig, adam_step, init_adam_state, mse, schedule_lr, sgd_step


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    optim: OptimConfig = field(default_factory=OptimConfig)
    seed: int = 0
    shuffle: bool = True

    def validate(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        self.optim.validate()
        return self


@dataclass
class TrainReport:
    train_loss: list  # scaled-space MSE, one entry per epoch
    val_loss: list
    final_metrics: metrics_mod.MetricsReport
    duration_s: float


def _infer(model: Model, inputs: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Inference-mode predictions, chunked to bound cache-free memory."""
    preds = np.empty(inputs.shape[0])
    for start in range(0, inputs.shape[0], chunk):
        part = inputs[start : start + chunk]
        preds[start : start + part.shape[0]], _ = forward(model, part, training=False)
    return preds


def train(
    model: Model,
    dataset: pl.WindowedDataset,
    preprocess: pl.PreprocessState,
    cfg: TrainConfig,
) -> TrainReport:
    """Mini-batch descent over the train split, validated each epoch.

    Shuffling and dropout draw from separate streams spawned off the run
    seed, so loss histories reproduce bit-for-bit across machines. The
    final short batch is trained on; mean-gradient scaling keeps its step
    size consistent. A non-finite loss aborts with the epoch number.
    """
    cfg.validate()
    train_idx = dataset.indices("train")
    val_idx = dataset.indices("val")
    if train_idx.size == 0 or val_idx.size == 0:
        raise PipelineError("training needs non-empty train and validation splits")

    shuffle_ss, dropout_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    dropout_rng = np.random.default_rng(dropout_ss)
    adam_state: AdamState = (
        init_adam_state(model.params) if cfg.optim.optimizer == "adam" else None
    )

    started = time.monotonic()
    train_hist, val_hist = [], []
    # a diverging run overflows before its loss turns non-finite; the checks
    # below report that as DivergenceError, so numpy's warnings add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            lr = schedule_lr(epoch, cfg.optim)
            order = shuffle_rng.permutation(train_idx) if cfg.shuffle else train_idx
            batch_losses = []
            for start in range(0, order.size, cfg.batch_size):
                sel = order[start : start + cfg.batch_size]
                x = dataset.inputs[sel]
                y = dataset.targets[sel]
                preds, caches = forward(model, x, training=True, rng=dropout_rng)
                loss = mse(preds, y)
                if not np.isfinite(loss):
                    raise DivergenceError(
                        epoch + 1, f"training diverged: non-finite loss in epoch {epoch + 1}"
                    )
                # backward averages over the batch, so the upstream is each
                # sample's own squared-error derivative
                grads = backward(model, caches, 2.0 * (preds - y))
                if adam_state is None:
                    model.params = sgd_step(model.params, grads, lr, cfg.optim.l2)
                else:
                    model.params, adam_state = adam_step(
                        model.params,
                        grads,
                        adam_state,
                        lr,
                        cfg.optim.l2,
                        cfg.optim.beta1,
                        cfg.optim.beta2,
                        cfg.optim.eps_adam,
                    )
                batch_losses.append(loss)
            train_hist.append(float(np.mean(batch_losses)))
            val_preds = _infer(model, dataset.inputs[val_idx])
            val_loss = mse(val_preds, dataset.targets[val_idx])
            if not np.isfinite(val_loss):
                raise DivergenceError(
                    epoch + 1,
                    f"training diverged: non-finite validation loss in epoch {epoch + 1}",
                )
            val_hist.append(val_loss)

    final = evaluate(model, dataset, preprocess, "test") if dataset.test_idx.size else None
    return TrainReport(
        train_loss=train_hist,
        val_loss=val_hist,
        final_metrics=final,
        duration_s=time.monotonic() - started,
    )


def evaluate(
    model: Model,
    dataset: pl.WindowedDataset,
    preprocess: pl.PreprocessState,
    split: str = "test",
) -> metrics_mod.MetricsReport:
    """Inference over one split, metrics in inverse-scaled price space."""
    idx = dataset.indices(split)
    if idx.size == 0:
        raise CompatibilityError(f"{split} split is empty")
    preds = _infer(model, dataset.inputs[idx])
    actual = pl.invert_minmax(dataset.targets[idx], preprocess.scaler, "close")
    predicted = pl.invert_minmax(preds, preprocess.scaler, "close")
    return metrics_mod.report(actual, predicted)


def split_predictions(
    model: Model,
    dataset: pl.WindowedDataset,
    preprocess: pl.PreprocessState,
    split: str = "test",
):
    """(date, actual price, predicted price) rows for one split."""
    idx = dataset.indices(split)
    if idx.size == 0:
        raise CompatibilityError(f"{split} split is empty")
    preds = _infer(model, dataset.inputs[idx])
    actual = pl.invert_minmax(dataset.targets[idx], preprocess.scaler, "close")
    predicted = pl.invert_minmax(preds, preprocess.scaler, "close")
    dates = [dataset.target_dates[i] for i in idx]
    return list(zip(dates, actual.tolist(), predicted.tolist()))


def predict(model: Model, preprocess: pl.PreprocessState, frame: pl.FeatureFrame):
    """Forecast from engineered (pre-scaling) feature rows.

    Applies the stored selection, scaler, and PCA by column name, then runs
    one prediction per complete lookback window. Each returned entry is
    ``(as_of_date, price)``: the forecast for ``horizon`` steps after the
    window's last row.
    """
    lookback = model.config.lookback
    missing = [n for n in preprocess.selected if n not in frame.columns]
    if missing:
        raise CompatibilityError(
            f"frame lacks features the checkpoint needs: {', '.join(missing)}"
        )
    if len(frame) < lookback:
        raise PipelineError(
            f"need at least {lookback} prepared rows, got {len(frame)}"
        )
    narrowed = pl.FeatureFrame(
        dates=list(frame.dates),
        columns={n: frame.columns[n].copy() for n in preprocess.selected},
    )
    scaled = pl.apply_minmax(narrowed, preprocess.scaler)
    modeled = pl.pca_transform(scaled, preprocess.pca) if preprocess.pca else scaled
    x = modeled.matrix(list(modeled.columns))
    if x.shape[1] != model.config.features:
        raise CompatibilityError(
            f"prepared frame has {x.shape[1]} model features, "
            f"checkpoint expects {model.config.features}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(x, lookback, axis=0)
    inputs = np.ascontiguousarray(windows.transpose(0, 2, 1))  # [N', T, F]
    preds = _infer(model, inputs)
    prices = pl.invert_minmax(preds, preprocess.scaler, "close")
    as_of = frame.dates[lookback - 1 :]
    return list(zip(as_of, prices.tolist()))
