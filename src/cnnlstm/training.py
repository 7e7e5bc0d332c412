"""Training loop, split evaluation, and checkpoint-driven prediction.

Inference (validation, evaluation, prediction) goes through ``_infer``, which
cuts its windows into contiguous chunks of at most ``MAX_CHUNK`` and runs them
on as many threads as there are chunks and CPUs left free by BLAS's own
threads, the calling thread included; numpy releases the GIL inside BLAS and
ufunc loops, so the chunks overlap.
The chunk bounds depend on the window count only, so every forecast is
bitwise the same whatever the core count, and every thread runs in a copy of
the caller's context, so numpy's error state (``np.errstate``) holds in each.
"""

import contextvars
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import metrics as metrics_mod
from . import pipeline as pl
from .errors import CompatibilityError, ConfigError, DivergenceError, PipelineError
from .model import Model, forward, loss_gradients
from .optim import OptimConfig, adam_step, init_adam_state, mse, schedule_lr, sgd_step


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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self.optim.validate()
        return self


@dataclass
class TrainReport:
    train_loss: list  # scaled-space MSE, one entry per epoch
    val_loss: list
    final_metrics: metrics_mod.MetricsReport
    duration_s: float


MAX_CHUNK = 128  # windows per forward pass


def _chunk_bounds(n: int) -> list:
    """``(start, stop)`` of ceil(n / MAX_CHUNK) contiguous chunks whose sizes
    differ by at most one, the larger first: 137 -> (0, 69), (69, 137)."""
    parts = -(-n // MAX_CHUNK)
    if not parts:
        return []
    size, extra = divmod(n, parts)
    cuts = [k * size + min(k, extra) for k in range(parts + 1)]
    return list(zip(cuts, cuts[1:]))


def _blas_threads(cpus: int) -> int:
    """Threads each BLAS call may start: the first of OpenBLAS's thread
    variables that holds a positive count, else ``cpus``, OpenBLAS's default."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cpus


def _cpus() -> int:
    """CPUs left for chunk threads: those this process may run on, divided by
    the threads each BLAS call may start. A BLAS that already spreads over
    every CPU leaves one: a second chunk thread would only contend with it
    (at B=137 the median forward took 47 ms on two chunk threads against
    33 ms on one, with two BLAS threads on two CPUs)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return max(1, cpus // _blas_threads(cpus))


def _infer(model: Model, inputs: np.ndarray) -> np.ndarray:
    """Inference-mode predictions, one forward pass per ``_chunk_bounds`` chunk.

    With k = min(chunks, ``_cpus()``) the chunks are dealt round-robin to k
    groups; the calling thread runs the first group and k - 1 new threads the
    others. Each thread runs in a copy of the caller's context, so numpy's
    error state (``np.errstate``) holds there too. An exception raised in a
    chunk reaches the caller once every thread has ended.
    """
    preds = np.empty(inputs.shape[0])
    bounds = _chunk_bounds(inputs.shape[0])
    workers = min(len(bounds), _cpus())
    groups = [bounds[k::workers] for k in range(workers)]
    failures = []

    def run(group):
        for start, stop in group:
            preds[start:stop], _ = forward(model, inputs[start:stop], training=False)

    def run_caught(group):
        try:
            run(group)
        except BaseException as exc:  # re-raised in the calling thread
            failures.append(exc)

    threads = []
    try:
        for group in groups[1:]:
            context = contextvars.copy_context()
            thread = threading.Thread(target=context.run, args=(run_caught, group))
            thread.start()
            threads.append(thread)
        if groups:
            run(groups[0])
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]
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
    opt = cfg.optim
    adam = init_adam_state(model.theta, opt) if opt.optimizer == "adam" else None

    started = time.monotonic()
    train_hist, val_hist = [], []
    # a diverging run overflows before its loss turns non-finite; the checks
    # below report that as DivergenceError, so numpy's warnings add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            lr = schedule_lr(epoch, opt)
            order = shuffle_rng.permutation(train_idx) if cfg.shuffle else train_idx
            batch_losses = []
            for start in range(0, order.size, cfg.batch_size):
                sel = order[start : start + cfg.batch_size]
                loss, grad = loss_gradients(
                    model, dataset.inputs[sel], dataset.targets[sel], dropout_rng
                )
                if not np.isfinite(loss):
                    raise DivergenceError(
                        epoch + 1, f"training diverged: non-finite loss in epoch {epoch + 1}"
                    )
                if adam is None:
                    sgd_step(model.theta, grad, lr, opt.l2, model.n_weights)
                else:
                    adam_step(model.theta, grad, adam, lr, opt.l2, model.n_weights)
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


def _split_prices(
    model: Model, dataset: pl.WindowedDataset, preprocess: pl.PreprocessState, split: str
):
    """Indices, actual prices and predicted prices of one split."""
    idx = dataset.indices(split)
    if idx.size == 0:
        raise CompatibilityError(f"{split} split is empty")
    preds = _infer(model, dataset.inputs[idx])
    actual = pl.invert_minmax(dataset.targets[idx], preprocess.scaler, "close")
    return idx, actual, pl.invert_minmax(preds, preprocess.scaler, "close")


def evaluate(
    model: Model,
    dataset: pl.WindowedDataset,
    preprocess: pl.PreprocessState,
    split: str = "test",
) -> metrics_mod.MetricsReport:
    """Inference over one split, metrics in inverse-scaled price space."""
    _, actual, predicted = _split_prices(model, dataset, preprocess, split)
    return metrics_mod.report(actual, predicted)


def split_predictions(
    model: Model,
    dataset: pl.WindowedDataset,
    preprocess: pl.PreprocessState,
    split: str = "test",
):
    """(date, actual price, predicted price) rows for one split."""
    idx, actual, predicted = _split_prices(model, dataset, preprocess, split)
    dates = [dataset.target_dates[i] for i in idx]
    return list(zip(dates, actual.tolist(), predicted.tolist()))


def predict(model: Model, preprocess: pl.PreprocessState, frame: pl.FeatureFrame):
    """Forecast from engineered (pre-scaling) feature rows.

    Applies the stored scaler and PCA by column name, then runs one
    prediction per complete lookback window over the non-``close`` columns
    of the result. A column the scaler was fitted on and ``frame`` lacks is
    a ``CompatibilityError`` naming it. Each returned entry is
    ``(as_of_date, price)``: the forecast for ``horizon`` steps after the
    window's last row.
    """
    lookback = model.config.lookback
    scaled = pl.apply_minmax(frame, preprocess.scaler)
    if len(frame) < lookback:
        raise PipelineError(
            f"need at least {lookback} prepared rows, got {len(frame)}"
        )
    modeled = pl.pca_transform(scaled, preprocess.pca) if preprocess.pca else scaled
    x = modeled.matrix([n for n in modeled.columns if n != "close"])
    if x.shape[1] != model.config.features:
        raise CompatibilityError(
            f"prepared frame has {x.shape[1]} model features, "
            f"checkpoint expects {model.config.features}"
        )
    preds = _infer(model, pl.window_view(x, lookback))
    prices = pl.invert_minmax(preds, preprocess.scaler, "close")
    as_of = frame.dates[lookback - 1 :]
    return list(zip(as_of, prices.tolist()))
