"""Training loop, split evaluation, and checkpoint-driven prediction.

Training splits each mini-batch between the calling process and one worker
process when a second CPU is free (see ``train``). Inference (validation,
evaluation, prediction) goes through ``_infer``, which cuts its windows into
contiguous chunks of at most ``MAX_CHUNK`` and runs them on as many threads
as there are chunks and CPUs left free by BLAS's own threads, the calling
thread included; numpy releases the GIL inside BLAS and ufunc loops, so the
chunks overlap.
The chunk bounds depend on the window count only, so every forecast is
bitwise the same whatever the core count, and every thread runs in a copy of
the caller's context, so numpy's error state (``np.errstate``) holds in each.
"""

import contextvars
import math
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import metrics as metrics_mod
from . import pipeline as pl
from .errors import CompatibilityError, ConfigError, DivergenceError, PipelineError
from .model import Model, backward, forward, loss_gradients
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


class _Rows:
    """Stands in for the dropout generator ``rng`` while rows ``first:`` of an
    n-window batch run on their own. Each ``random`` call draws those rows of
    the uniforms the whole batch would draw, and skips the other rows' with
    ``advance`` (a float64 takes one step of the bit generator, PCG64 for
    ``default_rng``), so the masks and ``rng``'s final state are bitwise the
    whole batch's."""

    def __init__(self, rng, n: int, first: int):
        self.rng, self.n, self.first = rng, n, first

    def random(self, shape):
        row = math.prod(shape[1:])
        self.rng.bit_generator.advance(self.first * row)
        out = self.rng.random(shape)
        self.rng.bit_generator.advance((self.n - self.first - shape[0]) * row)
        return out


def _slice_sums(model: Model, dataset: pl.WindowedDataset, rows, rng: _Rows, out=None):
    """Squared-error sum and gradient sum of the windows ``rows``; the
    gradient goes into ``out`` if given (see ``backward``)."""
    preds, caches = forward(model, dataset.inputs[rows], training=True, rng=rng)
    diff = preds - dataset.targets[rows]
    return float(np.sum(diff * diff)), backward(model, caches, 2.0 * diff, out)


def _keep_freed_memory():
    """Have glibc's malloc, where it is the allocator, serve arrays of up to
    32 MB from the heap and keep the heap it frees. The worker frees and
    reallocates the same few megabytes every batch; with the limits it
    inherits, its heap shrank and regrew each time: 450 to 1,100 page
    faults a batch at B=32, 1 to 2.5 ms on a 2-vCPU Xeon."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:  # another C library
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at its largest on 64-bit glibc
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


def _serve(model, dataset, rng, grad, requests, replies):
    """The worker's loop. A request ``(rows, n, state)`` names the last rows
    of an n-window batch and the dropout generator's state before the batch;
    the reply is their squared-error sum, with their gradient sum left in
    ``grad``, or the exception that stopped them and its traceback. Returns
    at end of file on ``requests``."""
    import pickle
    import traceback

    with os.fdopen(requests, "rb") as inbox, os.fdopen(replies, "wb") as outbox:
        while True:
            try:
                rows, n, state = pickle.load(inbox)
            except EOFError:
                return
            rng.bit_generator.state = state
            try:
                sse, _ = _slice_sums(model, dataset, rows, _Rows(rng, n, n - rows.size), grad)
                reply = (sse, None)
            except Exception as exc:  # sent back and raised in the parent
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:  # an exception that does not survive pickling
                    exc = RuntimeError(f"{type(exc).__name__}: {exc}")
                reply = (None, (exc, traceback.format_exc()))
            pickle.dump(reply, outbox)
            outbox.flush()


@contextmanager
def _batch_steps(model: Model, dataset: pl.WindowedDataset, batch_size: int, rng):
    """``step(rows) -> (loss, grad)``: the mean loss and gradient of the
    mini-batch ``rows``, dropout drawn from ``rng``, for one ``train`` call,
    computed in halves with the worker that ``train`` describes when one can
    be forked (a forked child keeps only the calling thread, hence no other
    thread may run), else whole by ``loss_gradients``."""

    def whole(rows):
        return loss_gradients(model, dataset.inputs[rows], dataset.targets[rows], rng)

    if batch_size < 2 or _cpus() < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        yield whole
        return
    import mmap
    import pickle

    # an anonymous map is shared with a forked child: theta and the worker's gradient sum
    size = model.theta.size
    shared = np.frombuffer(mmap.mmap(-1, 16 * size), dtype=np.float64)
    theta, worker_grad = shared[:size], shared[size:]
    requests_r, requests_w = os.pipe()
    replies_r, replies_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to be had (a process limit, say): steps stay whole
        for fd in (requests_r, requests_w, replies_r, replies_w):
            os.close(fd)
        yield whole
        return
    if pid == 0:  # the worker never returns into the caller
        status = 1
        try:
            os.close(requests_w)
            os.close(replies_r)
            _keep_freed_memory()
            _serve(Model(model.config, theta), dataset, rng, worker_grad, requests_r, replies_w)
            status = 0
        finally:
            os._exit(status)
    os.close(requests_r)
    os.close(replies_w)
    requests = os.fdopen(requests_w, "wb")
    replies = os.fdopen(replies_r, "rb")

    def split(rows):
        n = rows.size
        if n < 2:
            return whole(rows)
        half = -(-n // 2)
        theta[...] = model.theta
        pickle.dump((rows[half:], n, rng.bit_generator.state), requests)
        requests.flush()
        sse, grad = _slice_sums(model, dataset, rows[:half], _Rows(rng, n, 0))
        try:
            worker_sse, failure = pickle.load(replies)
        except EOFError:
            raise RuntimeError("the training worker exited without a reply") from None
        if failure is not None:
            exc, trace = failure
            raise exc from RuntimeError(f"raised in the training worker:\n{trace.rstrip()}")
        grad += worker_grad
        grad /= n
        return (sse + worker_sse) / n, grad

    try:
        yield split
    finally:
        try:
            requests.close()  # end of file: the worker returns
        finally:
            replies.close()
            os.waitpid(pid, 0)


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

    With two or more CPUs left free by BLAS threads (``_cpus``), ``os.fork``
    available and no other thread running, the call forks one worker
    process for its length. Of each batch of n >= 2 windows the caller
    takes rows ``[:ceil(n/2)]`` and the worker the rest; each computes the
    squared-error sum and gradient sum of its rows, and the caller forms
    ``grad = (g_a + g_b) / n`` and ``loss = (sse_a + sse_b) / n`` before the
    usual optimiser step. Processes, not threads: a step is some 1,100
    small numpy calls, and two threads passing the GIL between them were
    no faster than one. The dropout masks are bitwise the whole batch's
    (``_Rows``), so only the order of the batch sums changes: losses stay
    within 1e-12 relative of a run without the worker, and a run with it
    repeats bitwise. Otherwise, and for a batch of one window, each step is
    ``loss_gradients`` of the whole batch, as it always was.

    theta and the worker's gradient sum cross in a shared anonymous map,
    the rows and the generator state through a pipe. The worker is forked
    inside numpy's error state below, runs inside ``os._exit`` so it never
    returns into the caller, and exits at end of file on its pipe: when the
    call returns or raises (it is then reaped), or when the caller dies. An
    exception in its half is raised in the caller.
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
    with np.errstate(over="ignore", invalid="ignore"), \
            _batch_steps(model, dataset, cfg.batch_size, dropout_rng) as step:
        for epoch in range(cfg.epochs):
            lr = schedule_lr(epoch, opt)
            order = shuffle_rng.permutation(train_idx) if cfg.shuffle else train_idx
            batch_losses = []
            for start in range(0, order.size, cfg.batch_size):
                loss, grad = step(order[start : start + cfg.batch_size])
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
