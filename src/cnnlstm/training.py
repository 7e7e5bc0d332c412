"""Training loop, split evaluation, and checkpoint-driven prediction.

One run configuration, whatever the environment: ``train`` and ``_infer``
hold the loaded OpenBLAS at one thread while they run (``_one_blas_thread``)
and use the CPUs themselves. Training sums every mini-batch as two fixed
shares, the second run by one worker process when a second CPU is free and
by the caller otherwise (see ``train``). Inference (validation, evaluation,
prediction) goes through ``_infer``, which cuts its windows into contiguous
chunks of at most ``MAX_CHUNK``, at least two for ``2 * MIN_CHUNK``
windows or more, and runs them on as many threads as there are chunks and
CPUs, the calling thread included; numpy releases the GIL inside BLAS and
ufunc loops, so the chunks overlap.
The shares and the chunk bounds depend on the window counts only, so a seed
gives the same bytes whatever the core count and ``OPENBLAS_NUM_THREADS``,
and every thread runs in a copy of the caller's context, so numpy's error
state (``np.errstate``) holds in each.
"""

import contextvars
import ctypes
import functools
import math
import os
import pickle
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import metrics as metrics_mod
from . import pipeline as pl
from .errors import CompatibilityError, ConfigError, DivergenceError, PipelineError
from .model import Model, forward, loss_sums
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


MAX_CHUNK = 128  # windows per forward pass
# Fewest windows in a chunk of a split pass. At the default model on a 2-vCPU
# Xeon, two chunks beat one from n = 64 (6.7 -> 6.1 ms on two CPUs, 6.4 ->
# 6.0 ms on one) and lost below it (n = 60: 6.1 -> 7.0 and 6.0 -> 6.1 ms).
MIN_CHUNK = 32


def _chunk_bounds(n: int) -> list:
    """``(start, stop)`` of max(ceil(n / MAX_CHUNK), min(n // MIN_CHUNK, 2))
    contiguous chunks whose sizes differ by at most one, the larger first, so
    two CPUs share any n >= 2 * MIN_CHUNK: 63 -> (0, 63); 104 -> (0, 52),
    (52, 104); 137 -> (0, 69), (69, 137)."""
    parts = max(-(-n // MAX_CHUNK), min(n // MIN_CHUNK, 2))
    if not parts:
        return []
    size, extra = divmod(n, parts)
    cuts = [k * size + min(k, extra) for k in range(parts + 1)]
    return list(zip(cuts, cuts[1:]))


@functools.cache
def _openblas():
    """``(get, set, shut)``: the thread-count getter and setter of the
    OpenBLAS that numpy loaded, found by symbol in the libraries this
    process maps, and its ``blas_thread_shutdown_`` (a no-op where it is
    not exported), or None where there is none (another BLAS, or no
    ``/proc/self/maps``)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                handle = ctypes.CDLL(lib)
                get = getattr(handle, f"{prefix}_get_num_threads{suffix}")
                set_ = getattr(handle, f"{prefix}_set_num_threads{suffix}")
            except (AttributeError, OSError):
                continue
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            shut = getattr(handle, "blas_thread_shutdown_", None) or (lambda: 0)
            return get, set_, shut
    return None


_pin_lock = threading.Lock()
_pin_depth = 0  # calls inside _one_blas_thread, in any thread
_pin_saved = 1  # the count the first of them found, given back by the last


@contextmanager
def _one_blas_thread():
    """Holds the loaded OpenBLAS (``_openblas``) at one thread for the
    ``with`` body, or as a decorator for the call, and gives the caller back
    its own count on return or raise. Nested and concurrent holds share the
    pin: the first sets it and the last gives the count back. Without an
    OpenBLAS, BLAS is left alone.

    A count above one is given back with OpenBLAS's thread pool shut, as
    after a fork; OpenBLAS starts it again at its next call that uses it.
    Setting the count starts a pool that a fork (``train``'s worker) shut,
    and its threads then busy-wait some 0.13 s of CPU with no work."""
    global _pin_depth, _pin_saved
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_, shut = blas
    with _pin_lock:
        if not _pin_depth:
            _pin_saved = get()
            set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if not _pin_depth:
                set_(_pin_saved)
                if _pin_saved > 1:
                    shut()


def _cpus() -> int:
    """CPUs for the worker and the chunk threads: those this process may run
    on, as BLAS runs on one thread beside them (``_one_blas_thread``). Where
    no OpenBLAS can be held, 1: that BLAS may spread over every CPU itself."""
    if _openblas() is None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


@_one_blas_thread()
def _infer(model: Model, inputs: np.ndarray) -> np.ndarray:
    """Inference-mode predictions, one forward pass per ``_chunk_bounds`` chunk.

    With k = min(chunks, ``_cpus()``) the chunks are dealt round-robin to k
    groups; the calling thread runs the first group and k - 1 new threads the
    others, with BLAS held at one thread (``_one_blas_thread``). Each thread
    runs in a copy of the caller's context, so numpy's error state
    (``np.errstate``) holds there too. An exception raised in a chunk reaches
    the caller once every thread has ended.
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


def _share_sums(model, dataset, rng, rows, n, first, state, out=None):
    """The squared-error and gradient sums (``loss_sums``) of the windows
    ``rows``, which start at row ``first`` of an n-window batch: ``rng`` is
    set to ``state``, its state before the batch, and ``_Rows`` draws their
    rows of the batch's dropout masks from it."""
    rng.bit_generator.state = state
    return loss_sums(model, dataset.inputs[rows], dataset.targets[rows], _Rows(rng, n, first), out)


def _keep_freed_memory():
    """Have glibc's malloc, where it is the allocator, serve arrays of up to
    32 MB from the heap and keep the heap it frees. Called by ``cli.main``
    on entry and by ``train``'s worker, as library callers of ``train``
    do not go through ``cli.main``. Both free and reallocate the same few
    megabytes over and over; with glibc's default limits the heap shrank
    and regrew each time: 450 to 1,100 page faults a batch in the worker
    at B=32, 1 to 2.5 ms on a 2-vCPU Xeon, and some 1,950 a ``predict``
    call repeated in one process."""
    try:  # CDLL(None) raises TypeError or OSError on Windows
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt to call
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
    import traceback

    with os.fdopen(requests, "rb") as inbox, os.fdopen(replies, "wb") as outbox:
        while True:
            try:
                rows, n, state = pickle.load(inbox)
            except EOFError:
                return
            try:
                sse, _ = _share_sums(model, dataset, rng, rows, n, n - rows.size, state, grad)
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
    mini-batch ``rows``, dropout drawn from ``rng``, for one ``train`` call:
    the sums of its two shares that ``train`` describes, added in that order
    and divided once. The worker that runs the second share is forked when
    one can be (a forked child keeps only the calling thread, hence no other
    thread may run); without it the caller runs the second share after the
    first, from the generator state it saved before the batch."""
    pid = None  # the worker's, once it is forked
    size = model.theta.size
    if batch_size > 1 and _cpus() > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        import mmap

        # an anonymous map is shared with a forked child: theta and the worker's gradient sum
        shared = np.frombuffer(mmap.mmap(-1, 16 * size), dtype=np.float64)
        theta, rest_grad = shared[:size], shared[size:]
        requests_r, requests_w = os.pipe()
        replies_r, replies_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to be had (a process limit, say): no worker
            for fd in (requests_r, requests_w, replies_r, replies_w):
                os.close(fd)
        if pid == 0:  # the worker never returns into the caller
            status = 1
            try:
                os.close(requests_w)
                os.close(replies_r)
                _keep_freed_memory()
                _serve(Model(model.config, theta), dataset, rng, rest_grad, requests_r, replies_w)
                status = 0
            finally:
                os._exit(status)
        if pid:
            os.close(requests_r)
            os.close(replies_w)
            requests = os.fdopen(requests_w, "wb")
            replies = os.fdopen(replies_r, "rb")
    if not pid:
        rest_grad = np.empty(size)

    def step(rows):
        n = rows.size
        share = -(-n // 2)
        state = rng.bit_generator.state
        if pid and share < n:
            theta[...] = model.theta
            pickle.dump((rows[share:], n, state), requests)
            requests.flush()
        sse, grad = _share_sums(model, dataset, rng, rows[:share], n, 0, state)
        if share < n:
            if pid:
                try:
                    rest_sse, failure = pickle.load(replies)
                except EOFError:
                    raise RuntimeError("the training worker exited without a reply") from None
                if failure is not None:
                    exc, trace = failure
                    raise exc from RuntimeError(f"raised in the training worker:\n{trace.rstrip()}")
            else:
                rest_sse, _ = _share_sums(model, dataset, rng, rows[share:], n, share, state, rest_grad)
            sse += rest_sse
            grad += rest_grad
        grad /= n
        return sse / n, grad

    try:
        yield step
    finally:
        if pid:
            try:
                requests.close()  # end of file: the worker returns
            finally:
                replies.close()
                os.waitpid(pid, 0)


@_one_blas_thread()
def train(model: Model, dataset: pl.WindowedDataset, cfg: TrainConfig) -> TrainReport:
    """Mini-batch descent over the train split, validated each epoch.

    Shuffling and dropout draw from separate streams spawned off the run
    seed, so loss histories reproduce bit-for-bit across machines. The
    final short batch is trained on; mean-gradient scaling keeps its step
    size consistent. A non-finite loss aborts with the epoch number.

    The call holds BLAS at one thread (``_one_blas_thread``). Each step of
    a batch of n >= 2 windows computes the squared-error sum and gradient
    sum (``loss_sums``) of rows ``[:ceil(n/2)]`` and then of the rest, and
    forms ``loss = (sse_a + sse_b) / n`` and ``grad = (g_a + g_b) / n``
    before the optimiser step; a batch of one is one share. With two or
    more CPUs (``_cpus``), ``os.fork`` available and no other thread
    running, the call forks one worker process for its length, which runs
    every second share while the caller runs the first. Otherwise the
    caller runs both. Processes, not threads: a step is some 1,100 small
    numpy calls, and two threads passing the GIL between them were no
    faster than one. The dropout masks are bitwise the whole batch's
    (``_Rows``) and the sums are added in one order, so theta and the
    losses have the same bytes with and without the worker, at any CPU
    count and any BLAS setting, and stay within 1e-12 relative of
    whole-batch steps.

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
    return TrainReport(train_loss=train_hist, val_loss=val_hist)


def split_predictions(
    model: Model,
    dataset: pl.WindowedDataset,
    preprocess: pl.PreprocessState,
    split: str = "test",
):
    """(date, actual price, predicted price) rows for one split, from one inference pass."""
    idx = dataset.indices(split)
    if idx.size == 0:
        raise CompatibilityError(f"{split} split is empty")
    preds = _infer(model, dataset.inputs[idx])
    actual = pl.invert_minmax(dataset.targets[idx], preprocess.scaler, "close")
    predicted = pl.invert_minmax(preds, preprocess.scaler, "close")
    dates = [dataset.target_dates[i] for i in idx]
    return list(zip(dates, actual.tolist(), predicted.tolist()))


def evaluate(
    model: Model,
    dataset: pl.WindowedDataset,
    preprocess: pl.PreprocessState,
    split: str = "test",
) -> metrics_mod.MetricsReport:
    """Inference over one split, metrics in inverse-scaled price space."""
    _, actual, predicted = zip(*split_predictions(model, dataset, preprocess, split))
    return metrics_mod.report(actual, predicted)


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
