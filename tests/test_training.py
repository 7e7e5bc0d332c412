import os
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from cnnlstm import model as model_mod
from cnnlstm import training
from cnnlstm.errors import CompatibilityError, ConfigError, DivergenceError, PipelineError
from cnnlstm.model import ModelConfig, backward, build, forward, load, save
from cnnlstm.optim import OptimConfig, mse, schedule_lr, sgd_step
from cnnlstm.pipeline import PrepareConfig, prepare_dataset
from cnnlstm.synth import synthetic_ohlcv
from cnnlstm.training import TrainConfig, evaluate, predict, split_predictions, train


def small_model_config(features, **overrides):
    base = dict(
        features=features,
        lookback=8,
        conv_filters=(4, 4, 4),
        kernel_width=2,
        pool_window=1,
        lstm_units=(6, 6, 6),
        dropout_rate=0.1,
        seed=3,
    )
    base.update(overrides)
    return ModelConfig(**base).validate()


@pytest.fixture(scope="module")
def prepared():
    cfg = PrepareConfig(
        lookback=8, horizon=1, corr_threshold=0.3, pca=True,
        pca_variance=0.95, seed=5, sma_windows=(3, 5, 10),
    )
    return prepare_dataset(synthetic_ohlcv(rows=300, seed=2), cfg)


def fresh_model(prepared, **overrides):
    return build(small_model_config(len(prepared.dataset.feature_names), **overrides))


def train_config(**overrides):
    optim = overrides.pop("optim", {})
    base = dict(epochs=2, batch_size=16, seed=9, shuffle=True)
    base.update(overrides)
    return TrainConfig(optim=OptimConfig(**optim), **base).validate()


def memorized_r2(prepared, ds, epochs):
    """r2 on ds's train split after undecayed Adam at lr 0.01 on it alone."""
    model = fresh_model(prepared, dropout_rate=0.0)
    train(
        model, ds,
        train_config(
            epochs=epochs, batch_size=5,
            optim=dict(optimizer="adam", lr0=0.01, l2=0.0, decay_factor=1.0),
        ),
    )
    return evaluate(model, ds, prepared.preprocess, "train").r2


class TestTrain:
    def test_zero_lr_is_noop(self, prepared):
        model = fresh_model(prepared)
        before = {k: v.copy() for k, v in model.params.items()}
        report = train(
            model, prepared.dataset,
            train_config(epochs=1, optim=dict(lr0=0.0, l2=0.0)),
        )
        for k in before:
            assert np.array_equal(model.params[k], before[k]), k
        # with untouched parameters the recorded loss is the initial loss
        model2 = fresh_model(prepared)
        report2 = train(
            model2, prepared.dataset,
            train_config(epochs=3, optim=dict(lr0=0.0, l2=0.0)),
        )
        assert report.train_loss[0] == report2.train_loss[0]
        assert len(set(report2.val_loss)) == 1  # constant history at lr 0

    def test_same_seed_bit_identical_history(self, prepared):
        r1 = train(fresh_model(prepared), prepared.dataset, train_config())
        r2 = train(fresh_model(prepared), prepared.dataset, train_config())
        assert r1.train_loss == r2.train_loss
        assert r1.val_loss == r2.val_loss

    def test_history_lengths_match_epochs(self, prepared):
        report = train(fresh_model(prepared), prepared.dataset, train_config(epochs=4))
        assert len(report.train_loss) == 4
        assert len(report.val_loss) == 4
        assert all(np.isfinite(v) for v in report.train_loss + report.val_loss)

    def test_divergence_aborts_with_epoch(self, prepared):
        model = fresh_model(prepared)
        with pytest.raises(DivergenceError) as err:
            train(
                model, prepared.dataset,
                train_config(epochs=5, optim=dict(lr0=1e12, l2=0.0)),
            )
        assert err.value.epoch >= 1

    def test_loss_decreases_on_learnable_data(self, prepared):
        report = train(
            fresh_model(prepared), prepared.dataset,
            train_config(epochs=6, optim=dict(optimizer="adam", lr0=0.005)),
        )
        assert report.train_loss[-1] < report.train_loss[0]

    def test_adam_path_runs(self, prepared):
        report = train(
            fresh_model(prepared), prepared.dataset,
            train_config(optim=dict(optimizer="adam", lr0=0.002)),
        )
        assert len(report.train_loss) == 2

    @pytest.mark.parametrize("bad, message", [
        (dict(epochs=0), "epochs must be >= 1, got 0"),
        (dict(batch_size=0), "batch_size must be >= 1, got 0"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
    ])
    def test_config_validation(self, prepared, bad, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            TrainConfig(**bad).validate()
        model = fresh_model(prepared)
        before = model.theta.copy()
        with pytest.raises(ConfigError, match=f"^{message}$"):
            train(model, prepared.dataset, TrainConfig(**bad))
        assert model.theta.tobytes() == before.tobytes()
        TrainConfig(epochs=1, batch_size=1, seed=0).validate()


class TestEvaluate:
    def test_pure_and_repeatable(self, prepared):
        model = fresh_model(prepared)
        a = evaluate(model, prepared.dataset, prepared.preprocess, "test")
        b = evaluate(model, prepared.dataset, prepared.preprocess, "test")
        assert a == b

    def test_untrained_constant_predictor_scores_poorly(self, prepared):
        # zero parameters: every prediction is the dense bias
        cfg = small_model_config(len(prepared.dataset.feature_names))
        model = build(cfg)
        model.theta[:] = 0.0
        assert not any(p.any() for p in model.params.values())
        rep = evaluate(model, prepared.dataset, prepared.preprocess, "test")
        assert rep.r2 <= 0.0

    def test_memorization_smoke(self, prepared):
        # five-sample training set, long adam run: the net memorizes it.
        # The windows are spread over the train split so that their targets
        # vary (those of train_idx[:5] span only 0.0192, so r2 > 0.99 there
        # would ask for an RMS error below 6e-4), and the lr stays at lr0
        # (decay_factor=1.0) for the whole run.
        import dataclasses

        train_idx = prepared.dataset.train_idx
        idx = train_idx[np.linspace(0, train_idx.size - 1, 5).astype(int)]
        span = np.ptp(prepared.dataset.targets[idx])
        assert np.unique(idx).size == 5, f"windows not distinct: {idx}"
        assert span > 0.25, f"degenerate sample: scaled targets span {span:.4f}"
        ds = dataclasses.replace(prepared.dataset, train_idx=idx, val_idx=idx, test_idx=idx)
        assert memorized_r2(prepared, ds, epochs=300) > 0.99

    def test_input_offset_collapse(self, prepared):
        # Known conditioning defect (ROADMAP open item 1). The first five
        # train windows are distinct shifts of one rising segment at a shared
        # level of about 1.6. Given the spread targets of the memorization
        # test, the model at seed 3 still predicts their mean; the same
        # windows moved to zero mean are memorized. A model change that mends
        # the defect makes the first r2 assert fail: it should then read > 0.99.
        import dataclasses

        d = prepared.dataset
        first = d.train_idx[:5]
        spread = d.train_idx[np.linspace(0, d.train_idx.size - 1, 5).astype(int)]
        assert np.unique(first).size == 5, f"windows not distinct: {first}"
        level = d.inputs[first].mean()
        assert level > 1.0, f"windows no longer sit at an offset: mean {level:.3f}"
        targets = d.targets.copy()
        targets[first] = d.targets[spread]
        raw = dataclasses.replace(d, targets=targets, train_idx=first, val_idx=first, test_idx=first)
        inputs = d.inputs.copy()
        inputs[first] -= level
        centred = dataclasses.replace(raw, inputs=inputs)
        assert memorized_r2(prepared, raw, epochs=200) < 0.1
        assert memorized_r2(prepared, centred, epochs=200) > 0.99

    def test_empty_split_rejected(self, prepared):
        import dataclasses

        ds = dataclasses.replace(prepared.dataset, test_idx=np.array([], dtype=np.int64))
        with pytest.raises(CompatibilityError):
            evaluate(fresh_model(prepared), ds, prepared.preprocess, "test")

    def test_split_predictions_rows(self, prepared):
        model = fresh_model(prepared)
        rows = split_predictions(model, prepared.dataset, prepared.preprocess, "test")
        assert len(rows) == prepared.dataset.test_idx.size
        day, actual, pred = rows[0]
        assert day == prepared.dataset.target_dates[prepared.dataset.test_idx[0]]
        assert isinstance(actual, float) and isinstance(pred, float)


class TestInfer:
    @pytest.mark.parametrize("n,bounds", [
        (1, [(0, 1)]),
        (104, [(0, 52), (52, 104)]),
        (137, [(0, 69), (69, 137)]),
        (207, [(0, 104), (104, 207)]),
        (0, []),
        (2, [(0, 2)]),
        (63, [(0, 63)]),  # one chunk below 2 * MIN_CHUNK
        (64, [(0, 32), (32, 64)]),
    ])
    def test_chunk_bounds(self, n, bounds):
        assert training._chunk_bounds(n) == bounds

    @pytest.mark.parametrize("found,cpus", [(True, 3), (False, 1)], ids=["found", "missing"])
    def test_cpus_where_openblas_is_found_or_missing(self, monkeypatch, found, cpus):
        # numpy's wheels load OpenBLAS; without one BLAS may spread over every CPU itself
        monkeypatch.setattr(training.os, "sched_getaffinity", lambda pid: set(range(3)))
        if not found:
            monkeypatch.setattr(training, "_openblas", lambda: None)
        assert (training._openblas() is not None) == found
        assert training._cpus() == cpus

    @pytest.mark.parametrize("cpus,env,free", [
        (2, {}, 1),  # with OpenBLAS free to start a thread per CPU, one was left
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
        (2, {"OMP_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, 2),
        (2, {"OMP_NUM_THREADS": "1,1"}, 1),
        (4, {"OPENBLAS_NUM_THREADS": "2"}, 2),
        (1, {"OPENBLAS_NUM_THREADS": "4"}, 1),
    ])
    def test_cpus_left_by_blas_threads(self, monkeypatch, cpus, env, free):
        # `free` is what the environment's BLAS thread count left to the chunk
        # threads; held at one thread, BLAS now leaves every CPU, never fewer
        monkeypatch.setattr(training.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        get = loaded_openblas()[0]
        with training._one_blas_thread():
            assert get() == 1
            assert training._cpus() == cpus >= free

    def test_same_bits_for_one_and_two_cpus(self, prepared, monkeypatch, rng):
        model = fresh_model(prepared)
        x = rng.standard_normal((207, 8, len(prepared.dataset.feature_names)))
        got = {}
        for cpus in (1, 2):
            monkeypatch.setattr(training, "_cpus", lambda: cpus)
            got[cpus] = training._infer(model, x)
        assert got[1].tobytes() == got[2].tobytes()
        by_chunk = np.concatenate([
            forward(model, x[start:stop], training=False)[0]
            for start, stop in training._chunk_bounds(207)
        ])
        assert got[2].tobytes() == by_chunk.tobytes()
        whole, _ = forward(model, x, training=False)
        assert np.max(np.abs(got[2] - whole) / np.abs(whole)) <= 1e-12

    def test_more_threads_than_cores_fill_every_window(self, prepared, monkeypatch, rng):
        monkeypatch.setattr(training, "_cpus", lambda: 8)
        model = fresh_model(prepared)
        x = rng.standard_normal((1000, 8, len(prepared.dataset.feature_names)))
        want = np.concatenate([
            forward(model, x[start:stop], training=False)[0]
            for start, stop in training._chunk_bounds(1000)
        ])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = training._infer(model, x)
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == want.tobytes()

    def test_worker_threads_keep_the_callers_error_state(self, prepared, monkeypatch, rng):
        monkeypatch.setattr(training, "_cpus", lambda: 2)
        model = fresh_model(prepared)
        model.theta[:] = 1e308  # every forward overflows
        x = rng.standard_normal((207, 8, len(prepared.dataset.feature_names)))
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            training._infer(model, x)

    @pytest.mark.parametrize("failing", [69, 68], ids=["caller", "worker"])
    def test_a_failing_chunk_reaches_the_caller(self, prepared, monkeypatch, rng, failing):
        monkeypatch.setattr(training, "_cpus", lambda: 2)
        caller = threading.current_thread()
        ran_on = {}

        def fake_forward(model, batch, training):
            ran_on[len(batch)] = threading.current_thread()
            if len(batch) == failing:
                raise RuntimeError(f"chunk of {failing} failed")
            return np.zeros(len(batch)), None

        monkeypatch.setattr(training, "forward", fake_forward)
        threads = threading.active_count()
        x = rng.standard_normal((137, 8, len(prepared.dataset.feature_names)))
        with pytest.raises(RuntimeError, match=f"chunk of {failing} failed"):
            training._infer(fresh_model(prepared), x)
        assert threading.active_count() == threads
        assert (ran_on[69] is caller, ran_on[68] is caller) == (True, False)
        monkeypatch.setattr(
            training, "forward", lambda model, batch, training: (np.ones(len(batch)), None)
        )
        assert training._infer(fresh_model(prepared), x).tolist() == [1.0] * 137
        assert threading.active_count() == threads


def loaded_openblas():
    """``training._openblas()``; the test is skipped where numpy loaded none."""
    blas = training._openblas()
    if blas is None:
        pytest.skip("numpy loaded no OpenBLAS")
    return blas


class TestOneBlasThread:
    @pytest.fixture
    def counts(self, monkeypatch):
        """A stand-in OpenBLAS at 3 threads: ``counts`` holds its count, then
        the count each ``forward`` in this process ran at."""
        counts = [3]

        def set_threads(n):
            counts[0] = n

        monkeypatch.setattr(training, "_openblas",
                            lambda: (lambda: counts[0], set_threads, lambda: 0))
        forward = training.forward

        def counted(*args, **kwargs):
            counts.append(counts[0])
            return forward(*args, **kwargs)

        monkeypatch.setattr(training, "forward", counted)
        monkeypatch.setattr(model_mod, "forward", counted)  # loss_sums' forward
        return counts

    def test_infer_holds_one_thread_and_gives_the_count_back(self, prepared, counts, rng):
        x = rng.standard_normal((207, 8, len(prepared.dataset.feature_names)))
        training._infer(fresh_model(prepared), x)
        assert counts == [3, 1, 1]  # two chunks

    def test_train_holds_one_thread_and_gives_the_count_back(self, prepared, counts):
        train(fresh_model(prepared), prepared.dataset, train_config(epochs=1))
        assert counts[0] == 3 and set(counts[1:]) == {1}

    def test_a_diverging_train_gives_the_count_back(self, prepared, counts):
        with pytest.raises(DivergenceError):
            train(fresh_model(prepared), prepared.dataset,
                  train_config(epochs=5, optim=dict(lr0=1e12, l2=0.0)))
        assert counts[0] == 3 and set(counts[1:]) == {1}

    def test_nested_and_concurrent_holds_share_one_pin(self, counts):
        inner = threading.Barrier(2, timeout=60)

        def hold():
            with training._one_blas_thread():
                inner.wait()  # both threads hold the pin here
                counts.append(counts[0])
                inner.wait()

        thread = threading.Thread(target=hold)
        thread.start()
        with training._one_blas_thread():
            hold()
        thread.join(60)
        assert not thread.is_alive() and counts == [3, 1, 1]

    def test_the_loaded_openblas_is_held_and_given_back(self, prepared, rng):
        get, set_threads, _ = loaded_openblas()
        before = get()
        seen = []
        forward = training.forward

        def counted(*args, **kwargs):
            seen.append(get())
            return forward(*args, **kwargs)

        x = rng.standard_normal((207, 8, len(prepared.dataset.feature_names)))
        set_threads(2)
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(training, "forward", counted)
                training._infer(fresh_model(prepared), x)
            assert (seen, get()) == ([1, 1], 2)
        finally:
            set_threads(before)

    @pytest.mark.skipif(not (hasattr(os, "fork") and os.path.isdir("/proc/self/task")),
                        reason="training forks no worker here, or no task list to count")
    def test_a_count_given_back_after_the_workers_fork_starts_no_thread(self, prepared,
                                                                        monkeypatch):
        # a pool started with no work busy-waits; OpenBLAS starts it at its next call
        get, set_threads, _ = loaded_openblas()
        before = get()
        a = np.random.default_rng(0).random((300, 300))

        def tasks():
            return len(os.listdir("/proc/self/task"))

        set_threads(2)
        try:
            want = a @ a  # starts OpenBLAS's pool: one thread beside the caller
            pooled = tasks()
            forks = []
            fork = os.fork

            def counted_fork():
                forks.append(1)
                return fork()

            monkeypatch.setattr(training, "_cpus", lambda: 2)
            monkeypatch.setattr(os, "fork", counted_fork)
            train(fresh_model(prepared), prepared.dataset, train_config(epochs=1))
            assert forks == [1]  # the worker's fork shut the pool down
            assert (get(), tasks()) == (2, pooled - 1)
            assert (a @ a).tobytes() == want.tobytes() and tasks() == pooled
        finally:
            set_threads(before)


def whole_batch_losses(model, dataset, cfg):
    """``train``'s SGD epochs, each step the whole batch's training-mode
    ``forward``, its ``mse`` and its ``backward`` divided by B; returns the
    per-epoch train losses."""
    shuffle_ss, dropout_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    shuffle_rng, dropout_rng = np.random.default_rng(shuffle_ss), np.random.default_rng(dropout_ss)
    losses = []
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(dataset.indices("train"))
        batch_losses = []
        for start in range(0, order.size, cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            preds, caches = forward(model, dataset.inputs[sel], training=True, rng=dropout_rng)
            grad = backward(model, caches, 2.0 * (preds - dataset.targets[sel]))
            grad /= sel.size
            sgd_step(model.theta, grad, schedule_lr(epoch, cfg.optim), cfg.optim.l2, model.n_weights)
            batch_losses.append(mse(preds, dataset.targets[sel]))
        losses.append(float(np.mean(batch_losses)))
    return losses


def test_import_loads_neither_numpy_random_nor_mmap():
    # both are imported only where a run needs them: a generator, a worker
    import cnnlstm

    src = str(Path(cnnlstm.__file__).resolve().parent.parent)
    check = "import sys, cnnlstm; print(sorted({'numpy.random', 'mmap'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert (run.returncode, run.stdout) == (0, "[]\n")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


PF_EXITING = 0x4  # the flag in /proc/<pid>/stat's ninth field that an exit sets first

# Trains with a worker until the first optimiser step, prints the worker's
# pid and kills itself, so that only the worker's end of file can stop it.
ORPHAN = """
import os, signal
from cnnlstm import training
from cnnlstm.model import ModelConfig, build
from cnnlstm.pipeline import PrepareConfig, prepare_dataset
from cnnlstm.synth import synthetic_ohlcv

prepared = prepare_dataset(synthetic_ohlcv(rows=300, seed=2), PrepareConfig(
    lookback=8, horizon=1, corr_threshold=0.3, pca=True, pca_variance=0.95, seed=5,
    sma_windows=(3, 5, 10)))
model = build(ModelConfig(features=1, lookback=8, conv_filters=(4, 4, 4), kernel_width=2,
                          pool_window=1, lstm_units=(6, 6, 6)))
fork = os.fork
def fork_and_print():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
def die(*args):
    os.kill(os.getpid(), signal.SIGKILL)
os.fork, training.sgd_step, training._cpus = fork_and_print, die, lambda: 2
training.train(model, prepared.dataset, training.TrainConfig())
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="training forks no worker here")
class TestTrainWorker:
    def test_one_cpu_steps_are_whole_batch_loss_gradients(self, prepared, monkeypatch):
        # the same masks, the batch summed as two shares: only rounding differs
        monkeypatch.setattr(training, "_cpus", lambda: 1)
        cfg = train_config(epochs=3)
        model, want = fresh_model(prepared), fresh_model(prepared)
        report = train(model, prepared.dataset, cfg)
        losses = whole_batch_losses(want, prepared.dataset, cfg)
        assert np.max(np.abs(np.subtract(report.train_loss, losses)) / np.abs(losses)) <= 1e-12
        assert np.max(np.abs(model.theta - want.theta)) <= 1e-12 * np.max(np.abs(want.theta))
        assert_no_child_left()

    def test_no_process_to_fork_keeps_steps_whole(self, prepared, monkeypatch):
        def refuse():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        cfg = train_config()
        monkeypatch.setattr(training, "_cpus", lambda: 1)
        one_model, refused_model = fresh_model(prepared), fresh_model(prepared)
        one = train(one_model, prepared.dataset, cfg)
        monkeypatch.setattr(training, "_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", refuse)
        fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        refused = train(refused_model, prepared.dataset, cfg)
        assert refused.train_loss == one.train_loss and refused.val_loss == one.val_loss
        assert refused_model.theta.tobytes() == one_model.theta.tobytes()
        if fds is not None:  # its pipes are closed
            assert len(os.listdir("/proc/self/fd")) == fds

    @pytest.mark.parametrize("batch_size,last", [(16, 5), (22, 21), (28, 1)])
    def test_two_cpus_match_one(self, prepared, monkeypatch, batch_size, last):
        # 197 train windows: the last batch is split 3 + 2, 11 + 10, or not at all
        assert prepared.dataset.indices("train").size % batch_size == last
        cfg = train_config(epochs=3, batch_size=batch_size)
        shares = []
        loss_sums = training.loss_sums

        def record(model, batch, targets, rng, out=None):
            shares.append(len(batch))
            return loss_sums(model, batch, targets, rng, out)

        monkeypatch.setattr(training, "loss_sums", record)
        monkeypatch.setattr(training, "_cpus", lambda: 1)
        models = [fresh_model(prepared) for _ in range(3)]
        one = train(models[0], prepared.dataset, cfg)
        sizes = [min(batch_size, 197 - start) for start in range(0, 197, batch_size)]
        # no worker: the caller runs both shares, the first rounded up; a batch of one is one
        assert shares == [s for n in sizes for s in ((n + 1) // 2, n // 2) if s] * cfg.epochs
        monkeypatch.setattr(training, "_cpus", lambda: 2)
        shares.clear()
        two = [train(model, prepared.dataset, cfg) for model in models[1:]]
        assert_no_child_left()
        # the caller's share of each batch; the worker runs the rest
        assert shares == [(n + 1) // 2 for n in sizes] * 2 * cfg.epochs
        for report, model in zip(two, models[1:]):
            assert report.train_loss == one.train_loss and report.val_loss == one.val_loss
            assert model.theta.tobytes() == models[0].theta.tobytes()

    def test_halves_draw_the_whole_batchs_masks(self, prepared, rng):
        model = fresh_model(prepared, dropout_rate=0.5)
        x = rng.standard_normal((21, 8, len(prepared.dataset.feature_names)))

        def masks(batch, generator):
            _, caches = forward(model, batch, training=True, rng=generator)
            return [stage[4].data["mask"] for stage in caches[:2]]

        whole_rng = np.random.default_rng(11)
        want = masks(x, whole_rng)
        caller, worker = np.random.default_rng(11), np.random.default_rng(0)
        worker.bit_generator.state = caller.bit_generator.state
        first = masks(x[:11], training._Rows(caller, 21, 0))
        second = masks(x[11:], training._Rows(worker, 21, 11))
        for whole_mask, a, b in zip(want, first, second):
            assert np.concatenate([a, b]).tobytes() == whole_mask.tobytes()
        assert caller.bit_generator.state == whole_rng.bit_generator.state

    @staticmethod
    def fail_in(monkeypatch, side, error, name="loss_sums"):
        """Make ``side``'s calls of ``training.<name>`` raise ``error``: its
        half of every batch for ``loss_sums``, its chunks of a validation
        pass for ``forward``."""
        monkeypatch.setattr(training, "_cpus", lambda: 2)
        caller, real = os.getpid(), getattr(training, name)

        def failing(*args, **kwargs):
            if (os.getpid() == caller) == (side == "caller"):
                raise error
            return real(*args, **kwargs)

        monkeypatch.setattr(training, name, failing)

    @staticmethod
    def split_validation(monkeypatch):
        """Cut the fixture's 56 validation windows, one chunk at ``MIN_CHUNK``,
        into two, so that a worker takes the second."""
        monkeypatch.setattr(training, "MIN_CHUNK", 8)
        assert training._chunk_bounds(56) == [(0, 28), (28, 56)]

    @staticmethod
    def record_forwards_and_requests(monkeypatch):
        """``(forwards, requests)``: the batch size of each inference
        ``forward`` this process runs, and each request it sends the worker."""
        forwards, requests = [], []
        forward, dump = training.forward, training.pickle.dump

        def counted(model, batch, training):
            forwards.append(len(batch))
            return forward(model, batch, training)

        def sent(obj, file):
            requests.append(obj)
            return dump(obj, file)

        monkeypatch.setattr(training, "forward", counted)
        monkeypatch.setattr(training.pickle, "dump", sent)
        return forwards, requests

    def test_the_worker_runs_the_second_group_of_a_validation_pass(self, prepared, monkeypatch):
        self.split_validation(monkeypatch)
        forwards, requests = self.record_forwards_and_requests(monkeypatch)
        cfg = train_config(epochs=3)
        monkeypatch.setattr(training, "_cpus", lambda: 1)
        one_model, two_model = fresh_model(prepared), fresh_model(prepared)
        one = train(one_model, prepared.dataset, cfg)
        assert forwards == [28, 28] * cfg.epochs and requests == []
        monkeypatch.setattr(training, "_cpus", lambda: 2)
        forwards.clear()
        two = train(two_model, prepared.dataset, cfg)
        assert_no_child_left()
        # the caller ran group 0 and sent group 1 once an epoch, after the shares
        assert forwards == [28] * cfg.epochs
        assert [r for r in requests if isinstance(r, list)] == [[(28, 56)]] * cfg.epochs
        assert two.val_loss == one.val_loss and two.train_loss == one.train_loss
        assert two_model.theta.tobytes() == one_model.theta.tobytes()

    def test_a_short_validation_pass_sends_the_worker_no_request(self, prepared, monkeypatch):
        # 56 windows are one chunk below 2 * MIN_CHUNK, which the caller runs
        forwards, requests = self.record_forwards_and_requests(monkeypatch)
        monkeypatch.setattr(training, "_cpus", lambda: 2)
        cfg = train_config(epochs=2)
        train(fresh_model(prepared), prepared.dataset, cfg)
        assert_no_child_left()
        assert forwards == [56] * cfg.epochs
        assert requests and not [r for r in requests if isinstance(r, list)]

    @pytest.mark.parametrize("side", ["caller", "worker"])
    def test_a_failing_validation_group_reaches_the_caller(self, prepared, monkeypatch, side):
        self.split_validation(monkeypatch)
        self.fail_in(monkeypatch, side, LookupError(f"{side} group failed"), "forward")
        with pytest.raises(LookupError, match=f"{side} group failed"):
            train(fresh_model(prepared), prepared.dataset, train_config())
        assert_no_child_left()

    def test_an_unpicklable_validation_failure_arrives_by_name(self, prepared, monkeypatch):
        self.split_validation(monkeypatch)
        self.fail_in(monkeypatch, "worker", DivergenceError(7, "worker group failed"), "forward")
        with pytest.raises(RuntimeError, match="DivergenceError: worker group failed"):
            train(fresh_model(prepared), prepared.dataset, train_config())
        assert_no_child_left()

    def test_a_non_finite_worker_prediction_diverges_in_its_epoch(self, prepared, monkeypatch,
                                                                  capfd):
        self.split_validation(monkeypatch)
        monkeypatch.setattr(training, "_cpus", lambda: 2)
        caller, forward, calls = os.getpid(), training.forward, []

        def second_epoch_nan(model, batch, training):
            preds, caches = forward(model, batch, training)
            if os.getpid() != caller:
                calls.append(1)  # the worker's own list, kept across its requests
                if len(calls) == 2:
                    preds[:] = np.nan
            return preds, caches

        monkeypatch.setattr(training, "forward", second_epoch_nan)
        with pytest.raises(DivergenceError, match="non-finite validation loss") as err:
            train(fresh_model(prepared), prepared.dataset, train_config(epochs=3))
        assert err.value.epoch == 2
        assert_no_child_left()
        assert "Warning" not in capfd.readouterr().err

    @pytest.mark.parametrize("side", ["caller", "worker"])
    def test_a_failing_half_reaches_the_caller(self, prepared, monkeypatch, side):
        self.fail_in(monkeypatch, side, LookupError(f"{side} half failed"))
        with pytest.raises(LookupError, match=f"{side} half failed"):
            train(fresh_model(prepared), prepared.dataset, train_config())
        assert_no_child_left()

    def test_an_unpicklable_failure_arrives_by_name(self, prepared, monkeypatch):
        # DivergenceError cannot be rebuilt from its args alone
        self.fail_in(monkeypatch, "worker", DivergenceError(7, "worker half failed"))
        with pytest.raises(RuntimeError, match="DivergenceError: worker half failed"):
            train(fresh_model(prepared), prepared.dataset, train_config())
        assert_no_child_left()

    @pytest.mark.parametrize("name", ["_share_sums", "_forward_chunks"])
    def test_a_worker_that_exits_without_a_reply(self, prepared, monkeypatch, name):
        # the worker runs _share_sums for its half of a batch, _forward_chunks for its
        # validation group; the caller's own calls go through
        if name == "_forward_chunks":
            self.split_validation(monkeypatch)
        monkeypatch.setattr(training, "_cpus", lambda: 2)
        caller, real = os.getpid(), getattr(training, name)

        def exiting(*args):
            if os.getpid() != caller:
                os._exit(1)
            return real(*args)

        monkeypatch.setattr(training, name, exiting)
        with pytest.raises(RuntimeError, match="^the training worker exited without a reply$"):
            train(fresh_model(prepared), prepared.dataset, train_config())
        assert_no_child_left()

    def test_divergence_in_the_workers_half(self, prepared, monkeypatch, capfd):
        monkeypatch.setattr(training, "_cpus", lambda: 2)
        caller, loss_sums = os.getpid(), training.loss_sums

        def overflowing(model, *args):
            if os.getpid() != caller:
                model.theta[:] = 1e308  # the shared copy, which the caller rewrites each step
            return loss_sums(model, *args)

        monkeypatch.setattr(training, "loss_sums", overflowing)
        with pytest.raises(DivergenceError) as err:
            train(fresh_model(prepared), prepared.dataset, train_config())
        assert err.value.epoch == 1
        assert_no_child_left()
        assert "Warning" not in capfd.readouterr().err

    def test_the_worker_exits_when_the_caller_dies(self, tmp_path):
        import cnnlstm

        src = str(Path(cnnlstm.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        # stdout reaches end of file once the worker, which shares it, has closed
        # its files, which the kernel does inside the worker's exit
        run = subprocess.run([sys.executable, "-c", ORPHAN], capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.returncode == -signal.SIGKILL
        pid = int(run.stdout)
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # exited and reaped by init
            return
        # a zombie not yet reaped by init has exited; a worker still in its exit
        # may read as running, but has the kernel's PF_EXITING flag set
        assert fields[0] in ("Z", "X") or int(fields[6]) & PF_EXITING, fields


class TestPredict:
    def test_checkpoint_round_trip_bitwise(self, prepared, tmp_path):
        model = fresh_model(prepared)
        direct = predict(model, prepared.preprocess, prepared_frame(prepared))
        path = tmp_path / "m.ckpt"
        save(model, prepared.preprocess, path)
        loaded, pre = load(path)
        reloaded = predict(loaded, pre, prepared_frame(prepared))
        assert [d for d, _ in direct] == [d for d, _ in reloaded]
        assert [p for _, p in direct] == [p for _, p in reloaded]

    def test_column_permutation_invariant(self, prepared):
        model = fresh_model(prepared)
        frame = prepared_frame(prepared)
        import cnnlstm.pipeline as pl

        shuffled = pl.FeatureFrame(
            dates=list(frame.dates),
            columns={k: frame.columns[k].copy() for k in reversed(list(frame.columns))},
        )
        a = predict(model, prepared.preprocess, frame)
        b = predict(model, prepared.preprocess, shuffled)
        assert a == b

    def test_too_few_rows(self, prepared):
        frame = prepared_frame(prepared)
        import cnnlstm.pipeline as pl

        short = pl.FeatureFrame(
            dates=frame.dates[:7],
            columns={k: v[:7].copy() for k, v in frame.columns.items()},
        )
        with pytest.raises(PipelineError):
            predict(fresh_model(prepared), prepared.preprocess, short)

    def test_missing_feature_named(self, prepared):
        frame = prepared_frame(prepared)
        import cnnlstm.pipeline as pl

        dropped = next(iter(prepared.preprocess.selected))
        partial = pl.FeatureFrame(
            dates=list(frame.dates),
            columns={k: v.copy() for k, v in frame.columns.items() if k != dropped},
        )
        with pytest.raises(CompatibilityError, match=dropped):
            predict(fresh_model(prepared), prepared.preprocess, partial)

    def test_window_count(self, prepared):
        frame = prepared_frame(prepared)
        rows = predict(fresh_model(prepared), prepared.preprocess, frame)
        assert len(rows) == len(frame) - 8 + 1
        assert rows[-1][0] == frame.dates[-1]


def prepared_frame(prepared):
    """Engineered (pre-scaling) frame carrying the selected feature columns."""
    from cnnlstm.pipeline import add_moving_averages, add_yield, drop_rows

    frame = add_yield(add_moving_averages(synthetic_ohlcv(rows=60, seed=31), (3, 5, 10)))
    return drop_rows(frame, 10)
