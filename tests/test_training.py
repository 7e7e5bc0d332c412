import sys
import threading
import warnings

import numpy as np
import pytest

from cnnlstm import training
from cnnlstm.errors import CompatibilityError, DivergenceError, PipelineError
from cnnlstm.model import ModelConfig, build, forward, load, save
from cnnlstm.optim import OptimConfig
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
        model, ds, prepared.preprocess,
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
            model, prepared.dataset, prepared.preprocess,
            train_config(epochs=1, optim=dict(lr0=0.0, l2=0.0)),
        )
        for k in before:
            assert np.array_equal(model.params[k], before[k]), k
        # with untouched parameters the recorded loss is the initial loss
        model2 = fresh_model(prepared)
        report2 = train(
            model2, prepared.dataset, prepared.preprocess,
            train_config(epochs=3, optim=dict(lr0=0.0, l2=0.0)),
        )
        assert report.train_loss[0] == report2.train_loss[0]
        assert len(set(report2.val_loss)) == 1  # constant history at lr 0

    def test_same_seed_bit_identical_history(self, prepared):
        r1 = train(fresh_model(prepared), prepared.dataset, prepared.preprocess, train_config())
        r2 = train(fresh_model(prepared), prepared.dataset, prepared.preprocess, train_config())
        assert r1.train_loss == r2.train_loss
        assert r1.val_loss == r2.val_loss

    def test_history_lengths_match_epochs(self, prepared):
        report = train(
            fresh_model(prepared), prepared.dataset, prepared.preprocess, train_config(epochs=4)
        )
        assert len(report.train_loss) == 4
        assert len(report.val_loss) == 4
        assert report.final_metrics is not None
        assert all(np.isfinite(v) for v in report.train_loss + report.val_loss)

    def test_divergence_aborts_with_epoch(self, prepared):
        model = fresh_model(prepared)
        with pytest.raises(DivergenceError) as err:
            train(
                model, prepared.dataset, prepared.preprocess,
                train_config(epochs=5, optim=dict(lr0=1e12, l2=0.0)),
            )
        assert err.value.epoch >= 1

    def test_loss_decreases_on_learnable_data(self, prepared):
        report = train(
            fresh_model(prepared), prepared.dataset, prepared.preprocess,
            train_config(epochs=6, optim=dict(optimizer="adam", lr0=0.005)),
        )
        assert report.train_loss[-1] < report.train_loss[0]

    def test_adam_path_runs(self, prepared):
        report = train(
            fresh_model(prepared), prepared.dataset, prepared.preprocess,
            train_config(optim=dict(optimizer="adam", lr0=0.002)),
        )
        assert len(report.train_loss) == 2


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
        (104, [(0, 104)]),
        (137, [(0, 69), (69, 137)]),
        (207, [(0, 104), (104, 207)]),
    ])
    def test_chunk_bounds(self, n, bounds):
        assert training._chunk_bounds(n) == bounds

    @pytest.mark.parametrize("cpus,env,free", [
        (2, {}, 1),  # OpenBLAS then starts a thread per CPU
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
        (2, {"OMP_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, 2),
        (2, {"OMP_NUM_THREADS": "1,1"}, 1),  # not a count OpenBLAS reads
        (4, {"OPENBLAS_NUM_THREADS": "2"}, 2),
        (1, {"OPENBLAS_NUM_THREADS": "4"}, 1),
    ])
    def test_cpus_left_by_blas_threads(self, monkeypatch, cpus, env, free):
        monkeypatch.setattr(training.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert training._cpus() == free

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
