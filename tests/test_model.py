import tracemalloc

import numpy as np
import pytest

from cnnlstm.errors import (
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointVersionError,
    ConfigError,
    ShapeError,
)
from cnnlstm.model import (
    Model,
    ModelConfig,
    backward,
    build,
    forward,
    grad_check,
    load,
    loss_gradients,
    run_gradient_checks,
    save,
    verification_config,
)
from cnnlstm.optim import sgd_step
from cnnlstm.pipeline import PcaState, PreprocessState, ScalerState
from oracles import reference_array_lines

# the checkpoint's parameter header lines for ``tiny_config``, as checkpoint v2 has them
TINY_PARAM_LINES = [
    "param conv1.kernels 2,2,3", "param conv1.bias 2",
    "param lstm1.w_i 3,2", "param lstm1.u_i 3,3", "param lstm1.b_i 3",
    "param lstm1.w_f 3,2", "param lstm1.u_f 3,3", "param lstm1.b_f 3",
    "param lstm1.w_o 3,2", "param lstm1.u_o 3,3", "param lstm1.b_o 3",
    "param lstm1.w_g 3,2", "param lstm1.u_g 3,3", "param lstm1.b_g 3",
    "param conv2.kernels 3,2,3", "param conv2.bias 3",
    "param lstm2.w_i 2,3", "param lstm2.u_i 2,2", "param lstm2.b_i 2",
    "param lstm2.w_f 2,3", "param lstm2.u_f 2,2", "param lstm2.b_f 2",
    "param lstm2.w_o 2,3", "param lstm2.u_o 2,2", "param lstm2.b_o 2",
    "param lstm2.w_g 2,3", "param lstm2.u_g 2,2", "param lstm2.b_g 2",
    "param conv3.kernels 2,2,2", "param conv3.bias 2",
    "param lstm3.w_i 2,2", "param lstm3.u_i 2,2", "param lstm3.b_i 2",
    "param lstm3.w_f 2,2", "param lstm3.u_f 2,2", "param lstm3.b_f 2",
    "param lstm3.w_o 2,2", "param lstm3.u_o 2,2", "param lstm3.b_o 2",
    "param lstm3.w_g 2,2", "param lstm3.u_g 2,2", "param lstm3.b_g 2",
    "param dense.weight 1,2", "param dense.bias 1",
]


def is_bias(name):
    leaf = name.rsplit(".", 1)[-1]
    return leaf == "bias" or leaf.startswith("b_")


def offset(view, theta):
    """Where ``view`` starts in ``theta``, in entries."""
    return (view.__array_interface__["data"][0] - theta.__array_interface__["data"][0]) // 8


def tiny_config(**overrides):
    base = dict(
        features=3,
        lookback=16,
        conv_filters=(2, 3, 2),
        kernel_width=2,
        pool_window=2,
        lstm_units=(3, 2, 2),
        dropout_rate=0.0,
        seed=11,
    )
    base.update(overrides)
    return ModelConfig(**base).validate()


def make_preprocess(with_pca=True):
    scaler = ScalerState(
        columns=("open", "high", "close"),
        mins=np.array([1.0, 2.0, 1.5]),
        maxs=np.array([9.0, 11.0, 10.0]),
    )
    pca = None
    if with_pca:
        pca = PcaState(
            columns=("open", "high"),
            mean=np.array([0.4, 0.5]),
            std=np.array([0.2, 0.25]),
            eigenvalues=np.array([1.6, 0.4]),
            basis=np.array([[0.8, 0.6], [0.6, -0.8]]),
            n_components=2,
            explained_share=1.0,
        )
    return PreprocessState(selected=("open", "high"), scaler=scaler, pca=pca, horizon=1)


class TestModelConfig:
    def test_default_stage_lengths(self):
        cfg = ModelConfig(features=3).validate()
        assert cfg.stage_lengths() == [(62, 31), (29, 14), (12, 6)]

    def test_sequence_collapse_is_named(self):
        with pytest.raises(ConfigError, match="stage 2"):
            ModelConfig(features=3, lookback=8).validate()

    def test_bad_extents(self):
        with pytest.raises(ConfigError):
            ModelConfig(features=0).validate()
        with pytest.raises(ConfigError):
            ModelConfig(features=3, conv_filters=(8, 8)).validate()
        with pytest.raises(ConfigError):
            ModelConfig(features=3, dropout_rate=1.0).validate()


class TestBuild:
    def test_same_seed_identical(self):
        a = build(tiny_config())
        b = build(tiny_config())
        assert a.params.keys() == b.params.keys()
        assert a.theta.tobytes() == b.theta.tobytes()

    def test_different_seed_differs(self):
        a = build(tiny_config())
        b = build(tiny_config(seed=12))
        assert any(not np.array_equal(a.params[k], b.params[k]) for k in a.params)

    def test_forget_bias_one_other_biases_zero(self):
        m = build(tiny_config())
        for stage in (1, 2, 3):
            assert (m.params[f"lstm{stage}.b_f"] == 1.0).all()
            assert not m.params[f"lstm{stage}.b_i"].any()
            assert not m.params[f"lstm{stage}.b_o"].any()
            assert not m.params[f"lstm{stage}.b_g"].any()
        assert not m.params["dense.bias"].any()
        assert not m.params["conv1.bias"].any()

    def test_shapes_follow_config(self):
        m = build(tiny_config())
        lines = [f"param {n} {','.join(map(str, p.shape))}" for n, p in m.params.items()]
        assert lines == TINY_PARAM_LINES


class TestLayout:
    def test_views_partition_theta_with_biases_last(self):
        m = build(tiny_config())
        runs = sorted((offset(p, m.theta), p.size, n) for n, p in m.params.items())
        end = 0
        for start, size, name in runs:
            assert start == end, name
            assert np.shares_memory(m.params[name], m.theta) and m.params[name].flags.c_contiguous
            assert (start >= m.n_weights) if is_bias(name) else (start + size <= m.n_weights), name
            end = start + size
        assert end == m.theta.size
        assert sum(p.size for n, p in m.params.items() if not is_bias(n)) == m.n_weights

    def test_lstm_blocks_stack_the_gates_views(self):
        m = build(tiny_config())
        for stage in (1, 2, 3):
            p = m.lstm(stage)
            for part, block in (("w", p.w), ("u", p.u), ("b", p.b)):
                # the kernels' gate order: o, i, f, g
                gates = [m.params[f"lstm{stage}.{part}_{g}"] for g in "oifg"]
                assert np.array_equal(block, np.concatenate(gates))
                assert np.shares_memory(block, m.theta)

    def test_params_cannot_be_rebound(self):
        m = build(tiny_config())
        with pytest.raises(TypeError):
            m.params["dense.bias"] = np.ones(1)

    def test_sgd_decays_weights_and_leaves_biases(self):
        m = build(tiny_config())
        before = {n: p.copy() for n, p in m.params.items()}
        lr, l2 = 0.05, 0.3
        sgd_step(m.theta, np.zeros_like(m.theta), lr, l2, m.n_weights)
        for name, p in m.params.items():
            if is_bias(name):
                assert p.tobytes() == before[name].tobytes(), name
            else:
                assert np.allclose(p, before[name] * (1.0 - lr * l2), rtol=1e-15, atol=0), name

    def test_checkpoint_blocks_are_the_views(self, tmp_path):
        m = build(tiny_config())
        path = tmp_path / "model.ckpt"
        save(m, make_preprocess(), path)
        lines = path.read_text().splitlines()
        heads = [i for i, line in enumerate(lines) if line.startswith("param ")]
        assert [lines[i] for i in heads] == TINY_PARAM_LINES
        assert heads[-1] == len(lines) - 2
        for i, (name, p) in zip(heads, m.params.items()):
            assert lines[i + 1 : i + 2] == reference_array_lines(p), name


class TestForward:
    def test_zero_parameters_predict_dense_bias(self, rng):
        m = Model(tiny_config())
        assert not m.theta.any()
        preds, caches = forward(m, rng.standard_normal((4, 16, 3)), training=False)
        assert np.array_equal(preds, np.zeros(4))
        assert caches is None

    def test_inference_is_deterministic(self, rng):
        m = build(tiny_config())
        x = rng.standard_normal((3, 16, 3))
        p1, _ = forward(m, x, training=False)
        p2, _ = forward(m, x, training=False)
        assert np.array_equal(p1, p2)

    def test_batch_equals_concatenated_singles(self, rng):
        m = build(tiny_config())
        x = rng.standard_normal((2, 16, 3))
        both, _ = forward(m, x, training=False)
        one, _ = forward(m, x[:1], training=False)
        two, _ = forward(m, x[1:], training=False)
        assert abs(both[0] - one[0]) <= 1e-12
        assert abs(both[1] - two[0]) <= 1e-12

    def test_shape_mismatch(self, rng):
        m = build(tiny_config())
        with pytest.raises(ShapeError):
            forward(m, rng.standard_normal((2, 15, 3)), training=False)
        with pytest.raises(ShapeError):
            forward(m, rng.standard_normal((2, 16, 4)), training=False)

    @pytest.mark.parametrize("batch", [1, 3, 137])
    def test_inference_equals_training_mode_without_dropout_bitwise(self, rng, batch):
        m = build(ModelConfig(features=5, dropout_rate=0.0, seed=3))
        x = rng.standard_normal((batch, 64, 5))
        got, none = forward(m, x, training=False)
        want, caches = forward(m, x, training=True)
        assert none is None and caches is not None
        assert got.tobytes() == want.tobytes()

    def test_inference_peak_stays_below_one_training_gate_block(self, rng):
        # a training forward projects stage 1's 31 steps into a [31, 4*64, B]
        # gate block for the backward pass; inference needs less than that
        m = build(ModelConfig(features=5, seed=3))
        x = rng.standard_normal((137, 64, 5))
        tracemalloc.start()
        try:
            forward(m, x, training=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 31 * 256 * 137 * 8

    def test_training_mode_keeps_caches(self, rng):
        m = build(tiny_config())
        _, caches = forward(m, rng.standard_normal((2, 16, 3)), training=True)
        assert caches is not None and not caches.consumed


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self, rng):
        m = build(tiny_config())
        _, caches = forward(m, rng.standard_normal((2, 16, 3)), training=True)
        grad = backward(m, caches, np.zeros(2))
        assert grad.shape == m.theta.shape and not grad.any()

    def test_batch_gradient_is_mean_of_singles(self, rng):
        m = build(tiny_config())
        x = rng.standard_normal((2, 16, 3))
        up = np.array([0.7, -1.3])
        _, caches = forward(m, x, training=True)
        both = backward(m, caches, up)
        _, c1 = forward(m, x[:1], training=True)
        g1 = backward(m, c1, up[:1])
        _, c2 = forward(m, x[1:], training=True)
        g2 = backward(m, c2, up[1:])
        both, g1, g2 = (m.views(g)[1] for g in (both, g1, g2))
        for k in both:
            merged = 0.5 * (g1[k] + g2[k])
            scale = max(np.abs(merged).max(), 1e-12)
            assert np.abs(both[k] - merged).max() <= 1e-12 * max(1.0, scale), k

    def test_caches_consumed_exactly_once(self, rng):
        m = build(tiny_config())
        _, caches = forward(m, rng.standard_normal((2, 16, 3)), training=True)
        backward(m, caches, np.ones(2))
        with pytest.raises(ShapeError):
            backward(m, caches, np.ones(2))

    def test_inference_caches_rejected(self):
        m = build(tiny_config())
        with pytest.raises(ShapeError):
            backward(m, None, np.ones(2))


class TestGradCheck:
    def test_small_stack_within_tolerance(self, rng):
        m = build(tiny_config(dropout_rate=0.1))
        batch = rng.standard_normal((2, 16, 3))
        worst, report = grad_check(m, batch, rng_seed=5)
        assert worst < 1e-5
        assert set(report) == set(m.params)

    def test_near_linear_stack_is_sharper(self, rng):
        # width-1 kernels and pool 1 make the conv/pool stages exact linear
        # maps; the loss is then quadratic-dominated, so a larger step cuts
        # the roundoff floor with no truncation penalty
        cfg = tiny_config(kernel_width=1, pool_window=1, dropout_rate=0.0)
        m = build(cfg)
        batch = rng.standard_normal((2, 16, 3))
        worst, _ = grad_check(m, batch, eps=1e-5, rng_seed=5)
        assert worst < 1e-8

    def test_repeatable(self, rng):
        m = build(tiny_config(dropout_rate=0.2))
        batch = rng.standard_normal((2, 16, 3))
        w1, r1 = grad_check(m, batch, rng_seed=9)
        w2, r2 = grad_check(m, batch, rng_seed=9)
        assert w1 == w2 and r1 == r2

    def test_loss_gradients_restores_params(self, rng):
        m = build(tiny_config())
        before = {k: v.copy() for k, v in m.params.items()}
        grad_check(m, rng.standard_normal((2, 16, 3)), rng_seed=3)
        for k in before:
            assert np.array_equal(m.params[k], before[k])

    def test_run_gradient_checks_all_layers(self):
        results = dict(run_gradient_checks(seed=0))
        assert set(results) == {"conv1d", "maxpool1d", "lstm", "dense", "dropout", "full_stack"}
        assert all(err < 1e-5 for err in results.values())

    def test_corrupt_hook_fails(self):
        results = dict(run_gradient_checks(seed=0, corrupt=True))
        assert results["full_stack"] > 1e-5


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path, rng):
        m = build(verification_config(seed=3))
        pre = make_preprocess()
        path = tmp_path / "model.ckpt"
        save(m, pre, path)
        loaded, pre2 = load(path)
        assert loaded.config == m.config
        for k in m.params:
            assert np.array_equal(loaded.params[k], m.params[k]), k
        assert pre2.selected == pre.selected
        assert np.array_equal(pre2.scaler.mins, pre.scaler.mins)
        assert np.array_equal(pre2.scaler.maxs, pre.scaler.maxs)
        assert np.array_equal(pre2.pca.basis, pre.pca.basis)
        assert pre2.horizon == pre.horizon

        x = rng.standard_normal((5, m.config.lookback, m.config.features))
        p1, _ = forward(m, x, training=False)
        p2, _ = forward(loaded, x, training=False)
        assert np.array_equal(p1, p2)

    def test_round_trip_without_pca(self, tmp_path):
        m = build(verification_config(features=2, seed=3))
        path = tmp_path / "model.ckpt"
        save(m, make_preprocess(with_pca=False), path)
        _, pre2 = load(path)
        assert pre2.pca is None

    def test_truncated_file(self, tmp_path):
        m = build(verification_config(seed=3))
        path = tmp_path / "model.ckpt"
        save(m, make_preprocess(), path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointFormatError):
            load(path)

    def test_version_mismatch(self, tmp_path):
        m = build(verification_config(seed=3))
        path = tmp_path / "model.ckpt"
        save(m, make_preprocess(), path)
        lines = path.read_text().splitlines()
        lines[0] = "CNNLSTM-CKPT v9"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointVersionError):
            load(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "noise.txt"
        path.write_text("hello world\n")
        with pytest.raises(CheckpointFormatError):
            load(path)

    def test_non_integer_config_value_names_its_line(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save(build(verification_config(seed=3)), make_preprocess(), path)
        path.write_text(path.read_text().replace("features=3\n", "features=abc\n"))
        with pytest.raises(CheckpointFormatError, match=r"line 2: bad value for features: 'abc'"):
            load(path)

    def test_damaged_parameter_block_names_its_line(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save(build(verification_config(seed=3)), make_preprocess(), path)
        lines = path.read_text().splitlines()
        at = lines.index("param conv2.bias 4") + 1
        lines[at] = lines[at][:-4]  # one base64 quantum short: 3 bytes of 32 missing
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointFormatError, match=rf"line {at + 1}: expected 4 values \(32 bytes\)"):
            load(path)

    def test_failed_save_keeps_the_previous_file(self, tmp_path, failing_writes):
        path = tmp_path / "model.ckpt"
        save(build(verification_config(seed=3)), make_preprocess(), path)
        before = path.read_bytes()
        with failing_writes(), pytest.raises(OSError, match="No space left"):
            save(build(verification_config(seed=4)), make_preprocess(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]  # no temporary file left

    def test_shape_disagreement(self, tmp_path):
        m = build(verification_config(seed=3))
        path = tmp_path / "model.ckpt"
        save(m, make_preprocess(), path)
        text = path.read_text().replace("param conv1.kernels 4,2,3", "param conv1.kernels 4,2,2")
        path.write_text(text)
        with pytest.raises(CheckpointShapeError):
            load(path)


class TestLossGradients:
    def test_matches_mse_scale(self, rng):
        # gradient magnitude must be independent of batch size
        m = build(tiny_config())
        x1 = rng.standard_normal((1, 16, 3))
        x = np.concatenate([x1, x1], axis=0)
        t1 = np.array([0.3])
        t = np.array([0.3, 0.3])
        _, g1 = loss_gradients(m, x1, t1, np.random.default_rng(0))
        _, g2 = loss_gradients(m, x, t, np.random.default_rng(0))
        assert np.allclose(g1, g2, rtol=1e-10, atol=1e-15)
