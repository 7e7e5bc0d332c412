import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnlstm.errors import ConfigError, ShapeError
from cnnlstm.optim import (
    OptimConfig,
    adam_step,
    init_adam_state,
    is_bias,
    mse,
    schedule_lr,
    sgd_step,
)


class TestMse:
    def test_perfect_prediction(self):
        assert mse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_unit_errors(self):
        assert mse(np.array([0.0, 0.0]), np.array([1.0, 1.0])) == 1.0

    def test_direct_evaluation(self):
        # (1 + 9) / 2
        assert mse(np.array([2.0, 4.0]), np.array([1.0, 1.0])) == 5.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mse(np.ones(3), np.ones(2))

    def test_empty(self):
        with pytest.raises(ShapeError):
            mse(np.array([]), np.array([]))


class TestScheduleLr:
    def test_epoch_zero_is_lr0(self):
        cfg = OptimConfig(lr0=0.037)
        assert schedule_lr(0, cfg) == 0.037

    def test_step_decay(self):
        cfg = OptimConfig(lr0=0.01, decay_factor=0.5, decay_every=10)
        assert schedule_lr(25, cfg) == pytest.approx(0.0025, rel=1e-15)

    def test_factor_one_is_constant(self):
        cfg = OptimConfig(lr0=0.02, decay_factor=1.0, decay_every=3)
        assert all(schedule_lr(e, cfg) == 0.02 for e in range(40))

    def test_negative_epoch(self):
        with pytest.raises(ConfigError):
            schedule_lr(-1, OptimConfig())

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=500))
    def test_non_increasing(self, epoch):
        cfg = OptimConfig(lr0=0.1, decay_factor=0.9, decay_every=4)
        assert schedule_lr(epoch + 1, cfg) <= schedule_lr(epoch, cfg)


class TestSgdStep:
    def test_zero_grad_zero_l2_is_noop(self):
        params = {"layer.weight": np.array([1.0, -2.0])}
        out = sgd_step(params, {"layer.weight": np.zeros(2)}, lr=0.1, l2=0.0)
        assert np.array_equal(out["layer.weight"], params["layer.weight"])

    def test_plain_step(self):
        out = sgd_step({"w.weight": np.array([1.0])}, {"w.weight": np.array([0.5])}, lr=0.1)
        assert out["w.weight"][0] == pytest.approx(0.95, rel=1e-15)

    def test_pure_decay(self):
        out = sgd_step(
            {"w.weight": np.array([1.0])}, {"w.weight": np.array([0.0])}, lr=0.1, l2=0.1
        )
        assert out["w.weight"][0] == pytest.approx(0.99, rel=1e-15)

    def test_biases_not_decayed(self):
        params = {"layer.bias": np.array([1.0]), "lstm.b_f": np.array([1.0])}
        grads = {"layer.bias": np.array([0.0]), "lstm.b_f": np.array([0.0])}
        out = sgd_step(params, grads, lr=0.5, l2=0.3)
        assert out["layer.bias"][0] == 1.0
        assert out["lstm.b_f"][0] == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sgd_step({"a.weight": np.ones(2)}, {"a.weight": np.ones(3)}, lr=0.1)

    def test_key_mismatch(self):
        with pytest.raises(ShapeError):
            sgd_step({"a.weight": np.ones(2)}, {"b.weight": np.ones(2)}, lr=0.1)

    def test_linear_in_lr(self, rng):
        params = {"p.weight": rng.standard_normal(4)}
        grads = {"p.weight": rng.standard_normal(4)}
        d1 = sgd_step(params, grads, lr=0.1)["p.weight"] - params["p.weight"]
        d2 = sgd_step(params, grads, lr=0.2)["p.weight"] - params["p.weight"]
        assert np.allclose(d2, 2.0 * d1, rtol=1e-12)

    def test_inputs_unmodified(self, rng):
        params = {"p.weight": rng.standard_normal(4)}
        before = params["p.weight"].copy()
        sgd_step(params, {"p.weight": rng.standard_normal(4)}, lr=0.1, l2=0.01)
        assert np.array_equal(params["p.weight"], before)

    @settings(max_examples=50)
    @given(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_descends_quadratic(self, a, lr):
        # loss 0.5*(w - a)^2 from w = a + 1: one step strictly reduces it
        w = {"q.weight": np.array([a + 1.0])}
        g = {"q.weight": np.array([w["q.weight"][0] - a])}
        new = sgd_step(w, g, lr=lr)["q.weight"][0]
        assert 0.5 * (new - a) ** 2 < 0.5 * (w["q.weight"][0] - a) ** 2


class TestAdamStep:
    def test_zero_grads_are_noop(self):
        params = {"p.weight": np.array([2.0, -1.0])}
        state = init_adam_state(params)
        out, state = adam_step(params, {"p.weight": np.zeros(2)}, state, lr=0.01)
        assert np.array_equal(out["p.weight"], params["p.weight"])
        out2, _ = adam_step(out, {"p.weight": np.zeros(2)}, state, lr=0.01)
        assert np.array_equal(out2["p.weight"], params["p.weight"])

    def test_first_step_magnitude(self):
        params = {"p.weight": np.array([0.0])}
        state = init_adam_state(params)
        out, state = adam_step(params, {"p.weight": np.array([1.0])}, state, lr=0.001)
        # bias-corrected first step: lr * g / (|g| + eps) = lr / (1 + 1e-8)
        assert out["p.weight"][0] == pytest.approx(-0.001 / (1.0 + 1e-8), rel=1e-12)
        assert state.t == 1

    @settings(max_examples=50)
    @given(st.floats(min_value=1e-12, max_value=1e6, allow_nan=False))
    def test_first_step_bounded_by_lr(self, g):
        params = {"p.weight": np.array([0.0])}
        out, _ = adam_step(params, {"p.weight": np.array([g])}, init_adam_state(params), lr=0.002)
        assert abs(out["p.weight"][0]) <= 0.002 * (1.0 + 1e-9)

    def test_equal_magnitude_streams_update_identically(self, rng):
        # two coordinates fed +g and -g streams: mirrored updates, equal sizes
        stream = np.abs(rng.standard_normal(12)) + 0.1
        params = {"p.weight": np.array([0.0, 0.0])}
        state = init_adam_state(params)
        for g in stream:
            grads = {"p.weight": np.array([g, -g])}
            params, state = adam_step(params, grads, state, lr=0.01)
        a, b = params["p.weight"]
        assert a == pytest.approx(-b, rel=1e-12)
        # identical streams march in lockstep
        params2 = {"p.weight": np.array([0.0, 0.0])}
        state2 = init_adam_state(params2)
        for g in stream:
            grads = {"p.weight": np.array([g, g])}
            params2, state2 = adam_step(params2, grads, state2, lr=0.01)
        assert params2["p.weight"][0] == params2["p.weight"][1]

    def test_l2_applies_to_weights_only(self):
        params = {"p.weight": np.array([1.0]), "p.bias": np.array([1.0])}
        state = init_adam_state(params)
        grads = {"p.weight": np.array([0.0]), "p.bias": np.array([0.0])}
        out, _ = adam_step(params, grads, state, lr=0.01, l2=0.1)
        assert out["p.weight"][0] < 1.0  # decay pulled it down
        assert out["p.bias"][0] == 1.0

    def test_shape_mismatch(self):
        params = {"p.weight": np.ones(2)}
        with pytest.raises(ShapeError):
            adam_step(params, {"p.weight": np.ones(3)}, init_adam_state(params), lr=0.01)


class TestOptimConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            OptimConfig(optimizer="rmsprop").validate()
        with pytest.raises(ConfigError):
            OptimConfig(lr0=-0.1).validate()
        with pytest.raises(ConfigError):
            OptimConfig(decay_factor=0.0).validate()
        with pytest.raises(ConfigError):
            OptimConfig(decay_every=0).validate()
        with pytest.raises(ConfigError):
            OptimConfig(l2=-1e-4).validate()
        # Adam's settings, and NaN or infinite lr0 and l2, fail whichever optimizer is chosen
        for bad in (dict(beta1=1.0), dict(beta2=1.0), dict(beta1=2.0), dict(beta1=-0.5),
                    dict(beta2=float("nan")), dict(eps_adam=-1.0), dict(eps_adam=0.0),
                    dict(lr0=float("nan")), dict(lr0=float("inf")), dict(l2=float("nan")),
                    dict(l2=float("inf"))):
            for optimizer in ("sgd", "adam"):
                with pytest.raises(ConfigError):
                    OptimConfig(optimizer=optimizer, **bad).validate()
        OptimConfig().validate()
        OptimConfig(optimizer="adam", beta1=0.0, beta2=0.0).validate()
        OptimConfig(lr0=0.0).validate()  # degenerate no-op runs are allowed

    def test_is_bias_naming(self):
        assert is_bias("conv1.bias")
        assert is_bias("lstm2.b_f")
        assert not is_bias("dense.weight")
        assert not is_bias("lstm2.u_i")
