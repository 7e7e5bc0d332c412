import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnlstm.errors import ConfigError, ShapeError
from cnnlstm.optim import (
    OptimConfig,
    adam_step,
    init_adam_state,
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
        theta = np.array([1.0, -2.0])
        sgd_step(theta, np.zeros(2), lr=0.1, l2=0.0, n_weights=2)
        assert np.array_equal(theta, [1.0, -2.0])

    def test_plain_step(self):
        theta = np.array([1.0])
        sgd_step(theta, np.array([0.5]), lr=0.1, l2=0.0, n_weights=1)
        assert theta[0] == pytest.approx(0.95, rel=1e-15)

    def test_pure_decay(self):
        theta = np.array([1.0])
        sgd_step(theta, np.array([0.0]), lr=0.1, l2=0.1, n_weights=1)
        assert theta[0] == pytest.approx(0.99, rel=1e-15)

    def test_biases_not_decayed(self):
        # one weight, then two biases
        theta = np.array([1.0, 1.0, 1.0])
        sgd_step(theta, np.zeros(3), lr=0.5, l2=0.3, n_weights=1)
        assert theta[0] < 1.0
        assert theta[1] == 1.0
        assert theta[2] == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sgd_step(np.ones(2), np.ones(3), lr=0.1, l2=0.0, n_weights=2)

    def test_linear_in_lr(self, rng):
        theta = rng.standard_normal(4)
        grad = rng.standard_normal(4)
        one, two = theta.copy(), theta.copy()
        sgd_step(one, grad, lr=0.1, l2=0.0, n_weights=4)
        sgd_step(two, grad, lr=0.2, l2=0.0, n_weights=4)
        assert np.allclose(two - theta, 2.0 * (one - theta), rtol=1e-12)

    def test_gradient_unmodified(self, rng):
        grad = rng.standard_normal(4)
        before = grad.copy()
        sgd_step(rng.standard_normal(4), grad, lr=0.1, l2=0.01, n_weights=4)
        assert np.array_equal(grad, before)

    @settings(max_examples=50)
    @given(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_descends_quadratic(self, a, lr):
        # loss 0.5*(w - a)^2 from w = a + 1: one step strictly reduces it
        w = np.array([a + 1.0])
        before = 0.5 * (w[0] - a) ** 2
        sgd_step(w, np.array([w[0] - a]), lr=lr, l2=0.0, n_weights=1)
        assert 0.5 * (w[0] - a) ** 2 < before


def adam(theta, grads, lr, l2=0.0, n_weights=None):
    """``theta`` after one Adam step per gradient in ``grads``, from a fresh state."""
    state = init_adam_state(theta, OptimConfig())
    for g in grads:
        adam_step(theta, np.asarray(g, dtype=np.float64), state, lr, l2,
                  theta.size if n_weights is None else n_weights)
    return state


class TestAdamStep:
    def test_zero_grads_are_noop(self):
        theta = np.array([2.0, -1.0])
        adam(theta, [np.zeros(2), np.zeros(2)], lr=0.01)
        assert np.array_equal(theta, [2.0, -1.0])

    def test_first_step_magnitude(self):
        theta = np.array([0.0])
        state = adam(theta, [[1.0]], lr=0.001)
        # bias-corrected first step: lr * g / (|g| + eps) = lr / (1 + 1e-8)
        assert theta[0] == pytest.approx(-0.001 / (1.0 + 1e-8), rel=1e-12)
        assert state.t == 1

    @settings(max_examples=50)
    @given(st.floats(min_value=1e-12, max_value=1e6, allow_nan=False))
    def test_first_step_bounded_by_lr(self, g):
        theta = np.array([0.0])
        adam(theta, [[g]], lr=0.002)
        assert abs(theta[0]) <= 0.002 * (1.0 + 1e-9)

    def test_equal_magnitude_streams_update_identically(self, rng):
        # two coordinates fed +g and -g streams: mirrored updates, equal sizes
        stream = np.abs(rng.standard_normal(12)) + 0.1
        theta = np.array([0.0, 0.0])
        adam(theta, [[g, -g] for g in stream], lr=0.01)
        a, b = theta
        assert a == pytest.approx(-b, rel=1e-12)
        # identical streams march in lockstep
        theta2 = np.array([0.0, 0.0])
        adam(theta2, [[g, g] for g in stream], lr=0.01)
        assert theta2[0] == theta2[1]

    def test_l2_applies_to_weights_only(self):
        theta = np.array([1.0, 1.0])  # a weight, then a bias
        adam(theta, [np.zeros(2)], lr=0.01, l2=0.1, n_weights=1)
        assert theta[0] < 1.0  # decay pulled it down
        assert theta[1] == 1.0

    def test_shape_mismatch(self):
        theta = np.ones(2)
        with pytest.raises(ShapeError):
            adam_step(theta, np.ones(3), init_adam_state(theta, OptimConfig()), 0.01, 0.0, 2)


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
