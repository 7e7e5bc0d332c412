import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from cnnlstm.errors import ConfigError
from cnnlstm.layers import (
    GATES,
    Conv1dParams,
    DenseParams,
    LstmParams,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    dropout,
    dropout_backward,
    lstm_backward,
    lstm_forward,
    maxpool1d_backward,
    maxpool1d_forward,
)
from oracles import (
    finite_difference,
    reference_conv1d_backward,
    reference_conv1d_forward,
    reference_lstm_backward,
    reference_lstm_forward,
    reference_maxpool,
    rel_deviation,
)


def col(values):
    """One sample of one feature, as a batch of one [1, T, 1]."""
    return np.asarray(values, dtype=np.float64)[None, :, None]


def lstm_params(w, u, b):
    """Stacked ``LstmParams`` from gate -> [H,F], [H,H] and [H] dicts."""
    return LstmParams(*(np.concatenate([part[g] for g in GATES]) for part in (w, u, b)))


def per_gate(stacked):
    """Gate -> its rows of a stacked LSTM array, as views."""
    h = stacked.shape[0] // 4
    return {g: stacked[k * h : (k + 1) * h] for k, g in enumerate(GATES)}


def scalar_lstm_params(wi, wf, wo, wg, ui, uf, uo, ug, bi, bf, bo, bg):
    return lstm_params(
        w={"i": np.array([[wi]]), "f": np.array([[wf]]), "o": np.array([[wo]]), "g": np.array([[wg]])},
        u={"i": np.array([[ui]]), "f": np.array([[uf]]), "o": np.array([[uo]]), "g": np.array([[ug]])},
        b={"i": np.array([bi]), "f": np.array([bf]), "o": np.array([bo]), "g": np.array([bg])},
    )


class TestConv1d:
    def test_width_one_identity_kernel(self):
        x = col([1.0, 2.0, 3.0, 4.0])
        p = Conv1dParams(kernels=np.array([[[1.0]]]), bias=np.zeros(1))
        y, _ = conv1d_forward(x, p)
        assert np.array_equal(y, x)

    def test_two_tap_average(self):
        x = col([1.0, 2.0, 3.0, 4.0])
        p = Conv1dParams(kernels=np.array([[[0.5], [0.5]]]), bias=np.zeros(1))
        y, _ = conv1d_forward(x, p)
        assert np.array_equal(y, col([1.5, 2.5, 3.5]))

    def test_zero_kernels(self, rng):
        x = rng.standard_normal((1, 7, 3))
        p = Conv1dParams(kernels=np.zeros((4, 2, 3)), bias=np.zeros(4))
        y, _ = conv1d_forward(x, p)
        assert np.array_equal(y, np.zeros((1, 6, 4)))

    def test_too_short(self):
        p = Conv1dParams(kernels=np.zeros((1, 5, 1)), bias=np.zeros(1))
        with pytest.raises(ConfigError, match="conv1d needs at least 5 time steps, got 2"):
            conv1d_forward(col([1.0, 2.0]), p)

    def test_feature_mismatch(self, rng):
        p = Conv1dParams(kernels=rng.standard_normal((2, 3, 4)), bias=np.zeros(2))
        with pytest.raises(ConfigError, match="conv1d input has 3 features but kernels expect 4"):
            conv1d_forward(rng.standard_normal((1, 8, 3)), p)

    def test_linearity_with_zero_bias(self, rng):
        p = Conv1dParams(kernels=rng.standard_normal((3, 2, 2)), bias=np.zeros(3))
        x = rng.standard_normal((1, 6, 2))
        z = rng.standard_normal((1, 6, 2))
        combined, _ = conv1d_forward(2.5 * x - 1.5 * z, p)
        yx, _ = conv1d_forward(x, p)
        yz, _ = conv1d_forward(z, p)
        assert np.abs(combined - (2.5 * yx - 1.5 * yz)).max() <= 1e-12

    def test_backward_zero_grad(self, rng):
        x = rng.standard_normal((1, 6, 2))
        p = Conv1dParams(kernels=rng.standard_normal((3, 2, 2)), bias=rng.standard_normal(3))
        _, cache = conv1d_forward(x, p)
        gx, gk, gb = conv1d_backward(np.zeros((1, 5, 3)), cache)
        assert not gx.any() and not gk.any() and not gb.any()

    def test_backward_identity_kernel_passes_grad(self, rng):
        x = col([1.0, 2.0, 3.0])
        p = Conv1dParams(kernels=np.array([[[1.0]]]), bias=np.zeros(1))
        _, cache = conv1d_forward(x, p)
        g = rng.standard_normal((1, 3, 1))
        gx, _, _ = conv1d_backward(g, cache)
        assert np.array_equal(gx, g)

    def test_backward_matches_finite_differences(self, rng):
        x = rng.standard_normal((1, 8, 3))
        p = Conv1dParams(kernels=rng.standard_normal((2, 3, 3)), bias=rng.standard_normal(2))
        weights = rng.standard_normal((1, 6, 2))

        def loss():
            return float((conv1d_forward(x, p)[0] * weights).sum())

        _, cache = conv1d_forward(x, p)
        gx, gk, gb = conv1d_backward(weights, cache)
        assert rel_deviation(gx, finite_difference(loss, x)) < 1e-6
        assert rel_deviation(gk, finite_difference(loss, p.kernels)) < 1e-6
        assert rel_deviation(gb, finite_difference(loss, p.bias)) < 1e-6

    def test_wrong_cache_kind(self, rng):
        _, cache = maxpool1d_forward(rng.standard_normal((1, 4, 1)), 2)
        with pytest.raises(ConfigError, match="conv1d_backward got a 'maxpool1d' cache"):
            conv1d_backward(np.zeros((1, 3, 1)), cache)

    def test_batched_matches_per_sample(self, rng):
        xs = rng.standard_normal((3, 7, 2))
        p = Conv1dParams(kernels=rng.standard_normal((4, 2, 2)), bias=rng.standard_normal(4))
        batched, _ = conv1d_forward(xs, p)
        for b in range(3):
            single, _ = conv1d_forward(xs[b : b + 1], p)
            assert np.abs(batched[b] - single[0]).max() <= 1e-12


class TestMaxPool1d:
    def test_basic(self):
        y, _ = maxpool1d_forward(col([3.0, 1.0, 2.0, 5.0]), 2)
        assert np.array_equal(y, col([3.0, 5.0]))

    def test_remainder_dropped(self):
        y, _ = maxpool1d_forward(col([1.0] * 5), 2)
        assert y.shape == (1, 2, 1)
        assert np.array_equal(y, col([1.0, 1.0]))

    def test_window_one_identity(self, rng):
        x = rng.standard_normal((1, 5, 3))
        y, _ = maxpool1d_forward(x, 1)
        assert np.array_equal(y, x)

    def test_output_length_is_floor(self, rng):
        for t in range(3, 20):
            x = rng.standard_normal((1, t, 2))
            y, _ = maxpool1d_forward(x, 3)
            assert y.shape == (1, t // 3, 2)

    def test_too_short(self):
        with pytest.raises(ConfigError, match="maxpool1d needs at least 2 time steps, got 1"):
            maxpool1d_forward(col([1.0]), 2)

    def test_bad_window(self):
        with pytest.raises(ConfigError, match="pool window must be >= 1, got 0"):
            maxpool1d_forward(col([1.0, 2.0]), 0)

    def test_tie_breaks_to_earliest(self):
        y, cache = maxpool1d_forward(col([2.0, 2.0]), 2)
        assert y[0, 0, 0] == 2.0
        gx = maxpool1d_backward(col([1.0]), cache)
        assert np.array_equal(gx, col([1.0, 0.0]))

    def test_backward_routing(self):
        _, cache = maxpool1d_forward(col([3.0, 1.0, 2.0, 5.0]), 2)
        gx = maxpool1d_backward(col([1.0, 1.0]), cache)
        assert np.array_equal(gx, col([1.0, 0.0, 0.0, 1.0]))

    def test_backward_zero_grad(self, rng):
        _, cache = maxpool1d_forward(rng.standard_normal((1, 6, 2)), 2)
        assert not maxpool1d_backward(np.zeros((1, 3, 2)), cache).any()

    @pytest.mark.parametrize(
        "tied",
        [
            pytest.param((1, 2), id="tie-at-1-2"),
            pytest.param((0, 2), id="tie-at-0-2"),
            pytest.param((0, 1, 2), id="all-equal"),
        ],
    )
    def test_window_three_ties_go_to_earliest(self, rng, tied):
        # 3 samples, 10 steps: three windows of 3 and a dropped remainder row
        x = rng.standard_normal((3, 10, 4))
        top = np.abs(x).max() + 1.0
        x[:, 0:3, :][:, list(tied), :] = top  # first window: the max is tied
        x[1, 3:6, 2][list(tied)] = -0.5  # a tie below other values in one column
        x[1, 3:6, 2][[p for p in range(3) if p not in tied]] = 1.0
        y, cache = maxpool1d_forward(x, 3)
        want_y, route = reference_maxpool(x, 3)
        assert y.shape == (3, 3, 4)
        assert np.array_equal(y, want_y)
        g = rng.standard_normal(y.shape)
        gx = maxpool1d_backward(g, cache)
        assert np.array_equal(gx, route(g))
        assert np.array_equal(gx[:, tied[0], :], g[:, 0, :])
        assert not gx[:, list(tied[1:]), :].any() and not gx[:, 9, :].any()

    def test_matches_loop_oracle_with_rounded_values(self, rng):
        # values on a coarse grid make ties common in every window size
        for window in (1, 2, 3, 4):
            for shape in ((5, 11, 3), (1, 11, 3)):
                x = np.round(rng.standard_normal(shape))
                y, cache = maxpool1d_forward(x, window)
                want_y, route = reference_maxpool(x, window)
                assert np.array_equal(y, want_y)
                g = rng.standard_normal(y.shape)
                # bitwise: a position no gradient goes to holds +0.0
                assert maxpool1d_backward(g, cache).tobytes() == route(g).tobytes()

    def test_backward_matches_finite_differences(self, rng):
        x = rng.standard_normal((1, 9, 2))  # continuous values: ties have measure zero
        weights = rng.standard_normal((1, 4, 2))

        def loss():
            return float((maxpool1d_forward(x, 2)[0] * weights).sum())

        _, cache = maxpool1d_forward(x, 2)
        gx = maxpool1d_backward(weights, cache)
        assert rel_deviation(gx, finite_difference(loss, x)) < 1e-6


class TestLstm:
    def test_zero_params_give_zero_output(self, rng):
        p = lstm_params(
            w={g: np.zeros((3, 2)) for g in "ifog"},
            u={g: np.zeros((3, 3)) for g in "ifog"},
            b={g: np.zeros(3) for g in "ifog"},
        )
        x = rng.standard_normal((1, 6, 2))
        seq, _ = lstm_forward(x, p, return_sequence=True)
        last, _ = lstm_forward(x, p, return_sequence=False)
        assert not seq.any() and not last.any()

    def test_single_step_hand_evaluation(self):
        p = scalar_lstm_params(
            wi=0.4, wf=-0.3, wo=0.8, wg=1.1,
            ui=0.2, uf=0.5, uo=-0.6, ug=0.9,
            bi=0.1, bf=1.0, bo=-0.2, bg=0.3,
        )
        x = np.array([[[0.7]]])
        out, _ = lstm_forward(x, p, return_sequence=False)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        i = sig(0.4 * 0.7 + 0.1)
        o = sig(0.8 * 0.7 - 0.2)
        g = math.tanh(1.1 * 0.7 + 0.3)
        c = i * g  # f * c0 vanishes, c0 = 0
        expected = o * math.tanh(c)
        assert out[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_last_state_equals_final_sequence_row(self, rng):
        p = lstm_params(
            w={g: rng.standard_normal((4, 3)) for g in "ifog"},
            u={g: rng.standard_normal((4, 4)) for g in "ifog"},
            b={g: rng.standard_normal(4) for g in "ifog"},
        )
        x = rng.standard_normal((1, 7, 3))
        seq, _ = lstm_forward(x, p, return_sequence=True)
        last, _ = lstm_forward(x, p, return_sequence=False)
        assert np.array_equal(last, seq[:, -1])

    def test_input_mismatch(self, rng):
        p = lstm_params(
            w={g: np.zeros((2, 5)) for g in "ifog"},
            u={g: np.zeros((2, 2)) for g in "ifog"},
            b={g: np.zeros(2) for g in "ifog"},
        )
        with pytest.raises(ConfigError, match="lstm input has 3 features but params expect 5"):
            lstm_forward(rng.standard_normal((1, 4, 3)), p, return_sequence=True)

    def test_backward_zero_grad(self, rng):
        p = lstm_params(
            w={g: rng.standard_normal((3, 2)) for g in "ifog"},
            u={g: rng.standard_normal((3, 3)) for g in "ifog"},
            b={g: rng.standard_normal(3) for g in "ifog"},
        )
        _, cache = lstm_forward(rng.standard_normal((1, 5, 2)), p, return_sequence=True)
        gx, gp = lstm_backward(np.zeros((1, 5, 3)), cache)
        assert not gx.any()
        assert not gp.w.any() and not gp.u.any() and not gp.b.any()

    def test_single_step_hand_chain_rule(self):
        p = scalar_lstm_params(
            wi=0.4, wf=-0.3, wo=0.8, wg=1.1,
            ui=0.2, uf=0.5, uo=-0.6, ug=0.9,
            bi=0.1, bf=1.0, bo=-0.2, bg=0.3,
        )
        x = np.array([[[0.7]]])
        _, cache = lstm_forward(x, p, return_sequence=False)
        upstream = 1.3
        gx, gp = lstm_backward(np.array([[upstream]]), cache)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        i = sig(0.4 * 0.7 + 0.1)
        f = sig(-0.3 * 0.7 + 1.0)
        o = sig(0.8 * 0.7 - 0.2)
        g = math.tanh(1.1 * 0.7 + 0.3)
        c = i * g
        tc = math.tanh(c)
        do = upstream * tc
        dc = upstream * o * (1.0 - tc * tc)
        di = dc * g
        dg = dc * i
        df = dc * 0.0  # c0 = 0
        dzi = di * i * (1.0 - i)
        dzf = df * f * (1.0 - f)
        dzo = do * o * (1.0 - o)
        dzg = dg * (1.0 - g * g)
        dw = per_gate(gp.w)
        assert dw["i"][0, 0] == pytest.approx(dzi * 0.7, rel=1e-12)
        assert dw["o"][0, 0] == pytest.approx(dzo * 0.7, rel=1e-12)
        assert dw["g"][0, 0] == pytest.approx(dzg * 0.7, rel=1e-12)
        assert dw["f"][0, 0] == pytest.approx(dzf * 0.7, abs=1e-15)
        assert per_gate(gp.b)["i"][0] == pytest.approx(dzi, rel=1e-12)
        # recurrent weights see h0 = 0, so their gradient vanishes at T=1
        assert per_gate(gp.u)["i"][0, 0] == 0.0
        expected_dx = dzi * 0.4 + dzf * -0.3 + dzo * 0.8 + dzg * 1.1
        assert gx[0, 0, 0] == pytest.approx(expected_dx, rel=1e-12)

    def test_bptt_matches_finite_differences(self, rng):
        p = lstm_params(
            w={g: 0.6 * rng.standard_normal((4, 3)) for g in "ifog"},
            u={g: 0.6 * rng.standard_normal((4, 4)) for g in "ifog"},
            b={g: 0.3 * rng.standard_normal(4) for g in "ifog"},
        )
        x = rng.standard_normal((1, 8, 3))
        weights = rng.standard_normal((1, 8, 4))

        def loss():
            return float((lstm_forward(x, p, return_sequence=True)[0] * weights).sum())

        _, cache = lstm_forward(x, p, return_sequence=True)
        gx, gp = lstm_backward(weights, cache)
        assert rel_deviation(gx, finite_difference(loss, x)) < 1e-5
        # gate by gate, so a small gate's error is not measured against a larger one
        for part in ("w", "u", "b"):
            grads, values = per_gate(getattr(gp, part)), per_gate(getattr(p, part))
            for gate in GATES:
                assert rel_deviation(grads[gate], finite_difference(loss, values[gate])) < 1e-5

    def test_last_state_backward_matches_finite_differences(self, rng):
        p = lstm_params(
            w={g: 0.6 * rng.standard_normal((3, 2)) for g in "ifog"},
            u={g: 0.6 * rng.standard_normal((3, 3)) for g in "ifog"},
            b={g: 0.3 * rng.standard_normal(3) for g in "ifog"},
        )
        x = rng.standard_normal((1, 6, 2))
        weights = rng.standard_normal((1, 3))

        def loss():
            return float((lstm_forward(x, p, return_sequence=False)[0] * weights).sum())

        _, cache = lstm_forward(x, p, return_sequence=False)
        gx, _ = lstm_backward(weights, cache)
        assert rel_deviation(gx, finite_difference(loss, x)) < 1e-5

    @pytest.mark.parametrize("steps", [1, 2, 14, 31])
    @pytest.mark.parametrize("return_sequence", [True, False], ids=["sequence", "last"])
    @pytest.mark.parametrize("batch,features", [
        pytest.param(1, 32, id="1"),
        pytest.param(3, 32, id="3"),
        pytest.param(137, 32, id="137"),
        pytest.param(16, 64, id="16x64"),  # a B=32 training share at the paper's filters
    ])
    def test_inference_matches_training_bitwise_without_a_cache(
        self, rng, steps, return_sequence, batch, features
    ):
        # training projects every step's input in one matmul, inference step by step
        p = random_lstm_params(rng, 64, features)
        x = rng.standard_normal((batch, steps, features))
        want, cache = lstm_forward(x, p, return_sequence)
        got, none = lstm_forward(x, p, return_sequence, training=False)
        assert cache is not None and none is None
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("training", [True, False], ids=["training", "inference"])
    def test_empty_sequence_is_rejected(self, rng, training):
        p = random_lstm_params(rng, 4, 3)
        with pytest.raises(ConfigError, match="lstm needs at least 1 time step, got 0"):
            lstm_forward(np.empty((2, 0, 3)), p, return_sequence=False, training=training)

    def test_batched_matches_per_sample(self, rng):
        p = lstm_params(
            w={g: rng.standard_normal((4, 3)) for g in "ifog"},
            u={g: rng.standard_normal((4, 4)) for g in "ifog"},
            b={g: rng.standard_normal(4) for g in "ifog"},
        )
        xs = rng.standard_normal((3, 6, 3))
        batched, _ = lstm_forward(xs, p, return_sequence=True)
        for b in range(3):
            single, _ = lstm_forward(xs[b : b + 1], p, return_sequence=True)
            assert np.abs(batched[b] - single[0]).max() <= 1e-12


def lone_or_batch(rng, sample_shape, batch):
    """A drawn batch of ``batch`` samples, or for ``batch`` None a lone
    sample passed as a batch of one with ``[None]``."""
    if batch is None:
        return rng.standard_normal(sample_shape)[None]
    return rng.standard_normal((batch, *sample_shape))


def random_lstm_params(rng, hidden, features, gain=0.3):
    return lstm_params(
        w={g: gain * rng.standard_normal((hidden, features)) for g in "ifog"},
        u={g: gain * rng.standard_normal((hidden, hidden)) for g in "ifog"},
        b={g: gain * rng.standard_normal(hidden) for g in "ifog"},
    )


class TestLstmAgainstGateLoop:
    """The stacked kernels against the gate-by-gate loop at the paper's stage shapes."""

    @pytest.mark.parametrize("steps,features", [(31, 32), (14, 64), (6, 64)])
    @pytest.mark.parametrize("return_sequence", [True, False], ids=["sequence", "last"])
    @pytest.mark.parametrize("batch", [32, None], ids=["batched", "unbatched"])
    def test_outputs_and_gradients_agree(self, rng, steps, features, return_sequence, batch):
        p = random_lstm_params(rng, 64, features)
        x = lone_or_batch(rng, (steps, features), batch)
        out, cache = lstm_forward(x, p, return_sequence)
        want, state = reference_lstm_forward(
            x, per_gate(p.w), per_gate(p.u), per_gate(p.b), return_sequence
        )
        assert out.shape == want.shape
        assert rel_deviation(out, want) <= 1e-12
        upstream = rng.standard_normal(out.shape)
        gx, gp = lstm_backward(upstream, cache)
        want_gx, dw, du, db = reference_lstm_backward(upstream, state)
        assert gx.shape == x.shape
        assert rel_deviation(gx, want_gx) <= 1e-12
        for gate in GATES:
            assert rel_deviation(per_gate(gp.w)[gate], dw[gate]) <= 1e-12
            assert rel_deviation(per_gate(gp.u)[gate], du[gate]) <= 1e-12
            assert rel_deviation(per_gate(gp.b)[gate], db[gate]) <= 1e-12

    def test_cache_is_used_once(self, rng):
        p = random_lstm_params(rng, 3, 2)
        out, cache = lstm_forward(rng.standard_normal((1, 4, 2)), p, return_sequence=True)
        lstm_backward(np.ones_like(out), cache)
        with pytest.raises(ConfigError, match="already used"):
            lstm_backward(np.ones_like(out), cache)


# (steps, features, kernels) of the paper's three conv stages, kernel width 3
CONV_STAGES = [(64, 2, 32), (31, 32, 64), (14, 64, 64)]


class TestConvAgainstDirectSum:
    """The im2col conv and the max-pool against explicit loops at the paper's stage shapes."""

    @pytest.mark.parametrize("steps,features,kernels", CONV_STAGES)
    @pytest.mark.parametrize("batch", [32, None], ids=["batched", "unbatched"])
    def test_outputs_and_gradients_agree(self, rng, steps, features, kernels, batch):
        p = Conv1dParams(
            kernels=0.3 * rng.standard_normal((kernels, 3, features)),
            bias=rng.standard_normal(kernels),
        )
        x = lone_or_batch(rng, (steps, features), batch)
        y, cache = conv1d_forward(x, p)
        want = reference_conv1d_forward(x, p.kernels, p.bias)
        assert y.shape == want.shape
        assert rel_deviation(y, want) <= 1e-12
        upstream = rng.standard_normal(y.shape)
        gx, gk, gb = conv1d_backward(upstream, cache)
        want_gx, want_gk, want_gb = reference_conv1d_backward(upstream, x, p.kernels)
        assert gx.shape == x.shape and gk.shape == p.kernels.shape and gb.shape == p.bias.shape
        assert rel_deviation(gx, want_gx) <= 1e-12
        assert rel_deviation(gk, want_gk) <= 1e-12
        assert rel_deviation(gb, want_gb) <= 1e-12

    @pytest.mark.parametrize("steps,features,kernels", CONV_STAGES)
    @pytest.mark.parametrize("batch", [32, None], ids=["batched", "unbatched"])
    def test_pool_of_conv_output_matches_loop_oracle(self, rng, steps, features, kernels, batch):
        x = np.tanh(lone_or_batch(rng, (steps - 2, kernels), batch))
        y, cache = maxpool1d_forward(x, 2)
        want, route = reference_maxpool(x, 2)
        assert np.array_equal(y, want)
        upstream = rng.standard_normal(y.shape)
        assert np.array_equal(maxpool1d_backward(upstream, cache), route(upstream))


class TestDropout:
    def test_inference_is_identity(self, rng):
        x = rng.standard_normal((4, 5))
        y, _ = dropout(x, 0.5, training=False)
        assert np.array_equal(y, x)

    def test_rate_zero_identity_both_modes(self, rng):
        x = rng.standard_normal((4, 5))
        for training in (False, True):
            y, _ = dropout(x, 0.0, training=training, rng=rng)
            assert np.array_equal(y, x)

    def test_inverted_scaling_preserves_mean(self):
        x = np.ones(100_000)
        y, _ = dropout(x, 0.5, training=True, rng=np.random.default_rng(3))
        assert abs(y.mean() - 1.0) < 0.01

    def test_rate_validation(self, rng):
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError, match=r"dropout rate must be in \[0,1\)"):
                dropout(np.ones(3), rate, training=True, rng=rng)

    def test_training_requires_rng(self):
        with pytest.raises(ConfigError, match="dropout in training mode needs an rng"):
            dropout(np.ones(3), 0.5, training=True)

    def test_backward_routes_through_mask(self, rng):
        x = rng.standard_normal(1000)
        y, cache = dropout(x, 0.3, training=True, rng=rng)
        g = rng.standard_normal(1000)
        gx = dropout_backward(g, cache)
        dead = y == 0.0
        assert not gx[dead].any()
        assert np.allclose(gx[~dead], g[~dead] / 0.7)

    def test_backward_inference_identity(self, rng):
        _, cache = dropout(rng.standard_normal(10), 0.5, training=False)
        g = rng.standard_normal(10)
        assert np.array_equal(dropout_backward(g, cache), g)


class TestDense:
    def test_identity_weight(self):
        p = DenseParams(weight=np.eye(3), bias=np.zeros(3))
        x = np.array([[1.0, 2.0, 3.0]])
        y, _ = dense_forward(x, p)
        assert np.array_equal(y, x)

    def test_direct_evaluation(self):
        p = DenseParams(weight=np.array([[1.0, 1.0]]), bias=np.array([1.0]))
        y, _ = dense_forward(np.array([[2.0, 3.0]]), p)
        assert np.array_equal(y, [[6.0]])

    def test_shape_mismatch(self, rng):
        p = DenseParams(weight=rng.standard_normal((2, 4)), bias=np.zeros(2))
        with pytest.raises(ConfigError, match="dense input has 3 features but weight expects 4"):
            dense_forward(np.ones((1, 3)), p)

    def test_linearity(self, rng):
        p = DenseParams(weight=rng.standard_normal((3, 4)), bias=np.zeros(3))
        x = rng.standard_normal((1, 4))
        z = rng.standard_normal((1, 4))
        combined, _ = dense_forward(1.5 * x + 0.5 * z, p)
        yx, _ = dense_forward(x, p)
        yz, _ = dense_forward(z, p)
        assert np.abs(combined - (1.5 * yx + 0.5 * yz)).max() <= 1e-12

    def test_backward_matches_finite_differences(self, rng):
        p = DenseParams(weight=rng.standard_normal((2, 5)), bias=rng.standard_normal(2))
        x = rng.standard_normal((1, 5))
        weights = rng.standard_normal((1, 2))

        def loss():
            return float((dense_forward(x, p)[0] * weights).sum())

        _, cache = dense_forward(x, p)
        gx, gw, gb = dense_backward(weights, cache)
        assert rel_deviation(gx, finite_difference(loss, x, eps=1e-6)) < 1e-8
        assert rel_deviation(gw, finite_difference(loss, p.weight, eps=1e-6)) < 1e-8
        assert rel_deviation(gb, finite_difference(loss, p.bias, eps=1e-6)) < 1e-8

    def test_batched(self, rng):
        p = DenseParams(weight=rng.standard_normal((2, 3)), bias=rng.standard_normal(2))
        xs = rng.standard_normal((4, 3))
        batched, _ = dense_forward(xs, p)
        for b in range(4):
            single, _ = dense_forward(xs[b : b + 1], p)
            assert np.abs(batched[b] - single[0]).max() <= 1e-12


def op_table(rng):
    """name -> (forward of x, backward of (upstream, cache), shape of one sample)."""
    conv = Conv1dParams(kernels=rng.standard_normal((4, 3, 3)), bias=rng.standard_normal(4))
    lstm = random_lstm_params(rng, 4, 3)
    dense = DenseParams(weight=rng.standard_normal((2, 5)), bias=rng.standard_normal(2))
    return {
        "conv1d": (lambda x: conv1d_forward(x, conv), conv1d_backward, (8, 3)),
        "maxpool1d": (lambda x: maxpool1d_forward(x, 2), maxpool1d_backward, (8, 3)),
        "lstm-sequence": (lambda x: lstm_forward(x, lstm, True), lstm_backward, (8, 3)),
        "lstm-last": (lambda x: lstm_forward(x, lstm, False), lstm_backward, (8, 3)),
        "dropout": (
            lambda x: dropout(x, 0.3, True, np.random.default_rng(5)), dropout_backward, (8, 3)
        ),
        "dense": (lambda x: dense_forward(x, dense), dense_backward, (5,)),
    }


OPS = list(op_table(np.random.default_rng(0)))


def flat_arrays(result):
    """The arrays of a forward or backward result, LstmParams part by part."""
    out = []
    for r in result if isinstance(result, tuple) else (result,):
        if isinstance(r, LstmParams):
            out += [r.w, r.u, r.b]
        elif isinstance(r, np.ndarray):
            out.append(r)
    return out


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


def window_sample(rng, sample_shape, batch):
    """A read-only sliding-window view [batch, *sample_shape] over a drawn series,
    as ``pipeline.window_view`` gives; for ``batch`` None one window passed
    as a batch of one with ``[None]``."""
    length = sample_shape[0]
    series = rng.standard_normal((length + (batch or 1) - 1, *sample_shape[1:]))
    win = sliding_window_view(series, length, axis=0)
    if len(sample_shape) == 2:
        win = win.transpose(0, 2, 1)
    return win if batch is not None else win[0][None]


def batch_minor(x):
    """The values of ``x`` as a view of storage with the batch axis last."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0)


def lone(arrange):
    """``arrange`` for a batch of one whose sample is arranged on its own and
    passed as a batch with ``[None]``."""
    return lambda a: arrange(a[0])[None]


class TestPurity:
    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("batch", [1, 32, None], ids=["b1", "b32", "unbatched"])
    @pytest.mark.parametrize("layout", ["c", "batch-minor"])
    def test_no_op_writes_into_its_input_or_upstream(self, rng, op, batch, layout):
        forward, backward, sample_shape = op_table(rng)[op]
        arrange = np.ascontiguousarray if layout == "c" else batch_minor
        if batch is None:
            arrange = lone(arrange)
        x = arrange(rng.standard_normal((batch or 1, *sample_shape)))
        x0 = x.copy()
        y, cache = forward(x)
        upstream = arrange(rng.standard_normal(y.shape))
        upstream0 = upstream.copy()
        backward(upstream, cache)
        assert same_bits(x, x0)
        assert same_bits(upstream, upstream0)

    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("batch", [1, 32, None], ids=["b1", "b32", "unbatched"])
    def test_results_do_not_depend_on_input_layout(self, rng, op, batch):
        forward, backward, sample_shape = op_table(rng)[op]
        win = window_sample(rng, sample_shape, batch)
        assert not win.flags.writeable
        results = []
        for x in (np.array(win), win.T.copy().T, batch_minor(win), win):
            y, cache = forward(x)
            y = np.array(y)
            upstream = np.random.default_rng(7).standard_normal(y.shape)
            results.append(flat_arrays((y, *flat_arrays(backward(upstream, cache)))))
        for got in results[1:]:
            assert len(got) == len(results[0])
            assert all(same_bits(a, b) for a, b in zip(got, results[0]))

    def test_forward_ops_leave_inputs_alone(self, rng):
        x = rng.standard_normal((1, 8, 2))
        x0 = x.copy()
        p = Conv1dParams(kernels=rng.standard_normal((2, 3, 2)), bias=rng.standard_normal(2))
        conv1d_forward(x, p)
        maxpool1d_forward(x, 2)
        lp = lstm_params(
            w={g: rng.standard_normal((3, 2)) for g in "ifog"},
            u={g: rng.standard_normal((3, 3)) for g in "ifog"},
            b={g: rng.standard_normal(3) for g in "ifog"},
        )
        lstm_forward(x, lp, return_sequence=True)
        dropout(x, 0.5, training=True, rng=rng)
        assert np.array_equal(x, x0)
