import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnlstm.errors import ConfigError, DataError
from cnnlstm.metrics import explained_variance, max_error, r2, report

series = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=3, max_size=20
)


class TestExplainedVariance:
    def test_perfect(self):
        a = np.array([1.0, 2.0, 3.0])
        assert explained_variance(a, a) == 1.0

    def test_constant_bias_invisible(self):
        a = np.array([1.0, 2.0, 3.0])
        assert explained_variance(a, a + 7.0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_two_pass_variance(self, rng):
        a = rng.standard_normal(50)
        p = rng.standard_normal(50)
        res = a - p
        var = lambda v: np.mean((v - np.mean(v)) ** 2)  # noqa: E731 - two-pass oracle
        expected = 1.0 - var(res) / var(a)
        assert explained_variance(a, p) == pytest.approx(expected, abs=1e-12)

    def test_zero_variance_actual(self):
        with pytest.raises(DataError, match="explained_variance undefined: .* zero variance"):
            explained_variance(np.array([2.0, 2.0]), np.array([1.0, 2.0]))


class TestR2:
    def test_perfect(self):
        a = np.array([1.0, 2.0, 3.0])
        assert r2(a, a) == 1.0

    def test_mean_predictor_is_zero(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        p = np.full(4, a.mean())
        assert r2(a, p) == pytest.approx(0.0, abs=1e-12)

    def test_constant_bias_penalized(self):
        a = np.array([1.0, 2.0, 3.0])
        assert r2(a, a + 1.0) == pytest.approx(-0.5, abs=1e-12)

    def test_zero_variance_actual(self):
        with pytest.raises(DataError, match="r2 undefined: actual values have zero variance"):
            r2(np.array([2.0, 2.0]), np.array([1.0, 2.0]))


class TestMaxError:
    def test_perfect(self):
        a = np.array([1.0, 2.0])
        assert max_error(a, a) == 0.0

    def test_direct(self):
        assert max_error(np.array([1.0, 2.0]), np.array([1.0, 5.0])) == 3.0

    def test_length_mismatch(self):
        with pytest.raises(ConfigError, match="metric inputs must be equal-length rank-1 tensors"):
            max_error(np.ones(2), np.ones(3))

    def test_single_pair_allowed(self):
        assert max_error(np.array([4.0]), np.array([1.0])) == 3.0


class TestProperties:
    @settings(max_examples=80)
    @given(series, series)
    def test_r2_never_exceeds_explained_variance(self, a_vals, p_vals):
        n = min(len(a_vals), len(p_vals))
        a = np.array(a_vals[:n])
        p = np.array(p_vals[:n])
        if np.var(a) == 0.0:
            return
        assert r2(a, p) <= explained_variance(a, p) + 1e-12

    def test_permutation_invariance(self, rng):
        a = rng.standard_normal(30)
        p = rng.standard_normal(30)
        perm = rng.permutation(30)
        assert explained_variance(a, p) == pytest.approx(
            explained_variance(a[perm], p[perm]), abs=1e-12
        )
        assert r2(a, p) == pytest.approx(r2(a[perm], p[perm]), abs=1e-12)
        assert max_error(a, p) == max_error(a[perm], p[perm])

    def test_max_error_scales_with_minmax_range(self, rng):
        # inverse-scaling both series by the same affine map multiplies the
        # worst deviation by exactly (max - min)
        scaled_a = rng.random(40)
        scaled_p = rng.random(40)
        lo, hi = 37.5, 91.25
        price_a = scaled_a * (hi - lo) + lo
        price_p = scaled_p * (hi - lo) + lo
        assert max_error(price_a, price_p) == pytest.approx(
            max_error(scaled_a, scaled_p) * (hi - lo), abs=1e-9
        )

    def test_report_bundles_all_three(self, rng):
        a = rng.standard_normal(20)
        p = a + 0.1 * rng.standard_normal(20)
        rep = report(a, p)
        assert rep.n_samples == 20
        assert rep.r2 <= rep.explained_variance + 1e-12
        assert rep.max_error >= 0.0
        assert "r2" in rep.format()
