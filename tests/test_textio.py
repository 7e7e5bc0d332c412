import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cnnlstm.errors import CheckpointFormatError
from cnnlstm.pipeline import training_rows
from cnnlstm.textio import LineReader, array_lines, fmt_vector
from oracles import reference_array_lines, reference_read_values, reference_training_rows

FAST = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
           np.inf, -np.inf, np.nan, 0.1, 1e16, 123456789012345680.0]

any_float64 = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=9),
    elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


def int64_or_overflow(token):
    value = int(token)
    if not -(2**63) <= value < 2**63:
        raise OverflowError(token)
    return value


def read_block(text, count, method="read_floats"):
    return getattr(LineReader(text, "blk"), method)(count)


class TestWriter:
    @FAST
    @given(any_float64)
    def test_array_lines_match_value_by_value_writer(self, arr):
        assert array_lines(arr) == reference_array_lines(arr)

    @FAST
    @given(any_float64)
    def test_fmt_vector_matches_value_by_value_writer(self, arr):
        assert fmt_vector(arr) == " ".join(format(float(v), ".17g") for v in arr.ravel())

    def test_special_values(self):
        assert array_lines(np.array(SPECIAL)) == reference_array_lines(SPECIAL)
        assert array_lines(np.array(SPECIAL))[0].split()[:2] == ["0", "-0"]

    def test_empty(self):
        assert array_lines(np.array([])) == []
        assert fmt_vector([]) == ""


class TestReader:
    @FAST
    @given(any_float64)
    def test_round_trip_is_bitwise(self, arr):
        flat = arr.ravel()
        text = "\n".join(array_lines(arr)) + "\n"
        back = read_block(text, flat.size)
        nan = np.isnan(flat)
        assert np.array_equal(np.isnan(back), nan)
        # every value but NaN keeps its bits, the sign of zero included
        assert np.array_equal(back[~nan].view(np.int64), flat[~nan].view(np.int64))

    @FAST
    @given(st.lists(st.lists(st.text(alphabet="0123456789.e+-_naifINFx１２ ", max_size=6),
                             max_size=4), min_size=1, max_size=5),
           st.integers(0, 14))
    def test_floats_follow_value_by_value_reader(self, rows, count):
        lines = [" ".join(row) for row in rows]
        self.assert_same_outcome(lines, count, float, "read_floats")

    @FAST
    @given(st.lists(st.lists(st.text(alphabet="0123456789_-+.x９", max_size=22),
                             max_size=4), min_size=1, max_size=5),
           st.integers(0, 14))
    def test_ints_follow_value_by_value_reader(self, rows, count):
        lines = [" ".join(row) for row in rows]
        self.assert_same_outcome(lines, count, int64_or_overflow, "read_ints")

    @staticmethod
    def assert_same_outcome(lines, count, convert, method):
        text = "\n".join(lines) + "\n"
        try:
            want = reference_read_values(lines, count, convert)
        except ValueError as exc:
            lineno, message = exc.args
            with pytest.raises(CheckpointFormatError) as info:
                read_block(text, count, method)
            got = str(info.value)
            if lineno is None:
                assert got == "blk: unexpected end of file"
            else:
                assert got.startswith(f"blk, line {lineno}: ")
                if "got more" in message:
                    assert got.endswith("got more")
                else:
                    assert got.endswith(message.split(" ", 2)[2])
            return
        got = read_block(text, count, method)
        assert np.array_equal(got, np.array(want, dtype=got.dtype), equal_nan=True)

    def test_bad_token_on_last_line_of_block_names_that_line(self):
        values = np.arange(40, dtype=np.float64) / 7.0
        lines = ["param w 40"] + array_lines(values) + ["param b 1", "0"]
        last = len(array_lines(values))  # index of the block's last line
        tokens = lines[last].split()
        tokens[-1] = "0.5x"
        lines[last] = " ".join(tokens)
        reader = LineReader("\n".join(lines), "model.ckpt")
        reader.next()
        with pytest.raises(CheckpointFormatError, match=rf"model.ckpt, line {last + 1}: unparseable value '0.5x'"):
            reader.read_floats(40)

    def test_bad_token_reported_before_a_later_overfull_line(self):
        with pytest.raises(CheckpointFormatError, match=r"line 1: unparseable value 'x'"):
            read_block("1 x\n3 4\n5 6 7\n", 5)

    def test_bad_token_reported_before_end_of_file(self):
        with pytest.raises(CheckpointFormatError, match=r"line 2: unparseable value 'x'"):
            read_block("1 2\n3 x\n", 9)

    def test_overfull_line_is_named(self):
        with pytest.raises(CheckpointFormatError, match=r"line 2: expected 3 values, got more"):
            read_block("1 2\n3 4\n", 3)

    def test_out_of_range_integer(self):
        with pytest.raises(CheckpointFormatError, match=r"line 2: unparseable integer '99999999999999999999999'"):
            read_block("1 2\n99999999999999999999999\n", 3, "read_ints")

    def test_tokens_from_the_current_line(self):
        reader = LineReader("scaler_min 1 zz\n", "ckpt")
        reader.next()
        with pytest.raises(CheckpointFormatError, match=r"ckpt, line 1: unparseable value 'zz'"):
            reader.read_floats(2, ["1", "zz"])

    def test_dates(self):
        reader = LineReader("2020-01-01 2020-01-02\n2020-01-03\nrest\n", "d")
        assert [d.day for d in reader.read_dates(3)] == [1, 2, 3]
        assert reader.next() == "rest"
        with pytest.raises(CheckpointFormatError, match=r"line 2: unparseable date '2020-13-01'"):
            read_block("2020-01-01\n2020-13-01\n", 2, "read_dates")

    def test_expect_names_the_line_of_a_bad_value(self):
        reader = LineReader("CKPT v1\nfeatures=abc\n", "m.ckpt")
        reader.next()
        with pytest.raises(CheckpointFormatError, match=r"m.ckpt, line 2: bad value for features: 'abc'"):
            reader.expect("features", int)


class TestTrainingRows:
    @FAST
    @given(st.data(), st.integers(1, 12), st.integers(1, 4), st.integers(0, 40))
    def test_matches_window_by_window_loop(self, data, lookback, horizon, spare):
        length = lookback + horizon + spare
        n_windows = length - lookback - horizon + 1
        idx = data.draw(st.lists(st.integers(0, n_windows - 1), max_size=30, unique=True).map(sorted))
        got = training_rows(length, np.array(idx, dtype=np.int64), lookback, horizon)
        assert got.tolist() == reference_training_rows(length, idx, lookback, horizon)

    def test_no_windows(self):
        assert training_rows(10, np.array([], dtype=np.int64), 3, 1).size == 0
