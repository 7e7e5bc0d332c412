import binascii
import os
import stat
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cnnlstm import model
from cnnlstm.errors import CheckpointFormatError
from cnnlstm.pipeline import load_dataset, training_rows
from cnnlstm.textio import LineReader, array_lines, fmt_vector, write_lines
from oracles import reference_array_lines, reference_read_values, reference_training_rows

FAST = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# quiet and signalling NaNs of both signs with payloads, as raw binary64 bits
NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
            0x7FF0000000000001, 0xFFF4000000000ABC, 0x7FFFFFFFFFFFFFFF]
NAN_PAYLOADS = np.array(NAN_BITS, dtype=np.uint64).view(np.float64)

SPECIAL = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
     np.inf, -np.inf, 0.1, 1e16, 123456789012345680.0],
    NAN_PAYLOADS,
])

any_float64 = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=9),
    elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


# any binary64 bit pattern: drawn floats, raw 64-bit words and NaN payloads
any_bits64 = hnp.arrays(
    np.uint64,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=9),
    elements=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(
            lambda x: struct.unpack("<Q", struct.pack("<d", x))[0]),
        st.integers(0, 2**64 - 1),
        st.sampled_from(NAN_BITS),
    ),
).map(lambda a: a.view(np.float64))


def read_block(text, count, method="read_floats"):
    return getattr(LineReader(text, "blk"), method)(count)


def block_round_trip(arr):
    """``arr`` written as a block after a header line, then read back."""
    reader = LineReader("\n".join(["header"] + array_lines(arr)) + "\n", "blk")
    reader.next()
    back = reader.read_array(arr.size)
    assert reader.eof()
    return back.reshape(arr.shape)


def bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


DAMAGED_BLOCKS = [
    ("AAAAAAAA*D8=", "bad base64 block"),  # a byte outside the alphabet
    ("AAAAAAAA-_8=", "bad base64 block"),  # the URL-safe alphabet
    ("AAAAAAAA８D8=", "bad base64 block"),  # a full-width digit
    ("AAAAAAAA8D8", "bad base64 block"),  # padding missing
    ("AAAAAAAA8D", "bad base64 block"),  # truncated mid-quantum
    ("AAAAAAAA8D8==", "not in canonical form"),  # excess padding
    ("AAAAAAAA8D8= ", "not in canonical form"),  # trailing blank
    ("AAAAAAAA8D8=\t", "not in canonical form"),  # a trailing tab
    ("AAAA AAAA8D8=", "not in canonical form"),  # a blank inside
    ("==AAAAAAAA8D8=", "not in canonical form"),  # leading padding
    ("AAAAAAAA8D9=", "not in canonical form"),  # nonzero bits after the last byte
    ("AAAAAAAA", "got 6 bytes"),  # truncated to whole quanta
    ("AAAAAAAA8D8AAAAAAADwPw==", "got 16 bytes"),  # two values where one is due
    ("", "got 0 bytes"),  # an empty line where a value is due
]


def assert_damaged_block_fails(line, fault):
    reader = LineReader(f"param w 1\n{line}\nparam b 1\n", "model.ckpt")
    reader.next()
    with pytest.raises(CheckpointFormatError, match=rf"^model.ckpt, line 2: .*{fault}"):
        reader.read_array(1)


class TestWriter:
    @FAST
    @given(any_bits64)
    def test_array_lines_match_value_by_value_writer(self, arr):
        assert array_lines(arr) == reference_array_lines(arr)

    @FAST
    @given(any_float64)
    def test_fmt_vector_matches_value_by_value_writer(self, arr):
        assert fmt_vector(arr) == " ".join(format(float(v), ".17g") for v in arr.ravel())

    def test_special_values(self):
        (line,) = array_lines(SPECIAL)
        assert [line] == reference_array_lines(SPECIAL)
        assert len(line) == 4 * -(-8 * SPECIAL.size // 3)  # base64 of 8 bytes a value
        assert np.array_equal(bits(block_round_trip(SPECIAL)), bits(SPECIAL))

    def test_empty(self):
        assert array_lines(np.array([])) == [""]
        assert block_round_trip(np.array([])).size == 0
        assert fmt_vector([]) == ""

    def test_little_endian_bytes_in_c_order(self):
        assert array_lines(np.array([1.0])) == ["AAAAAAAA8D8="]  # 0x3FF0000000000000
        arr = np.arange(6.0).reshape(2, 3)
        for view in (arr.T, np.asfortranarray(arr), arr.astype(">f8")):
            assert array_lines(view) == array_lines(np.ascontiguousarray(view, dtype=np.float64))


class TestReader:
    @FAST
    @given(any_bits64)
    def test_round_trip_is_bitwise(self, arr):
        back = block_round_trip(arr)
        # every value keeps its bits: the sign of zero, subnormals, NaN payloads
        assert np.array_equal(bits(back), bits(arr))

    def test_block_is_a_native_writable_array(self):
        back = block_round_trip(np.arange(4.0))
        assert back.dtype == np.float64 and back.dtype.isnative
        assert back.flags.writeable and back.flags.c_contiguous
        back[0] = 7.0

    @pytest.mark.parametrize("line, fault", DAMAGED_BLOCKS)
    def test_damaged_block_names_its_line(self, line, fault):
        assert_damaged_block_fails(line, fault)

    def test_decoder_runs_on_the_oldest_supported_python(self, monkeypatch):
        # binascii.a2b_base64 takes no strict_mode keyword before Python 3.11
        real = binascii.a2b_base64
        monkeypatch.setattr(binascii, "a2b_base64", lambda data, /: real(data))
        assert np.array_equal(bits(block_round_trip(SPECIAL)), bits(SPECIAL))
        for line, fault in DAMAGED_BLOCKS:
            assert_damaged_block_fails(line, fault)

    def test_block_missing_at_end_of_file(self):
        reader = LineReader("param w 1\n", "model.ckpt")
        reader.next()
        with pytest.raises(CheckpointFormatError, match=r"model.ckpt: unexpected end of file"):
            reader.read_array(1)

    @FAST
    @given(st.lists(st.lists(st.text(alphabet="0123456789.e+-_naifINFx１２ ", max_size=6),
                             max_size=4), min_size=1, max_size=5),
           st.integers(0, 14))
    def test_floats_follow_value_by_value_reader(self, rows, count):
        lines = [" ".join(row) for row in rows]
        self.assert_same_outcome(lines, count, float, "read_floats")

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
        block = [fmt_vector(values[i : i + 8]) for i in range(0, 40, 8)]
        lines = ["scaler_min"] + block + ["scaler_max", "0"]
        last = len(block)  # index of the block's last line
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

    def test_expect_end_names_the_first_line_left(self):
        reader = LineReader("CKPT v1\nfeatures=3\n\nrest\n", "m.ckpt")
        reader.next()
        reader.next()
        with pytest.raises(CheckpointFormatError, match=r"m.ckpt, line 3: unexpected data after the last block: ''"):
            reader.expect_end()
        reader.next()
        reader.next()
        reader.expect_end()

    @pytest.mark.parametrize("load, kind", [(load_dataset, "dataset"), (model.load, "checkpoint")])
    def test_unreadable_file_of_either_kind(self, tmp_path, load, kind):
        (tmp_path / "latin1").write_bytes(b"caf\xe9\n")
        for name in ("missing", "latin1"):
            with pytest.raises(CheckpointFormatError, match=f"cannot read {kind} .*{name}"):
                load(tmp_path / name)


class TestWriteLines:
    def test_replaced_file_keeps_its_permission_bits(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_text("old\n")
        path.chmod(0o640)
        write_lines(path, ["new"])
        assert path.read_text() == "new\n"
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_new_file_follows_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_lines(tmp_path / "model.ckpt", ["new"])
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "model.ckpt").stat().st_mode) == 0o640

    def test_symlink_is_written_through(self, tmp_path):
        (tmp_path / "store").mkdir()
        target = tmp_path / "store" / "model.ckpt"
        target.write_text("old\n")
        link = tmp_path / "latest.ckpt"
        link.symlink_to(target)
        write_lines(link, ["new"])
        assert link.is_symlink() and target.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["latest.ckpt", "model.ckpt", "store"]


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
