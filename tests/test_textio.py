import binascii
import os
import stat
import struct
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cnnlstm import model
from cnnlstm.errors import DataError, OutputError
from cnnlstm.pipeline import load_dataset, training_rows
from cnnlstm.textio import LineReader, array_lines, check_writable, fmt_vector, write_lines
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


# what a mutation puts into a block: alphabet characters whose low bits are
# zero (AQgw) or not (B9+/), padding, blanks, the URL-safe alphabet's two
# characters and non-ASCII characters
MUTANTS = "AQgwB9+/=" + " \t" + "-_" + "é８"


@st.composite
def mutated_blocks(draw):
    """The block of up to 4 values, with up to 3 characters inserted, deleted
    or replaced, often in the last quantum, where the padding is."""
    (line,) = array_lines(draw(hnp.arrays(np.uint64, st.integers(0, 4))).view(np.float64))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(line)) | st.integers(max(len(line) - 4, 0), len(line)))
        op, char = draw(st.sampled_from(("insert", "delete", "replace"))), draw(st.sampled_from(MUTANTS))
        if op == "insert":
            line = line[:at] + char + line[at:]
        elif at < len(line):
            line = line[:at] + (char if op == "replace" else "") + line[at + 1 :]
    return line


def assert_damaged_block_fails(line, fault):
    reader = LineReader(f"param w 1\n{line}\nparam b 1\n", "model.ckpt")
    reader.next()
    with pytest.raises(DataError, match=rf"^model.ckpt, line 2: .*{fault}"):
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

    @pytest.mark.parametrize("oldest", [False, True], ids=["current", "oldest-python"])
    @FAST
    @given(line=mutated_blocks())
    @example(line="AAAAAAAA8D9=")  # nonzero bits after the last of 8 bytes
    @example(line="AAAAAAAAAAAAAAAAAAAAAB==")  # and after the last of 16
    def test_canonical_rule_is_the_re_encode_rule(self, oldest, line):
        # the rule read_array checks without encoding again: a line is canonical
        # when encoding the bytes it decodes to gives the line back
        try:
            raw = binascii.a2b_base64(line)
            canonical = binascii.b2a_base64(raw, newline=False).decode("ascii") == line
        except ValueError:
            canonical = False
        with pytest.MonkeyPatch.context() as patch:
            if oldest:  # as in test_decoder_runs_on_the_oldest_supported_python
                real = binascii.a2b_base64
                patch.setattr(binascii, "a2b_base64", lambda data, /: real(data))
            reader = LineReader(line + "\n", "blk")
            if canonical and len(raw) % 8 == 0:
                assert reader.read_array(len(raw) // 8).tobytes() == raw
                return
            with pytest.raises(DataError, match=r"^blk, line 1: (bad base64 block|expected \d+ values)") as info:
                reader.read_array(len(raw) // 8 if canonical else 1)
        assert ("bad base64 block" in str(info.value)) != canonical

    def test_block_missing_at_end_of_file(self):
        reader = LineReader("param w 1\n", "model.ckpt")
        reader.next()
        with pytest.raises(DataError, match=r"model.ckpt: unexpected end of file"):
            reader.read_array(1)

    @FAST
    @given(st.lists(st.text(alphabet="0123456789.e+-_naifINFx１２", min_size=1, max_size=6),
                    max_size=8))
    def test_floats_follow_value_by_value_reader(self, tokens):
        reader = LineReader("scaler_min " + " ".join(tokens) + "\n", "blk")
        reader.next()
        try:
            want = reference_read_values(tokens)
        except ValueError as exc:
            with pytest.raises(DataError, match="^blk, line 1: unparseable value ") as info:
                reader.read_floats(tokens)
            assert str(info.value) == f"blk, line 1: unparseable value {exc.args[0]!r}"
            return
        got = reader.read_floats(tokens)
        assert got.dtype == np.float64
        assert np.array_equal(got, np.array(want, dtype=np.float64), equal_nan=True)

    def test_tokens_from_the_current_line(self):
        reader = LineReader("scaler_min 1 zz\n", "ckpt")
        reader.next()
        with pytest.raises(DataError, match=r"^ckpt, line 1: unparseable value 'zz'$"):
            reader.read_floats(["1", "zz"])

    def test_expect_names_the_line_of_a_bad_value(self):
        reader = LineReader("CKPT v1\nfeatures=abc\n", "m.ckpt")
        reader.next()
        with pytest.raises(DataError, match=r"m.ckpt, line 2: bad value for features: 'abc'"):
            reader.expect("features", int)

    def test_expect_end_names_the_first_line_left(self):
        reader = LineReader("CKPT v1\nfeatures=3\n\nrest\n", "m.ckpt")
        reader.next()
        reader.next()
        with pytest.raises(DataError, match=r"m.ckpt, line 3: unexpected data after the last block: ''"):
            reader.expect_end()
        reader.next()
        reader.next()
        reader.expect_end()

    @pytest.mark.parametrize("load, kind", [(load_dataset, "dataset"), (model.load, "checkpoint")])
    def test_unreadable_file_of_either_kind(self, tmp_path, load, kind):
        (tmp_path / "latin1").write_bytes(b"caf\xe9\n")
        for name in ("missing", "latin1"):
            with pytest.raises(DataError, match=f"cannot read {kind} .*{name}"):
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

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_named_pipe_is_written_into(self, tmp_path):
        # it was replaced by a regular file, and its reader got nothing
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
        reader.start()
        write_lines(pipe, ["a", "b"])
        reader.join(timeout=30)
        assert not reader.is_alive() and got == ["a\nb\n"]
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


@pytest.mark.parametrize("name,reason", [
    ("missing/out.txt", "No such file or directory"),
    ("file.txt/out.txt", "Not a directory"),
    ("", "Is a directory"),  # the working directory
    (".", "Is a directory"),
])
def test_check_writable_names_the_failure_a_write_would_meet(tmp_path, monkeypatch, name, reason):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file.txt").write_text("x\n")
    with pytest.raises(OutputError, match=f"cannot write {name}: {reason}"):
        check_writable(name)
    with pytest.raises(OutputError, match=f"cannot write {name}: {reason}"):
        write_lines(name, ["x"])
    check_writable("new.txt")
    check_writable("file.txt")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
def test_check_writable_asks_for_what_write_lines_writes(tmp_path, monkeypatch):
    # a regular file, new or existing, is replaced through its directory, so a
    # writable file in a read-only directory cannot be written; a named pipe
    # is written in place. os.access is patched, as root may write anything.
    folder = os.path.realpath(tmp_path)
    (tmp_path / "model.ckpt").write_text("old\n")
    os.mkfifo(tmp_path / "pipe")
    denied = set()
    monkeypatch.setattr(os, "access", lambda path, mode: os.fspath(path) not in denied)
    denied.add(folder)
    for name in ("model.ckpt", "new.ckpt"):
        with pytest.raises(OutputError, match="cannot write .*: Permission denied"):
            check_writable(tmp_path / name)
    check_writable(tmp_path / "pipe")
    denied = {os.path.join(folder, "pipe")}
    check_writable(tmp_path / "model.ckpt")
    with pytest.raises(OutputError, match="cannot write .*pipe: Permission denied"):
        check_writable(tmp_path / "pipe")


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
