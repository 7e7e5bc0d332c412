"""Line-oriented text serialization shared by checkpoints and dataset caches.

A file is a magic-and-version line, ``key=value`` lines, short vectors of
decimal floats written with 17 significant digits (which round-trips
binary64 exactly), and bulk float arrays. A bulk array is one line: the
base64 of its little-endian binary64 bytes in C order, so it round-trips
bitwise, NaN payloads included, and parses without converting decimal
text. A date block is whitespace-separated ISO-8601 tokens, parsed a
whole block at a time; a block is scanned token by token only when it
fails to parse, to name the line and token at fault. Files are replaced
whole, never rewritten in place, and read by ``read_file``, which checks
the magic-and-version line. The ``key=value`` header of a checkpoint or a
dataset cache is one line per field of its config dataclass, and the run
config's keys are those same fields (``key_fields``).
"""

import binascii
import os
import stat
from contextlib import contextmanager
from dataclasses import MISSING, fields
from datetime import date

import numpy as np

from .errors import CheckpointFormatError, CheckpointVersionError, ConfigError, OutputError


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def fmt_vector(values) -> str:
    values = np.asarray(values, dtype=np.float64).ravel().tolist()
    # "%.17g" formats a float exactly as format(x, ".17g") does
    return " ".join(["%.17g"] * len(values)) % tuple(values)


def array_lines(arr: np.ndarray) -> list:
    """The block of a bulk float array: one line, empty for an empty array."""
    raw = np.asarray(arr, dtype="<f8").tobytes(order="C")
    return [binascii.b2a_base64(raw, newline=False).decode("ascii")]


@contextmanager
def writing(path):
    """Turn an ``OSError`` raised within into an ``OutputError`` naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_lines(path, lines: list):
    """Write ``lines`` to ``path`` through a temporary file in the same directory.

    The temporary file is moved over ``path`` with ``os.replace`` only once
    it is complete, so a write that fails or a process that dies part way
    leaves the previous file as it was. (It does not sync to disk, so it
    does not guard against a power loss.) A symlink at ``path`` is written
    through: the file it names is the one replaced. A file that is replaced
    keeps its permission bits, but not its owner or group, and a new file
    gets them from the umask. Writing needs write access to the directory,
    not only to the file. A write that fails raises ``OutputError`` naming
    ``path`` as given, and leaves no temporary file.
    """
    target = os.path.realpath(path)
    tmp = f"{target}.{os.urandom(8).hex()}.tmp"
    with writing(path):
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
        try:
            with fh:
                fh.write("\n".join(lines) + "\n")
            try:
                os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
            except FileNotFoundError:
                pass
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise


# Block parsers: each turns a list of tokens into values in one call and
# raises ValueError or OverflowError if any token is bad. numpy converts
# strings with Python's float().


def _floats(tokens: list) -> np.ndarray:
    return np.array(tokens, dtype=np.float64)


def _dates(tokens: list) -> list:
    return list(map(date.fromisoformat, tokens))


class LineReader:
    """Sequential reader with line numbers for error messages."""

    def __init__(self, text: str, what: str):
        self.lines = text.splitlines()
        self.pos = 0
        self.what = what

    def error(self, message: str, line: int = None) -> CheckpointFormatError:
        """An error at ``line`` (1-based), by default the line last read."""
        return CheckpointFormatError(
            f"{self.what}, line {self.pos if line is None else line}: {message}"
        )

    def eof(self) -> bool:
        return self.pos >= len(self.lines)

    def expect_end(self):
        """Raise at the first line left after the file's last block, if any."""
        if not self.eof():
            raise self.error(f"unexpected data after the last block: {self.lines[self.pos]!r}",
                             self.pos + 1)

    def next(self) -> str:
        if self.eof():
            raise CheckpointFormatError(f"{self.what}: unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, key: str, parse=str):
        """The value of the next line, which must be ``key=value``, run through ``parse``."""
        got, value = parse_kv(self.next(), self)
        if got != key:
            raise self.error(f"expected key {key!r}, got {got!r}")
        return self.convert(value, parse, key)

    def convert(self, value: str, parse, what: str):
        """``parse(value)``; if it fails, an error at the line last read naming ``what``."""
        try:
            return parse(value)
        except ValueError:
            raise self.error(f"bad value for {what}: {value!r}") from None

    def read_floats(self, count: int, tokens=()) -> np.ndarray:
        """Consume whitespace-separated floats across lines until count is met.

        ``tokens`` are values already split from the line last read; further
        lines are read only while fewer than ``count`` are in hand.
        """
        return self._read_values(count, _floats, "value", tokens)

    def read_array(self, count: int) -> np.ndarray:
        """The next line as the block of a bulk array of ``count`` floats.

        The line must be exactly what ``array_lines`` writes for the bytes it
        holds, so stray characters, misplaced padding and trailing data are
        all rejected.
        """
        line = self.next()
        try:
            raw = binascii.a2b_base64(line)
        except ValueError as exc:  # binascii.Error, or a non-ASCII character
            raise self.error(f"bad base64 block: {exc}") from None
        if binascii.b2a_base64(raw, newline=False).decode("ascii") != line:
            raise self.error("bad base64 block: not in canonical form")
        if len(raw) != 8 * count:
            raise self.error(f"expected {count} values ({8 * count} bytes), got {len(raw)} bytes")
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)

    def read_dates(self, count: int) -> list:
        """Consume ISO-8601 dates across lines until count is met."""
        return self._read_values(count, _dates, "date")

    def _read_values(self, count: int, parse, kind: str, tokens=()):
        """Gather ``count`` tokens line by line, then ``parse`` them in one call.

        A block that fails is scanned again token by token, so the error is
        the one a value-by-value reader stops at: the first bad token on a
        line within ``count``, else the end of the file or the line that
        went past ``count``.
        """
        first = self.pos  # the line ``tokens`` came from
        tokens = list(tokens)
        ends = [len(tokens)]  # tokens in hand after each line of the block
        try:
            while len(tokens) < count:
                tokens += self.next().split()
                ends.append(len(tokens))
        except CheckpointFormatError:
            self._raise_bad_token(tokens, ends, first, count, parse, kind)
            raise
        if len(tokens) == count:
            try:
                return parse(tokens)
            except (ValueError, OverflowError):
                pass
        self._raise_bad_token(tokens, ends, first, count, parse, kind)
        raise self.error(f"expected {count} values, got more")

    def _raise_bad_token(self, tokens, ends, first, count, parse, kind):
        start = 0
        for line, end in enumerate(ends, start=first):
            if end > count:
                return
            for token in tokens[start:end]:
                try:
                    parse([token])
                except (ValueError, OverflowError):
                    raise self.error(f"unparseable {kind} {token!r}", line) from None
            start = end


def read_file(path, magic: str, version: str, kind: str) -> LineReader:
    """A reader of the ``kind`` file at ``path``, past its first line, which
    must be ``magic version``."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointFormatError(f"cannot read {kind} {path}: {exc}") from None
    reader = LineReader(text, str(path))
    head = reader.next().split()
    if not head or head[0] != magic:
        raise CheckpointFormatError(f"{path}: not a {kind} file")
    if head[1:] != [version]:
        raise CheckpointVersionError(f"{path}: unsupported {kind} version {' '.join(head[1:])!r}")
    return reader


def int_tuple(value: str) -> tuple:
    """Comma-separated integers, as config values and shapes are written."""
    return tuple(int(v) for v in value.split(","))


def float_tuple(value: str) -> tuple:
    return tuple(float(v) for v in value.split(","))


def on_off(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"expected on/off, got {raw!r}")


def fmt_value(value) -> str:
    """A ``key=value`` value as written: on/off, 17 significant digits, tuples comma-joined."""
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, (tuple, list)):
        return ",".join(map(fmt_value, value))
    return str(value)


def key_fields(cls) -> list:
    """The fields of a config dataclass that are ``key=value`` lines, in order.

    A field built by a factory (a nested config) is not one, nor is a field
    whose metadata sets ``persisted`` to false.
    """
    return [
        f for f in fields(cls)
        if f.default_factory is MISSING and f.metadata.get("persisted", True)
    ]


def field_parser(f):
    """The parser of a key field: its type, on/off for a bool, and for a
    tuple the int or float form its default holds."""
    if f.type is bool:
        return on_off
    if f.type is tuple:
        return float_tuple if any(isinstance(v, float) for v in f.default) else int_tuple
    return f.type


def config_lines(config) -> list:
    return [f"{f.name}={fmt_value(getattr(config, f.name))}" for f in key_fields(type(config))]


def read_config(reader: LineReader, cls):
    """A validated ``cls`` from the lines ``config_lines`` writes; a value
    that parses but fails ``validate`` is an error naming the file."""
    config = cls(**{f.name: reader.expect(f.name, field_parser(f)) for f in key_fields(cls)})
    try:
        return config.validate()
    except ConfigError as exc:
        raise ConfigError(f"{reader.what}: {exc}") from None


def parse_kv(line: str, reader: LineReader):
    if "=" not in line:
        raise reader.error(f"expected key=value, got {line!r}")
    key, _, value = line.partition("=")
    return key.strip(), value.strip()
