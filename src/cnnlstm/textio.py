"""Line-oriented text serialization shared by checkpoints and dataset caches.

A file is a magic-and-version line, ``key=value`` lines, short vectors of
decimal floats written with 17 significant digits (which round-trips
binary64 exactly), and bulk float arrays. Every block is one line. A bulk
array's line is the base64 of its little-endian binary64 bytes in C order,
so it round-trips bitwise, NaN payloads included, and parses without
converting decimal text. Files are replaced whole, never rewritten in place
(a named pipe or a device is written into), and read by ``read_file``, which
checks the magic-and-version line. The ``key=value`` header of a checkpoint
or a dataset cache is one line per field of its config dataclass, and the
run config's keys are those same fields (``key_fields``).
"""

import binascii
import errno
import os
import stat
from contextlib import contextmanager
from dataclasses import MISSING, fields

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


def check_writable(path):
    """Raise now the ``OutputError`` that ``write_lines(path, ...)`` would
    raise later because its directory is missing, ``path`` is a directory,
    or what it writes is not writable: the directory, where a regular file
    is made or replaced, or a named pipe or device itself. A command can
    then refuse before work it could not save."""
    with writing(path):
        target = os.path.realpath(path)
        # the trailing separator makes a missing directory or a file in its place fail here
        os.stat(os.path.join(os.path.dirname(target), ""))
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            mode = stat.S_IFREG  # a new regular file
        if stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not os.access(os.path.dirname(target) if stat.S_ISREG(mode) else target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))


def write_lines(path, lines: list):
    """Write ``lines`` to ``path`` through a temporary file in the same directory.

    The temporary file is moved over ``path`` with ``os.replace`` only once
    it is complete, so a write that fails or a process that dies part way
    leaves the previous file as it was. (It does not sync to disk, so it
    does not guard against a power loss.) A symlink at ``path`` is written
    through: the file it names is the one replaced. A file that is replaced
    keeps its permission bits, but not its owner or group, and a new file
    gets them from the umask. Writing needs write access to the directory,
    not only to the file. A named pipe or a device at ``path`` is not
    replaced but written in place, so its reader gets the lines. A write
    that fails raises ``OutputError`` naming ``path`` as given, and leaves
    no temporary file.
    """
    target = os.path.realpath(path)
    text = "\n".join(lines) + "\n"
    with writing(path):
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(target, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            return
        tmp = f"{target}.{os.urandom(8).hex()}.tmp"
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
        try:
            with fh:
                fh.write(text)
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise


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

    def read_floats(self, tokens: list) -> np.ndarray:
        """``tokens``, split from the line last read, as floats in one call;
        if any does not parse, an error naming the first that does not."""
        try:
            return np.array(tokens, dtype=np.float64)  # each token as Python's float() reads it
        except ValueError:
            for token in tokens:
                try:
                    float(token)
                except ValueError:
                    raise self.error(f"unparseable value {token!r}") from None
            raise

    def read_array(self, count: int) -> np.ndarray:
        """The next line as the block of a bulk array of ``count`` floats.

        The line must be canonical: exactly what ``array_lines`` writes for
        the bytes it holds, ``b2a_base64(a2b_base64(line)) == line``, so stray
        characters, misplaced padding and trailing data are all rejected. That
        is checked without encoding the block again. A line that decodes
        to n bytes and is 4 * ceil(n / 3) characters long has no character
        the decoder skipped: it is whole quanta of the alphabet, the last one
        padded where n is not a multiple of 3. Only that last quantum can
        hold bits the bytes do not, so it must equal the encoding of the last
        n % 3 bytes.
        """
        line = self.next()
        try:
            raw = binascii.a2b_base64(line)
        except ValueError as exc:  # binascii.Error, or a non-ASCII character
            raise self.error(f"bad base64 block: {exc}") from None
        tail = len(raw) % 3
        if len(line) != 4 * -(-len(raw) // 3) or (
                tail and binascii.b2a_base64(raw[-tail:], newline=False) != line[-4:].encode()):
            raise self.error("bad base64 block: not in canonical form")
        if len(raw) != 8 * count:
            raise self.error(f"expected {count} values ({8 * count} bytes), got {len(raw)} bytes")
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)


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
