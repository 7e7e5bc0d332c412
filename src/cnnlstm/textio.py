"""Line-oriented text serialization shared by checkpoints and dataset caches.

Floats are written with 17 significant digits, which round-trips binary64
exactly; arrays are whitespace-separated values wrapped for readability.
Values are formatted a whole line at a time and parsed a whole block at a
time; a block is scanned value by value only when it fails to parse, to
name the line and token at fault.
"""

from datetime import date

import numpy as np

from .errors import CheckpointFormatError

VALUES_PER_LINE = 8


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_values(values: list) -> str:
    # "%.17g" formats a float exactly as format(x, ".17g") does
    return " ".join(["%.17g"] * len(values)) % tuple(values)


_FULL_LINE = " ".join(["%.17g"] * VALUES_PER_LINE)


def fmt_vector(values) -> str:
    return _fmt_values(np.asarray(values, dtype=np.float64).ravel().tolist())


def array_lines(arr: np.ndarray) -> list:
    flat = np.asarray(arr, dtype=np.float64).ravel().tolist()
    full = len(flat) - len(flat) % VALUES_PER_LINE
    lines = [
        _FULL_LINE % tuple(flat[i : i + VALUES_PER_LINE])
        for i in range(0, full, VALUES_PER_LINE)
    ]
    if full < len(flat):
        lines.append(_fmt_values(flat[full:]))
    return lines


# Block parsers: each turns a list of tokens into values in one call and
# raises ValueError or OverflowError if any token is bad. numpy converts
# strings with Python's float() and int().


def _floats(tokens: list) -> np.ndarray:
    return np.array(tokens, dtype=np.float64)


def _ints(tokens: list) -> np.ndarray:
    return np.array(tokens, dtype=np.int64)


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

    def read_ints(self, count: int) -> np.ndarray:
        return self._read_values(count, _ints, "integer")

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


def int_tuple(value: str) -> tuple:
    """Comma-separated integers, as config values and shapes are written."""
    return tuple(int(v) for v in value.split(","))


def float_tuple(value: str) -> tuple:
    return tuple(float(v) for v in value.split(","))


def parse_kv(line: str, reader: LineReader):
    if "=" not in line:
        raise reader.error(f"expected key=value, got {line!r}")
    key, _, value = line.partition("=")
    return key.strip(), value.strip()
