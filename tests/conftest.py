import builtins
import contextlib
import errno
import sys
from pathlib import Path

import numpy as np
import pytest

from cnnlstm import layers

sys.path.insert(0, str(Path(__file__).parent))


def write_csv(frame, path):
    """Write ``frame``'s OHLCV columns as a CSV that ``load_ohlcv`` reads, to 6 decimals."""
    lines = ["Date,Open,High,Low,Close,Volume"]
    for i, day in enumerate(frame.dates):
        cells = [day.isoformat()]
        for name in ("open", "high", "low", "close", "volume"):
            cells.append(format(frame.columns[name][i], ".6f"))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def corrupt_conv_backward(monkeypatch):
    """``layers.conv1d_backward`` with 0.05 added to its kernel gradient: a
    negative control, which the conv1d and full-stack gradient checks must fail."""
    real = layers.conv1d_backward

    def corrupt(grad_y, cache):
        dx, dk, db = real(grad_y, cache)
        return dx, dk + 0.05, db

    monkeypatch.setattr(layers, "conv1d_backward", corrupt)


class _HalfWriter:
    """A file whose ``write`` stores half the text, then fails as a full disk does."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        return False

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.fixture
def failing_writes(monkeypatch):
    """A context in which every file opened for writing fails half way through its first write."""
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _HalfWriter(fh) if set(mode) & set("wxa+") else fh

    @contextlib.contextmanager
    def active():
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", failing_open)
            yield

    return active
