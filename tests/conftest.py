import builtins
import contextlib
import errno
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


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
