"""Exception types shared across the toolkit, each with its CLI exit status.

``cli.main`` prints every ``CnnLstmError`` as ``error: <message>`` and
exits with the class's ``exit_status``:

- ``ConfigError`` (2): a configuration, or extents that do not fit each
  other or the model config.
- ``DataError`` (2): input the program cannot use, whether a CSV, a dataset
  cache, a checkpoint or a series that a stage cannot run on.
- ``OutputError`` (2): an output file that cannot be written.
- ``DivergenceError`` (3): training that produced a non-finite loss.
- ``CompatibilityError`` (4): a checkpoint that does not fit its input.

Status 5, a failed gradient check, is a result of ``gradcheck``, not an
exception.
"""


class CnnLstmError(Exception):
    """Base class for every error this package raises on purpose."""

    exit_status = 2


class ConfigError(CnnLstmError):
    """Invalid or inconsistent configuration, or extents that do not fit:
    operands of mismatched shapes, caches of the wrong kind, a sequence
    shorter than a kernel or pooling window needs."""


class DataError(CnnLstmError):
    """Input the program cannot use: a malformed CSV, dataset cache or
    checkpoint (truncated, damaged, of another version, or with a parameter
    that disagrees with its declared shape), or a series that a
    preprocessing stage cannot run on."""


class OutputError(CnnLstmError, OSError):
    """An output file cannot be written."""


class CompatibilityError(CnnLstmError):
    """A checkpoint does not fit its input.

    With a dataset, the checkpoint fits when its ``[preprocessing]`` block,
    lookback and feature count equal the dataset's. Also raised for a frame
    that lacks a column the checkpoint needs.
    """

    exit_status = 4


class DivergenceError(CnnLstmError):
    """Training produced a non-finite loss."""

    exit_status = 3

    def __init__(self, epoch: int, message: str):
        super().__init__(message)
        self.epoch = epoch

    def __reduce__(self):
        # pickle would call the class with ``args``, the message alone
        return type(self), (self.epoch, str(self))
