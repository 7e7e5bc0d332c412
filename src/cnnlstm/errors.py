"""Exception types shared across the toolkit."""


class CnnLstmError(Exception):
    """Base class for every error this package raises on purpose."""


class ShapeError(CnnLstmError):
    """Operands or caches have incompatible shapes."""


class NumericError(CnnLstmError):
    """An operation produced non-finite values."""


class ConfigError(CnnLstmError):
    """Invalid or inconsistent configuration."""


class SequenceTooShortError(CnnLstmError):
    """A sequence is shorter than the kernel or pooling window needs."""


class DataError(CnnLstmError):
    """Malformed input data: bad CSV header, unparseable cell, duplicate date."""


class PipelineError(CnnLstmError):
    """A preprocessing stage cannot run on the given series."""


class CheckpointError(CnnLstmError):
    """Base class for checkpoint read/write failures."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint carries an unsupported format version."""


class CheckpointFormatError(CheckpointError):
    """Checkpoint file is truncated or structurally malformed."""


class CheckpointShapeError(CheckpointError):
    """A stored parameter disagrees with the declared shape."""


class OutputError(CnnLstmError, OSError):
    """An output file cannot be written."""


class CompatibilityError(CnnLstmError):
    """Checkpoint and dataset disagree (feature names, dimensions, empty split)."""


class DivergenceError(CnnLstmError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, message: str):
        super().__init__(message)
        self.epoch = epoch
