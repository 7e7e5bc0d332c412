"""Exception types shared across the toolkit."""


class CnnLstmError(Exception):
    """Base class for every error this package raises on purpose."""


class ShapeError(CnnLstmError):
    """Operands or caches have incompatible shapes."""


class ConfigError(CnnLstmError):
    """Invalid or inconsistent configuration."""


class SequenceTooShortError(CnnLstmError):
    """A sequence is shorter than the kernel or pooling window needs."""


class DataError(CnnLstmError):
    """Malformed input data: bad CSV header, unparseable cell, duplicate date."""


class PipelineError(CnnLstmError):
    """A preprocessing stage cannot run on the given series."""


class CheckpointVersionError(CnnLstmError):
    """Checkpoint carries an unsupported format version."""


class CheckpointFormatError(CnnLstmError):
    """Checkpoint file is truncated or structurally malformed."""


class CheckpointShapeError(CnnLstmError):
    """A stored parameter disagrees with the declared shape."""


class OutputError(CnnLstmError, OSError):
    """An output file cannot be written."""


class CompatibilityError(CnnLstmError):
    """A checkpoint does not fit its input (CLI exit 4).

    With a dataset, the checkpoint fits when its ``[preprocessing]`` block,
    lookback and feature count equal the dataset's. Also raised for a frame
    that lacks a column the checkpoint needs.
    """


class DivergenceError(CnnLstmError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, message: str):
        super().__init__(message)
        self.epoch = epoch
