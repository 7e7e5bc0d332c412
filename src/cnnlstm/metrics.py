"""Evaluation metrics, reported in inverse-scaled price space.

Variances use the population convention (ddof=0); the ratio-based metrics
are insensitive to the choice as long as it is consistent.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError


@dataclass
class MetricsReport:
    explained_variance: float
    r2: float
    max_error: float
    n_samples: int

    def format(self) -> str:
        return (
            f"samples            {self.n_samples}\n"
            f"explained_variance {self.explained_variance:.6f}\n"
            f"r2                 {self.r2:.6f}\n"
            f"max_error          {self.max_error:.6f}"
        )


def _pair(actual, predicted, min_len):
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if actual.ndim != 1 or predicted.ndim != 1 or actual.shape != predicted.shape:
        raise ConfigError(
            f"metric inputs must be equal-length rank-1 tensors, got "
            f"{actual.shape} and {predicted.shape}"
        )
    if actual.size < min_len:
        raise DataError(f"metric needs at least {min_len} samples, got {actual.size}")
    return actual, predicted


def explained_variance(actual, predicted) -> float:
    """1 - Var(actual - predicted) / Var(actual); bias-invariant."""
    actual, predicted = _pair(actual, predicted, 2)
    var_actual = float(np.var(actual))
    if var_actual == 0.0:
        raise DataError("explained_variance undefined: actual values have zero variance")
    return 1.0 - float(np.var(actual - predicted)) / var_actual


def r2(actual, predicted) -> float:
    """1 - SSE / SST; 1 is perfect, 0 matches the mean predictor."""
    actual, predicted = _pair(actual, predicted, 2)
    sst = float(np.sum((actual - actual.mean()) ** 2))
    if sst == 0.0:
        raise DataError("r2 undefined: actual values have zero variance")
    sse = float(np.sum((actual - predicted) ** 2))
    return 1.0 - sse / sst


def max_error(actual, predicted) -> float:
    """Largest absolute deviation over the pairs."""
    actual, predicted = _pair(actual, predicted, 1)
    return float(np.max(np.abs(actual - predicted)))


def report(actual, predicted) -> MetricsReport:
    return MetricsReport(
        explained_variance=explained_variance(actual, predicted),
        r2=r2(actual, predicted),
        max_error=max_error(actual, predicted),
        n_samples=int(np.asarray(actual).size),
    )
