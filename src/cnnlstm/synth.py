"""Synthetic OHLCV data: a noisy two-wave sine with no drift.

The close is a constant level plus sines of 251 and 53 business days and
Gaussian noise, so the series is stationary. Used by the tests; the shape
(prices roughly 40-90, ~1200 business days) mimics a few years of a
large-cap stock.
"""

from datetime import date, timedelta

import numpy as np

from .pipeline import FeatureFrame


def synthetic_ohlcv(rows: int = 1200, seed: int = 7, start=date(2019, 1, 2)) -> FeatureFrame:
    rng = np.random.default_rng(seed)
    t = np.arange(rows)
    # periods short enough that a 70% training prefix sees several full
    # cycles of each component; slower waves would not be learnable
    close = (
        64.0
        + 16.0 * np.sin(2.0 * np.pi * t / 251.0)
        + 5.0 * np.sin(2.0 * np.pi * t / 53.0)
        + rng.normal(0.0, 0.5, rows)
    )
    open_ = close + rng.normal(0.0, 0.4, rows)
    spread = np.abs(rng.normal(0.0, 0.5, rows))
    high = np.maximum(open_, close) + spread
    low = np.minimum(open_, close) - spread
    volume = 1e6 * (1.0 + 0.3 * np.sin(2.0 * np.pi * t / 97.0)) + rng.normal(0.0, 5e4, rows)

    dates = []
    day = start
    while len(dates) < rows:
        if day.weekday() < 5:  # business days only
            dates.append(day)
        day += timedelta(days=1)
    return FeatureFrame(
        dates=dates,
        columns={
            "open": open_,
            "high": high,
            "low": low,
            "close": close,
            "volume": volume,
        },
    )
