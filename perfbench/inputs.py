"""Seeded OHLCV CSV generator for the benchmark's inputs.

Pure standard library on purpose: the program under test (and numpy) is
imported only after the inputs exist, so generation never counts toward
set-up time, and the same seed writes byte-identical files.

The series mimics ``cnnlstm.synth.synthetic_ohlcv`` (a noisy two-wave sine
around 64 on business days) without calling it, so a change to the program
cannot change the benchmark's inputs.
"""

import math
import random
from datetime import date, timedelta

HEADER = "Date,Open,High,Low,Close,Volume"
START = date(2019, 1, 2)


def business_days(count: int, start: date = START) -> list:
    days = []
    day = start
    while len(days) < count:
        if day.weekday() < 5:
            days.append(day)
        day += timedelta(days=1)
    return days


def ohlcv_rows(rows: int, seed: int, gap_rate: float = 0.0, spike_rate: float = 0.0) -> list:
    """CSV lines (header first) of a seeded daily OHLCV series.

    ``gap_rate`` is the share of numeric cells left empty (the format's
    missing marker); ``spike_rate`` the share multiplied by 3, far enough
    out that three-sigma cleaning removes them.
    """
    rng = random.Random(seed)
    phase_slow = rng.uniform(0.0, 2.0 * math.pi)
    phase_fast = rng.uniform(0.0, 2.0 * math.pi)
    lines = [HEADER]
    for t, day in enumerate(business_days(rows)):
        close = (
            64.0
            + 16.0 * math.sin(2.0 * math.pi * t / 251.0 + phase_slow)
            + 5.0 * math.sin(2.0 * math.pi * t / 53.0 + phase_fast)
            + rng.gauss(0.0, 0.5)
        )
        open_ = close + rng.gauss(0.0, 0.4)
        spread = abs(rng.gauss(0.0, 0.5))
        high = max(open_, close) + spread
        low = min(open_, close) - spread
        volume = 1e6 * (1.0 + 0.3 * math.sin(2.0 * math.pi * t / 97.0)) + rng.gauss(0.0, 5e4)
        cells = [day.isoformat()]
        for value in (open_, high, low, close, volume):
            # one draw decides gap, spike or clean, so rates cannot overlap
            u = rng.random()
            if u < gap_rate:
                cells.append("")
            elif u < gap_rate + spike_rate:
                cells.append(format(3.0 * value, ".6f"))
            else:
                cells.append(format(value, ".6f"))
        lines.append(",".join(cells))
    return lines


def write_lines(lines: list, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
