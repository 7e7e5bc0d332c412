"""The three workloads: inputs, set-up, one operation, and its output check.

Each workload drives the program only through ``cnnlstm.cli.main`` and the
public ``pipeline``, ``config`` and ``model`` functions. Program functions
are looked up on their module at call time, so a traced run sees them.

Inputs for ``train`` and ``predict`` come from one of ``VARIANTS`` series,
picked by ``seed % VARIANTS``, because their outputs are checked against
values recorded per series in ``reference.json``. ``prepare`` checks its
outputs against each other, so every seed gives it a fresh series.
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import inputs

VARIANTS = 16
TRAIN_EPOCHS = 1
SERIES_ROWS = 1200  # 725 train, 207 val, 104 test windows at lookback 64
TAIL_ROWS = 300  # 300 - 100 warm-up rows - 64 + 1 = 137 forecast windows
PREPARE_ROWS = 20000
WARMUP_ROWS = 100  # rows the longest moving average (SMA 100) needs first
LOOKBACK = 64  # the default config's window length
GAP_RATE = 0.01
SPIKE_RATE = 0.002

# Relative tolerance of the final validation loss. Rounding does not grow
# over these SGD steps: noise of 1e-12 relative added to every gradient
# element at every step (25x the 4e-14 that reordering the LSTM backward's
# sums produces) moved the loss by at most 1e-14 after one epoch and 3e-14
# after two. 1e-10 leaves three orders of headroom for reordered arithmetic,
# while any change to the maths (initialisation, shuffling, a gradient)
# moves the loss by far more.
TRAIN_LOSS_RTOL = 1e-10
# A single forward pass: the reproduction's fixed-seed prediction tolerance.
PREDICT_RTOL = 1e-12

REFERENCE = Path(__file__).resolve().parent / "reference.json"


class CheckFailed(Exception):
    """An operation completed but its output is wrong."""


def run_cli(argv):
    """``cnnlstm.cli.main(argv)`` with stdout captured; raises on a non-zero exit."""
    from cnnlstm import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    if status != 0:
        raise CheckFailed(f"cnnlstm {argv[0]} exited {status}")
    return buf.getvalue()


def summary_counts(text: str) -> dict:
    """Numbers from the summary ``cnnlstm prepare`` prints."""
    patterns = {
        "rows": r"rows loaded\s+(\d+)",
        "imputed": r"cells imputed\s+(\d+)",
        "windows": r"window samples\s+(\d+)",
        "train": r"split sizes\s+train=(\d+)",
        "val": r"split sizes\s+train=\d+ val=(\d+)",
        "test": r"split sizes\s+train=\d+ val=\d+ test=(\d+)",
    }
    out = {}
    for key, pattern in patterns.items():
        match = re.search(pattern, text)
        if match is None:
            raise CheckFailed(f"prepare summary lacks {key!r}")
        out[key] = int(match.group(1))
    return out


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _close(got: float, want: float, rtol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * abs(want)


class Workload:
    """One closed-loop workload in a private working directory.

    ``generate`` writes the inputs (untimed), ``setup`` builds the program
    state the operations need (timed as set-up, repeatable), ``op`` runs one
    timed operation and returns its raw output, ``check`` raises CheckFailed
    if that output is wrong. ``items`` is the work one operation does.
    ``observe`` (train and predict) extracts the value reference.json holds.
    Subclasses set ``name`` and ``min_ops``, the fewest timed operations a
    run makes whatever its length.
    """

    def __init__(self, work: Path, seed: int, reference=None):
        self.work = Path(work)
        self.seed = seed
        self.reference = reference
        self.items = 0
        self.counters = {}

    def path(self, name: str) -> str:
        return str(self.work / name)

    def setup(self):
        pass


class Train(Workload):
    name = "train"
    min_ops = 3

    def generate(self):
        variant = self.seed % VARIANTS
        inputs.write_lines(inputs.ohlcv_rows(SERIES_ROWS, variant), self.path("series.csv"))
        inputs.write_lines([f"epochs={TRAIN_EPOCHS}"], self.path("run.cfg"))

    def setup(self):
        text = run_cli(["prepare", "--input", self.path("series.csv"),
                        "--config", self.path("run.cfg"), "--out", self.path("data.txt")])
        self.items = summary_counts(text)["train"] * TRAIN_EPOCHS

    def op(self):
        run_cli(["train", "--data", self.path("data.txt"), "--config", self.path("run.cfg"),
                 "--out", self.path("model.ckpt"), "--history", self.path("history.csv")])
        with open(self.path("history.csv"), encoding="utf-8") as fh:
            return fh.read()

    def observe(self, output):
        rows = output.splitlines()[1:]
        if len(rows) != TRAIN_EPOCHS:
            raise CheckFailed(f"history has {len(rows)} epochs, expected {TRAIN_EPOCHS}")
        return float(rows[-1].split(",")[2])

    def check(self, output):
        got = self.observe(output)
        want = self.reference["train_val_loss"][str(self.seed % VARIANTS)]
        if not _close(got, want, TRAIN_LOSS_RTOL):
            raise CheckFailed(f"final val loss {got!r}, reference {want!r}")
        self.counters["textio.checkpoint_bytes"] = Path(self.path("model.ckpt")).stat().st_size
        self.counters["textio.dataset_bytes"] = Path(self.path("data.txt")).stat().st_size


class Predict(Workload):
    name = "predict"
    min_ops = 100  # so that ten or more calls lie beyond the 90th percentile

    def generate(self):
        variant = self.seed % VARIANTS
        lines = inputs.ohlcv_rows(SERIES_ROWS, variant)
        inputs.write_lines(lines, self.path("series.csv"))
        inputs.write_lines(lines[:1] + lines[-TAIL_ROWS:], self.path("tail.csv"))
        inputs.write_lines([], self.path("run.cfg"))
        # a forecast is dated by its window's last row
        self.dates = [line.split(",")[0] for line in lines[-TAIL_ROWS:]][WARMUP_ROWS + LOOKBACK - 1:]

    def setup(self):
        from cnnlstm import config, model, pipeline

        run_cli(["prepare", "--input", self.path("series.csv"),
                 "--config", self.path("run.cfg"), "--out", self.path("data.txt")])
        prepared, _ = pipeline.load_dataset(self.path("data.txt"))
        dataset = prepared.dataset
        cfg = config.load_config(self.path("run.cfg"))
        net = model.build(cfg.model_config(features=len(dataset.feature_names),
                                           lookback=dataset.lookback))
        model.save(net, prepared.preprocess, self.path("model.ckpt"))
        self.items = len(self.dates)
        self.counters["textio.checkpoint_bytes"] = Path(self.path("model.ckpt")).stat().st_size

    def op(self):
        run_cli(["predict", "--checkpoint", self.path("model.ckpt"),
                 "--input", self.path("tail.csv"), "--out", self.path("forecast.csv")])
        with open(self.path("forecast.csv"), encoding="utf-8") as fh:
            return fh.read()

    def observe(self, output):
        rows = [line.split(",") for line in output.splitlines()[1:]]
        if [r[0] for r in rows] != self.dates:
            raise CheckFailed(
                f"forecast has {len(rows)} rows, expected one for each of {len(self.dates)} windows"
            )
        return [float(r[1]) for r in rows]

    def check(self, output):
        got = self.observe(output)
        want = self.reference["predict"][str(self.seed % VARIANTS)]
        bad = [i for i, (g, w) in enumerate(zip(got, want)) if not _close(g, w, PREDICT_RTOL)]
        if bad:
            raise CheckFailed(
                f"{len(bad)} forecasts differ from the reference, first at row {bad[0] + 1}: "
                f"{got[bad[0]]!r} vs {want[bad[0]]!r}"
            )
        self.counters["predict.windows"] = len(got)


class Prepare(Workload):
    name = "prepare"
    min_ops = 10

    def generate(self):
        lines = inputs.ohlcv_rows(PREPARE_ROWS, self.seed, GAP_RATE, SPIKE_RATE)
        inputs.write_lines(lines, self.path("series.csv"))
        self.items = PREPARE_ROWS

    def op(self):
        from cnnlstm import pipeline

        text = run_cli(["prepare", "--input", self.path("series.csv"), "--out", self.path("data.txt")])
        prepared, _ = pipeline.load_dataset(self.path("data.txt"))
        return text, prepared.dataset

    def check(self, output):
        text, dataset = output
        printed = summary_counts(text)
        reloaded = {
            "rows": PREPARE_ROWS,
            "windows": dataset.n,
            "train": dataset.indices("train").size,
            "val": dataset.indices("val").size,
            "test": dataset.indices("test").size,
        }
        for key, value in reloaded.items():
            if printed[key] != value:
                raise CheckFailed(f"prepare printed {key}={printed[key]}, reloaded dataset has {value}")
        self.counters["prepare.rows"] = printed["rows"]
        self.counters["prepare.cells_imputed"] = printed["imputed"]
        self.counters["textio.dataset_bytes"] = Path(self.path("data.txt")).stat().st_size


WORKLOADS = {w.name: w for w in (Train, Predict, Prepare)}
