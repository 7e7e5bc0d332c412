"""Command-line front door.

Subcommands: prepare, train, evaluate, predict, plot, gradcheck. Results go
to stdout, diagnostics to stderr. Exit statuses: 0 ok, 2 input error,
3 diverged training, 4 checkpoint/dataset incompatibility, 5 gradient
verification failure. An error prints ``error: <message>`` and exits with
its class's ``exit_status`` (see ``errors``); 5 is ``gradcheck``'s own
result.

``evaluate`` and ``plot`` take a checkpoint and a dataset only when the
checkpoint fits the dataset: its ``[preprocessing]`` block equals the
dataset's, compared as the lines ``preprocess_lines`` writes, and the
model's lookback and feature count equal the dataset's. A re-prepare of the
training CSV with the training config fits; any other pair is exit 4, with
a message naming the first key that differs. So the prices they report
come from the scaler that scaled the dataset's targets.

``prepare`` splits in time order and draws nothing at random, so it has no
``--seed``; the ``seed`` key, or ``train --seed``, seeds the weights, the
shuffle and the dropout masks.

``train`` saves the checkpoint and the history, then scores the test split:
it prints the metrics, or ``test split not scored: <reason>`` when the split
is empty or a metric is undefined on it (one window, or constant closes),
and exits 0 either way. ``evaluate`` exits 2 on such a split, as the metrics
are all it reports, and ``plot`` on an empty one.

``train``, ``evaluate``, ``plot`` and ``predict`` compute with one BLAS
thread and use the CPUs themselves (in ``train`` a worker process, which
also runs half of each validation pass; threads in other inference), so
``OPENBLAS_NUM_THREADS`` does not change their output: a seed gives the
same bytes at any thread and CPU count.

``main`` has the process keep the heap it frees, as ``train``'s worker does
(``training._keep_freed_memory``), so arrays freed and allocated again reuse
pages already faulted in: a one-command ``predict`` process takes about half
the minor page faults, and a process that calls ``main`` again and again, as
``perfbench`` does, almost none after its first calls.
"""

import argparse
import re
import sys
from itertools import zip_longest

from . import model as model_mod
from . import pipeline as pl
from . import metrics, svg, training
from .config import SCHEMA, load_config
from .errors import CnnLstmError, CompatibilityError, DataError
from .textio import check_writable, fmt_float, write_lines

GRADCHECK_TOLERANCE = 1e-5
OUTPUTS = ("out", "history", "svg", "predictions")  # the flags that name a file to write


def cmd_prepare(args) -> int:
    recipe = load_config(args.config).prepare_config()  # a bad value fails before the CSV is parsed
    prepared = pl.prepare_dataset(pl.load_ohlcv(args.input), recipe)
    pl.save_dataset(prepared, args.out)
    print(prepared.describe())
    print(f"dataset written to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    prepared, _ = pl.load_dataset(args.data)
    dataset = prepared.dataset
    mcfg = cfg.model_config(
        features=len(dataset.feature_names), lookback=dataset.lookback
    )
    net = model_mod.build(mcfg)
    report = training.train(net, dataset, cfg.train_config())
    model_mod.save(net, prepared.preprocess, args.out)

    history = ["epoch,train_loss,val_loss"]
    for epoch, (tr, va) in enumerate(zip(report.train_loss, report.val_loss), start=1):
        history.append(f"{epoch},{fmt_float(tr)},{fmt_float(va)}")
    write_lines(args.history, history)
    if args.svg:
        chart = svg.line_chart(
            [("loss", report.train_loss), ("val_loss", report.val_loss)],
            title="Model loss",
            x_label="epoch",
            y_label="mse (scaled)",
            x_tick_labels=[str(e) for e in range(1, len(report.train_loss) + 1)],
        )
        write_lines(args.svg, chart)

    print(f"epochs             {len(report.train_loss)}")
    print(f"final train loss   {report.train_loss[-1]:.6g}")
    print(f"final val loss     {report.val_loss[-1]:.6g}")
    try:  # the run is saved: a test split that cannot be scored is reported, not an error
        _, actual, predicted = training.split_predictions(net, dataset, prepared.preprocess)
        print(f"test metrics (price space):\n{metrics.report(actual, predicted).format()}")
    except DataError as exc:  # an empty split, or metrics.report's: one window, constant closes
        print(f"test split not scored: {exc}")
    print(f"checkpoint written to {args.out}")
    return 0


def _split_prices(args):
    """``training.split_predictions`` of the checkpoint on ``args.split`` of
    the prepared dataset, if the one fits the other.

    The lookback, the feature count and the ``[preprocessing]`` lines of
    the checkpoint must equal the dataset's; the first key that differs is
    a ``CompatibilityError``.
    """
    net, ckpt_pre = model_mod.load(args.checkpoint)
    prepared, _ = pl.load_dataset(args.data)
    data = prepared.dataset
    fitted = [f"lookback={net.config.lookback}", f"features={net.config.features}",
              *pl.preprocess_lines(ckpt_pre)]
    given = [f"lookback={data.lookback}", f"features={len(data.feature_names)}",
             *pl.preprocess_lines(prepared.preprocess)]
    key = None
    for mine, theirs in zip_longest(fitted, given, fillvalue=""):
        if key != "pca_basis":  # the lines after its header are the basis itself
            key = re.split("[= ]", mine or theirs, maxsplit=1)[0]
        if mine != theirs:
            values = f" ({mine} in the checkpoint, {theirs} in the dataset)"
            raise CompatibilityError(
                f"checkpoint {args.checkpoint} does not fit dataset {args.data}: {key} differs"
                + (values if mine.startswith(key + "=") else "")
            )
    return training.split_predictions(net, data, prepared.preprocess, args.split)


def cmd_evaluate(args) -> int:
    dates, actual, predicted = _split_prices(args)
    print(f"metrics on {args.split} split (price space):")
    print(metrics.report(actual, predicted).format())
    if args.predictions:
        lines = ["date,actual,predicted"]
        lines.extend(
            f"{day.isoformat()},{fmt_float(price)},{fmt_float(pred)}"
            for day, price, pred in zip(dates, actual, predicted)
        )
        write_lines(args.predictions, lines)
        print(f"predictions written to {args.predictions}")
    return 0


def cmd_predict(args) -> int:
    net, ckpt_pre = model_mod.load(args.checkpoint)
    frame, _ = pl.engineer(pl.load_ohlcv(args.input))
    rows = training.predict(net, ckpt_pre, frame)
    lines = ["date,predicted"]
    lines.extend(f"{day.isoformat()},{fmt_float(price)}" for day, price in rows)
    if args.out:
        write_lines(args.out, lines)
        print(f"{len(rows)} predictions written to {args.out}")
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_plot(args) -> int:
    dates, actual, predicted = _split_prices(args)
    chart = svg.line_chart(
        [("actual", actual), ("predicted", predicted)],
        title=f"Actual vs predicted close ({args.split} split)",
        x_label="date",
        y_label="price",
        x_tick_labels=[day.isoformat() for day in dates],
    )
    write_lines(args.out, chart)
    print(f"overlay written to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    results = model_mod.run_gradient_checks(seed=args.seed)
    for name, err in results:
        print(f"{name:<12} max_rel_error={err:.3e}")
    failing = [name for name, err in results if not err < GRADCHECK_TOLERANCE]
    if failing:
        print(
            f"gradient check FAILED (tolerance {GRADCHECK_TOLERANCE:g}): "
            f"{', '.join(failing)}",
            file=sys.stderr,
        )
        return 5
    print(f"all gradients within {GRADCHECK_TOLERANCE:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnnlstm",
        description="OHLCV forecasting: prepare data, train the conv/LSTM stack, "
        "evaluate, predict, and verify gradients.",
        epilog="config keys (key=value file): " + ", ".join(sorted(SCHEMA)) + ". "
        "train, evaluate, plot and predict compute with one BLAS thread and use the CPUs "
        "themselves, so OPENBLAS_NUM_THREADS does not change their output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="CSV -> cleaned/engineered/windowed dataset", description=(
        "The windows are split in time order by split_ratios: train, val, test. No seed."))
    p.add_argument("--input", required=True, help="OHLCV CSV (Date,Open,High,Low,Close,Volume)")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", required=True, help="dataset cache to write")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train on a prepared dataset", description=(
        "Train, save the checkpoint and the history, then score the test split. A split that "
        "is empty or that a metric is undefined on (one window, constant closes) prints "
        "'test split not scored: <reason>' and still exits 0."))
    p.add_argument("--data", required=True, help="prepared dataset from 'prepare'")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", required=True, help="checkpoint to write")
    p.add_argument("--history", default="loss_history.csv", help="per-epoch loss CSV")
    p.add_argument("--svg", help="optional loss-curve SVG")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_train)

    fits = ("The checkpoint must fit the dataset: its [preprocessing] block, lookback and "
            "feature count must equal the dataset's, as they do for the dataset it was trained "
            "on or a re-prepare of the same CSV with the same config. Any other pair exits 4, "
            "naming the first key that differs.")
    p = sub.add_parser("evaluate", help="metrics for a checkpoint on one split", description=fits)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--predictions", help="optional date,actual,predicted CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="forecast from a raw CSV with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="OHLCV CSV with recent rows")
    p.add_argument("--out", help="write date,predicted CSV here instead of stdout")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("plot", help="actual-vs-predicted overlay SVG for one split", description=fits)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--out", required=True, help="SVG path to write")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("gradcheck", help="finite-difference verification of all backward passes")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    training._keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        for name in OUTPUTS:  # before work that could not be saved
            if getattr(args, name, None):
                check_writable(getattr(args, name))
        return args.func(args)
    except CnnLstmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_status


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
