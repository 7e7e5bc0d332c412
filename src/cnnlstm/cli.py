"""Command-line front door.

Subcommands: prepare, train, evaluate, predict, plot, gradcheck. Results go
to stdout, diagnostics to stderr. Exit statuses: 0 ok, 2 input error,
3 diverged training, 4 checkpoint/dataset incompatibility, 5 gradient
verification failure.
"""

import argparse
import sys

from . import model as model_mod
from . import pipeline as pl
from . import svg, training
from .config import SCHEMA, load_config
from .errors import CnnLstmError, CompatibilityError, DivergenceError
from .textio import fmt_float, writing

GRADCHECK_TOLERANCE = 1e-5


def _write(path, lines: list):
    """Write ``lines`` over ``path`` itself, so a device such as /dev/null works too."""
    with writing(path), open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _check_compat(ckpt_pre: pl.PreprocessState, data_pre: pl.PreprocessState, features: int, n_model_features: int):
    if ckpt_pre.selected != data_pre.selected:
        raise CompatibilityError(
            f"checkpoint selected features {','.join(ckpt_pre.selected)} but the "
            f"dataset was prepared with {','.join(data_pre.selected)}"
        )
    if (ckpt_pre.pca is None) != (data_pre.pca is None):
        raise CompatibilityError("checkpoint and dataset disagree on PCA on/off")
    if ckpt_pre.pca is not None and ckpt_pre.pca.n_components != data_pre.pca.n_components:
        raise CompatibilityError(
            f"checkpoint uses {ckpt_pre.pca.n_components} PCA components, "
            f"dataset has {data_pre.pca.n_components}"
        )
    if features != n_model_features:
        raise CompatibilityError(
            f"dataset provides {features} model features, checkpoint expects {n_model_features}"
        )


def cmd_prepare(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    series = pl.load_ohlcv(args.input)
    prepared = pl.prepare_dataset(series, cfg.prepare_config())
    pl.save_dataset(prepared, args.out)
    print(prepared.summary.format())
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
    report = training.train(net, dataset, prepared.preprocess, cfg.train_config())
    model_mod.save(net, prepared.preprocess, args.out)

    history = ["epoch,train_loss,val_loss"]
    for epoch, (tr, va) in enumerate(zip(report.train_loss, report.val_loss), start=1):
        history.append(f"{epoch},{fmt_float(tr)},{fmt_float(va)}")
    _write(args.history, history)
    if args.svg:
        chart = svg.line_chart(
            [("loss", report.train_loss), ("val_loss", report.val_loss)],
            title="Model loss",
            x_label="epoch",
            y_label="mse (scaled)",
            x_tick_labels=[str(e) for e in range(1, len(report.train_loss) + 1)],
        )
        _write(args.svg, chart)

    print(f"epochs             {len(report.train_loss)}")
    print(f"final train loss   {report.train_loss[-1]:.6g}")
    print(f"final val loss     {report.val_loss[-1]:.6g}")
    if report.final_metrics is not None:
        print("test metrics (price space):")
        print(report.final_metrics.format())
    print(f"checkpoint written to {args.out}")
    return 0


def _load_pair(args):
    net, ckpt_pre = model_mod.load(args.checkpoint)
    prepared, _ = pl.load_dataset(args.data)
    _check_compat(
        ckpt_pre,
        prepared.preprocess,
        len(prepared.dataset.feature_names),
        net.config.features,
    )
    return net, ckpt_pre, prepared


def cmd_evaluate(args) -> int:
    net, ckpt_pre, prepared = _load_pair(args)
    rep = training.evaluate(net, prepared.dataset, ckpt_pre, args.split)
    print(f"metrics on {args.split} split (price space):")
    print(rep.format())
    if args.predictions:
        rows = training.split_predictions(net, prepared.dataset, ckpt_pre, args.split)
        lines = ["date,actual,predicted"]
        lines.extend(
            f"{day.isoformat()},{fmt_float(actual)},{fmt_float(pred)}"
            for day, actual, pred in rows
        )
        _write(args.predictions, lines)
        print(f"predictions written to {args.predictions}")
    return 0


def cmd_predict(args) -> int:
    net, ckpt_pre = model_mod.load(args.checkpoint)
    frame, _ = pl.engineer(pl.load_ohlcv(args.input))
    rows = training.predict(net, ckpt_pre, frame)
    lines = ["date,predicted"]
    lines.extend(f"{day.isoformat()},{fmt_float(price)}" for day, price in rows)
    if args.out:
        _write(args.out, lines)
        print(f"{len(rows)} predictions written to {args.out}")
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_plot(args) -> int:
    net, ckpt_pre, prepared = _load_pair(args)
    rows = training.split_predictions(net, prepared.dataset, ckpt_pre, args.split)
    dates = [day.isoformat() for day, _, _ in rows]
    chart = svg.line_chart(
        [
            ("actual", [actual for _, actual, _ in rows]),
            ("predicted", [pred for _, _, pred in rows]),
        ],
        title=f"Actual vs predicted close ({args.split} split)",
        x_label="date",
        y_label="price",
        x_tick_labels=dates,
    )
    _write(args.out, chart)
    print(f"overlay written to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    results = model_mod.run_gradient_checks(seed=args.seed, corrupt=args.corrupt_backward)
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
        epilog="config keys (key=value file): " + ", ".join(sorted(SCHEMA)),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="CSV -> cleaned/engineered/windowed dataset")
    p.add_argument("--input", required=True, help="OHLCV CSV (Date,Open,High,Low,Close,Volume)")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", required=True, help="dataset cache to write")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train on a prepared dataset")
    p.add_argument("--data", required=True, help="prepared dataset from 'prepare'")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", required=True, help="checkpoint to write")
    p.add_argument("--history", default="loss_history.csv", help="per-epoch loss CSV")
    p.add_argument("--svg", help="optional loss-curve SVG")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="metrics for a checkpoint on one split")
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

    p = sub.add_parser("plot", help="actual-vs-predicted overlay SVG for one split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--out", required=True, help="SVG path to write")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("gradcheck", help="finite-difference verification of all backward passes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt-backward", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CompatibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CnnLstmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
