"""Bad input (exit 2), diverged training (exit 3), a checkpoint that does not
fit its dataset (exit 4) and a failed gradient verification (exit 5) reach the
CLI as a one-line error, never a traceback or a raw warning."""

import ctypes
import hashlib
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import cnnlstm
from cnnlstm import model, pipeline, svg, training
from cnnlstm.cli import main
from cnnlstm.config import load_config
from cnnlstm.synth import synthetic_ohlcv
from cnnlstm.textio import fmt_float
from conftest import write_csv

SMALL = "lookback=8\ncorr_threshold=0.3\n"


@pytest.fixture
def prepared(tmp_path):
    write_csv(synthetic_ohlcv(rows=160, seed=3), tmp_path / "prices.csv")
    (tmp_path / "run.cfg").write_text(SMALL)
    status = main(["prepare", "--input", str(tmp_path / "prices.csv"),
                   "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "data.txt")])
    assert status == 0
    return tmp_path


def assert_input_error(capsys, argv, fragment):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert "Traceback" not in err


def test_prepare_missing_input(tmp_path, capsys):
    assert_input_error(
        capsys,
        ["prepare", "--input", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "d.txt")],
        "missing.csv",
    )


def test_prepare_rejects_two_split_ratios(prepared, capsys):
    (prepared / "two.cfg").write_text(SMALL + "split_ratios=0.5,0.5\n")
    assert_input_error(
        capsys,
        ["prepare", "--input", str(prepared / "prices.csv"), "--config", str(prepared / "two.cfg"),
         "--out", str(prepared / "d2.txt")],
        "three non-negative",
    )


def test_prepare_rejects_a_pca_variance_outside_0_1(prepared, capsys):
    # with PCA off this exited 0 and wrote pca_variance=7 into the cache header
    (prepared / "var.cfg").write_text(SMALL + "pca=off\npca_variance=7\n")
    assert_input_error(
        capsys,
        ["prepare", "--input", str(prepared / "prices.csv"), "--config", str(prepared / "var.cfg"),
         "--out", str(prepared / "d2.txt")],
        "pca_variance must be in (0,1], got 7.0",
    )
    assert not (prepared / "d2.txt").exists()


def test_train_rejects_adam_beta1_of_one(prepared, capsys):
    # a beta of 1 divides by zero in Adam's bias correction: bad input, not divergence
    (prepared / "adam.cfg").write_text(
        SMALL + "kernel_width=2\npool_window=1\noptimizer=adam\nbeta1=1.0\nepochs=1\n"
    )
    assert_input_error(
        capsys,
        ["train", "--data", str(prepared / "data.txt"), "--config", str(prepared / "adam.cfg"),
         "--out", str(prepared / "m.ckpt"), "--history", str(prepared / "h.csv")],
        "beta1 and beta2 must be in [0,1), got 1.0, 0.999",
    )


@pytest.mark.parametrize("setting", ["lr0=nan", "l2=nan", "lr0=inf", "l2=inf"])
def test_train_rejects_non_finite_rate_or_penalty(prepared, capsys, setting):
    # these ran and exited 3 ("training diverged"), but they are bad input
    (prepared / "bad.cfg").write_text(
        SMALL + f"kernel_width=2\npool_window=1\n{setting}\nepochs=1\n"
    )
    assert_input_error(
        capsys,
        ["train", "--data", str(prepared / "data.txt"), "--config", str(prepared / "bad.cfg"),
         "--out", str(prepared / "m.ckpt"), "--history", str(prepared / "h.csv")],
        f"{setting.split('=')[0]} must be finite and >= 0",
    )


@pytest.mark.parametrize("setting, message", [
    ("epochs=0", "epochs must be >= 1, got 0"),
    ("batch_size=0", "batch_size must be >= 1, got 0"),
    # lookback 8, kernel width 2: stage 1's conv gives 7 steps
    ("pool_window=8", "stage 1: pool window 8 reduces length 7 below 1"),
])
def test_train_rejects_a_run_setting_before_training(prepared, capsys, monkeypatch, setting,
                                                     message):
    keys = {"kernel_width": "2", "pool_window": "1", "epochs": "1", **dict([setting.split("=")])}
    (prepared / "bad.cfg").write_text(SMALL + "".join(f"{k}={v}\n" for k, v in keys.items()))

    def never(*args):
        raise AssertionError("training started")

    monkeypatch.setattr(training, "train", never)
    assert_input_error(
        capsys,
        ["train", "--data", str(prepared / "data.txt"), "--config", str(prepared / "bad.cfg"),
         "--out", str(prepared / "m.ckpt"), "--history", str(prepared / "h.csv")],
        message,
    )
    assert not (prepared / "m.ckpt").exists()


@pytest.mark.parametrize("command", ["train"])
@pytest.mark.parametrize("given", ["flag", "config"])
def test_negative_seed_is_an_input_error(prepared, capsys, command, given):
    # numpy's default_rng rejects a negative seed with a raw ValueError
    (prepared / "neg.cfg").write_text(
        SMALL + "kernel_width=2\npool_window=1\nepochs=1\n" + ("seed=-1\n" if given == "config" else "")
    )
    argv = [command, "--data", str(prepared / "data.txt"), "--out", str(prepared / "m.ckpt"),
            "--history", str(prepared / "h.csv"), "--config", str(prepared / "neg.cfg")]
    assert_input_error(capsys, argv + (["--seed", "-1"] if given == "flag" else []),
                       "seed must be >= 0, got -1")


def test_prepare_reads_no_seed(prepared, capsys):
    # the split is in time order: prepare has no --seed flag, and the seed key is train's
    argv = ["prepare", "--input", str(prepared / "prices.csv"), "--out", str(prepared / "d2.txt")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    (prepared / "neg.cfg").write_text(SMALL + "seed=-1\n")
    assert main(argv + ["--config", str(prepared / "neg.cfg")]) == 0
    assert (prepared / "d2.txt").read_bytes() == (prepared / "data.txt").read_bytes()


def test_split_mode_is_an_unknown_key(prepared, capsys):
    (prepared / "mode.cfg").write_text(SMALL + "split_mode=chronological\n")
    assert_input_error(
        capsys,
        ["prepare", "--input", str(prepared / "prices.csv"), "--config", str(prepared / "mode.cfg"),
         "--out", str(prepared / "d2.txt")],
        f"{prepared / 'mode.cfg'}, line 3: unknown key 'split_mode'",
    )


def test_gradcheck_rejects_a_negative_seed(capsys):
    assert_input_error(capsys, ["gradcheck", "--seed", "-1"], "seed must be >= 0, got -1")


def test_gradcheck_passes(capsys):
    assert main(["gradcheck"]) == 0
    assert capsys.readouterr().out.endswith("all gradients within 1e-05\n")


def test_gradcheck_names_the_checks_a_wrong_backward_fails(capsys, corrupt_conv_backward):
    assert main(["gradcheck"]) == 5
    err = capsys.readouterr().err
    assert err == "gradient check FAILED (tolerance 1e-05): conv1d, full_stack\n"


def test_loaded_split_is_the_prepared_split(prepared):
    loaded, _ = pipeline.load_dataset(prepared / "data.txt")
    made = pipeline.prepare_dataset(
        pipeline.load_ohlcv(prepared / "prices.csv"), load_config(prepared / "run.cfg").prepare_config()
    )
    for split in ("train", "val", "test"):
        got, want = loaded.dataset.indices(split), made.dataset.indices(split)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), split
    # three consecutive runs in time order
    runs = [made.dataset.indices(split) for split in ("train", "val", "test")]
    assert np.array_equal(np.concatenate(runs), np.arange(made.dataset.n))


@pytest.mark.parametrize("recipe", ["split_ratios=1.5,-0.3,-0.2", "split_ratios=nan,0.5,0.5",
                                    "pca_variance=7"])
def test_train_rejects_a_damaged_split_recipe(prepared, capsys, recipe):
    path = prepared / "data.txt"
    key = recipe.split("=")[0]
    lines = path.read_text().splitlines()
    lines[next(i for i, line in enumerate(lines) if line.startswith(f"{key}="))] = recipe
    path.write_text("\n".join(lines) + "\n")
    (prepared / "train.cfg").write_text(SMALL + "kernel_width=2\npool_window=1\nepochs=1\n")
    assert_input_error(
        capsys,
        ["train", "--data", str(path), "--config", str(prepared / "train.cfg"),
         "--out", str(prepared / "m.ckpt"), "--history", str(prepared / "h.csv")],
        f"{path}: {key} must be",
    )


def test_predict_names_the_checkpoint_with_an_invalid_header_value(prepared, capsys):
    ckpt = saved_checkpoint(prepared)
    lines = ckpt.read_text().splitlines()
    lines[lines.index("dropout_rate=0.20000000000000001")] = "dropout_rate=1.5"
    ckpt.write_text("\n".join(lines) + "\n")
    assert_input_error(
        capsys,
        ["predict", "--checkpoint", str(ckpt), "--input", str(prepared / "prices.csv")],
        f"{ckpt}: dropout_rate must be in [0,1), got 1.5",
    )


def test_train_rejects_lines_after_the_last_cache_block(prepared, capsys):
    # a v2 cache's [split] section, left in a later cache, must not load silently
    path = prepared / "data.txt"
    n = len(path.read_text().splitlines())
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("[split]\ngarbage\n")
    assert_input_error(
        capsys,
        ["train", "--data", str(path), "--config", str(prepared / "run.cfg"),
         "--out", str(prepared / "m.ckpt"), "--history", str(prepared / "h.csv")],
        f"{path}, line {n + 1}: unexpected data after the last block: '[split]'",
    )


def test_train_rejects_a_cache_whose_two_horizons_disagree(prepared, capsys):
    path = prepared / "data.txt"
    lines = path.read_text().splitlines()
    lines[lines.index("[preprocessing]") + 1] = "horizon=3"
    path.write_text("\n".join(lines) + "\n")
    assert_input_error(
        capsys,
        ["train", "--data", str(path), "--config", str(prepared / "run.cfg"),
         "--out", str(prepared / "m.ckpt"), "--history", str(prepared / "h.csv")],
        f"{path}: header horizon=1 disagrees with [preprocessing] horizon=3",
    )


def test_predict_rejects_lines_after_the_last_checkpoint_block(prepared, capsys):
    ckpt = saved_checkpoint(prepared)
    n = len(ckpt.read_text().splitlines())
    with open(ckpt, "a", encoding="utf-8") as fh:
        fh.write("garbage\n")
    assert_input_error(
        capsys,
        ["predict", "--checkpoint", str(ckpt), "--input", str(prepared / "prices.csv")],
        f"{ckpt}, line {n + 1}: unexpected data after the last block: 'garbage'",
    )


def test_predict_rejects_non_integer_checkpoint_value(prepared, capsys):
    ckpt = prepared / "model.ckpt"
    ckpt.write_text(f"{model.CKPT_MAGIC} {model.CKPT_VERSION}\nfeatures=abc\n")
    assert_input_error(
        capsys,
        ["predict", "--checkpoint", str(ckpt), "--input", str(prepared / "prices.csv")],
        "line 2: bad value for features: 'abc'",
    )


def as_version(path, magic, version):
    """Rewrite the file's first line to name another version of its format."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith(f"{magic} ") and lines[0] != f"{magic} {version}"
    lines[0] = f"{magic} {version}"
    path.write_text("\n".join(lines) + "\n")


def saved_checkpoint(prepared):
    """A freshly built small model's checkpoint for the prepared cache."""
    data, _ = pipeline.load_dataset(prepared / "data.txt")
    cfg = model.ModelConfig(features=len(data.dataset.feature_names), lookback=8,
                            conv_filters=(2, 2, 2), kernel_width=2, pool_window=1, lstm_units=(2, 2, 2))
    ckpt = prepared / "model.ckpt"
    model.save(model.build(cfg), data.preprocess, ckpt)
    return ckpt


def test_predict_rejects_version_1_checkpoint(prepared, capsys):
    # no reader is kept for v1, or for v2, whose [preprocessing] block held the
    # three PCA lines v3 dropped: pca_eigenvalues, pca_components and pca_explained
    ckpt = saved_checkpoint(prepared)
    for version in ("v1", "v2"):
        as_version(ckpt, model.CKPT_MAGIC, version)
        assert_input_error(
            capsys,
            ["predict", "--checkpoint", str(ckpt), "--input", str(prepared / "prices.csv")],
            f"unsupported checkpoint version '{version}'",
        )


def test_train_rejects_version_1_cache(prepared, capsys):
    # no reader is kept for v1, for v2, whose [split] section v3 derives instead,
    # for v3, whose dates block v4 writes as day numbers, or for v4, whose
    # split_mode and seed lines and three PCA lines v5 dropped
    for version in ("v1", "v2", "v3", "v4"):
        as_version(prepared / "data.txt", pipeline.DATA_MAGIC, version)
        assert_input_error(
            capsys,
            ["train", "--data", str(prepared / "data.txt"), "--config", str(prepared / "run.cfg"),
             "--out", str(prepared / "m.ckpt"), "--history", str(prepared / "h.csv")],
            f"unsupported dataset version '{version}'",
        )


def trained(prepared):
    """Train ``m.ckpt`` for one epoch on the ``prepared`` cache; returns its path."""
    (prepared / "one.cfg").write_text(SMALL + "kernel_width=2\npool_window=1\nepochs=1\n")
    ckpt = prepared / "m.ckpt"
    assert main(["train", "--data", str(prepared / "data.txt"), "--config", str(prepared / "one.cfg"),
                 "--out", str(ckpt), "--history", str(prepared / "h.csv")]) == 0
    return ckpt


def reprepare(prepared, config_text, name):
    """Prepare ``prices.csv`` again with ``config_text``; returns the new cache's path."""
    (prepared / f"{name}.cfg").write_text(config_text)
    data = prepared / f"{name}.txt"
    assert main(["prepare", "--input", str(prepared / "prices.csv"), "--config",
                 str(prepared / f"{name}.cfg"), "--out", str(data)]) == 0
    return data


def score(command, ckpt, data, out):
    return [command, "--checkpoint", str(ckpt), "--data", str(data),
            "--predictions" if command == "evaluate" else "--out", str(out)]


def chart(path):
    """An SVG chart's title, its x tick labels and the point count of each
    polyline, keyed by the legend label drawn after it."""
    ns = "{http://www.w3.org/2000/svg}"
    elements = list(ET.parse(path).getroot())
    texts = [e for e in elements if e.tag == ns + "text"]
    x_ticks = [e.text for e in texts if e.get("y") == str(svg.HEIGHT - svg.MARGIN_BOTTOM + 20)]
    points = {elements[i + 2].text: len(e.get("points").split())
              for i, e in enumerate(elements) if e.tag == ns + "polyline"}
    return texts[0].text, x_ticks, points


def test_plot_draws_the_actual_and_predicted_closes_of_a_split(prepared, capsys):
    ckpt, out = trained(prepared), prepared / "plot.svg"
    dataset = pipeline.load_dataset(prepared / "data.txt")[0].dataset
    assert dataset.test_idx.size == 6
    capsys.readouterr()
    assert main(score("plot", ckpt, prepared / "data.txt", out)) == 0
    assert capsys.readouterr().out == f"overlay written to {out}\n"
    title, x_ticks, points = chart(out)
    assert title == "Actual vs predicted close (test split)"
    assert x_ticks == [dataset.target_dates[i].isoformat() for i in dataset.test_idx]
    assert points == {"actual": 6, "predicted": 6}


def test_train_svg_draws_both_losses_an_epoch(prepared):
    (prepared / "three.cfg").write_text(SMALL + "kernel_width=2\npool_window=1\nepochs=3\n")
    assert main(["train", "--data", str(prepared / "data.txt"), "--config", str(prepared / "three.cfg"),
                 "--out", str(prepared / "m.ckpt"), "--history", str(prepared / "h.csv"),
                 "--svg", str(prepared / "loss.svg")]) == 0
    assert chart(prepared / "loss.svg") == ("Model loss", ["1", "2", "3"], {"loss": 3, "val_loss": 3})


def test_prepare_reports_pca_off(prepared, capsys):
    capsys.readouterr()
    reprepare(prepared, SMALL + "pca=off\n", "flat")
    assert "\npca                     off\nwindow samples " in capsys.readouterr().out


def test_predict_prints_or_writes_one_forecast_a_window(prepared, capsys):
    ckpt, prices = saved_checkpoint(prepared), prepared / "prices.csv"
    argv = ["predict", "--checkpoint", str(ckpt), "--input", str(prices)]
    capsys.readouterr()
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = prepared / "forecast.csv"
    assert main(argv + ["--out", str(out)]) == 0
    lines = printed.splitlines()
    assert capsys.readouterr().out == f"{len(lines) - 1} predictions written to {out}\n"
    assert out.read_text() == printed
    net, preprocess = model.load(ckpt)
    frame, _ = pipeline.engineer(pipeline.load_ohlcv(prices))
    want = training.predict(net, preprocess, frame)
    assert lines == ["date,predicted", *(f"{day.isoformat()},{fmt_float(p)}" for day, p in want)]
    # a window ends on each CSV row from the 100-row warm-up cut plus lookback 8 on
    days = synthetic_ohlcv(rows=160, seed=3).dates[100 + 8 - 1 :]
    assert len(days) == 53 and [day for day, _ in want] == days


def test_predict_agrees_with_evaluate_on_clean_input(prepared):
    # a window's forecast from the raw CSV is its prediction from the cache; the
    # forecast is dated the window's last input row, the CSV row before its target
    ckpt, forecast = trained(prepared), prepared / "forecast.csv"
    assert main(["predict", "--checkpoint", str(ckpt), "--input", str(prepared / "prices.csv"),
                 "--out", str(forecast)]) == 0
    by_as_of = dict(line.split(",") for line in forecast.read_text().splitlines()[1:])
    days = [day.isoformat() for day in synthetic_ohlcv(rows=160, seed=3).dates]
    windows = 0
    for split in ("train", "val", "test"):
        out = prepared / f"{split}.csv"
        assert main(["evaluate", "--checkpoint", str(ckpt), "--data", str(prepared / "data.txt"),
                     "--split", split, "--predictions", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            target, _, predicted = line.split(",")
            as_of = days[days.index(target) - 1]
            assert float(by_as_of[as_of]) == pytest.approx(float(predicted), rel=1e-12, abs=0)
            windows += 1
    assert windows == 52


@pytest.mark.parametrize("command", ["evaluate", "plot"])
@pytest.mark.parametrize("config_text, differs", [
    (SMALL + "split_ratios=0.8,0.1,0.1\n", "scaler_min differs"),
    (SMALL + "horizon=3\n", "horizon differs (horizon=1 in the checkpoint, horizon=3 in the dataset)"),
    ("lookback=16\ncorr_threshold=0.3\n",
     "lookback differs (lookback=8 in the checkpoint, lookback=16 in the dataset)"),
])
def test_a_checkpoint_scores_only_a_dataset_it_fits(prepared, capsys, command, config_text, differs):
    # the first two exited 0, scoring the model with another scaler or horizon; the third exited 2
    ckpt = trained(prepared)
    data = reprepare(prepared, config_text, "other")
    capsys.readouterr()
    assert main(score(command, ckpt, data, prepared / "out")) == 4
    assert capsys.readouterr().err == f"error: checkpoint {ckpt} does not fit dataset {data}: {differs}\n"
    assert not (prepared / "out").exists()


def test_a_re_prepared_dataset_fits_its_checkpoint(prepared):
    ckpt = trained(prepared)
    again = reprepare(prepared, SMALL, "again")
    for command in ("evaluate", "plot"):
        for data in (prepared / "data.txt", again):
            assert main(score(command, ckpt, data, prepared / f"{command}-{data.stem}")) == 0
        assert (prepared / f"{command}-data").read_bytes() == (prepared / f"{command}-again").read_bytes()


def test_evaluate_infers_once_for_metrics_and_predictions(prepared, monkeypatch):
    # the metrics and the --predictions CSV each ran inference over the split
    ckpt = trained(prepared)
    calls, infer = [], training._infer
    monkeypatch.setattr(training, "_infer", lambda *args: calls.append(1) or infer(*args))
    assert main(score("evaluate", ckpt, prepared / "data.txt", prepared / "p.csv")) == 0
    assert len(calls) == 1


def test_divergent_train_prints_only_the_error_line(tmp_path):
    # a fresh interpreter, so stderr is exactly what a user of the command sees
    write_csv(synthetic_ohlcv(rows=1200, seed=3), tmp_path / "prices.csv")
    (tmp_path / "run.cfg").write_text("lr0=1e12\nl2=0\nepochs=2\n")
    assert main(["prepare", "--input", str(tmp_path / "prices.csv"),
                 "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "data.txt")]) == 0
    src = str(Path(cnnlstm.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"}
    run = subprocess.run(
        [sys.executable, "-m", "cnnlstm.cli", "train", "--data", str(tmp_path / "data.txt"),
         "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "m.ckpt"),
         "--history", str(tmp_path / "h.csv")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 3
    assert run.stderr == "error: training diverged: non-finite loss in epoch 1\n"


def test_train_saves_a_run_whose_test_split_has_one_window(tmp_path, capsys):
    # train ran every epoch, then exited 2 scoring the one test window, writing no file
    write_csv(synthetic_ohlcv(), tmp_path / "full.csv")
    rows = (tmp_path / "full.csv").read_text().splitlines()[:175]
    (tmp_path / "prices.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "run.cfg").write_text("epochs=1\n")
    assert main(["prepare", "--input", str(tmp_path / "prices.csv"),
                 "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "data.txt")]) == 0
    assert "train=7 val=2 test=1" in capsys.readouterr().out
    assert main(["train", "--data", str(tmp_path / "data.txt"), "--config", str(tmp_path / "run.cfg"),
                 "--out", str(tmp_path / "m.ckpt"), "--history", str(tmp_path / "h.csv")]) == 0
    assert "test metrics" not in capsys.readouterr().out
    model.load(tmp_path / "m.ckpt")
    assert len((tmp_path / "h.csv").read_text().splitlines()) == 2


def test_train_saves_a_run_whose_test_closes_are_constant(tmp_path, capsys):
    # train saved the run, printed the metrics header and then exited 2, as
    # explained variance is undefined on a test split of equal closes
    write_csv(synthetic_ohlcv(), tmp_path / "prices.csv")
    lines = (tmp_path / "prices.csv").read_text().splitlines()
    for i in range(1051, len(lines)):
        cells = lines[i].split(",")
        cells[4] = "64.000000"
        lines[i] = ",".join(cells)
    (tmp_path / "prices.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "run.cfg").write_text("epochs=2\n")
    data, ckpt = str(tmp_path / "data.txt"), str(tmp_path / "m.ckpt")
    assert main(["prepare", "--input", str(tmp_path / "prices.csv"), "--out", data]) == 0
    capsys.readouterr()
    assert main(["train", "--data", data, "--config", str(tmp_path / "run.cfg"), "--out", ckpt,
                 "--history", str(tmp_path / "h.csv")]) == 0
    undefined = "explained_variance undefined: actual values have zero variance"
    out = capsys.readouterr().out
    assert f"test split not scored: {undefined}\ncheckpoint written to {ckpt}\n" in out
    assert "test metrics" not in out
    model.load(ckpt)
    assert len((tmp_path / "h.csv").read_text().splitlines()) == 3
    assert_input_error(capsys, ["evaluate", "--checkpoint", ckpt, "--data", data], undefined)


def test_train_saves_a_run_whose_test_split_is_empty(prepared, capsys):
    data = reprepare(prepared, SMALL + "split_ratios=0.75,0.25,0\n", "no-test")
    (prepared / "one.cfg").write_text(SMALL + "kernel_width=2\npool_window=1\nepochs=1\n")
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--config", str(prepared / "one.cfg"),
                 "--out", str(prepared / "m.ckpt"), "--history", str(prepared / "h.csv")]) == 0
    out = capsys.readouterr().out
    assert "test split not scored: the split is empty\n" in out and "test metrics" not in out
    model.load(prepared / "m.ckpt")
    # the checkpoint fits the dataset: these exited 4 with "test split is empty"
    for command in ("evaluate", "plot"):
        assert main(score(command, prepared / "m.ckpt", data, prepared / "out")) == 2
        assert capsys.readouterr().err == "error: the split is empty\n"
        assert not (prepared / "out").exists()


def test_evaluate_rejects_a_test_split_of_one_window(tmp_path, capsys):
    write_csv(synthetic_ohlcv(), tmp_path / "full.csv")
    rows = (tmp_path / "full.csv").read_text().splitlines()[:175]
    (tmp_path / "prices.csv").write_text("\n".join(rows) + "\n")
    data = tmp_path / "data.txt"
    assert main(["prepare", "--input", str(tmp_path / "prices.csv"), "--out", str(data)]) == 0
    loaded, _ = pipeline.load_dataset(data)
    assert loaded.dataset.test_idx.size == 1
    net = model.build(model.ModelConfig(features=len(loaded.dataset.feature_names)))
    model.save(net, loaded.preprocess, tmp_path / "m.ckpt")
    assert_input_error(capsys, ["evaluate", "--checkpoint", str(tmp_path / "m.ckpt"),
                                "--data", str(data)], "metric needs at least 2 samples, got 1")


def test_prepare_reports_a_constant_feature_once(prepared):
    # stderr also got a UserWarning naming pipeline.py and a line of its source
    lines = (prepared / "prices.csv").read_text().splitlines()
    lines[1:] = [line.rsplit(",", 1)[0] + ",1000.000000" for line in lines[1:]]
    (prepared / "prices.csv").write_text("\n".join(lines) + "\n")
    src = str(Path(cnnlstm.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-m", "cnnlstm.cli", "prepare", "--input", str(prepared / "prices.csv"),
         "--config", str(prepared / "run.cfg"), "--out", str(prepared / "flat.txt")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src,
                                             "PYTHONWARNINGS": "default"}, timeout=300,
    )
    assert run.returncode == 0
    assert "  volume   constant   dropped\n" in run.stdout and run.stderr == ""


def damage(path, prefix, replacement):
    """Replace the first line of ``path`` that starts with ``prefix``; returns its number."""
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[i] = replacement
    path.write_text("\n".join(lines) + "\n")
    return i + 1


@pytest.mark.parametrize("prefix, replacement, message", [
    ("[frame]", "[frames]", "expected [frame] section"),
    ("dates", "days", "expected dates block"),
    ("column pc_2", "column pc_9", "expected 'column pc_2', got 'column pc_9'"),
])
def test_train_rejects_a_cache_with_a_damaged_frame_block(prepared, capsys, prefix, replacement,
                                                         message):
    path = prepared / "data.txt"
    line = damage(path, prefix, replacement)
    assert_input_error(
        capsys,
        ["train", "--data", str(path), "--config", str(prepared / "run.cfg"),
         "--out", str(prepared / "m.ckpt"), "--history", str(prepared / "h.csv")],
        f"{path}, line {line}: {message}",
    )


@pytest.mark.parametrize("prefix, replacement, message", [
    ("pca=", "pca=maybe", "pca must be on or off, got 'maybe'"),
    ("pca_basis ", "pca_basis 3", "expected pca_basis <k> <d>"),
    ("pca_basis ", "pca_basis 2 8", "expected 16 values (128 bytes), got 192 bytes"),
    ("pca_basis ", "pca_basis 3 7", "pca_basis has 7 columns, pca_columns names 8"),
    ("param conv1.kernels ", "param conv1.kernels",
     "expected 'param conv1.kernels ...', got 'param conv1.kernels'"),
])
def test_predict_rejects_a_checkpoint_with_a_damaged_block(prepared, capsys, prefix, replacement,
                                                          message):
    ckpt = saved_checkpoint(prepared)
    line = damage(ckpt, prefix, replacement)
    if replacement == "pca_basis 2 8":  # a valid header: the 3x8 block after it is too long
        line += 1
    assert_input_error(
        capsys,
        ["predict", "--checkpoint", str(ckpt), "--input", str(prepared / "prices.csv")],
        f"{ckpt}, line {line}: {message}",
    )


def test_predict_rejects_a_checkpoint_whose_feature_count_its_preprocessing_does_not_give(
        prepared, capsys):
    data, _ = pipeline.load_dataset(prepared / "data.txt")
    features = len(data.dataset.feature_names)
    cfg = model.ModelConfig(features=features + 1, lookback=8, conv_filters=(2, 2, 2),
                            kernel_width=2, pool_window=1, lstm_units=(2, 2, 2))
    ckpt = prepared / "model.ckpt"
    model.save(model.build(cfg), data.preprocess, ckpt)
    assert main(["predict", "--checkpoint", str(ckpt), "--input", str(prepared / "prices.csv")]) == 4
    assert capsys.readouterr().err == (
        f"error: prepared frame has {features} model features, checkpoint expects {features + 1}\n"
    )


def test_train_prints_the_metrics_of_a_test_split_of_two_windows_or_more(prepared, capsys):
    test = pipeline.load_dataset(prepared / "data.txt")[0].dataset.test_idx.size
    assert test >= 2
    capsys.readouterr()
    ckpt = trained(prepared)
    out = capsys.readouterr().out
    assert f"test metrics (price space):\nsamples            {test}\nexplained_variance " in out
    assert out.endswith(f"checkpoint written to {ckpt}\n")


# prepares argv[1]/prices.csv, saves an untrained checkpoint for it, predicts
# three times and prints the minor page faults of the third predict
REPEATED_PREDICTS = """
import resource, sys
from cnnlstm import model, pipeline
from cnnlstm.cli import main

d = sys.argv[1] + "/"
assert main(["prepare", "--input", d + "prices.csv", "--out", d + "data.txt"]) == 0
data, _ = pipeline.load_dataset(d + "data.txt")
cfg = model.ModelConfig(features=len(data.dataset.feature_names))
model.save(model.build(cfg), data.preprocess, d + "model.ckpt")
argv = ["predict", "--checkpoint", d + "model.ckpt", "--input", d + "prices.csv"]
for _ in range(2):
    assert main(argv) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_repeated_predicts_do_not_fault(tmp_path):
    # main keeps the freed heap; with glibc's default limits every call
    # faulted its arrays' pages in again, some 3,400-3,700 times a call here.
    # A fresh interpreter: in one that earlier tests have forked training
    # workers from, one predict in five to ten took some 400 more faults
    pytest.importorskip("resource")  # in the interpreter below
    try:  # as training._keep_freed_memory finds it
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        pytest.skip("no glibc mallopt")
    write_csv(synthetic_ohlcv(rows=400), tmp_path / "prices.csv")
    src = str(Path(cnnlstm.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-c", REPEATED_PREDICTS, str(tmp_path)],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout.splitlines()[-1]) < 200


@pytest.mark.parametrize("error", [TypeError, OSError])
def test_main_runs_where_no_c_library_loads_by_name(monkeypatch, capsys, error):
    # ctypes.CDLL(None) raises TypeError on Windows; main must still run
    def no_library(name, *args, **kwargs):
        raise error("no C library")
    monkeypatch.setattr(ctypes, "CDLL", no_library)
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0 and "usage: cnnlstm" in capsys.readouterr().out


# prepare, train, evaluate --predictions and predict in the directory argv[1]
CHAIN = """
import sys
from cnnlstm.cli import main

d = sys.argv[1] + "/"
for argv in (
    ["prepare", "--input", d + "prices.csv", "--config", d + "run.cfg", "--out", d + "data.txt"],
    ["train", "--data", d + "data.txt", "--config", d + "run.cfg", "--out", d + "m.ckpt",
     "--history", d + "h.csv"],
    ["evaluate", "--checkpoint", d + "m.ckpt", "--data", d + "data.txt", "--predictions", d + "p.csv"],
    ["predict", "--checkpoint", d + "m.ckpt", "--input", d + "prices.csv", "--out", d + "f.csv"],
):
    assert main(argv) == 0, argv
"""


def test_a_seed_gives_the_same_bytes_at_any_blas_thread_count(tmp_path):
    # at the paper's shapes OpenBLAS splits a GEMM over its threads, and so
    # changed these bytes, unless train and inference hold it at one thread
    src = str(Path(cnnlstm.__file__).resolve().parent.parent)
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    digests = {}
    for threads in (None, "1", "2"):
        run_dir = tmp_path / f"threads-{threads}"
        run_dir.mkdir()
        write_csv(synthetic_ohlcv(rows=400), run_dir / "prices.csv")
        (run_dir / "run.cfg").write_text("epochs=1\n")
        blas = {} if threads is None else {"OPENBLAS_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", CHAIN, str(run_dir)], capture_output=True,
                             text=True, env={**env, **blas, "PYTHONPATH": src}, timeout=300)
        assert run.returncode == 0, run.stderr
        digests[threads] = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
                            for name in ("data.txt", "m.ckpt", "h.csv", "p.csv", "f.csv")}
    assert digests[None] == digests["1"] == digests["2"]


@pytest.mark.parametrize("output", [
    "prepare --out", "train --out", "train --history", "train --svg",
    "evaluate --predictions", "predict --out", "plot --out",
])
def test_an_unwritable_output_is_an_input_error(prepared, capsys, monkeypatch, output):
    # these exited 1 with a FileNotFoundError, for train --out naming the temporary file
    (prepared / "one.cfg").write_text(SMALL + "kernel_width=2\npool_window=1\nepochs=1\n")
    data, ckpt, prices = (str(prepared / name) for name in ("data.txt", "m.ckpt", "prices.csv"))
    train = ["train", "--data", data, "--config", str(prepared / "one.cfg"), "--out", ckpt,
             "--history", str(prepared / "h.csv"), "--svg", str(prepared / "loss.svg")]
    assert main(train) == 0

    def never(*args):  # train finds an unwritable output before training, not after
        raise AssertionError("training started")

    monkeypatch.setattr(training, "train", never)
    before = sorted(p.name for p in prepared.iterdir())
    command, flag = output.split()
    argv = {
        "prepare": ["prepare", "--input", prices, "--config", str(prepared / "run.cfg"),
                    "--out", ""],
        "train": list(train),
        "evaluate": ["evaluate", "--checkpoint", ckpt, "--data", data, "--predictions", ""],
        "predict": ["predict", "--checkpoint", ckpt, "--input", prices, "--out", ""],
        "plot": ["plot", "--checkpoint", ckpt, "--data", data, "--out", ""],
    }[command]
    unwritable = str(prepared / "no-such-directory" / "out.txt")
    argv[argv.index(flag) + 1] = unwritable
    assert_input_error(capsys, argv, f"cannot write {unwritable}: No such file or directory")
    assert sorted(p.name for p in prepared.iterdir()) == before  # no temporary file left
