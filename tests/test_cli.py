"""Bad input (exit 2) and diverged training (exit 3) reach the CLI as a one-line
error, never a traceback or a raw warning."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cnnlstm
from cnnlstm import model, pipeline
from cnnlstm.cli import main
from cnnlstm.synth import synthetic_ohlcv, write_csv

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


def test_train_rejects_out_of_range_split_index(prepared, capsys):
    path = prepared / "data.txt"
    lines = path.read_text().splitlines()
    at = lines.index("[split]") + 2
    lines[at] = "99999999999999999999999 " + lines[at].split(" ", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    assert_input_error(
        capsys,
        ["train", "--data", str(path), "--config", str(prepared / "run.cfg"),
         "--out", str(prepared / "m.ckpt"), "--history", str(prepared / "h.csv")],
        f"line {at + 1}: unparseable integer",
    )


def test_predict_rejects_non_integer_checkpoint_value(prepared, capsys):
    ckpt = prepared / "model.ckpt"
    ckpt.write_text(f"{model.CKPT_MAGIC} {model.CKPT_VERSION}\nfeatures=abc\n")
    assert_input_error(
        capsys,
        ["predict", "--checkpoint", str(ckpt), "--input", str(prepared / "prices.csv")],
        "line 2: bad value for features: 'abc'",
    )


def as_version_1(path, magic):
    """Rewrite the file's first line to name version 1 of its format."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith(f"{magic} ") and lines[0] != f"{magic} v1"
    lines[0] = f"{magic} v1"
    path.write_text("\n".join(lines) + "\n")


def test_predict_rejects_version_1_checkpoint(prepared, capsys):
    data, _ = pipeline.load_dataset(prepared / "data.txt")
    cfg = model.ModelConfig(features=len(data.dataset.feature_names), lookback=8,
                            conv_filters=(2, 2, 2), kernel_width=2, pool_window=1, lstm_units=(2, 2, 2))
    ckpt = prepared / "model.ckpt"
    model.save(model.build(cfg), data.preprocess, ckpt)
    as_version_1(ckpt, model.CKPT_MAGIC)
    assert_input_error(
        capsys,
        ["predict", "--checkpoint", str(ckpt), "--input", str(prepared / "prices.csv")],
        "unsupported checkpoint version 'v1'",
    )


def test_train_rejects_version_1_cache(prepared, capsys):
    as_version_1(prepared / "data.txt", pipeline.DATA_MAGIC)
    assert_input_error(
        capsys,
        ["train", "--data", str(prepared / "data.txt"), "--config", str(prepared / "run.cfg"),
         "--out", str(prepared / "m.ckpt"), "--history", str(prepared / "h.csv")],
        "unsupported dataset version 'v1'",
    )



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
