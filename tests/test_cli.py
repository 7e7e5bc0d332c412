"""Bad input (exit 2) and diverged training (exit 3) reach the CLI as a one-line
error, never a traceback or a raw warning."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cnnlstm
from cnnlstm import model, pipeline
from cnnlstm.cli import main
from cnnlstm.config import load_config
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


@pytest.mark.parametrize("command", ["prepare", "train"])
@pytest.mark.parametrize("given", ["flag", "config"])
def test_negative_seed_is_an_input_error(prepared, capsys, command, given):
    # numpy's default_rng rejects a negative seed with a raw ValueError
    (prepared / "neg.cfg").write_text(
        SMALL + "kernel_width=2\npool_window=1\nepochs=1\nsplit_mode=random\n"
        + ("seed=-1\n" if given == "config" else "")
    )
    argv = {
        "prepare": ["prepare", "--input", str(prepared / "prices.csv"), "--out", str(prepared / "d2.txt")],
        "train": ["train", "--data", str(prepared / "data.txt"), "--out", str(prepared / "m.ckpt"),
                  "--history", str(prepared / "h.csv")],
    }[command] + ["--config", str(prepared / "neg.cfg")]
    assert_input_error(capsys, argv + (["--seed", "-1"] if given == "flag" else []),
                       "seed must be >= 0, got -1")


def test_gradcheck_rejects_a_negative_seed(capsys):
    assert_input_error(capsys, ["gradcheck", "--seed", "-1"], "seed must be >= 0, got -1")


@pytest.mark.parametrize("mode", ["chronological", "random"])
def test_loaded_split_is_the_prepared_split(prepared, mode):
    (prepared / "mode.cfg").write_text(SMALL + f"split_mode={mode}\n")
    assert main(["prepare", "--input", str(prepared / "prices.csv"), "--config",
                 str(prepared / "mode.cfg"), "--out", str(prepared / "d2.txt"), "--seed", "7"]) == 0
    loaded, _ = pipeline.load_dataset(prepared / "d2.txt")
    made = pipeline.prepare_dataset(
        pipeline.load_ohlcv(prepared / "prices.csv"),
        load_config(prepared / "mode.cfg").with_seed(7).prepare_config(),
    )
    for split in ("train", "val", "test"):
        got, want = loaded.dataset.indices(split), made.dataset.indices(split)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), split
    if mode == "random":
        assert not np.array_equal(made.dataset.train_idx, np.arange(made.dataset.train_idx.size))


@pytest.mark.parametrize("recipe", ["split_ratios=1.5,-0.3,-0.2", "split_ratios=nan,0.5,0.5",
                                    "split_mode=sideways"])
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
    # a v2 cache's [split] section, left in a v3 cache, must not load silently
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
    ckpt = saved_checkpoint(prepared)
    as_version(ckpt, model.CKPT_MAGIC, "v1")
    assert_input_error(
        capsys,
        ["predict", "--checkpoint", str(ckpt), "--input", str(prepared / "prices.csv")],
        "unsupported checkpoint version 'v1'",
    )


def test_train_rejects_version_1_cache(prepared, capsys):
    # no reader is kept for v1 or for v2, whose [split] section v3 derives instead
    for version in ("v1", "v2"):
        as_version(prepared / "data.txt", pipeline.DATA_MAGIC, version)
        assert_input_error(
            capsys,
            ["train", "--data", str(prepared / "data.txt"), "--config", str(prepared / "run.cfg"),
             "--out", str(prepared / "m.ckpt"), "--history", str(prepared / "h.csv")],
            f"unsupported dataset version '{version}'",
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


@pytest.mark.parametrize("output", [
    "prepare --out", "train --out", "train --history", "train --svg",
    "evaluate --predictions", "predict --out", "plot --out",
])
def test_an_unwritable_output_is_an_input_error(prepared, capsys, output):
    # these exited 1 with a FileNotFoundError, for train --out naming the temporary file
    (prepared / "one.cfg").write_text(SMALL + "kernel_width=2\npool_window=1\nepochs=1\n")
    data, ckpt, prices = (str(prepared / name) for name in ("data.txt", "m.ckpt", "prices.csv"))
    train = ["train", "--data", data, "--config", str(prepared / "one.cfg"), "--out", ckpt,
             "--history", str(prepared / "h.csv"), "--svg", str(prepared / "loss.svg")]
    assert main(train) == 0
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
