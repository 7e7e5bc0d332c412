"""Config keys come from the config dataclasses, and so do the file headers.

``SCHEMA`` is pinned to a literal table, so a new dataclass field cannot
become a key unnoticed, and the ``key=value`` header lines of a checkpoint
and a dataset cache are pinned to lines the hand-written headers wrote.
"""

import pytest

from cnnlstm import model, pipeline
from cnnlstm.config import SCHEMA, parse_config_text
from cnnlstm.errors import CheckpointFormatError
from cnnlstm.synth import synthetic_ohlcv
from cnnlstm.textio import float_tuple, int_tuple, on_off

EXPECTED_SCHEMA = {
    "lookback": (int, 64),
    "horizon": (int, 1),
    "corr_threshold": (float, 0.5),
    "pca": (on_off, True),
    "pca_variance": (float, 0.95),
    "split_ratios": (float_tuple, (0.7, 0.2, 0.1)),
    "split_mode": (str, "chronological"),
    "seed": (int, 42),
    "conv_filters": (int_tuple, (32, 64, 64)),
    "kernel_width": (int, 3),
    "pool_window": (int, 2),
    "lstm_units": (int_tuple, (64, 64, 64)),
    "dropout_rate": (float, 0.2),
    "epochs": (int, 50),
    "batch_size": (int, 32),
    "shuffle": (on_off, True),
    "optimizer": (str, "sgd"),
    "lr0": (float, 0.01),
    "decay_factor": (float, 0.96),
    "decay_every": (int, 5),
    "l2": (float, 1e-4),
    "beta1": (float, 0.9),
    "beta2": (float, 0.999),
    "eps_adam": (float, 1e-8),
}

# every key at a valid value other than its default: key -> (text, value)
NON_DEFAULT = {
    "lookback": ("16", 16),
    "horizon": ("2", 2),
    "corr_threshold": ("0.4", 0.4),
    "pca": ("off", False),
    "pca_variance": ("0.9", 0.9),
    "split_ratios": ("0.6,0.25,0.15", (0.6, 0.25, 0.15)),
    "split_mode": ("random", "random"),
    "seed": ("7", 7),
    "conv_filters": ("4,5,6", (4, 5, 6)),
    "kernel_width": ("2", 2),
    "pool_window": ("1", 1),
    "lstm_units": ("3,4,5", (3, 4, 5)),
    "dropout_rate": ("0.15", 0.15),
    "epochs": ("3", 3),
    "batch_size": ("16", 16),
    "shuffle": ("off", False),
    "optimizer": ("adam", "adam"),
    "lr0": ("0.003", 0.003),
    "decay_factor": ("0.9", 0.9),
    "decay_every": ("2", 2),
    "l2": ("0.001", 0.001),
    "beta1": ("0.8", 0.8),
    "beta2": ("0.99", 0.99),
    "eps_adam": ("1e-7", 1e-7),
}
NON_DEFAULT_TEXT = "".join(f"{key}={text}\n" for key, (text, _) in NON_DEFAULT.items())

# the header lines of format v2 at the non-default config, as written before
# the headers were generated from the dataclass fields
CACHE_HEADER = [
    "CNNLSTM-DATA v4",
    "lookback=16",
    "horizon=2",
    "corr_threshold=0.40000000000000002",
    "pca=off",
    "pca_variance=0.90000000000000002",
    "split_ratios=0.59999999999999998,0.25,0.14999999999999999",
    "split_mode=random",
    "seed=7",
]
CHECKPOINT_HEADER = [
    "CNNLSTM-CKPT v2",
    "features=5",
    "lookback=16",
    "conv_filters=4,5,6",
    "kernel_width=2",
    "pool_window=1",
    "lstm_units=3,4,5",
    "dropout_rate=0.14999999999999999",
    "seed=7",
]


def test_schema_is_the_pinned_table():
    assert SCHEMA == EXPECTED_SCHEMA
    assert all(type(default) is type(EXPECTED_SCHEMA[k][1]) for k, (_, default) in SCHEMA.items())


def test_non_default_table_covers_every_key():
    assert NON_DEFAULT.keys() == SCHEMA.keys()
    assert all(value != SCHEMA[key][1] for key, (_, value) in NON_DEFAULT.items())


def test_every_key_reaches_each_config_that_has_it():
    cfg = parse_config_text(NON_DEFAULT_TEXT)
    train = cfg.train_config()
    built = [cfg.prepare_config(), cfg.model_config(features=5), train, train.optim]
    for key, (_, value) in NON_DEFAULT.items():
        holders = [c for c in built if hasattr(c, key)]
        assert holders, key
        for c in holders:
            assert getattr(c, key) == value, (type(c).__name__, key)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    root = tmp_path_factory.mktemp("headers")
    cfg = parse_config_text(NON_DEFAULT_TEXT)
    prepared = pipeline.prepare_dataset(synthetic_ohlcv(rows=260, seed=2), cfg.prepare_config())
    pipeline.save_dataset(prepared, root / "data.txt")
    net = model.build(cfg.model_config(features=5))
    model.save(net, prepared.preprocess, root / "model.ckpt")
    return root


def test_cache_header_lines(written):
    lines = (written / "data.txt").read_text().splitlines()
    assert lines[: len(CACHE_HEADER)] == CACHE_HEADER
    _, cfg = pipeline.load_dataset(written / "data.txt")
    assert cfg == parse_config_text(NON_DEFAULT_TEXT).prepare_config()


def test_checkpoint_header_lines(written):
    lines = (written / "model.ckpt").read_text().splitlines()
    assert lines[: len(CHECKPOINT_HEADER)] == CHECKPOINT_HEADER
    net, _ = model.load(written / "model.ckpt")
    assert net.config == parse_config_text(NON_DEFAULT_TEXT).model_config(features=5)


def test_cache_with_an_unknown_pca_word_is_a_format_error(written, tmp_path):
    lines = (written / "data.txt").read_text().splitlines()
    assert lines[4] == "pca=off"
    lines[4] = "pca=maybe"
    (tmp_path / "data.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointFormatError, match="line 5: bad value for pca: 'maybe'"):
        pipeline.load_dataset(tmp_path / "data.txt")
