"""Mutated and truncated inputs to the four parsers raise only errors that
exit 2.

Each test starts from a valid file (a CSV, a config, a dataset cache, a
checkpoint), damages its bytes a few times, and parses the result. Parsing
may succeed or fail, but a failure must be one of the package's own errors
whose ``exit_status`` is the CLI's 2 for bad input, never a raw traceback.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cnnlstm import config, model, pipeline
from cnnlstm.errors import CnnLstmError
from cnnlstm.synth import synthetic_ohlcv
from conftest import write_csv

# a failing draw prints its @reproduce_failure line, so a fresh checkout can replay it
FUZZ = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow],
                print_blob=True)

# tokens that have broken parsers: non-numbers, huge or out-of-range
# integers, non-finite floats, full-width digits, separators, bad UTF-8,
# and base64 hazards (padding, the URL-safe alphabet, a lone quantum char)
NASTY = [b"", b"abc", b"nan", b"-inf", b"1e400", b"-1", b"0", b"99999999999999999999999",
         b"\xef\xbc\x91", b",", b"=", b"\n", b" ", b"2020-13-01", b"\xff\xfe", b"\x00", b'"',
         b"==", b"-_", b"A", b"===="]


@st.composite
def damaged(draw, data: bytes):
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(out)))
        op = draw(st.sampled_from(["truncate", "delete", "overwrite", "insert", "token"]))
        if op == "truncate":
            del out[pos:]
        elif op == "delete":
            del out[pos : pos + draw(st.integers(1, 40))]
        elif op == "overwrite":
            chunk = draw(st.binary(min_size=1, max_size=6))
            out[pos : pos + len(chunk)] = chunk
        elif op == "insert":
            out[pos:pos] = draw(st.binary(min_size=1, max_size=6))
        else:
            out[pos : pos + draw(st.integers(0, 6))] = draw(st.sampled_from(NASTY))
    return bytes(out)


class Valid(dict):
    """kind -> the bytes of a valid file of that kind, kept out of failure reports."""

    def __repr__(self):
        return f"Valid({', '.join(self)})"


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = Valid()
    write_csv(synthetic_ohlcv(rows=40, seed=4), root / "prices.csv")
    files["csv"] = (root / "prices.csv").read_bytes()
    files["config"] = "".join(
        f"{key}={','.join(map(str, v)) if isinstance(v, tuple) else v}\n"
        for key, (_, v) in config.SCHEMA.items()
    ).encode()
    cfg = pipeline.PrepareConfig(lookback=8, corr_threshold=0.3, sma_windows=(3, 5, 10))
    prepared = pipeline.prepare_dataset(synthetic_ohlcv(rows=60, seed=2), cfg)
    pipeline.save_dataset(prepared, root / "data.txt")
    files["dataset"] = (root / "data.txt").read_bytes()
    mcfg = model.ModelConfig(features=len(prepared.dataset.feature_names), lookback=8,
                             conv_filters=(2, 2, 2), kernel_width=2, pool_window=1,
                             lstm_units=(2, 2, 2), seed=1).validate()
    model.save(model.build(mcfg), prepared.preprocess, root / "model.ckpt")
    files["checkpoint"] = (root / "model.ckpt").read_bytes()
    return root, files


def parse_config(path):
    cfg = config.load_config(path)
    cfg.prepare_config()
    cfg.train_config()
    cfg.model_config(features=3)


PARSERS = {
    "csv": pipeline.load_ohlcv,
    "config": parse_config,
    "dataset": pipeline.load_dataset,
    "checkpoint": model.load,
}


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_valid_input_parses(valid, kind):
    root, files = valid
    path = root / f"input-{kind}"
    path.write_bytes(files[kind])
    PARSERS[kind](path)


@pytest.mark.parametrize("kind", sorted(PARSERS))
@FUZZ
@given(data=st.data())
def test_damaged_input_raises_only_package_errors(valid, kind, data):
    root, files = valid
    path = root / f"input-{kind}"
    path.write_bytes(data.draw(damaged(files[kind])))
    try:
        PARSERS[kind](path)
    except CnnLstmError as exc:
        assert exc.exit_status == 2, f"{type(exc).__name__}: {exc}"
