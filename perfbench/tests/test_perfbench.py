"""Self-tests of the benchmark harness (not part of the program's test suite).

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import inspect
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402  (pins the BLAS thread count before numpy loads)
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))


def declared(section):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def bindings():
    """Every function reachable as an attribute of a cnnlstm module or class."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name != "cnnlstm" and not name.startswith("cnnlstm."):
            continue
        for attr, value in vars(module).items():
            if inspect.isfunction(value):
                out[(name, attr)] = value
            elif inspect.isclass(value):
                for meth, fn in vars(value).items():
                    if inspect.isfunction(fn):
                        out[(name, attr, meth)] = fn
    return out


@pytest.fixture
def work(request):
    """A scratch directory inside the checkout, like a benchmark run's."""
    path = run.OUT / "selftest" / request.node.name.replace("[", "-").replace("]", "")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_generator_is_deterministic_for_a_seed():
    first = inputs.ohlcv_rows(2000, 5, gap_rate=0.01, spike_rate=0.002)
    assert first == inputs.ohlcv_rows(2000, 5, gap_rate=0.01, spike_rate=0.002)
    assert first != inputs.ohlcv_rows(2000, 6, gap_rate=0.01, spike_rate=0.002)
    cells = [c for line in first[1:] for c in line.split(",")[1:]]
    gaps = sum(c == "" for c in cells)
    assert 0.005 * len(cells) < gaps < 0.015 * len(cells)
    assert first[0] == "Date,Open,High,Low,Close,Volume"


def test_workload_inputs_repeat_for_a_seed(work):
    a, b = work / "a", work / "b"
    for d in (a, b):
        d.mkdir()
        workloads.Predict(d, 7).generate()
    for name in ("series.csv", "tail.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_equal_benchmark_json(work, trace):
    section = "per_layer" if trace else "end_to_end"
    want = declared(section)
    for name in workloads.WORKLOADS:
        (work / name).mkdir()
        record = run.run(name, 3, 0.0, trace, work / name, min_ops=1)
        line = json.loads(json.dumps(run.result_line(record)))
        assert line["correct"], name
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        got = {key: metric["unit"] for key, metric in line["metrics"].items()}
        assert got == want, name


def test_failed_checks_count_toward_failed_fraction(work, monkeypatch):
    reference = workloads.load_reference()
    for values in reference["predict"].values():
        values[0] *= 1.0 + 1e-9
    monkeypatch.setattr(workloads, "load_reference", lambda: reference)
    record = run.run("predict", 4, 0.0, 0, work, min_ops=2)
    assert record["attempted"] == 3  # warm-up plus two timed operations
    assert record["failed"] == 3
    assert record["failed_fraction"] == 1.0
    assert not run.result_line(record)["correct"]


def test_raising_operation_is_counted(work):
    workload = workloads.Prepare(work, 1)
    workload.generate()
    (work / "series.csv").write_text("not,a,price,file\n", encoding="utf-8")
    tally = run.Tally()
    assert run.closed_loop(workload, tally, 0.0, 4) == ([], [])
    assert (tally.attempted, tally.failed) == (4, 4)


def test_traced_run_removes_its_wrappers(work):
    import cnnlstm  # noqa: F401

    before = bindings()
    record = run.run("prepare", 2, 0.0, 1, work, min_ops=1)
    assert record["metrics"]["pipeline.load_ohlcv.calls"]["value"] == 1
    assert bindings() == before


def test_tracer_wraps_every_binding_a_caller_looks_up():
    from cnnlstm import model, optim, pipeline, textio, training

    with tracing.Tracer() as tracer:
        for fn in (training.forward, model.forward, training.sgd_step, optim.sgd_step,
                   model.array_lines, pipeline.array_lines, textio.array_lines):
            assert hasattr(fn, "__wrapped__"), fn.__qualname__
        textio.array_lines([1.0, 2.0])
        pipeline.array_lines([1.0])
    assert {span[3] for span in tracer.spans} == {"textio.array_lines"}
    assert not hasattr(textio.array_lines, "__wrapped__")


def test_traced_run_fails_when_a_home_span_is_never_called():
    with pytest.raises(RuntimeError, match="pipeline.load_ohlcv"):
        run.per_layer("prepare", tracing.Tracer(), {}, [1.0], [1.0])


def test_step_intervals_break_at_inference():
    tracer = tracing.Tracer()
    starts = [(0, 0, True), (0, 10, True), (0, 25, False), (0, 30, True), (0, 34, True), (1, 50, True)]
    for op, start, training in starts:
        tracer.spans.append((op, 0, -1, "model.forward", start, start + 1, 1, training))
    assert tracer.step_intervals_ns() == [10, 4]
