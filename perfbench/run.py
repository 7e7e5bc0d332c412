"""Benchmark of the cnnlstm toolkit: one closed-loop client, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload {train,predict,prepare} --seed N \
        --seconds S --trace {0,1}

The benchmark writes its inputs from the seed, builds the workload's state
through the program (set-up), runs one untimed warm-up operation, then runs
operations back to back for S seconds (and at least the workload's minimum
count), checking every output. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs every other operation with every layer function wrapped
in a span, and reports per-layer self time, call counts, counters and the
tracing overhead (fastest traced over fastest untraced operation). The last line of stdout is the result
as one JSON object; a fuller record, with the environment, goes to
``.perfbench/results/`` and the traced run's spans beside it.
"""

import os

# One BLAS thread: the cores are shared, and a thread pool only adds noise.
# Set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
TRACE_MIN_OPS = 3

# Per-layer spans and the workloads on which each must record calls.
SPAN_HOMES = {
    "layers.lstm_forward": ("train", "predict"),
    "layers.lstm_backward": ("train",),
    "layers.conv1d_forward": ("train", "predict"),
    "layers.conv1d_backward": ("train",),
    "layers.maxpool1d_forward": ("train", "predict"),
    "layers.maxpool1d_backward": ("train",),
    "layers.dropout": (),
    "layers.dropout_backward": (),
    "layers.dense_forward": (),
    "layers.dense_backward": (),
    "model.forward": ("train", "predict"),
    "model.backward": ("train",),
    "optim.sgd_step": ("train",),
    "training.train": ("train",),
    "training._infer": ("train", "predict"),
    "model.load": ("predict",),
    "textio.LineReader.read_floats": ("predict",),
    "model.save": ("train",),
    "textio.array_lines": ("train",),
    "pipeline.load_ohlcv": ("prepare",),
    "pipeline.save_dataset": ("prepare",),
    "pipeline.load_dataset": ("prepare",),
    "pipeline.clean_three_sigma": ("prepare",),
    "pipeline.impute_mean": ("prepare",),
    "pipeline.add_moving_averages": ("prepare",),
    "pipeline.add_yield": ("prepare",),
    "pipeline.select_by_correlation": ("prepare",),
    "pipeline.fit_minmax": ("prepare",),
    "pipeline.apply_minmax": ("prepare",),
    "pipeline.pca_fit": ("prepare",),
    "pipeline.pca_transform": ("prepare",),
    "pipeline.make_windows": ("prepare",),
    "pipeline.training_rows": ("prepare",),
    "cli.main": (),
}

# name -> (unit, workloads on which it is measured)
COUNTERS = {
    "train.step_ms_p50": ("ms", ("train",)),
    "train.step_ms_p90": ("ms", ("train",)),
    "predict.windows": ("count", ("predict",)),
    "prepare.rows": ("count", ("prepare",)),
    "prepare.cells_imputed": ("count", ("prepare",)),
    "textio.checkpoint_bytes": ("bytes", ("train", "predict")),
    "textio.dataset_bytes": ("bytes", ("train", "prepare")),
    "trace.overhead_frac": ("ratio", ("train", "predict", "prepare")),
}

END_TO_END = {
    "setup_s": "s",
    "op_ms_min": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    units = {}
    for span in SPAN_HOMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units.update({name: unit for name, (unit, _) in COUNTERS.items()})
    return units


def percentile(values, q):
    """q-th percentile (0-100) with linear interpolation between samples."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import cnnlstm; print(time.perf_counter() - t)"
)


def probe_import():
    """Seconds ``import cnnlstm`` takes in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def timed_setup(workload):
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (AttributeError, OSError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "cnnlstm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(seed):
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit(),
        "source_sha256": source_digest(),
    }


class Tally:
    """Operations attempted and failed, with the first failure's traceback."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, workload):
        """One checked operation; its wall time in seconds, or None if it failed.

        Garbage left by earlier operations is collected first, untimed, so
        each operation starts from a heap like a fresh CLI process's.
        """
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            output = workload.op()
            elapsed = time.perf_counter() - start
            workload.check(output)
        except Exception:  # every failure is counted, never skipped
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc(file=sys.stderr)
            return None
        return elapsed


def closed_loop(workload, tally, seconds, min_ops, tracer=None, between=None):
    """Back-to-back operations for ``seconds`` and at least ``min_ops``.

    With a tracer, every other operation runs traced, so traced and untraced
    operations meet the same contention from other processes. ``between``,
    if given, is called after each operation with the seconds elapsed.
    Returns the wall times of the untraced and of the traced operations
    that passed.
    """
    times = ([], [])
    start = time.perf_counter()
    ops = 0
    while ops < min_ops or time.perf_counter() - start < seconds:
        traced = tracer is not None and ops % 2 == 1
        if traced:
            tracer.begin_op(ops)
            tracer.install()
        try:
            elapsed = tally.run(workload)
        finally:
            if traced:
                tracer.uninstall()
        if elapsed is not None:
            times[traced].append(elapsed)
        ops += 1
        if between is not None:
            between(time.perf_counter() - start)
    return times


def end_to_end(times, setup_s, items):
    """Gated metrics. Latency is the run's fastest operation.

    On shared cores, contention from other processes slows whole stretches
    of operations (by up to 1.8x on a 2-vCPU Xeon virtual machine), which
    moves the median and the 90th percentile from run to run by far more
    than any bound a change could be held to. The fastest operation is what
    the program costs with the core to itself, and that is steady;
    ``latency_summary`` still reports the median and the tail.
    """
    if not times:
        return {}
    fastest = min(times)
    return {
        "setup_s": setup_s,
        "op_ms_min": 1e3 * fastest,
        "items_per_s": items / fastest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def latency_summary(times, items):
    """Median, tail and wall-clock throughput: printed and recorded, not gated."""
    if not times:
        return {}
    return {
        "op_ms_p50": 1e3 * statistics.median(times),
        "op_ms_p90": 1e3 * percentile(times, 90),
        "wall_items_per_s": items * len(times) / sum(times),
    }


def per_layer(name, tracer, counters, untraced, traced):
    """Per-op medians of every span's calls and self time, plus counters."""
    ops = tracer.per_op()
    missing = [
        span for span, homes in SPAN_HOMES.items()
        if name in homes and not any(span in spans for spans in ops.values())
    ]
    if missing:
        raise RuntimeError(f"traced {name} run recorded no calls of {', '.join(missing)}")
    metrics = {}
    for span in SPAN_HOMES:
        entries = [spans.get(span, (0, 0)) for spans in ops.values()]
        metrics[f"{span}.calls"] = statistics.median(e[0] for e in entries)
        metrics[f"{span}.self_s"] = statistics.median(e[1] for e in entries) / 1e9
    steps_ms = [gap / 1e6 for gap in tracer.step_intervals_ns()]
    if name == "train" and not steps_ms:
        raise RuntimeError("traced train run recorded no training steps")
    for key, (_, homes) in COUNTERS.items():
        metrics[key] = counters.get(key, 0) if name in homes else 0
    metrics["train.step_ms_p50"] = statistics.median(steps_ms) if steps_ms else 0
    metrics["train.step_ms_p90"] = percentile(steps_ms, 90) if steps_ms else 0
    metrics["trace.overhead_frac"] = min(traced) / min(untraced) - 1.0
    return metrics


def run(name, seed, seconds, trace, work, min_ops=None):
    """Set up and measure one workload; returns the full result record."""
    load_start = os.getloadavg()
    workload = workloads.WORKLOADS[name](work, seed, workloads.load_reference())
    workload.generate()

    # set-up samples: the first import with the first state build, then
    # fresh-interpreter imports with rebuilds spread over the timed run, so
    # their median spans the run's contention rather than one moment of it
    start = time.perf_counter()
    import cnnlstm  # noqa: F401

    imports = [time.perf_counter() - start]
    setups = [timed_setup(workload)]

    def resample(elapsed):
        if len(setups) < SETUP_REPEATS and elapsed >= seconds * len(setups) / SETUP_REPEATS:
            imports.append(probe_import())
            setups.append(timed_setup(workload))

    tally = Tally()
    tally.run(workload)  # warm-up: checked and counted, not timed
    record = {"workload": name, "seconds": seconds, "trace": trace}
    if trace:
        tracer = tracing.Tracer()
        least = 2 * TRACE_MIN_OPS if min_ops is None else 2 * min_ops
        untraced, traced = closed_loop(workload, tally, seconds, least, tracer)
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl")
        metrics = per_layer(name, tracer, workload.counters, untraced, traced) if traced and untraced else {}
        units = per_layer_units()
        record["ops"] = {"untraced": len(untraced), "traced": len(traced)}
    else:
        least = workload.min_ops if min_ops is None else min_ops
        times, _ = closed_loop(workload, tally, seconds, least, between=resample)
        while len(setups) < SETUP_REPEATS:
            resample(seconds)
        setup_s = statistics.median(i + s for i, s in zip(imports, setups))
        metrics = end_to_end(times, setup_s, workload.items)
        units = END_TO_END
        record["ops"] = {"timed": len(times)}
        record["op_ms"] = [1e3 * t for t in times]
        record["summary"] = latency_summary(times, workload.items)
    record["setup"] = {"import_s": imports, "state_s": setups}
    record["env"] = environment(seed)
    record["env"]["loadavg_start"] = load_start
    record["env"]["loadavg_end"] = os.getloadavg()
    record["attempted"] = tally.attempted
    record["failed"] = tally.failed
    record["failed_fraction"] = tally.failed / tally.attempted
    record["metrics"] = {key: {"value": value, "unit": units[key]} for key, value in metrics.items()}
    return record


# Each workload's headline figures under the names its users know them by.
ALIASES = {
    "train": {"train_samples_per_s": ("wall_items_per_s", "samples/s")},
    "predict": {"predict_ms_p50": ("op_ms_p50", "ms"), "predict_ms_p90": ("op_ms_p90", "ms")},
    "prepare": {"prepare_rows_per_s": ("wall_items_per_s", "rows/s")},
}


def report(record):
    """Human-readable lines; the caller prints the JSON result after them."""
    lines = [f"env {json.dumps(record['env'], sort_keys=True)}"]
    lines.append(f"ops {json.dumps(record['ops'])} attempted {record['attempted']} "
                 f"failed {record['failed']} failed_fraction {record['failed_fraction']:.4g}")
    for key, metric in record["metrics"].items():
        lines.append(f"{key:<44} {metric['value']:>14.6g} {metric['unit']}")
    summary = record.get("summary", {})
    for key, value in summary.items():
        lines.append(f"{key:<44} {value:>14.6g} (not gated)")
    for alias, (key, unit) in ALIASES[record["workload"]].items():
        if key in summary:
            lines.append(f"{alias:<44} {summary[key]:>14.6g} {unit}")
    return lines


def result_line(record):
    """The object the last line of stdout carries."""
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cnnlstm" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'cnnlstm'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(exist_ok=True)
    try:
        record = run(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not record["metrics"]:
        print("error: no operation passed its check", file=sys.stderr)
        return 1
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in report(record):
        print(line)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
