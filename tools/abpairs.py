"""Alternating parent/change benchmark pairs, summarised into one JSON file.

    python3 tools/abpairs.py --parent REV [--change REV] --workload prepare \
        --seeds 7301-7310 --seconds 35 --claim op_ms_min --out BENCH_7.json

Run from the repository root. Each revision is exported with ``git archive``
into a temporary directory (the change defaults to the working tree, recorded
as ``HEAD`` plus the sha256 of ``git diff HEAD`` and a sha256 over the
untracked files under ``src/`` and ``perfbench/``), and ``perfbench/run.py``
runs once per seed on each side, the parent first on even pairs. The output
holds every pair, each end-to-end metric's medians, quartiles and wins, the
environment, and the verdict on ``--claim``: a gain only when the change wins
at least nine tenths of the pairs (ties count for neither) and its median
beats the parent's by more than the parent's IQR. Each side's environment
also names, as ``openblas_kernel``, the OpenBLAS kernel that a Python started
in its tree picks (``SkylakeX``, say, or null without an OpenBLAS), since the
kernel changes the bytes of a fixed-seed run. Beside the verdict,
``regressions`` names every end-to-end metric whose median is worse than the
parent's by more than its ``bound`` from ``BENCHMARK.json`` times the parent's
median. ``--workload`` and ``--claim`` take only the names ``BENCHMARK.json``
lists, so a mistyped one exits 2 before anything is exported or run. A run
that fails stops the tool with exit status 1, after it prints the side, the
seed and the last ``STDERR_TAIL`` lines of that run's stderr.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STDERR_TAIL = 20
# Prints the name of the loaded OpenBLAS's kernel as JSON, null where numpy
# loaded no OpenBLAS; argv[1] is the ``src`` whose ``cnnlstm.training`` finds
# the library the way the program does.
KERNEL_PROBE = """
import ctypes, json, sys
sys.path.insert(0, sys.argv[1])
from cnnlstm.training import _openblas_functions
found = _openblas_functions("get_corename")
if found:
    found[1][0].restype = ctypes.c_char_p
print(json.dumps(found and found[1][0]().decode()))
"""


def git(*args, text=True):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=text).stdout


def export(rev, into):
    """Write the files of ``rev`` into the new directory ``into``."""
    into.mkdir()
    archive = git("archive", rev, text=False)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run(tree, workload, seed, seconds):
    """The result line of one benchmark run, and the environment it recorded
    with the OpenBLAS kernel; a failed run raises ``CalledProcessError``,
    which holds its stderr."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)], cwd=tree, capture_output=True, text=True, check=True,
    ).stdout
    record = tree / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    env = json.loads(record.read_text())["env"] | {"openblas_kernel": openblas_kernel(tree)}
    return json.loads(out.strip().splitlines()[-1]), env


def openblas_kernel(tree, src=ROOT / "src"):
    """The OpenBLAS kernel (``openblas_get_corename``) of a Python started
    in ``tree``, or None where it loads no OpenBLAS."""
    out = subprocess.run([sys.executable, "-c", KERNEL_PROBE, str(src)], cwd=tree,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def measured(rev):
    """What the change side runs: ``rev``'s commit, or for the working tree
    (``rev`` None) ``HEAD``'s commit plus the sha256 of ``git diff HEAD`` and
    one over the untracked files under ``src/`` and ``perfbench/``, each
    path followed by the sha256 of its bytes."""
    if rev:
        return {"commit": git("rev-parse", rev).strip(), "diff_sha256": None,
                "untracked_sha256": None}
    diff = git("diff", "HEAD", text=False)
    untracked = hashlib.sha256()
    names = git("ls-files", "--others", "--exclude-standard", "-z", "--", "src", "perfbench")
    for name in sorted(filter(None, names.split("\0"))):
        untracked.update(name.encode() + b"\0" + hashlib.sha256((ROOT / name).read_bytes()).digest())
    return {"commit": git("rev-parse", "HEAD").strip(), "diff_sha256": hashlib.sha256(diff).hexdigest(),
            "untracked_sha256": untracked.hexdigest()}


def seeds(spec):
    """``7301-7310`` -> 7301, ..., 7310; a single number is one seed, which
    ``main`` refuses: quartiles need at least two pairs."""
    first, _, last = spec.partition("-")
    return range(int(first), int(last or first) + 1)


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(pairs, better, bounds=None):
    """Per-metric medians, quartiles and wins of the change over the parent,
    and for each metric named in ``bounds`` whether the change's median is
    worse than the parent's by no more than that fraction of it."""
    out = {}
    for name, direction in better.items():
        old = [p["parent"]["metrics"][name]["value"] for p in pairs]
        new = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        gains = [sign * (a - b) for a, b in zip(old, new)]  # > 0: the change is better
        o, n = summary(old), summary(new)
        out[name] = {
            "better": direction, "parent": o, "change": n,
            "wins": sum(g > 0 for g in gains), "losses": sum(g < 0 for g in gains),
            "median_change_frac": (n["median"] - o["median"]) / o["median"],
            "gap_exceeds_parent_iqr": sign * (o["median"] - n["median"]) > o["iqr"],
        }
        if bounds and name in bounds:
            out[name]["bound"] = bounds[name]
            out[name]["within_bound"] = (
                sign * (n["median"] - o["median"]) <= bounds[name] * o["median"]
            )
    return out


def main(argv=None):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", help="git revision of the change (default: the working tree)")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seeds", required=True, help="e.g. 7301-7310")
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--claim", choices=list(better),
                        help="the end-to-end metric a gain is claimed on")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if len(seeds(args.seeds)) < 2:
        parser.error(f"--seeds {args.seeds}: need at least two seeds for quartiles")
    change = measured(args.change)
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": export(args.parent, Path(tmp, "parent").resolve()), "change": ROOT}
        if args.change:
            trees["change"] = export(args.change, Path(tmp, "change").resolve())
        pairs, env = [], {}
        for i, seed in enumerate(seeds(args.seeds)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                try:
                    pair[side], recorded = run(trees[side], args.workload, seed, args.seconds)
                except subprocess.CalledProcessError as exc:
                    tail = "\n".join(exc.stderr.splitlines()[-STDERR_TAIL:])
                    print(f"error: the {side} run failed at seed {seed} (exit {exc.returncode}); "
                          f"the end of its stderr:\n{tail}", file=sys.stderr)
                    return 1
                env.setdefault(side, recorded)
            pairs.append(pair)
            print(json.dumps({k: pair[k]["metrics"][args.claim or "op_ms_min"]["value"]
                              for k in ("parent", "change")} | {"seed": seed}), flush=True)
    metrics = summarise(pairs, better, bounds)
    result = {
        "workload": args.workload, "seconds": args.seconds,
        "parent": measured(args.parent)["commit"],
        "change": change,
        "environment": env,
        "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in ("parent", "change")},
        "failed": {s: sum(p[s]["failed"] for p in pairs) for s in ("parent", "change")},
        "metrics": metrics, "pairs": pairs,
    }
    if args.claim:
        m = metrics[args.claim]
        result["verdict"] = {
            "metric": args.claim, "pairs": len(pairs), "wins": m["wins"],
            "gain": m["wins"] >= 0.9 * len(pairs) and m["gap_exceeds_parent_iqr"],
        }
    result["regressions"] = [name for name, m in metrics.items() if not m["within_bound"]]
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result.get("verdict", {}) | {"regressions": result["regressions"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
