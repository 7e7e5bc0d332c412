"""The pair runner's seed parsing, win counting, claim rule and record of
the code it measured.

``tools/abpairs.py`` is a script, not part of the package, so it is loaded
from its path.
"""

import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "abpairs.py"
spec = importlib.util.spec_from_file_location("abpairs", TOOL)
abpairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(abpairs)


def pairs_of(parent, change, name="op_ms_min"):
    """Pair records as ``perfbench/run.py`` prints them, one metric each."""
    return [
        {side: {"metrics": {name: {"value": v}}} for side, v in (("parent", a), ("change", b))}
        for a, b in zip(parent, change)
    ]


def test_seeds():
    assert list(abpairs.seeds("7301-7304")) == [7301, 7302, 7303, 7304]
    assert list(abpairs.seeds("7301")) == [7301]


def test_one_seed_exits_2_before_any_run(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("ran a benchmark")

    monkeypatch.setattr(abpairs, "run", refuse)
    monkeypatch.setattr(abpairs, "export", refuse)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        abpairs.main(["--parent", "HEAD", "--workload", "train", "--seeds", "7301",
                      "--out", str(out)])
    assert exc.value.code == 2
    assert "at least two seeds" in capsys.readouterr().err
    assert not out.exists()


def test_wins_losses_and_ties_for_a_lower_is_better_metric():
    got = abpairs.summarise(pairs_of([10, 10, 10, 10], [9, 11, 10, 8]), {"op_ms_min": "lower"})
    m = got["op_ms_min"]
    assert (m["wins"], m["losses"]) == (2, 1)  # the tie counts for neither
    assert m["parent"]["median"] == 10 and m["change"]["median"] == 9.5
    assert m["median_change_frac"] == -0.05


def test_wins_for_a_higher_is_better_metric():
    got = abpairs.summarise(pairs_of([5, 5, 5], [6, 4, 7], "items_per_s"), {"items_per_s": "higher"})
    assert (got["items_per_s"]["wins"], got["items_per_s"]["losses"]) == (2, 1)


@pytest.mark.parametrize("change,better,exceeds", [
    ([8.0, 8.0, 8.0, 8.0, 8.0], "lower", True),  # gap 2 > parent IQR 1
    ([9.0, 9.0, 9.0, 9.0, 9.0], "lower", False),  # gap 1 == IQR: not more
    ([12.0, 12.0, 12.0, 12.0, 12.0], "lower", False),  # worse by more than the IQR
    ([12.0, 12.0, 12.0, 12.0, 12.0], "higher", True),
])
def test_gap_exceeds_parent_iqr(change, better, exceeds):
    parent = [9.0, 9.5, 10.0, 10.5, 11.0]  # inclusive quartiles 9.5 and 10.5: IQR 1
    m = abpairs.summarise(pairs_of(parent, change), {"op_ms_min": better})["op_ms_min"]
    assert m["parent"]["iqr"] == 1.0
    assert m["gap_exceeds_parent_iqr"] is exceeds


def git_repo(path):
    """A one-commit repository at ``path`` whose tracked file is then edited."""
    def git(*args):
        subprocess.run(["git", "-C", str(path), *args], check=True, capture_output=True)

    git("init", "-q")
    (path / "f.txt").write_text("one\n")
    git("add", "f.txt")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "one")
    (path / "f.txt").write_text("two\n")
    return path


def test_working_tree_is_recorded_as_head_plus_diff_hash(monkeypatch, tmp_path):
    monkeypatch.setattr(abpairs, "ROOT", git_repo(tmp_path))
    head = abpairs.git("rev-parse", "HEAD").strip()
    diff = subprocess.run(["git", "-C", str(tmp_path), "diff", "HEAD"], check=True,
                          capture_output=True).stdout
    assert b"+two" in diff
    nothing = hashlib.sha256(b"").hexdigest()
    assert abpairs.measured(None) == {"commit": head,
                                      "diff_sha256": hashlib.sha256(diff).hexdigest(),
                                      "untracked_sha256": nothing}
    assert abpairs.measured("HEAD") == {"commit": head, "diff_sha256": None,
                                        "untracked_sha256": None}
    (tmp_path / "f.txt").write_text("one\n")
    assert abpairs.measured(None)["diff_sha256"] == nothing


def test_untracked_files_under_src_and_perfbench_change_the_record(monkeypatch, tmp_path):
    monkeypatch.setattr(abpairs, "ROOT", git_repo(tmp_path))
    before = abpairs.measured(None)
    (tmp_path / "notes.txt").write_text("not benchmarked\n")
    assert abpairs.measured(None) == before
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "x.py").write_text("A = 1\n")
    added = abpairs.measured(None)
    assert added["diff_sha256"] == before["diff_sha256"]
    assert added["untracked_sha256"] != before["untracked_sha256"]
    (tmp_path / "src" / "x.py").write_text("A = 2\n")
    edited = abpairs.measured(None)
    assert edited["untracked_sha256"] != added["untracked_sha256"]
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "y.py").write_text("")
    assert abpairs.measured(None)["untracked_sha256"] != edited["untracked_sha256"]


def test_main_writes_what_was_measured(monkeypatch, tmp_path):
    benchmark = json.loads((abpairs.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in benchmark["end_to_end"]]

    def fake_run(tree, workload, seed, seconds):
        metrics = {n: {"value": float(seed)} for n in names}
        return {"metrics": metrics, "attempted": 3, "failed": 0}, {"numpy": "x"}

    monkeypatch.setattr(abpairs, "run", fake_run)
    monkeypatch.setattr(abpairs, "export", lambda rev, into: into)
    monkeypatch.setattr(abpairs, "measured", lambda rev: {"commit": "c0ffee", "diff_sha256": "d1ff"})
    out = tmp_path / "bench.json"
    assert abpairs.main(["--parent", "HEAD", "--workload", "train", "--seeds", "1-2",
                         "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["change"] == {"commit": "c0ffee", "diff_sha256": "d1ff"}
    assert record["attempted"] == {"parent": 6, "change": 6}


@pytest.mark.parametrize("change,better,within", [
    ([12.5] * 4, "lower", True),  # worse by exactly the bound: allowed
    ([12.6] * 4, "lower", False),
    ([7.0] * 4, "lower", True),  # better is always within
    ([7.5] * 4, "higher", True),
    ([7.4] * 4, "higher", False),
    ([13.0] * 4, "higher", True),
])
def test_within_bound_in_both_directions(change, better, within):
    m = abpairs.summarise(pairs_of([10.0] * 4, change), {"op_ms_min": better},
                          {"op_ms_min": 0.25})["op_ms_min"]
    assert m["bound"] == 0.25
    assert m["within_bound"] is within


def test_main_lists_the_metrics_beyond_their_bound(monkeypatch, tmp_path):
    benchmark = json.loads((abpairs.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    # op_ms_min 2% inside its bound, peak_rss_mb 2% beyond it; the rest unchanged
    worse = {"op_ms_min": 1.0 + bounds["op_ms_min"] - 0.02,
             "peak_rss_mb": 1.0 + bounds["peak_rss_mb"] + 0.02}

    def fake_run(tree, workload, seed, seconds):
        scale = {n: worse.get(n, 1.0) if tree == abpairs.ROOT else 1.0 for n in bounds}
        scale = {n: s if better[n] == "lower" else 1.0 / s for n, s in scale.items()}
        metrics = {n: {"value": 100.0 * scale[n]} for n in bounds}
        return {"metrics": metrics, "attempted": 3, "failed": 0}, {"numpy": "x"}

    monkeypatch.setattr(abpairs, "run", fake_run)
    monkeypatch.setattr(abpairs, "export", lambda rev, into: into)
    monkeypatch.setattr(abpairs, "measured", lambda rev: {"commit": "c0ffee"})
    out = tmp_path / "bench.json"
    assert abpairs.main(["--parent", "HEAD", "--workload", "predict", "--seeds", "1-2",
                         "--claim", "op_ms_min", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["regressions"] == ["peak_rss_mb"]
    assert record["metrics"]["op_ms_min"]["within_bound"] is True
    assert record["verdict"]["gain"] is False
