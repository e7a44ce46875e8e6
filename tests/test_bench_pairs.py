import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

_DECLARED = [
    {"name": "ref_ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def _run(ops, rss, failed=0):
    return {"w": {"metrics": {"ref_ops_per_s": ops, "peak_rss_mb": rss},
                  "attempted": 10, "failed": failed, "machine_speed": 1.0}}


def test_pair_summary_counts_wins_in_each_metric_direction():
    pairs = [
        {"parent": _run(100.0, 50.0), "change": _run(110.0, 50.0)},
        {"parent": _run(100.0, 50.0), "change": _run(90.0, 40.0, failed=1)},
        {"parent": _run(120.0, 50.0), "change": _run(130.0, 60.0)},
    ]
    summary = bench_pairs.summarize(pairs, _DECLARED)["w"]
    ops, rss = summary["ref_ops_per_s"], summary["peak_rss_mb"]
    assert ops["wins"] == 2 and rss["wins"] == 1  # the tie counts for neither
    assert ops["parent_median"] == 100.0 and ops["change_median"] == 110.0
    assert ops["change_over_parent"] == pytest.approx(1.1)
    assert ops["parent_quartiles"] == [100.0, 110.0]
    assert ops["parent_iqr_over_median"] == pytest.approx(0.1)
    assert not ops["unresolved"] and not ops["worse_than_bound"]
    assert summary["failed"] == {"parent": 0, "change": 1}


def test_pair_summary_flags_a_wide_spread_and_a_regression():
    pairs = [
        {"parent": _run(p, 50.0), "change": _run(p / 2, 60.0)}
        for p in (50.0, 100.0, 200.0)
    ]
    summary = bench_pairs.summarize(pairs, _DECLARED)["w"]
    assert summary["ref_ops_per_s"]["unresolved"]
    assert summary["ref_ops_per_s"]["worse_than_bound"]
    assert summary["peak_rss_mb"]["worse_than_bound"]
    assert not summary["peak_rss_mb"]["unresolved"]


def test_pair_summary_bootstraps_the_median_ratio_over_pairs():
    """Parent 100 in every pair and change 90, 100, 110: a resample of the
    three pairs has median 90 with probability 7/27 and 110 likewise, so
    the 95 % interval is [0.9, 1.1]; a change that is 1.2 times the parent
    in every pair has the point interval [1.2, 1.2].  The seed is fixed, so
    a second summary is identical."""
    pairs = [
        {"parent": _run(100.0, p), "change": _run(c, 1.2 * p)}
        for c, p in ((90.0, 40.0), (100.0, 50.0), (110.0, 70.0))
    ]
    summary = bench_pairs.summarize(pairs, _DECLARED)["w"]
    assert summary["ref_ops_per_s"]["change_over_parent_ci95"] == [0.9, 1.1]
    assert summary["peak_rss_mb"]["change_over_parent_ci95"] == pytest.approx([1.2, 1.2])
    assert bench_pairs.summarize(pairs, _DECLARED)["w"] == summary


def _git(repo, *argv):
    subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org",
                    *argv], cwd=repo, check=True, capture_output=True)


@pytest.mark.parametrize("fails", [False, True], ids=["completes", "bench-fails"])
def test_parent_files_are_extracted_and_removed_afterwards(tmp_path, monkeypatch, fails):
    """PARENT's committed files, not the working tree's, are what the
    parent side runs in; the extracted tree is gone after the run, also
    when a benchmark run fails, and no git worktree is registered."""
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": _DECLARED}))
    (repo / "marker.txt").write_text("parent")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    (repo / "marker.txt").write_text("change")
    seen = []

    def run_bench(tree):
        seen.append((Path(tree), (Path(tree) / "marker.txt").read_text()))
        if fails and len(seen) == 2:
            raise RuntimeError("benchmark exited 1")
        return _run(100.0, 50.0)

    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda *args: None)
    if fails:
        with pytest.raises(RuntimeError):
            bench_pairs.main(["HEAD", "--pairs", "2", "--pr", "t"])
    else:
        assert bench_pairs.main(["HEAD", "--pairs", "2", "--pr", "t"]) == 0
        written = json.loads((repo / "BENCH_t.json").read_text())
        assert [p["first"] for p in written["pairs"]] == ["parent", "change"]
    parent = [(tree, text) for tree, text in seen if tree != repo]
    assert parent and all(text == "parent" for _, text in parent)
    assert all(text == "change" for tree, text in seen if tree == repo)
    assert not parent[0][0].exists()
    listed = subprocess.run(["git", "worktree", "list"], cwd=repo, check=True,
                            capture_output=True, text=True).stdout
    assert len(listed.splitlines()) == 1
