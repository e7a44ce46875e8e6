"""Run the benchmark in alternating pairs of a parent revision and the working tree.

    python3 tools/bench_pairs.py PARENT --pairs 10 --pr NAME

The parent's committed files are extracted with ``git archive PARENT | tar
-x`` into a temporary directory, whose cleanup removes them again on exit,
failures and interrupts included; the repository's worktree list is not
touched.  Each pair runs

    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

once in the parent's checkout and once in the working tree; the side that
goes first alternates from pair to pair.  ``BENCH_<NAME>.json`` in the working
tree receives every raw figure (each run's end-to-end metrics, operation
counts and machine speed) and, for each workload and end-to-end metric
declared in ``BENCHMARK.json``, both sides' medians and quartiles, the
parent's IQR/median against the metric's bound, the change/parent ratio of
the medians with its 95 % bootstrap interval over pairs (whole pairs
resampled, Kalibera and Jones, "Rigorous benchmarking in reasonable time",
ISMM 2013; a fixed seed keeps the file reproducible) and the number of
pairs the change won (ties count for neither).  Where the parent's spread
leaves a check unresolved, the interval says which ratios the pairs
support.  The runner writes nothing under ``perfbench/``; each
``perfbench/run.py`` keeps its own reports in its checkout's ignored
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = ["python3", "perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "15",
           "--trace", "0"]
SPEED = re.compile(r"^\[(\w+)\] machine speed = (\S+)")
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 0


def run_bench(tree: Path) -> dict:
    """One ``--workload all`` run in ``tree``: per workload, its end-to-end
    metric values, attempted and failed operation counts and machine speed."""
    proc = subprocess.run([sys.executable, *COMMAND[1:]], cwd=tree, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark in {tree} exited {proc.returncode}")
    *report, last = proc.stdout.strip().splitlines()
    speeds = {m[1]: float(m[2]) for m in map(SPEED.match, report) if m}
    return {
        workload: {
            "metrics": {name: v["value"] for name, v in r["metrics"].items()},
            "attempted": r["attempted"],
            "failed": r["failed"],
            "machine_speed": speeds.get(workload),
        }
        for workload, r in json.loads(last).items()
    }


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def _bootstrap_ratio(parent: list[float], change: list[float]) -> list[float] | None:
    """95 % percentile bootstrap interval of median(change) / median(parent):
    BOOTSTRAP_RESAMPLES resamples of whole pairs, with replacement, from a
    generator seeded with BOOTSTRAP_SEED; None when every resampled parent
    median is 0."""
    rng = random.Random(BOOTSTRAP_SEED)
    ratios = []
    for _ in range(BOOTSTRAP_RESAMPLES):
        picks = rng.choices(range(len(parent)), k=len(parent))
        base = statistics.median(parent[i] for i in picks)
        if base:
            ratios.append(statistics.median(change[i] for i in picks) / base)
    if not ratios:
        return None
    ratios.sort()
    return [ratios[round(q * (len(ratios) - 1))] for q in (0.025, 0.975)]


def summarize(pairs: list[dict], declared: list[dict]) -> dict:
    """Per workload and declared end-to-end metric: medians, quartiles,
    parent IQR/median, change/parent ratio with its bootstrap interval and
    the change's win count."""
    out = {}
    for workload in pairs[0]["parent"]:
        rows = {}
        for metric in declared:
            name, higher = metric["name"], metric["better"] == "higher"
            parent = [p["parent"][workload]["metrics"][name] for p in pairs]
            change = [p["change"][workload]["metrics"][name] for p in pairs]
            pq, cq = _quartiles(parent), _quartiles(change)
            ratio = cq[1] / pq[1] if pq[1] else None
            spread = (pq[2] - pq[0]) / pq[1] if pq[1] else None
            worse = ratio is not None and (
                ratio < 1 - metric["bound"] if higher else ratio > 1 + metric["bound"])
            rows[name] = {
                "parent_median": pq[1], "parent_quartiles": [pq[0], pq[2]],
                "change_median": cq[1], "change_quartiles": [cq[0], cq[2]],
                "parent_iqr_over_median": spread,
                "change_over_parent": ratio,
                "change_over_parent_ci95": _bootstrap_ratio(parent, change),
                "wins": sum((c > p) if higher else (c < p) for p, c in zip(parent, change)),
                "pairs": len(pairs),
                "bound": metric["bound"],
                "worse_than_bound": worse,
                "unresolved": spread is not None and spread > metric["bound"],
            }
        rows["failed"] = {side: sum(p[side][workload]["failed"] for p in pairs)
                          for side in ("parent", "change")}
        out[workload] = rows
    return out


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="git revision to compare the working tree against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--pr", required=True, help="NAME of the BENCH_<NAME>.json written")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    revision = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    signal.signal(signal.SIGTERM, _terminate)
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tree:
        archive = subprocess.run(["git", "archive", revision], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_bench(Path(tree) if side == "parent" else ROOT)
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    result = {"parent": revision, "command": " ".join(COMMAND), "pairs": pairs,
              "summary": summarize(pairs, declared)}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
