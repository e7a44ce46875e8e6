"""Ladder benchmark for groupstates: one command, four closed-loop workloads.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all    # every workload, one summary

One process, one client: each operation starts when the previous one has
returned.  A run does a fixed amount of work, set by ``--seed`` (which
inputs) and ``--seconds`` (how many passes over the workload's operation
list, sized to take about that long on the reference 2-core machine), so
per-layer call counts repeat exactly for a fixed seed.  Every result is
judged by an oracle in ``checks.py``.  The run uses one BLAS thread, and
scales each latency by a reference task timed around it on the same vCPU
(``reference.py``), so the shared machine's slow stretches cancel out.

``--trace 0`` prints the end-to-end metrics declared in BENCHMARK.json.
``--trace 1`` runs the same work untraced and then traced (spans and
tracemalloc), probes the workload's envelope cells, and prints the
per-layer metrics.  The last line of stdout is the JSON result; run
records, the classify detail table and the spans go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
# a second seed kept for validating a claimed gain on inputs it was not tuned on
VALIDATION_SEED = 20261017
# set-up is repeated at least SETUP_REPEATS times and until SETUP_MIN_S
# seconds of it are measured (at most SETUP_MAX_REPEATS), then the median
# is reported: one repeat of an import-only set-up is 0.2 s of noisy wall time
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 15
LAYERS = ("groups", "characters", "linalg", "posdef", "channels", "faces", "vn", "jsonio", "cli")
WORKLOADS = ("classify", "state_queries", "certify", "cli")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _pin_threads() -> str:
    """Pin BLAS to one thread before numpy loads.

    With two threads on a 2-vCPU guest the second one spins between calls,
    and every call waits for the slower of two shared cores; one thread
    leaves the other vCPU to the system and is exposed to one core's load.
    """
    threads = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ["PYTHONPATH"] = str(SRC)
    return threads


def _fresh_import_s() -> float:
    """Wall time of a fresh interpreter importing the package and its CLI."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import groupstates.cli"], check=True, cwd=ROOT)
    return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _failing_module(exc: BaseException) -> str:
    """The package module of the innermost frame that raised, if any."""
    module = "perfbench"
    tb = exc.__traceback__
    while tb is not None:
        path = Path(tb.tb_frame.f_code.co_filename)
        if path.parent.name == "groupstates":
            module = path.stem
        tb = tb.tb_next
    return module


def run_ops(ops, reference, recorder=None) -> dict:
    """Closed loop over ``ops``: time each run, then check it untimed.

    The reference task runs before the first operation, once per
    ``reference.every_s`` of operation time (so several times after a long
    operation), and after the last.  Each operation's ``scale`` is the
    task's nominal time over the median of the probes taken within
    ``reference.window_s`` before its start or after its end.  A workload
    with no reference parts is not probed, and its scale is 1.
    """
    lat, intervals, failures, by_module = [], [], [], Counter()
    probing = bool(reference.parts)
    probes = [(time.perf_counter(), reference.probe())] if probing else []
    since = 0.0
    for i, op in enumerate(ops):
        if recorder is not None:
            recorder.op = i
        t0 = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an operation that raises fails; the loop goes on
            result, error = None, exc
        t1 = time.perf_counter()
        lat.append(t1 - t0)
        intervals.append((t0, t1))
        since += t1 - t0
        while probing and since >= reference.every_s:
            probes.append((time.perf_counter(), reference.probe()))
            since -= reference.every_s
        if error is None:
            try:
                bad = op.check(result)
            except Exception as exc:  # a malformed result fails its check
                bad, error = ["perfbench"], exc
        else:
            bad = [_failing_module(error)]
        if bad:
            by_module.update(bad)
            failures.append({"op": op.label, "modules": bad,
                             "error": None if error is None else repr(error)})
        del result
    if not probing:
        return {"lat": lat, "scale": [1.0] * len(lat), "probes": [], "speed": 1.0,
                "failures": failures, "by_module": by_module}
    probes.append((time.perf_counter(), reference.probe()))
    # one probe jitters by a tenth or more from call to call; the drift the
    # scaling is for lasts seconds to minutes
    at = [t for t, _ in probes]
    scale = []
    for t0, t1 in intervals:
        near = [p for _, p in probes[bisect_left(at, t0 - reference.window_s):
                                     bisect_right(at, t1 + reference.window_s)]]
        scale.append(reference.nominal_s / statistics.median(near))
    times = [p for _, p in probes]
    return {"lat": lat, "scale": scale, "probes": times,
            "speed": reference.nominal_s / statistics.median(times),
            "failures": failures, "by_module": by_module}


def median_pass_s(lat: list[float], passes: int) -> float:
    """Time of one pass with each operation slot at its median over the passes."""
    per_pass = len(lat) // passes
    return sum(statistics.median(lat[slot::per_pass]) for slot in range(per_pass))


def end_to_end(phase: dict, passes: int, setup_s: float, peak_mb: float) -> dict:
    lat = phase["lat"]
    # each latency in seconds of the reference machine at its nominal speed
    scaled = [t * k for t, k in zip(lat, phase["scale"])]
    return {
        "ref_ops_per_s": len(lat) / passes / median_pass_s(scaled, passes),
        "ops_per_s": len(lat) / passes / median_pass_s(lat, passes),
        "mean_ops_per_s": len(lat) / sum(lat),
        # interpolated between neighbouring order statistics, so a quantile
        # does not jump when two operations of similar cost swap ranks
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[-1] * 1e3,
        "peak_rss_mb": peak_mb,
        "setup_s": setup_s,
        "speed": phase["speed"],
    }


def run_record(args, threads: str, passes: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "commit": commit,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": int(threads),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _detail_table(detail: dict) -> list[str]:
    steps = []
    for row in detail.values():
        steps += [s for s in row if s not in steps]
    lines = ["classify detail (ms per pass, summed over passes)",
             "group   " + "".join(f"{s:>12}" for s in steps)]
    for group, row in detail.items():
        lines.append(f"{group:<8}" + "".join(
            f"{row[s]:>12.1f}" if s in row else f"{'-':>12}" for s in steps))
    return lines


def run_all(args) -> int:
    """Run each workload in its own process and print one summary."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *report, last = proc.stdout.strip().splitlines()
        results[workload] = json.loads(last)
        print("\n".join(f"[{workload}] {line}" for line in report))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    threads = _pin_threads()
    sys.path.insert(0, str(SRC))

    import envelope
    import spans
    import workloads
    from reference import Reference

    wl = {
        "classify": workloads.Classify,
        "state_queries": workloads.StateQueries,
        "certify": workloads.Certify,
        "cli": lambda: workloads.Cli(OUT / "cli-inputs"),
    }[args.workload]()
    passes = max(1, round(args.seconds / wl.nominal_pass_s))
    record = run_record(args, threads, passes)
    record["reference_parts"] = list(wl.reference_parts)
    reference = Reference(wl.reference_parts)

    try:
        imports, builds = [], []
        ctx = None
        while len(builds) < SETUP_REPEATS or (
            sum(imports) + sum(builds) < SETUP_MIN_S and len(builds) < SETUP_MAX_REPEATS
        ):
            ctx = None
            imports.append(_fresh_import_s())
            t0 = time.perf_counter()
            ctx = wl.setup()
            builds.append(time.perf_counter() - t0)
        setup_s = statistics.median(i + b for i, b in zip(imports, builds))
        record["setup_repeats"] = len(builds)
        ops = wl.ops(ctx, args.seed, passes)
        plain = run_ops(ops, reference)
        detail = getattr(wl, "detail", None)
        del ops, ctx
        e2e = end_to_end(plain, passes, setup_s, _peak_rss_mb())
        phases = [plain]

        if args.trace:
            recorder = spans.Recorder()
            with recorder:
                t0 = time.perf_counter()
                ctx = wl.setup()
                traced_build = time.perf_counter() - t0
                recorder.active = False   # input generation is not traced
                ops = wl.ops(ctx, args.seed, passes)
                recorder.active = True
                traced = run_ops(ops, reference, recorder)
                del ops, ctx
            phases.append(traced)
            traced_e2e = end_to_end(traced, passes, traced_build + statistics.median(imports),
                                    _peak_rss_mb())
            cells = envelope.probe(args.workload, SRC, dict(os.environ))
    finally:
        reference.close()
        if hasattr(wl, "close"):
            wl.close()

    attempted = sum(len(p["lat"]) for p in phases)
    failed = sum(len(p["failures"]) for p in phases)
    if args.trace:
        metrics = layer_metrics(declared["per_layer"], recorder, traced, wl, imports,
                                cells, e2e, traced_e2e)
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in declared["end_to_end"]}

    lines = [f"run record: {json.dumps(record)}",
             f"operations: {len(plain['lat'])} per phase, {attempted} attempted, {failed} failed, "
             f"fail_ratio {failed / attempted:.6g}"]
    lines += [f"{name} = {v['value']:.6g} {v['unit']}" for name, v in metrics.items()]
    # printed but not declared: wall-clock figures, which move with the
    # shared machine's speed (see README.md)
    lines.append(f"machine speed = {e2e['speed']:.4g} x the reference machine "
                 f"({len(plain['probes'])} probes of {'+'.join(wl.reference_parts) or 'nothing'})")
    lines.append(f"ops_per_s = {e2e['ops_per_s']:.6g} 1/s (untraced, not declared; "
                 f"wall clock, each slot at its median pass)")
    lines.append(f"mean_ops_per_s = {e2e['mean_ops_per_s']:.6g} 1/s (untraced, not declared; "
                 f"operations / summed latency)")
    lines += [f"{name} = {e2e[name]:.6g} ms (untraced, not declared; {len(plain['lat'])} samples)"
              for name in ("latency_p50_ms", "latency_p90_ms")]
    if args.trace:
        lines.append(f"latency samples: {len(plain['lat'])} untraced, {len(traced['lat'])} traced")
        lines += [f"envelope {c['cell']}: {c['outcome']}" for c in cells]
    if detail:
        lines += _detail_table(detail)
    for phase in phases:
        lines += [f"FAILED {f['op']} in {','.join(f['modules'])}: {f['error']}"
                  for f in phase["failures"][:20]]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"record": record, "metrics": metrics, "end_to_end": e2e, "detail": detail,
              "failures": [f for p in phases for f in p["failures"]]}
    if args.trace:
        report["envelope"] = cells
        report["layer_totals"] = recorder.totals()
        recorder.dump(OUT / f"{stem}-spans.json")
        lines.append(f"spans: {OUT / (stem + '-spans.json')}")
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_metrics(declared, recorder, traced, wl, imports, cells, e2e, traced_e2e) -> dict:
    """Resolve every declared per-layer metric from the traced phase."""
    totals = recorder.totals()
    zero = {"ms": 0.0, "calls": 0, "peak_mb": 0.0}
    envelope_counts = Counter(c["class"] for c in cells)
    special = {
        "jsonio.bytes": recorder.json_bytes,
        "cli.import_s": statistics.median(imports),
        "posdef.is_positive_definite.undecided":
            recorder.undecided / recorder.verdicts if recorder.verdicts else 0.0,
        "vn.construct_affine_homeomorphism.roundtrip_max":
            getattr(wl, "stats", {}).get("roundtrip_max", 0.0),
    }
    out = {}
    for m in declared:
        name = m["name"]
        head, _, field = name.rpartition(".")
        if name in special:
            value = special[name]
        elif head == "overhead":
            value = traced_e2e[field] - e2e[field]
        elif head == "envelope":
            value = envelope_counts[field.removeprefix("cells_")]
        elif field == "failed" and head in LAYERS:
            value = traced["by_module"][head]
        elif field in zero:
            value = totals.get(head, zero)[field]
        else:
            raise KeyError(f"no source for per-layer metric {name}")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


if __name__ == "__main__":
    sys.exit(main())
