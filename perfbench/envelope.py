"""Envelope probe: ladder cells the workloads leave out, each run once in
its own child process under an address-space limit and a wall-clock cap.

Run as a script it is that child: ``envelope.py <cell> <address-space
bytes>`` sets the limit on itself before importing numpy, runs the cell
and prints one JSON line with the outcome.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from pathlib import Path

# cell -> (group kind, call, workload whose traced run probes it)
CELLS = {
    "faces.split_faces:D30": ("dihedral:30", "split_faces", "classify"),
    "posdef.is_extreme:S4xZ2:mixed": ("product:symmetric:4,cyclic:2", "is_extreme", "certify"),
    "posdef.is_extreme:D30:mixed": ("dihedral:30", "is_extreme", "certify"),
    "posdef.is_extreme:S5:mixed": ("symmetric:5", "is_extreme", "certify"),
    "channels.is_completely_positive:S4xZ2": ("product:symmetric:4,cyclic:2", "is_cp", "certify"),
    "channels.is_completely_positive:S5": ("symmetric:5", "is_cp", "certify"),
}
ADDRESS_SPACE_BYTES = 1536 * 2**20
WALL_CAP_S = 10.0


def probe(workload: str, src: Path, env: dict) -> list[dict]:
    """Run every cell of ``workload`` in turn; one outcome per cell."""
    results = []
    for cell, (_, _, owner) in CELLS.items():
        if owner != workload:
            continue
        argv = [sys.executable, str(Path(__file__).resolve()), cell, str(ADDRESS_SPACE_BYTES)]
        try:
            proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                                  timeout=WALL_CAP_S, cwd=src.parent)
        except subprocess.TimeoutExpired:
            results.append({"cell": cell, "outcome": "timeout", "class": "crashed"})
            continue
        lines = proc.stdout.strip().splitlines()
        try:
            outcome = json.loads(lines[-1])["outcome"]
        except (IndexError, ValueError, KeyError):
            outcome = f"crash(exit {proc.returncode})"
        kind = "ok" if outcome == "ok" else "refused" if outcome.startswith("DomainError:") else "crashed"
        results.append({"cell": cell, "outcome": outcome, "class": kind})
    return results


def _child(cell: str, limit: int) -> None:
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    cpu = int(4 * WALL_CAP_S) + 10  # CPU seconds across BLAS threads; a backstop only
    resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu))
    import numpy as np

    import checks
    from groupstates import channels, characters, errors, faces, groups, posdef

    kind, call, _ = CELLS[cell]
    try:
        g = groups.build_named(kind)
        if call == "split_faces":
            faces.split_faces(g, characters.character_table(g))
        else:
            rng = np.random.default_rng(0)
            fn = posdef.GroupFunction(g, checks.delta_mixture(g.cayley, g.inverses, g.identity, rng, 0.2))
            if call == "is_extreme":
                posdef.is_extreme(fn)
            else:
                channels.is_completely_positive(channels.build_channel(fn))
        outcome = "ok"
    except errors.DomainError as exc:
        outcome = f"DomainError:{exc.name}"
    except MemoryError:
        outcome = "MemoryError"
    print(json.dumps({"cell": cell, "outcome": outcome}))


if __name__ == "__main__":
    _child(sys.argv[1], int(sys.argv[2]))
