"""Reference tasks that measure how fast the machine is right now.

On a shared host the same operation can take a fifth to two thirds longer
in one minute than in the next, because other tenants contend for the
core, its caches and memory bandwidth.  The benchmark runs a fixed
reference task between operations and scales each operation's latency by
how long the task took around it, so a slow stretch of the machine slows
both and cancels out.

A task is built from a few parts, each a different kind of work.  They run
in a child process, one probe at a time while the benchmark waits, so
neither the package's code nor its memory can change their cost, and their
buffers do not count in the benchmark's peak RSS.  Contention does not slow
every kind of work alike, so each workload names the parts that track its
own operations (``reference_parts`` in ``workloads.py``); README.md gives
the measurements behind each choice.
"""

from __future__ import annotations

import multiprocessing
import os
import time

# median time of each part on the reference machine (2-vCPU x86_64 VM, Xeon
# at 2.0 GHz, OpenBLAS 0.3.31 with one thread, numpy 2.4.6, Python 3.11), so
# scaled latencies read as seconds on that machine at its usual speed
NOMINAL_S = {"dense": 0.0100, "stream": 0.0075, "loop": 0.0050, "small": 0.0045}


class Reference:
    # probe once per this much operation time
    every_s = 0.3
    # scale an operation by the probes taken within this many seconds of it
    window_s = 3.0

    def __init__(self, parts: tuple[str, ...]):
        """Start the child that runs ``parts``; with no parts, start none."""
        self.parts = parts
        self.nominal_s = sum(NOMINAL_S[p] for p in parts)
        self._proc = None
        if not parts:
            return
        # one vCPU for the benchmark and the child, which inherits it, so the
        # operations and the task meet the same core's contention
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self._conn, child = multiprocessing.Pipe()
        self._proc = multiprocessing.get_context("fork").Process(
            target=_serve, args=(child, parts), daemon=True)
        self._proc.start()
        child.close()

    def probe(self) -> float:
        """Seconds one run of the task took, timed in the child."""
        self._conn.send(True)
        return self._conn.recv()

    def close(self) -> None:
        if self._proc is None:
            return
        if self._proc.is_alive():
            self._conn.send(False)
            self._proc.join(timeout=10)
            if self._proc.is_alive():
                self._proc.kill()
                self._proc.join()
        self._conn.close()


def _serve(conn, parts) -> None:
    import numpy as np

    rng = np.random.default_rng(0)
    m = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    matrix = m + m.conj().T
    if "stream" in parts:
        src = np.ones(8 * 2**20)  # 64 MB, beyond what the shared cache holds for one core
        dst = np.ones_like(src)

    def dense():
        """A 256 x 256 complex Hermitian eigensolve, held in cache."""
        np.linalg.eigvalsh(matrix)

    def stream():
        """One 64 MB copy: bandwidth to memory."""
        np.copyto(dst, src)

    def loop():
        """Dictionary updates in the interpreter."""
        counts: dict[int, int] = {}
        for i in range(40_000):
            counts[i % 97] = counts.get(i % 97, 0) + i

    def small():
        """Many numpy calls on a 50-element array, where call overhead dominates."""
        a = np.arange(50.0)
        for _ in range(2_000):
            a = np.abs(a * 1.0001) + 0.0

    run = {"dense": dense, "stream": stream, "loop": loop, "small": small}
    for part in parts:  # warm-up
        run[part]()
    try:
        while conn.recv():
            t0 = time.perf_counter()
            for part in parts:
                run[part]()
            conn.send(time.perf_counter() - t0)
    except EOFError:  # the benchmark has gone
        pass
