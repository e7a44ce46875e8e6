"""Span recorder for the traced run.

The recorder wraps the public functions of each package layer and rebinds
the wrappers, from outside, in every ``groupstates`` module namespace that
refers to them, so calls one layer makes into another are recorded too.
Nothing on disk changes and the originals are restored on exit.  Spans
stay in memory and are written out when the run ends.  tracemalloc runs
only inside the calls whose peak is reported, because tracing every
allocation would slow the allocation-heavy layers (JSON parsing) tenfold.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

# layer -> public functions recorded as spans
LAYER_FUNCTIONS = {
    "groups": ("build_named", "from_permutation_generators", "validate_group", "conjugacy_classes"),
    "characters": ("character_table", "minimal_central_projections"),
    "linalg": ("is_psd",),
    "posdef": ("is_positive_definite", "to_state", "a_norm", "gns", "is_extreme"),
    "channels": ("apply", "compose", "is_completely_positive"),
    "faces": ("split_faces", "maximal_chain_length", "face_membership", "state_decomposition"),
    "vn": ("vn_isomorphic", "block_decompose", "construct_affine_homeomorphism",
           "apply_descriptor", "verify_jordan_form"),
    "jsonio": ("load_group", "load_function"),
    "cli": ("dispatch",),
}
# spans that also record the tracemalloc peak inside the call
PEAK_SPANS = frozenset({"vn.block_decompose", "faces.split_faces", "posdef.is_extreme",
                        "channels.is_completely_positive"})


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "base", "peak")

    def __init__(self, sid, name, parent, op, base):
        self.id, self.name, self.parent, self.op = sid, name, parent, op
        self.base = self.peak = base
        self.start = self.end = 0.0


class Recorder:
    """Records one span per call of a layer function while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"
        self.json_bytes = 0
        self.verdicts = 0
        self.undecided = 0
        self.active = True
        self._stack: list[Span] = []
        self._peak_stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.op, 0)
        if name in PEAK_SPANS:
            if not self._peak_stack:
                tracemalloc.start()
            current, peak = tracemalloc.get_traced_memory()
            if self._peak_stack:
                top = self._peak_stack[-1]
                top.peak = max(top.peak, peak)
            tracemalloc.reset_peak()
            span.base = span.peak = current
            self._peak_stack.append(span)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.name in PEAK_SPANS:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
            self._peak_stack.pop()
            if self._peak_stack:
                top = self._peak_stack[-1]
                top.peak = max(top.peak, span.peak)
            else:
                tracemalloc.stop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name == "posdef.is_positive_definite":
                self.verdicts += 1
                self.undecided += bool(result.undecided)
            return result
        return wrapper

    # -- installing and removing the wrappers -----------------------------

    def _rebind(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "groupstates" or mod_name.startswith("groupstates.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def __enter__(self):
        for layer, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"groupstates.{layer}")
            for name in names:
                original = getattr(module, name)
                self._rebind(original, self._wrap(f"{layer}.{name}", original))
        # the one method recorded: the coefficient map of a decomposition
        cls = importlib.import_module("groupstates.vn").BlockDecomposition
        original = cls.__dict__["from_coefficients"]
        self._restore.append((cls, "from_coefficients", original))
        cls.from_coefficients = self._wrap("vn.from_coefficients", original)
        self._count_json_bytes()
        return self

    def _count_json_bytes(self) -> None:
        # jsonio has no writer: the CLI serialises with the standard library,
        # which stays in cli.dispatch's self time.  Bytes count what
        # load_json reads.
        load_json = importlib.import_module("groupstates.jsonio").load_json

        def counted_load(path):
            obj = load_json(path)
            self.json_bytes += os.stat(path).st_size
            return obj

        self._rebind(load_json, counted_load)

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        return False

    # -- aggregation ------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: self time in ms, call count and peak MB."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"ms": 0.0, "calls": 0, "peak_mb": 0.0})
        for s in self.spans:
            row = out[s.name]
            row["ms"] += (s.end - s.start - child_time[s.id]) * 1e3
            row["calls"] += 1
            row["peak_mb"] = max(row["peak_mb"], (s.peak - s.base) / 2**20)
        return out

    def dump(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            {"id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
             "start_ms": (s.start - t0) * 1e3, "end_ms": (s.end - t0) * 1e3,
             "peak_mb": (s.peak - s.base) / 2**20}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)
