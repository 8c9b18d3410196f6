"""In-memory spans and garbage-collector accounting for the traced run.

Spans are recorded from the benchmark's own code, around its calls into the
commitfsm layers; nothing in the program is patched.  A span is (name,
start, end, parent, operation id), stored column-wise in typed arrays so
that the million leaf spans of one r = 46 generation stay small and the
recording itself allocates no objects the collector tracks.
"""

from __future__ import annotations

import gc
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

NO_PARENT = -1


class Tracer:
    """Collects spans and per-operation GC statistics until written out."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack = [NO_PARENT]
        self.op_id = 0
        self._last_op = 0
        self.op_labels: dict[int, str] = {}
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._gc_started = 0.0

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _record(self, nid: int, t0: float, t1: float, parent: int) -> int:
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(parent)
        self.op.append(self.op_id)
        return len(self.name) - 1

    @contextmanager
    def operation(self, kind: str, label: str):
        """Open a new operation id; spans and collections inside carry it.

        Outside every operation the id is 0, so collections the benchmark
        forces between operations are not charged to any of them.
        """
        self._last_op += 1
        self.op_id = self._last_op
        self.op_labels[self.op_id] = label
        try:
            with self.span("op." + kind):
                yield
        finally:
            self.op_id = 0

    @contextmanager
    def span(self, name: str):
        """Record a span around the block; it is the parent of spans opened inside."""
        nid = self._name_id(name)
        index = self._record(nid, 0.0, 0.0, self._stack[-1])
        self._stack.append(index)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[index] = t0
            self.end[index] = t1

    def wrap1(self, name: str, fn):
        """A one-argument callable that records a leaf span per call."""
        nid = self._name_id(name)
        pc = time.perf_counter
        record = self._record
        stack = self._stack

        def traced(a):
            t0 = pc()
            result = fn(a)
            record(nid, t0, pc(), stack[-1])
            return result

        return traced

    def wrap4(self, name: str, fn):
        """A four-argument callable that records a leaf span per call."""
        nid = self._name_id(name)
        pc = time.perf_counter
        record = self._record
        stack = self._stack

        def traced(a, b, c, d):
            t0 = pc()
            result = fn(a, b, c, d)
            record(nid, t0, pc(), stack[-1])
            return result

        return traced

    def add(self, key: str, amount: float) -> None:
        """Add to a counter of the open operation."""
        self.counts[self.op_id][key] += amount

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        counts = self.counts[self.op_id]
        counts["gc_s"] += time.perf_counter() - self._gc_started
        counts[f"gc{info['generation']}"] += 1

    @contextmanager
    def gc_accounting(self):
        """Attribute every collection, with its duration, to the open operation."""
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)

    @property
    def mark(self) -> tuple[int, int]:
        """Position to pass to per_label, so that it sees only what follows."""
        return len(self.name), self._last_op

    def per_label(self, mark: tuple[int, int]) -> dict[str, dict]:
        """Spans and counters recorded since mark, grouped by operation label.

        For each label: "spans" maps a span name to its calls, total seconds
        and self seconds (its duration minus that of its direct children);
        "counts" holds the counters and collector statistics of its
        operations.
        """
        first_span, first_op = mark
        n = len(self.name)
        child_time = [0.0] * (n - first_span)
        for i in range(first_span, n):
            p = self.parent[i]
            if p >= first_span:
                child_time[p - first_span] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}

        def group(op: int) -> dict:
            label = self.op_labels.get(op, "outside")
            return out.setdefault(label, {"spans": {}, "counts": defaultdict(float)})

        for i in range(first_span, n):
            entry = group(self.op[i])["spans"].setdefault(
                self.names[self.name[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[i - first_span]
        for op, counts in self.counts.items():
            if op > first_op:
                target = group(op)["counts"]
                for key, value in counts.items():
                    target[key] += value
        return out

    def write(self, path: Path) -> None:
        """One JSON header line, then the five span columns as raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "op_labels": {str(k): v for k, v in self.op_labels.items()},
            "spans": len(self.name),
            "columns": [
                ["name", self.name.typecode, self.name.itemsize],
                ["start", self.start.typecode, self.start.itemsize],
                ["end", self.end.typecode, self.end.itemsize],
                ["parent", self.parent.typecode, self.parent.itemsize],
                ["op", self.op.typecode, self.op.itemsize],
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.start, self.end, self.parent, self.op):
                column.tofile(fh)
