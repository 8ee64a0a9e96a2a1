"""Outside-in span tracing of groverbench's layers.

Every span is recorded from the benchmark's own files: the tracer swaps
each boundary function for a timing wrapper at the module attribute the
caller looks it up through, and puts the original back afterwards.
Nothing inside the package changes.

Layers and the lookups they are caught at:

* ``statevector`` kernels: ``ops.phase_flip`` and ``ops.invert_about_mean``
  (bound in ``ops`` by the oracle and ``grover_iteration``),
  ``search.uniform_state`` and ``search.sample`` (bound in ``search``).
* ``ops``: ``search.grover_iteration``, and ``OracleSpec.query_index``, whose
  calls are the classical probes that confirm inexact segment values.
* ``search``: the four drivers and ``segment_partial_search`` in ``search``
  (found there by ``run_search`` and the layered drivers), and
  ``bench.run_search`` (one plan cell).
* ``bench``: ``cli.run_plan``, ``cli.emit_table``, ``cli.emit_scaling_series``.
* ``cli``: ``cli.main``, which the benchmark calls through the module.

A span is ``(id, name, start, end, parent, thread)``.  Spans started on a
thread with no open span of its own (the plan's pool workers) take as
parent the innermost open span of the thread that created the tracer.
Self time is a span's duration minus the union of its children's
intervals, so overlapping children on two pool threads count once.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

DRIVERS = ("run_standard_grover", "run_grk_partial", "run_dfgs", "run_bdgs")
KERNELS = ("phase_flip", "invert_about_mean", "sample", "uniform_state")
LAYERS = ("statevector", "ops", "search", "bench", "cli")


class Tracer:
    """In-memory span recorder with counters, shared by every traced thread."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def maximum(self, name: str, value: int) -> None:
        with self._lock:
            self.counts[name] = max(self.counts[name], value)

    def wrap(self, fn, name: str, on_call=None):
        """Return ``fn`` timed as span ``name``; ``on_call(args)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None
            )
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, threading.get_ident()))

        return traced

    def patch(self, owner, attr: str, name: str, on_call=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, on_call))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        origin = min((span[2] for span in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for sid, name, start, end, parent, thread in self.spans:
                out.write(json.dumps({
                    "id": sid, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "thread": thread,
                }) + "\n")


def install(tracer: Tracer, gb) -> None:
    """Wrap every layer boundary of the imported package ``gb``."""
    ops, search, bench, cli = gb.ops, gb.search, gb.bench, gb.cli

    def count_bytes(args) -> None:
        # Computed traffic: one read and one write of the register per call.
        nbytes = args[0].amplitudes.nbytes
        tracer.add("statevector.invert_about_mean.bytes", 2 * nbytes)
        tracer.maximum("statevector.register_bytes_max", nbytes)

    tracer.patch(ops, "phase_flip", "statevector.phase_flip")
    tracer.patch(ops, "invert_about_mean", "statevector.invert_about_mean", count_bytes)
    tracer.patch(search, "uniform_state", "statevector.uniform_state")
    tracer.patch(search, "sample", "statevector.sample")
    tracer.patch(search, "grover_iteration", "ops.grover_iteration")
    tracer.patch(ops.OracleSpec, "query_index", "ops.oracle.query_index",
                 lambda args: tracer.add("ops.oracle.classical_probes"))
    for driver in DRIVERS:
        tracer.patch(search, driver, f"search.{driver}")
    tracer.patch(search, "segment_partial_search", "search.segment_partial_search")
    tracer.patch(bench, "run_search", "search.run_search")
    tracer.patch(cli, "run_plan", "bench.run_plan")
    tracer.patch(cli, "emit_table", "bench.emit_table")
    tracer.patch(cli, "emit_scaling_series", "bench.emit_scaling_series")
    tracer.patch(cli, "main", "cli.main")


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass calls, busy and self seconds per span name, plus derived figures."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in tracer.spans:
        if parent is not None:
            children[parent].append((start, end))
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    names = {sid: name for sid, name, *_ in tracer.spans}
    roots = 0.0
    segment_amplifications = 0
    for sid, name, start, end, parent, _ in tracer.spans:
        calls[name] += 1
        busy[name] += end - start
        self_time[name] += end - start - _union_length(children.get(sid, []), start, end)
        if parent is None:
            roots += end - start
        elif name == "statevector.uniform_state" and (
            names.get(parent) == "search.segment_partial_search"
        ):
            # In compact mode every amplification pass of a segment starts
            # from a fresh uniform register, so this counts the passes.
            segment_amplifications += 1

    per = 1.0 / passes
    out: dict[str, float] = {}
    for kernel in KERNELS:
        name = f"statevector.{kernel}"
        out[f"{name}.calls"] = calls[name] * per
        out[f"{name}.busy_s"] = busy[name] * per
        out[f"{name}.us_per_call"] = 1e6 * busy[name] / calls[name] if calls[name] else 0.0
    inv_bytes = tracer.counts["statevector.invert_about_mean.bytes"]
    inv_busy = busy["statevector.invert_about_mean"]
    out["statevector.invert_about_mean.bytes_computed"] = inv_bytes * per
    out["statevector.invert_about_mean.gbps_computed"] = (
        inv_bytes / inv_busy / 1e9 if inv_busy else 0.0
    )
    out["statevector.register_bytes_max"] = float(tracer.counts["statevector.register_bytes_max"])
    gi = "ops.grover_iteration"
    out[f"{gi}.calls"] = calls[gi] * per
    out[f"{gi}.busy_s"] = busy[gi] * per
    out[f"{gi}.self_s"] = self_time[gi] * per
    out["ops.oracle.classical_probes"] = tracer.counts["ops.oracle.classical_probes"] * per
    for driver in DRIVERS:
        name = f"search.{driver}"
        out[f"{name}.busy_s"] = busy[name] * per
        out[f"{name}.self_s"] = self_time[name] * per
    seg = "search.segment_partial_search"
    out[f"{seg}.calls"] = calls[seg] * per
    out[f"{seg}.busy_s"] = busy[seg] * per
    out[f"{seg}.self_s"] = self_time[seg] * per
    out["search.segment.attempt_ratio"] = (
        calls[seg] / segment_amplifications if segment_amplifications else 0.0
    )
    out["bench.run_plan.busy_s"] = busy["bench.run_plan"] * per
    out["bench.cell_busy_sum_s"] = busy["search.run_search"] * per
    out["bench.plan.self_s"] = self_time["bench.run_plan"] * per
    out["bench.emit_table.busy_s"] = busy["bench.emit_table"] * per
    out["bench.emit_scaling_series.busy_s"] = busy["bench.emit_scaling_series"] * per
    out["cli.main.busy_s"] = busy["cli.main"] * per
    out["cli.self_s"] = self_time["cli.main"] * per
    for layer in LAYERS[:-1]:  # the cli layer's total is cli.self_s
        out[f"{layer}.layer_self_s"] = per * sum(
            value for name, value in self_time.items() if name.split(".")[0] == layer
        )
    out["trace.root_span_s"] = roots * per
    out["trace.spans"] = len(tracer.spans) * per
    return out
