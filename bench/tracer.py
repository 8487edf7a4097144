"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public entry points of each fogstore_sim layer
and times them. Every wrapped call is a *frame*: its self time is its
duration minus the time of the wrapped calls nested inside it, so each
second is attributed to exactly one layer. Per-op and coarser calls also
record a *span* (name, start, end, parent span, op id) in memory, up to
``MAX_SPANS``; per-message calls (the event handler, ``latency_ms``,
``set_timer``) are only counted and timed, because a span per message costs
more than the work it measures.

Module-level functions are replaced in every ``fogstore_sim`` module that
bound them by name at import (``store`` imports ``place_replicas`` and
``get_region`` that way), so no call escapes the count.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable

from fogstore_sim import consistency, experiment, netsim, placement, store, topology, workload

MAX_SPANS = 20_000

# (metric name, owner, attribute, record spans)
FRAMES = (
    ("netsim.run", netsim.Simulator, "run_until_quiescent", True),
    ("topology.build", topology.Topology, "__init__", True),
    ("topology.nearest_node", topology.Topology, "nearest_node", True),
    ("topology.latency_ms", topology.Topology, "latency_ms", False),
    ("placement.place_replicas", placement, "place_replicas", True),
    ("consistency.get_region", consistency, "get_region", True),
    ("workload.generate_ops", workload, "generate_ops", True),
    ("workload.summary", workload.LatencyStats, "summary", True),
    ("experiment.run_queries", experiment, "run_queries", True),
    ("experiment.run_single", experiment, "run_single", True),
    ("cli.load_sweep_plan", experiment, "load_sweep_plan", True),
)


class Tracer:
    """Frames, spans and counters for one process; ``reset`` between repetitions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 excluded_s: Callable[[], float] = lambda: 0.0):
        self.clock = clock
        self.excluded_s = excluded_s  # the benchmark's own checks, left out of cell times
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[list] = []  # [parent index, name, start, end, op id]
        self.messages: dict[str, int] = {}  # delivered payload type -> count
        self.timers_set = 0
        self.cell_s: list[float] = []
        self.inflight = 0
        self.inflight_peak = 0
        self._stack = [0.0]  # time spent in nested frames, one slot per open frame
        self._span: int | None = None
        self._op: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        self.messages.clear()
        self.timers_set = 0
        self.cell_s.clear()
        self.inflight_peak = self.inflight

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    # -- wrappers ------------------------------------------------------------

    def frame(self, name: str, fn: Callable, span: bool = False) -> Callable:
        """``fn`` timed as a frame of ``name``; optionally recorded as spans."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = self.clock

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - nested

        if not span:
            return timed

        def spanned(*args, **kwargs):
            if len(self.spans) >= MAX_SPANS:
                return timed(*args, **kwargs)
            record = [self._span, name, clock(), None, self._op]
            parent, self._span = self._span, len(self.spans)
            self.spans.append(record)
            try:
                return timed(*args, **kwargs)
            finally:
                record[3] = clock()
                self._span = parent

        return spanned

    def _submit(self, fn: Callable) -> Callable:
        """Cluster.submit: counts ops in flight and records a span per op.

        Not a frame: the gateway's own work stays with the caller (the
        store's event handler, or ``run_queries`` for the first op).
        """
        def submit(cluster, query, callback, *args, **kwargs):
            def done(q, r):
                self.inflight -= 1
                callback(q, r)

            self.inflight += 1
            self.inflight_peak = max(self.inflight_peak, self.inflight)
            record = None
            parent, dispatched_op = self._span, self._op
            if len(self.spans) < MAX_SPANS:
                record = [parent, "store.submit", self.clock(), None, None]
                self._span = len(self.spans)
                self.spans.append(record)
            # In a closed loop this runs inside the previous op's dispatch;
            # spans nested here belong to the new op and inherit its id.
            self._op = None
            try:
                op_id = fn(cluster, query, done, *args, **kwargs)
            finally:
                self._span, self._op = parent, dispatched_op
            if record is not None:
                record[3] = self.clock()
                record[4] = op_id
            return op_id

        return submit

    def _handler(self, handler: Callable) -> Callable:
        """The simulator's event handler (the store's dispatch), per event."""
        timed = self.frame("store.dispatch", handler)
        messages = self.messages

        def dispatch(sim, event):
            payload = event.payload
            kind = type(payload).__name__
            messages[kind] = messages.get(kind, 0) + 1
            self._op = getattr(payload, "op_id", None)
            try:
                return timed(sim, event)
            finally:
                self._op = None

        dispatch.bench_traced = True
        return dispatch

    def _run(self, fn: Callable) -> Callable:
        framed = self.frame("netsim.run", fn, span=True)

        def run_until_quiescent(sim, *args, **kwargs):
            if sim.handler is not None and not getattr(sim.handler, "bench_traced", False):
                sim.handler = self._handler(sim.handler)
            return framed(sim, *args, **kwargs)

        return run_until_quiescent

    def _cell(self, fn: Callable) -> Callable:
        framed = self.frame("experiment.run_single", fn, span=True)

        def run_single(*args, **kwargs):
            excluded = self.excluded_s()
            start = self.clock()
            try:
                return framed(*args, **kwargs)
            finally:
                self.cell_s.append(self.clock() - start - (self.excluded_s() - excluded))

        return run_single

    def _set_timer(self, fn: Callable) -> Callable:
        def set_timer(sim, *args, **kwargs):
            self.timers_set += 1
            return fn(sim, *args, **kwargs)

        return set_timer

    # -- patching ------------------------------------------------------------

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        original = getattr(owner, attr)
        if isinstance(owner, type):
            targets = [owner]
        else:  # a function: replace every module-level binding of it
            targets = [module for name, module in list(sys.modules.items())
                       if name.split(".")[0] == "fogstore_sim"
                       and getattr(module, attr, None) is original]
        for target in targets:
            self._undo.append((target, attr, original))
            setattr(target, attr, wrapper)

    def install(self) -> None:
        for name, owner, attr, span in FRAMES:
            original = getattr(owner, attr)
            if name == "netsim.run":
                wrapper = self._run(original)
            elif name == "experiment.run_single":
                wrapper = self._cell(original)
            else:
                wrapper = self.frame(name, original, span)
            self._patch(owner, attr, wrapper)
        self._patch(store.Cluster, "submit", self._submit(store.Cluster.submit))
        self._patch(netsim.Simulator, "set_timer", self._set_timer(netsim.Simulator.set_timer))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def write_spans(self, path: Path) -> None:
        """One JSON object per span; ``op`` is inherited from the nearest ancestor."""
        with path.open("w") as out:
            for i, (parent, name, start, end, op) in enumerate(self.spans):
                ancestor = parent
                while op is None and ancestor is not None:
                    op = self.spans[ancestor][4]
                    ancestor = self.spans[ancestor][0]
                out.write(json.dumps({"id": i, "parent": parent, "name": name,
                                      "start_s": start, "end_s": end, "op": op}) + "\n")
