"""Deterministic discrete-event network simulator.

Events are processed in strict ``(deliver_at_ms, seq)`` order, where ``seq``
is a monotone counter assigned at scheduling time. Identical inputs therefore
produce bit-identical event sequences; there is no wall-clock or thread
nondeterminism anywhere in the loop.

Message semantics:

* delivery is delayed by the shortest-path link latency between the two
  nodes (plus the destination's configured service time, default 0, and
  optional seeded jitter, default off);
* a message is sent only if both endpoints are up and mutually reachable
  at send time, and delivered only if that still holds at delivery time;
  blocked messages are dropped silently -- the protocol layer recovers via
  timeouts, mirroring real networks where drops are not reported;
* crashed nodes keep their state (fail-recovery, not fail-stop): crash and
  recover only gate message flow.

Faults come from a script of timestamped actions (crash, recover,
partition, heal). Fault events are enqueued when the script is attached,
so at equal timestamps they apply before message deliveries scheduled
later, which is the order a test author expects.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .errors import ConfigError, load_json
from .topology import Topology

Handler = Callable[["Simulator", "SimEvent"], None]
TraceSink = Callable[[str], None]

KIND_MESSAGE = "message"
KIND_TIMER = "timer"
KIND_FAULT = "fault"
KIND_DROP = "drop"


class BudgetExceededError(Exception):
    """The clock passed the run budget with events still pending."""

    def __init__(self, budget_ms: float, next_event_ms: float, pending: int):
        self.budget_ms = budget_ms
        self.next_event_ms = next_event_ms
        self.pending = pending
        super().__init__(
            f"simulation budget {budget_ms} ms exceeded: "
            f"next event at {next_event_ms} ms, {pending} pending"
        )


@dataclass
class SimEvent:
    """One scheduled occurrence; total order is (deliver_at_ms, seq)."""

    deliver_at_ms: float
    seq: int
    kind: str
    src: str | None
    dst: str | None
    payload: object
    cancelled: bool = False


@dataclass(frozen=True)
class FaultAction:
    """One scripted fault: crash/recover a node, or partition/heal the net."""

    at_ms: float
    action: str  # crash | recover | partition | heal
    node: str | None = None
    group_a: frozenset[str] = frozenset()
    group_b: frozenset[str] = frozenset()

    def describe(self) -> str:
        if self.action in ("crash", "recover"):
            return f"{self.action} {self.node}"
        if self.action == "partition":
            return f"partition {sorted(self.group_a)}|{sorted(self.group_b)}"
        return "heal"


@dataclass
class SimReport:
    """Counters returned by :meth:`Simulator.run_until_quiescent`."""

    end_ms: float = 0.0
    events_processed: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    timers_fired: int = 0
    faults_applied: int = 0


class Timer:
    """Handle for a scheduled timer; cancelling it is O(1)."""

    __slots__ = ("_event",)

    def __init__(self, event: SimEvent):
        self._event = event

    def cancel(self) -> None:
        self._event.cancelled = True


class Simulator:
    """Single-threaded event loop over a fixed topology.

    ``handler`` receives every delivered message and fired timer; fault
    events are applied internally (and traced). Multiple simulators are
    fully isolated and may run in parallel processes if desired.
    """

    def __init__(
        self,
        topology: Topology,
        handler: Handler | None = None,
        fault_script: Sequence[FaultAction] = (),
        trace: TraceSink | None = None,
        jitter_ms: float = 0.0,
        jitter_seed: int = 0,
    ):
        self.topology = topology
        self.handler = handler
        self._trace = trace
        self._now = 0.0
        self._seq = 0
        self._queue: list[tuple[float, int, SimEvent]] = []
        self._crashed: set[str] = set()
        self._partitions: list[tuple[frozenset[str], frozenset[str]]] = []
        self._jitter_ms = jitter_ms
        self._jitter_rng = random.Random(jitter_seed)
        self.report = SimReport()
        for action in fault_script:
            if action.node is not None and action.node not in topology.nodes:
                raise ConfigError("<fault script>", f"unknown node {action.node!r}")
            for nid in (*action.group_a, *action.group_b):
                if nid not in topology.nodes:
                    raise ConfigError("<fault script>", f"unknown node {nid!r}")
            self._push(action.at_ms, KIND_FAULT, None, None, action)

    @property
    def now(self) -> float:
        return self._now

    # -- fault state ----------------------------------------------------

    def is_up(self, node_id: str) -> bool:
        return node_id not in self._crashed

    def can_communicate(self, a: str, b: str) -> bool:
        """True when no active partition separates the two nodes."""
        for group_a, group_b in self._partitions:
            if (a in group_a and b in group_b) or (a in group_b and b in group_a):
                return False
        return True

    # -- scheduling -----------------------------------------------------

    def _push(self, at_ms: float, kind: str, src: str | None, dst: str | None, payload: object) -> SimEvent:
        event = SimEvent(at_ms, self._seq, kind, src, dst, payload)
        self._seq += 1
        heapq.heappush(self._queue, (at_ms, event.seq, event))
        return event

    def schedule_message(self, src: str, dst: str, payload: object) -> None:
        """Enqueue delivery of ``payload`` at now + latency(src, dst).

        Silently drops the message when either endpoint is crashed or a
        partition separates them; drops are semantics here, not errors.
        """
        if not self.is_up(src) or not self.is_up(dst) or not self.can_communicate(src, dst):
            self._drop(src, dst, payload, "blocked at send")
            return
        delay = self.topology.latency_ms(src, dst)
        if self._jitter_ms > 0.0:
            delay = max(0.0, delay + self._jitter_rng.uniform(-self._jitter_ms, self._jitter_ms))
        delay += self.topology.node(dst).service_ms
        self._push(self._now + delay, KIND_MESSAGE, src, dst, payload)

    def set_timer(self, node_id: str | None, delay_ms: float, payload: object) -> Timer:
        """Schedule a timer payload for ``node_id`` after ``delay_ms``.

        A timer bound to a node is dropped if the node is down when it
        fires. ``node_id=None`` makes a harness timer that always fires
        (used by drivers that live outside the fault domain).
        """
        if delay_ms < 0:
            raise ValueError("delay_ms must be >= 0")
        event = self._push(self._now + delay_ms, KIND_TIMER, None, node_id, payload)
        return Timer(event)

    def _drop(self, src: str | None, dst: str | None, payload: object, reason: str,
              seq: int | None = None) -> None:
        self.report.messages_dropped += 1
        self._emit_trace(KIND_DROP, src, dst, f"{reason}: {payload}", seq)

    def _emit_trace(self, kind: str, src: str | None, dst: str | None, summary: str,
                    seq: int | None = None) -> None:
        if self._trace is not None:
            self._trace(
                f"{self._now:g},{self._seq if seq is None else seq},{kind},"
                f"{src or '-'},{dst or '-'},{summary}"
            )

    # -- the loop ---------------------------------------------------------

    def run_until_quiescent(self, max_ms: float | None = None) -> SimReport:
        """Process all events in total order; return the run report.

        Raises :class:`BudgetExceededError` if a live event lies beyond
        ``max_ms`` (cancelled timers are discarded without advancing the
        clock, so they never burn budget).
        """
        while self._queue:
            at_ms, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            if max_ms is not None and at_ms > max_ms:
                raise BudgetExceededError(max_ms, at_ms, len(self._queue) + 1)
            self._now = at_ms
            self.report.events_processed += 1
            if event.kind == KIND_FAULT:
                self.apply_fault(event.payload, seq=event.seq)  # type: ignore[arg-type]
                continue
            if event.kind == KIND_MESSAGE:
                if (
                    not self.is_up(event.dst)
                    or not self.can_communicate(event.src, event.dst)
                ):
                    self._drop(event.src, event.dst, event.payload, "blocked at delivery", event.seq)
                    continue
                self.report.messages_delivered += 1
            else:  # timer
                if event.dst is not None and not self.is_up(event.dst):
                    self._drop(event.src, event.dst, event.payload, "timer at crashed node", event.seq)
                    continue
                self.report.timers_fired += 1
            self._emit_trace(event.kind, event.src, event.dst, str(event.payload), event.seq)
            if self.handler is not None:
                self.handler(self, event)
        self.report.end_ms = self._now
        return self.report

    def apply_fault(self, action: FaultAction, seq: int | None = None) -> None:
        """Apply a fault action immediately (scripted faults arrive here too)."""
        if action.action == "crash":
            self._crashed.add(action.node)  # type: ignore[arg-type]
        elif action.action == "recover":
            self._crashed.discard(action.node)  # type: ignore[arg-type]
        elif action.action == "partition":
            self._partitions.append((action.group_a, action.group_b))
        elif action.action == "heal":
            self._partitions.clear()
        else:  # validated at load; defensive
            raise ValueError(f"unknown fault action {action.action!r}")
        self.report.faults_applied += 1
        self._emit_trace(KIND_FAULT, None, None, action.describe(), seq)


def fault_script_from_dict(data: dict, source: str = "<dict>") -> list[FaultAction]:
    """Build a fault script from the JSON document structure."""
    if not isinstance(data, dict):
        raise ConfigError(source, "fault script document must be a JSON object")
    actions: list[FaultAction] = []
    last_at = 0.0
    for i, raw in enumerate(data.get("events", [])):
        where = f"events[{i}]"
        try:
            at_ms = float(raw["at_ms"])
            kind = str(raw["action"])
        except KeyError as exc:
            raise ConfigError(source, f"{where}: missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(source, f"{where}: {exc}") from None
        if at_ms < last_at:
            raise ConfigError(source, f"{where}.at_ms: times must be non-decreasing")
        last_at = at_ms
        if kind in ("crash", "recover"):
            if "node" not in raw:
                raise ConfigError(source, f"{where}: {kind} needs a 'node'")
            actions.append(FaultAction(at_ms=at_ms, action=kind, node=str(raw["node"])))
        elif kind == "partition":
            group_a = frozenset(map(str, raw.get("group_a", [])))
            group_b = frozenset(map(str, raw.get("group_b", [])))
            if not group_a or not group_b:
                raise ConfigError(source, f"{where}: partition needs non-empty group_a and group_b")
            if group_a & group_b:
                raise ConfigError(source, f"{where}: partition groups must be disjoint")
            actions.append(FaultAction(at_ms=at_ms, action=kind, group_a=group_a, group_b=group_b))
        elif kind == "heal":
            actions.append(FaultAction(at_ms=at_ms, action=kind))
        else:
            raise ConfigError(source, f"{where}.action: unknown action {kind!r}")
    return actions


def load_fault_script(path: str | Path) -> list[FaultAction]:
    """Load and validate a fault script JSON file."""
    path = Path(path)
    return fault_script_from_dict(load_json(path), source=str(path))
