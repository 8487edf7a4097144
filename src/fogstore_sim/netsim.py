"""Deterministic discrete-event network simulator.

Events are processed in strict ``(at_ms, seq)`` order, where ``seq``
is a monotone counter assigned at scheduling time. Identical inputs therefore
produce bit-identical event sequences; there is no wall-clock or thread
nondeterminism anywhere in the loop.

Message semantics:

* delivery is delayed by the shortest-path link latency between the two
  nodes (plus the destination's configured service time, default 0, and
  optional seeded jitter, default off);
* a message is sent only if both endpoints are up and no partition
  separates them at send time, and delivered only if, at delivery time,
  the destination is up and no partition separates the two: a message sent
  before its sender crashed is still delivered. Blocked messages are
  dropped silently -- the protocol layer recovers via timeouts, mirroring
  real networks where drops are not reported;
* crashed nodes keep their state (fail-recovery, not fail-stop): crash and
  recover only gate message flow.

Faults come from a script of timestamped actions (crash, recover,
partition, heal). Fault events are enqueued when the script is attached,
so at equal timestamps they apply before message deliveries scheduled
later, which is the order a test author expects. A :class:`FaultAction`
is checked once, when it is built, in code or by the script loader: its
``at_ms`` is finite and >= 0, a crash or recover names a node and no
groups, a partition has two non-empty, disjoint groups and no node, and a
heal has neither. Anything else, an unknown action included, raises
:class:`ValueError` naming the field at fault. A script's times must also
never decrease. An action naming a node the topology lacks is refused, in
a script and in a direct :meth:`Simulator.apply_fault` alike.

Reachability is decided once per applied fault, not once per message. Each
fault builds the whole map anew, a plain dict from every node to the
destinations it cannot reach: the crashed nodes plus the opposite group of
every partition the node belongs to. That costs O(nodes) per fault, plus one
set union per partition member, and nothing per message. A send is then
blocked when its source is down or its destination is in the source's set,
and a delivery when its destination is in it. With no node down and no
partition active the map is ``None``, and a message pays one ``is None``
test for the faults.

Timers wait in FIFO lanes, one per payload type. A timer whose due time is
not below its lane's tail joins the lane, and only each lane's head sits in
the heap; a timer set out of order goes to the heap directly. The heap
therefore always holds the least ``(at_ms, seq)`` of every lane, and events
still run in exactly the ``(at_ms, seq)`` order above. A store's deadline
timers have one constant delay per type, so each type forms one lane.
Deadlines are nearly always cancelled long before they are due: the
cancelled ones behind a lane's head are dropped when the next timer joins
the lane (from the tail first, then from behind the head) or the head is
popped, so they cost no heap push or pop, the heap that every message
passes through holds little more than the messages in flight, and a lane
holds little more than the live timers of its type.
:meth:`Simulator.set_timer` returns the timer's :class:`SimEvent`; setting
its ``cancelled`` flag discards the timer in O(1): it never fires and never
advances the clock.

A run of timers at a fixed interval, such as an open loop's arrivals, is
set in one call, :meth:`Simulator.set_timer_series`: timer ``i`` is due at
``start + i * interval``, the float that ``set_timer(node, i * interval)``
at the start would give. It takes every seq of the run at once, so each
timer keeps the seq that one ``set_timer`` call per timer would give it, but
a timer and its payload are built only when the one before it is popped.
The series' next timer is always in the heap, and nothing behind it is in
memory.

A message's latency is read from the topology's shortest-path rows
(``topology.latency_rows[src][dst]``), held by reference, not copied. The
pair is looked up first, so an unknown endpoint raises
:class:`UnknownNodeError` whether or not a fault is active. A delay is
``max(0, latency ± jitter) + service(dst)``, where only a node with a
service time adds one; with neither jitter nor a service time, a send skips
both in one test.

A simulator built with no fault script and no jitter is
:attr:`Simulator.exact`, and stays so for life: every message arrives exactly
:meth:`Simulator.delay_ms` after it is sent, so a store may plan on those
delays, and :attr:`Simulator.longest_round_trip_ms` bounds every reply. A
direct :meth:`Simulator.apply_fault` on an exact simulator raises: a
simulator that is to take faults is built with a fault script or with
jitter. This module alone knows that a delay is latency plus the
destination's service time.

A message is its heap entry, ``(at_ms, seq, src, dst, payload)``: sending
one builds no event object. A timer or fault entry is ``(at_ms, seq, None,
event)`` around its :class:`SimEvent`, which :meth:`Simulator.set_timer`
returns so that a caller can cancel it. A message's ``src`` is never
``None``, so the loop tells the two shapes apart by that field. The handler
still receives every event as ``handler(sim, event)``: a timer as its own
:class:`SimEvent`, a message as one delivery record per
:meth:`Simulator.run_until_quiescent` call, whose ``src``, ``dst`` and
``payload`` the loop refills before each delivery. A message's record is
therefore valid only during its handler call; a handler that needs a field
later copies it.

A run stopped by its budget leaves the event past the budget queued, so
:meth:`Simulator.run_until_quiescent` called again resumes it.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict, deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ConfigError, document, element, expect, load_json, number, string
from .topology import Topology, UnknownNodeError

Handler = Callable[["Simulator", "SimEvent"], None]
TraceSink = Callable[[str], None]
# A timer series: (its start time, node, first seq, end seq, interval, payloads left).
_Series = tuple[float, "str | None", int, int, float, Iterator[object]]
_INF = math.inf

KIND_MESSAGE = "message"
KIND_TIMER = "timer"
KIND_FAULT = "fault"
KIND_DROP = "drop"


class BudgetExceededError(Exception):
    """The clock passed the run budget with events still pending.

    ``pending`` counts the events still due to run, the first one past the
    budget included; cancelled timers are not counted.
    """

    def __init__(self, budget_ms: float, next_event_ms: float, pending: int):
        self.budget_ms = budget_ms
        self.next_event_ms = next_event_ms
        self.pending = pending
        super().__init__(
            f"simulation budget {budget_ms} ms exceeded: "
            f"next event at {next_event_ms} ms, {pending} pending"
        )


@dataclass(slots=True)
class SimEvent:
    """A timer or fault, in its heap entry ``(at_ms, seq, None, event)``, or a delivery record.

    A message has no event of its own: the handler gets a ``kind="message"``
    record that the loop refills for each delivery, valid only during the call.
    """

    kind: str
    src: str | None
    dst: str | None
    payload: object
    cancelled: bool = False


# A timer's or fault's heap entry; the None tells it from a message's.
_Entry = tuple[float, int, None, SimEvent]


@dataclass(frozen=True)
class FaultAction:
    """One scripted fault, checked when built: crash/recover a node, or partition/heal the net."""

    at_ms: float
    action: str  # crash | recover | partition | heal
    node: str | None = None
    group_a: frozenset[str] = frozenset()
    group_b: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not 0.0 <= self.at_ms < _INF:  # also rejects NaN
            raise ValueError(f"at_ms: must be finite and >= 0 (got {self.at_ms})")
        action = self.action
        if action not in ("crash", "recover", "partition", "heal"):
            raise ValueError(f"action: unknown action {action!r}")
        names_node = action in ("crash", "recover")
        if names_node and self.node is None:
            raise ValueError(f"node: {action} names no node")
        if not names_node and self.node is not None:
            raise ValueError(f"node: {action} takes no node")
        for name in ("group_a", "group_b"):
            group = getattr(self, name)
            if isinstance(group, str):  # frozenset() would split it into letters
                raise ValueError(f"{name}: must be a collection of node ids (got {group!r})")
            group = frozenset(group)  # a copy: the caller's set may change later
            object.__setattr__(self, name, group)
            if action == "partition" and not group:
                raise ValueError(f"{name}: partition needs non-empty group_a and group_b")
            if action != "partition" and group:
                raise ValueError(f"{name}: {action} takes no groups")
        if self.group_a & self.group_b:
            raise ValueError("group_b: partition groups must be disjoint")

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


class Simulator:
    """Single-threaded event loop over a fixed topology.

    ``handler`` receives every delivered message and fired timer; fault
    events are applied internally (and traced). Multiple simulators are
    fully isolated and may run in parallel processes if desired.

    ``now`` is the simulated clock in ms. ``exact`` is True when every
    message takes exactly its pair's :meth:`delay_ms`: the simulator was
    built with no fault script and no jitter. It is set once, when the
    simulator is built, and :meth:`apply_fault` refuses an exact simulator,
    so it never changes. Both are plain attributes that only the simulator
    writes.
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
        if not (math.isfinite(jitter_ms) and jitter_ms >= 0):
            raise ValueError(f"jitter_ms must be finite and >= 0 (got {jitter_ms})")
        self.topology = topology
        self.handler = handler
        self._trace = trace
        self.now = 0.0
        self._seq = 0
        # Messages as (at_ms, seq, src, dst, payload); timers and faults as _Entry.
        self._queue: list[tuple] = []
        # Timer lanes by payload type; a non-empty lane's head is also in the heap.
        self._lanes: defaultdict[type, deque[_Entry]] = defaultdict(deque)
        # Timer series by the seq of their timer in the heap; the rest is unbuilt.
        self._series: dict[int, _Series] = {}
        self._crashed: set[str] = set()
        self._partitions: list[tuple[frozenset[str], frozenset[str]]] = []
        # Every node -> the destinations it cannot reach under the faults now
        # active, rebuilt whole by each fault; None while no fault is active.
        self._unreachable: dict[str, frozenset[str]] | None = None
        self._jitter_ms = jitter_ms
        self._jitter_span = jitter_ms + jitter_ms
        self._jitter_random = random.Random(jitter_seed).random
        # Only the nodes that have a service time.
        self._service_ms = {nid: node.service_ms for nid, node in topology.nodes.items()
                            if node.service_ms}
        # A delay is more than the bare latency: jitter is on or a node has a service time.
        self._adjusted = jitter_ms > 0.0 or bool(self._service_ms)
        self._latency = topology.latency_rows  # the topology's rows, not a copy
        self.report = SimReport()
        # No fault can apply and no jitter moves a delay.
        self.exact = not fault_script and jitter_ms == 0.0
        check_fault_nodes(fault_script, topology, "<fault script>")
        for seq, action in enumerate(fault_script):
            heappush(self._queue,
                     (action.at_ms, seq, None, SimEvent(KIND_FAULT, None, None, action)))
        self._seq = len(fault_script)

    def delay_ms(self, src: str, dst: str) -> float:
        """The fixed delay of a message from ``src`` to ``dst``: latency + ``dst``'s service."""
        if self._jitter_ms:
            raise ValueError("a jittered simulator has no fixed delay")
        try:
            latency = self._latency[src][dst]
        except KeyError:  # an unknown node: the topology's lookup raises, naming it
            latency = self.topology.latency_ms(src, dst)
        return latency + self._service_ms.get(dst, 0.0)

    @property
    def longest_round_trip_ms(self) -> float:
        """The longest fixed round trip between two nodes, service times at both ends included.

        Computed from every pair's row each time it is read; jitter is not included.
        """
        service = self._service_ms.get
        return max(service(a, 0.0) + max(latency + latency + service(b, 0.0)
                                          for b, latency in row.items())
                   for a, row in self._latency.items())

    # -- fault state ----------------------------------------------------

    def is_up(self, node_id: str) -> bool:
        return node_id not in self._crashed

    # -- scheduling -----------------------------------------------------

    def schedule_message(self, src: str, dst: str, payload: object) -> None:
        """Enqueue delivery of ``payload`` at now + its delay (latency, jitter, service).

        An endpoint the topology lacks raises :class:`UnknownNodeError`.
        Silently drops the message, drawing no jitter, when either endpoint
        is crashed or a partition separates them; drops are semantics here,
        not errors. With no node crashed and no partition active, nothing
        can block it.
        """
        try:
            delay = self._latency[src][dst]
        except KeyError:  # an unknown node: the topology's lookup raises, naming it
            delay = self.topology.latency_ms(src, dst)
        unreachable = self._unreachable
        if unreachable is not None and (src in self._crashed or dst in unreachable[src]):
            self._drop(src, dst, payload, "blocked at send")
            return
        if self._adjusted:
            jitter = self._jitter_ms
            if jitter > 0.0:
                # max(0.0, delay + random.uniform(-jitter, jitter)), inlined: the same floats
                delay += -jitter + self._jitter_span * self._jitter_random()
                if not delay > 0.0:
                    delay = 0.0
            if dst in self._service_ms:
                delay += self._service_ms[dst]
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self.now + delay, seq, src, dst, payload))

    def set_timer(self, node_id: str | None, delay_ms: float, payload: object) -> SimEvent:
        """Schedule a timer payload for ``node_id`` after ``delay_ms``; return its event.

        A timer bound to a node is dropped if the node is down when it
        fires. ``node_id=None`` makes a harness timer that always fires
        (used by drivers that live outside the fault domain).
        """
        if not 0.0 <= delay_ms < _INF:  # also rejects NaN
            raise ValueError(f"delay_ms must be finite and >= 0 (got {delay_ms})")
        at_ms = self.now + delay_ms
        seq = self._seq
        self._seq = seq + 1
        event = SimEvent(KIND_TIMER, None, node_id, payload)
        entry = (at_ms, seq, None, event)
        lane = self._lanes[type(payload)]
        if not lane:
            lane.append(entry)
            heappush(self._queue, entry)
        elif lane[-1][0] <= at_ms:  # seq only grows, so the lane stays ordered
            # Free dead timers, never the head (it is in the heap): first those
            # at the tail, where a closed loop's last cancelled deadline waits,
            # then those right behind the head, which an open loop's oldest
            # ops leave.
            while len(lane) > 1 and lane[-1][3].cancelled:
                lane.pop()
            if len(lane) > 1 and lane[1][3].cancelled:
                head = lane.popleft()
                while lane and lane[0][3].cancelled:
                    lane.popleft()
                lane.appendleft(head)
            lane.append(entry)
        else:
            heappush(self._queue, entry)
        return event

    def set_timer_series(self, node_id: str | None, count: int, interval_ms: float,
                         payloads: Iterable[object]) -> None:
        """Set ``count`` timers for ``node_id``, as ``count`` ``set_timer`` calls would.

        Timer ``i`` is due ``i * interval_ms`` from now and carries the
        ``i``-th payload. All ``count`` seqs are taken now, so the timers run
        in the same ``(at_ms, seq)`` order, but timer ``i + 1`` and its payload
        are only built when timer ``i`` is popped: the series keeps one timer
        in the heap and none in memory behind it. Its timers share no lane and
        cannot be cancelled. Fewer than ``count`` payloads raise
        :class:`ValueError`, here for the first timer and from
        :meth:`run_until_quiescent` for a later one.
        """
        if not 0.0 <= interval_ms < _INF:  # also rejects NaN
            raise ValueError(f"interval_ms must be finite and >= 0 (got {interval_ms})")
        if count <= 0:
            return
        payloads = iter(payloads)
        seq = self._seq
        try:
            payload = next(payloads)
        except StopIteration:
            raise _short_series(seq, count) from None
        self._seq = seq + count
        heappush(self._queue, (self.now, seq, None, SimEvent(KIND_TIMER, None, node_id, payload)))
        self._series[seq] = (self.now, node_id, seq, seq + count, interval_ms, payloads)

    def _drop(self, src: str | None, dst: str | None, payload: object, reason: str,
              seq: int | None = None) -> None:
        self.report.messages_dropped += 1
        if self._trace is not None:
            self._emit_trace(KIND_DROP, src, dst, payload, seq, reason)

    def _emit_trace(self, kind: str, src: str | None, dst: str | None, payload: object,
                    seq: int | None = None, reason: str | None = None) -> None:
        """Format one trace line; the payload is only stringified when a sink is attached.

        The time prints as ``repr`` of the clock, which reads back as the same
        float. An event that took no seq (a message dropped at send, a fault
        applied directly) prints ``-`` as its seq.
        """
        if self._trace is not None:
            summary = str(payload) if reason is None else f"{reason}: {payload}"
            self._trace(
                f"{self.now!r},{'-' if seq is None else seq},{kind},"
                f"{src or '-'},{dst or '-'},{summary}"
            )

    # -- the loop ---------------------------------------------------------

    def run_until_quiescent(self, max_ms: float | None = None) -> SimReport:
        """Process all events in total order; return the run report.

        Raises :class:`BudgetExceededError` if a live event lies beyond
        ``max_ms`` (cancelled timers are discarded without advancing the
        clock, so they never burn budget). That event stays queued, so a
        later call resumes the run where this one stopped.

        Every message reaches the handler in one delivery record, refilled
        per message: it is valid only during the handler call.
        """
        if max_ms is None:
            max_ms = _INF
        elif math.isnan(max_ms):
            raise ValueError("max_ms must be a number, not NaN")  # NaN compares false: no budget
        # Faults mutate the crashed set in place, so the local sees live state;
        # they replace the unreachable map, which is read per message.
        queue, report, crashed = self._queue, self.report, self._crashed
        handler, trace, lanes, series = self.handler, self._trace, self._lanes, self._series
        delivery = SimEvent(KIND_MESSAGE, None, None, None)
        while queue:
            entry = heappop(queue)
            if entry[2] is not None:  # a message: (at_ms, seq, src, dst, payload)
                at_ms, seq, src, dst, payload = entry
                if at_ms > max_ms:
                    heappush(queue, entry)
                    report.end_ms = self.now
                    raise BudgetExceededError(max_ms, at_ms, self._live_events())
                self.now = at_ms
                report.events_processed += 1
                unreachable = self._unreachable
                if unreachable is not None and dst in unreachable[src]:
                    self._drop(src, dst, payload, "blocked at delivery", seq)
                    continue
                report.messages_delivered += 1
                if trace is not None:
                    self._emit_trace(KIND_MESSAGE, src, dst, payload, seq)
                if handler is not None:
                    delivery.src = src
                    delivery.dst = dst
                    delivery.payload = payload
                    handler(self, delivery)
                continue
            at_ms, seq, _, event = entry
            kind = event.kind
            if kind is KIND_TIMER:
                lane = lanes.get(type(event.payload))
                if lane and lane[0] is entry:  # a lane's head: put the next live one in the heap
                    lane.popleft()
                    while lane and lane[0][3].cancelled:
                        lane.popleft()
                    if lane:
                        heappush(queue, lane[0])
                elif series and seq in series:  # a series' timer: build the next one
                    start_ms, node_id, first, end, interval_ms, payloads = run = series.pop(seq)
                    nxt = seq + 1
                    if nxt < end:
                        try:
                            payload = next(payloads)
                        except StopIteration:
                            raise _short_series(first, end - first) from None
                        heappush(queue, (start_ms + (nxt - first) * interval_ms, nxt, None,
                                         SimEvent(KIND_TIMER, None, node_id, payload)))
                        series[nxt] = run
                if event.cancelled:
                    continue
            if at_ms > max_ms:
                heappush(queue, entry)  # on its own: a lane or series moved on without it
                report.end_ms = self.now
                raise BudgetExceededError(max_ms, at_ms, self._live_events())
            self.now = at_ms
            report.events_processed += 1
            if kind is KIND_FAULT:
                self.apply_fault(event.payload, seq=seq)  # type: ignore[arg-type]
                continue
            if crashed and event.dst in crashed:
                self._drop(event.src, event.dst, event.payload, "timer at crashed node", seq)
                continue
            report.timers_fired += 1
            if trace is not None:
                self._emit_trace(kind, event.src, event.dst, event.payload, seq)
            if handler is not None:
                handler(self, event)
        report.end_ms = self.now
        return report

    def _live_events(self) -> int:
        """Events still due to run: the heap's, then each lane's behind its head."""
        live = sum(entry[2] is not None or not entry[3].cancelled for entry in self._queue)
        for lane in self._lanes.values():
            live += sum(not event.cancelled for _, _, _, event in islice(lane, 1, None))
        return live + sum(end - seq - 1 for seq, (_, _, _, end, _, _) in self._series.items())

    def apply_fault(self, action: FaultAction, seq: int | None = None) -> None:
        """Apply a fault action immediately (scripted faults arrive here too).

        A node the topology lacks raises :class:`UnknownNodeError`, as it does
        in a script. Otherwise an :attr:`exact` simulator raises
        :class:`ValueError`: a store plans on its fixed delays for life, so a
        simulator that takes faults is built with a script or with jitter.
        Every node's unreachable set is rebuilt after it.
        """
        problem = _node_problem(action, self.topology)
        if problem is not None:
            raise UnknownNodeError(problem)
        if self.exact:
            raise ValueError("an exact simulator takes no fault: build it with a script or jitter")
        if action.action == "crash":
            self._crashed.add(action.node)  # type: ignore[arg-type]
        elif action.action == "recover":
            self._crashed.discard(action.node)  # type: ignore[arg-type]
        elif action.action == "partition":
            self._partitions.append((action.group_a, action.group_b))
        else:  # heal
            self._partitions.clear()
        crashed, partitions = self._crashed, self._partitions
        self._unreachable = (_unreachable(self.topology.nodes, crashed, partitions)
                             if crashed or partitions else None)
        self.report.faults_applied += 1
        self._emit_trace(KIND_FAULT, None, None, action.describe(), seq)


def _short_series(first: int, count: int) -> ValueError:
    return ValueError(f"timer series from seq {first} has fewer than {count} payloads")


def _unreachable(nodes: Iterable[str], crashed: set[str],
                 partitions: list[tuple[frozenset[str], frozenset[str]]]
                 ) -> dict[str, frozenset[str]]:
    """Every node -> what it cannot reach: the crashed nodes and its partitions' far sides."""
    table = dict.fromkeys(nodes, frozenset(crashed))
    for group_a, group_b in partitions:
        for members, opposite in ((group_a, group_b), (group_b, group_a)):
            for nid in members:
                table[nid] = table[nid] | opposite
    return table


def _node_problem(action: FaultAction, topology: Topology) -> str | None:
    """The first node ``action`` names that the topology lacks, as an error, else None."""
    nodes = [] if action.node is None else [action.node]
    for nid in nodes + sorted(action.group_a | action.group_b):
        if nid not in topology.nodes:
            return f"unknown node {nid!r}"
    return None


def check_fault_nodes(fault_script: Sequence[FaultAction], topology: Topology,
                      source: str) -> None:
    """Raise a ConfigError naming ``source`` if an action names a node the topology lacks."""
    for action in fault_script:
        problem = _node_problem(action, topology)
        if problem is not None:
            raise ConfigError(source, problem)


def fault_script_from_dict(data: dict, source: str = "<dict>") -> list[FaultAction]:
    """Build a fault script from JSON: one :class:`FaultAction` per event, times non-decreasing."""
    data = document(data, source, "fault script")
    actions: list[FaultAction] = []
    for i, raw in enumerate(expect(data.get("events", []), list, source, "events")):
        where = f"events[{i}]"
        raw = expect(raw, dict, source, where)
        with element(source, where):
            at_ms = number(raw["at_ms"], source, f"{where}.at_ms")
            kind = string(raw["action"], source, f"{where}.action")
            node = None if "node" not in raw else string(raw["node"], source, f"{where}.node")
            group_a, group_b = (
                frozenset(string(nid, source, f"{where}.{name}[{j}]") for j, nid in
                          enumerate(expect(raw.get(name, []), list, source, f"{where}.{name}")))
                for name in ("group_a", "group_b")
            )
        try:
            action = FaultAction(at_ms, kind, node, group_a, group_b)
        except ValueError as exc:
            raise ConfigError(source, f"{where}.{exc}") from None
        if actions and at_ms < actions[-1].at_ms:
            raise ConfigError(source, f"{where}.at_ms: times must be non-decreasing")
        actions.append(action)
    return actions


def load_fault_script(path: str | Path) -> list[FaultAction]:
    """Load and validate a fault script JSON file."""
    return fault_script_from_dict(load_json(path), str(path))
