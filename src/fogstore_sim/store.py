"""Replicated key-value store: per-node replica state plus the coordinator protocol.

Every storage node can act as a coordinator. A client's query travels from
its attach point to the storage node geographically closest to the client.
That coordinator alone decides a query's consistency level: the level the
query pins, else its band's read or write level. The band is the set's
:attr:`~fogstore_sim.consistency.RegionSet.uniform_band` if it has one, as
fixed read and write levels make, so such an op matches no region; else the
query's band in the cluster's region set, measured from the data location the
query names or else the key's location in the control plane. The coordinator
then fans out to the key's replicas:

* writes are sent to every replica immediately; the client is acknowledged
  as soon as the level's required acknowledgement count is reached, and the
  remaining replicas converge in the background (a write that times out is
  indeterminate: it may have reached some replicas, and a retry is an upsert);
* reads are answered from the first ``required`` replica responses, picking
  the record with the highest version among them.

An op in flight is its deadline timer: the client's :class:`ClientTimeout`
and the coordinator's :class:`OpTimeout` carry the op's state as their
payload, and a reply cancels the timer. An op the coordinator's own replica
completes (level ONE at a replica) is answered at once, a read without any
fan-out; only an op that waits for replies sets a coordinator deadline.

The coordinator runs an op by its plan, one per (coordinator, replica tuple,
level): the acks the level requires, the reply its own replica gives at once
(if it holds one), and the replicas it asks for the rest. An exact simulator
(:attr:`~fogstore_sim.netsim.Simulator.exact`: built with no faults and no
jitter, and so for life) delivers every message after its pair's fixed
delay, so a plan made once holds for every op, and the coordinator
knows at send time which replies can count: of an op that waits for ``n``,
those whose round trip is at most :data:`_ROUND_TRIP_MARGIN_MS` past the
``n``-th shortest, so a tie at that cut widens the set. The plan asks only
them: a read sends them alone a request; a write still goes to every replica,
for convergence, but only they ack it, and none do for an op answered at once.
When the simulator's longest round trip
(:attr:`~fogstore_sim.netsim.Simulator.longest_round_trip_ms`, read once,
when the cluster is built, and only of an exact simulator) is under half of
:data:`CLIENT_TIMEOUT_SLACK_MS`, every reply, even a timeout, comes before
any client deadline could fire, so an exact run there sets none: an op in
flight is a bare :class:`ClientTimeout` record. Every result equals the one
the full fan-out and every deadline would give. A trace marks a
:class:`WriteReq` that asks for no ack with a trailing ``no-ack``; only an
exact run sends one.

Write acks and read responses reach one reply handler, which counts each
replica once and keeps the freshest record (an ack carries none); the
``required``-th replica answers the op, and later or repeated replies are
ignored. One builder makes the answer of an op that reached its level, at
once or after the wait, the :class:`QueryResult` the coordinator replies
with: a read returns its freshest record's value, ``not_found`` for none or
a tombstone, and a write ``ok``. Every write is a blind upsert, as in
Cassandra: a CREATE places its key and writes it whether it is new, live or
deleted. A READ, UPDATE or DELETE of a key no CREATE placed has no replicas
to ask, so it answers ``not_found`` at once.

Clients enter through :meth:`Cluster.submit` alone (asynchronous, callback
on completion); the drivers that issue queries and run the simulator live in
:mod:`fogstore_sim.experiment`. Every simulator event reaches the cluster
through one table keyed by payload type: the wire messages and three typed
timers (:class:`OpTimeout`, :class:`ClientTimeout`, :class:`Arrival`).

The control plane is a zero-latency global registry with one
:class:`KeyState` per key: its replica ids, its current data location and its
version counter; only a write reaching its coordinator changes it. Each
storage node keeps its records in a plain dict. One counter per key means no
two writes of a key share a version. Real deployments would gossip or use
synchronized clocks here; a shared registry keeps version order aligned with
operation order, which makes last-write-wins resolution deterministic and
exact at simulation scale.

Deletes replicate a tombstone record (no value) that wins by version like
any write; tombstones are never garbage collected since runs are finite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, ClassVar

from .consistency import (
    ClientContext,
    ConsistencyLevel,
    DataContext,
    LevelInfeasibleError,
    RegionSet,
    get_region,
    required_acks,
)
from .netsim import SimEvent, Simulator
from .placement import place_replicas
from .topology import Topology

__all__ = [
    "QueryKind",
    "VersionedRecord",
    "Query",
    "QueryResult",
    "Cluster",
    "ControlPlane",
    "KeyState",
    "required_acks",
    "WriteReq",
    "WriteAck",
    "ReadReq",
    "ReadResp",
    "QueryReq",
    "OpTimeout",
    "ClientTimeout",
    "Arrival",
]

# Most distinct latency values one cluster shares between its results. A run
# repeats a few path latencies, so results holding equal latencies share one
# float object; past the cap each result keeps its own.
SHARED_LATENCY_CAP = 1024

# How long past the coordinator's deadline a client waits for its reply.
CLIENT_TIMEOUT_SLACK_MS = 1_000.0

# Two round trips further apart than this arrive in the order of their sums
# at any clock below about 1e9 ms, whatever the float rounding of each hop.
_ROUND_TRIP_MARGIN_MS = 1e-6


class QueryKind(Enum):
    CREATE = "create"
    READ = "read"
    UPDATE = "update"
    DELETE = "delete"


# The members as module names: reading one through the class costs about ten
# times a global read, once or more per op.
_CREATE, _READ, _UPDATE, _DELETE = (
    QueryKind.CREATE, QueryKind.READ, QueryKind.UPDATE, QueryKind.DELETE)


@dataclass(frozen=True, slots=True)
class VersionedRecord:
    """What a replica stores for one key. ``value=None`` marks a tombstone.

    ``version`` is the key's write counter; a higher one wins.
    """

    key: str
    value: str | None
    version: int


@dataclass(slots=True)
class Query:
    """One client operation with its originating context.

    ``level`` pins the consistency level the coordinator runs it at; left
    ``None``, the cluster's region set picks the level from the context.
    """

    kind: QueryKind
    key: str
    client_ctx: ClientContext
    value: str | None = None
    data_ctx: DataContext | None = None
    level: ConsistencyLevel | None = None

    def __post_init__(self) -> None:
        kind = self.kind
        if (kind is _CREATE or kind is _UPDATE) and self.value is None:
            raise ValueError(f"{kind.value} query needs a value")
        if kind is _CREATE and self.data_ctx is None:
            raise ValueError("create query needs a data context")


@dataclass(slots=True)
class QueryResult:
    """The client's outcome, sent as the coordinator's reply; ``op_id`` is ``submit``'s id."""

    status: str = "ok"  # ok | not_found | error (error: timeout | level_infeasible)
    value: str | None = None
    level_used: ConsistencyLevel | None = None
    latency_ms: float = 0.0
    acks_received: int = 0
    error: str | None = None
    op_id: int = 0

    def __str__(self) -> str:
        return f"QueryResp op={self.op_id} status={self.status}"


# -- wire messages ---------------------------------------------------------
# Messages and timer payloads are built several times per op and never
# changed after, so they skip ``frozen``: its checked ``__init__`` costs more
# than twice a plain one.


@dataclass(slots=True)
class QueryReq:
    op_id: int
    query: Query

    def __str__(self) -> str:
        return f"QueryReq op={self.op_id} {self.query.kind.value} key={self.query.key}"


@dataclass(slots=True)
class WriteReq:
    op_id: int | None  # None: apply the record, send no ack
    record: VersionedRecord

    def __str__(self) -> str:
        r = self.record
        ack = "" if self.op_id is not None else " no-ack"
        return f"WriteReq key={r.key} value={r.value!r} version={r.version}{ack}"


@dataclass(slots=True)
class WriteAck:
    op_id: int
    record: ClassVar[None] = None  # an ack carries no record, so it reads like a ReadResp

    def __str__(self) -> str:
        return f"WriteAck op={self.op_id}"


@dataclass(slots=True)
class ReadReq:
    op_id: int
    key: str

    def __str__(self) -> str:
        return f"ReadReq key={self.key}"


@dataclass(slots=True)
class ReadResp:
    op_id: int
    record: VersionedRecord | None

    def __str__(self) -> str:
        rec = self.record.version if self.record else "absent"
        return f"ReadResp op={self.op_id} record={rec}"


# -- timers ------------------------------------------------------------------


@dataclass(slots=True)
class OpTimeout:
    """Coordinator deadline and the op's state there; the op fails if it fires.

    ``client`` is the node the query came from. ``count`` counts the replies
    so far: write acks, or read responses, of which ``freshest`` is the
    record with the highest version. The op is answered once ``count``
    reaches ``required``.
    """

    op_id: int
    client: str
    query: Query
    level: ConsistencyLevel
    required: int
    count: int
    bits: dict[str, int]  # the plan's bit per replica
    answered: int  # the bits of the replicas that replied: a repeat counts once
    freshest: VersionedRecord | None

    def __str__(self) -> str:
        return f"OpTimeout op={self.op_id}"


@dataclass(slots=True)
class ClientTimeout:
    """Client deadline and the op's state there: the callback fires even if
    the coordinator is gone."""

    op_id: int
    query: Query
    callback: Callable[[Query, QueryResult], None]
    issued_ms: float

    def __str__(self) -> str:
        return f"ClientTimeout op={self.op_id}"


@dataclass(slots=True)
class Arrival:
    """Harness timer that submits ``query`` when it fires (open-loop runs)."""

    query: Query
    callback: Callable[[Query, QueryResult], None]

    def __str__(self) -> str:
        return f"Arrival {self.query.kind.value} key={self.query.key}"


@dataclass(slots=True)
class KeyState:
    """What the control plane knows of one key; whether it exists, the replicas say.

    ``version`` is the last one issued, counted across a delete and a re-create.
    """

    replica_ids: tuple[str, ...]
    location: DataContext
    version: int = 0


class ControlPlane:
    """Zero-latency global registry of key metadata, one :class:`KeyState` per key.

    It stands in for the deployment's metadata service, so it is not replicated.
    A key's first CREATE registers it, and nothing unregisters it.
    """

    def __init__(self) -> None:
        self.maps: dict[str, KeyState] = {}


class Cluster:
    """All storage-node state machines plus the client gateway, on one simulator.

    A query runs at the level it pins, else at its band's level in the
    region set, where fixed read/write levels make a one-band set. Every
    mutation happens inside simulator event handlers, so the whole cluster
    is single-threaded and deterministic.
    """

    def __init__(
        self,
        topology: Topology,
        simulator: Simulator,
        replication_factor: int = 5,
        region_set: RegionSet | None = None,
        fixed_read_level: ConsistencyLevel | None = None,
        fixed_write_level: ConsistencyLevel | None = None,
        timeout_ms: float = 10_000.0,
    ):
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if not (math.isfinite(timeout_ms) and timeout_ms > 0):
            raise ValueError(f"timeout_ms must be finite and > 0 (got {timeout_ms})")
        if simulator.topology is not topology:  # delays would come from the other one
            raise ValueError("the simulator must run on the cluster's topology")
        if region_set is None and None not in (fixed_read_level, fixed_write_level):
            region_set = RegionSet.uniform(fixed_read_level, fixed_write_level)
        elif region_set is None or fixed_read_level or fixed_write_level:
            raise ValueError("give either a region set or both fixed levels")
        self.topology = topology
        self.sim = simulator
        simulator.handler = self._dispatch
        self.replication_factor = replication_factor
        self.region_set = region_set
        # The band of every op in a uniform set; any other set is matched per op.
        self._uniform_band = region_set.uniform_band
        self.timeout_ms = timeout_ms
        self.client_timeout_ms = timeout_ms + CLIENT_TIMEOUT_SLACK_MS
        self.control = ControlPlane()
        # Each storage node's records by key; crash and recover leave them untouched.
        self._records = {nid: {} for nid in topology.storage_ids}
        self._op_ids = itertools.count(1)
        # Ops in flight by id, each as its deadline timer's event.
        self._pending: dict[int, SimEvent] = {}  # payload: OpTimeout
        # A client op whose reply cannot miss its deadline sets none: the bare record.
        self._client_ops: dict[int, SimEvent | ClientTimeout] = {}  # SimEvent payload: ClientTimeout
        # Exact runs: every reply, even a timeout, comes before any client deadline.
        # Only an exact simulator is asked for its bound; a driver need not have one.
        self._replies_beat_deadlines = (
            simulator.exact and simulator.longest_round_trip_ms < CLIENT_TIMEOUT_SLACK_MS / 2)
        # By coordinator, then replicas, then level: the op's plan, see _plan.
        self._plans: dict[str, dict[tuple[str, ...], dict[ConsistencyLevel, tuple | None]]] = {}
        self._latencies: dict[float, float] = {}

    # -- client gateway ---------------------------------------------------

    def submit(self, query: Query, callback: Callable[[Query, QueryResult], None]) -> int:
        """Issue a query from its client's location; callback fires on completion.

        The query originates at the topology node nearest the client and is
        coordinated by the storage node geographically closest to the
        client. A harness-side deadline guarantees the callback fires even
        if the coordinator crashes mid-operation; an exact run sets it only
        where the reply could come after it.
        """
        op_id = next(self._op_ids)
        sim = self.sim
        attach = self.topology.nearest_node(query.client_ctx.client_geo)
        coordinator = self.topology.nearest_node(query.client_ctx.client_geo, storage_only=True)
        op = ClientTimeout(op_id, query, callback, sim.now)
        if self._replies_beat_deadlines:
            self._client_ops[op_id] = op  # the reply, even a timeout, comes before any deadline
        else:
            self._client_ops[op_id] = sim.set_timer(None, self.client_timeout_ms, op)
        sim.schedule_message(attach, coordinator, QueryReq(op_id, query))
        return op_id

    # -- introspection ------------------------------------------------------

    def convergence_violations(self) -> list[str]:
        """Keys whose replicas on up nodes disagree (expected empty at
        quiescence of a fault-free run)."""
        problems = []
        for key, state in sorted(self.control.maps.items()):
            seen: dict[object, list[str]] = {}
            for nid in state.replica_ids:
                if not self.sim.is_up(nid):
                    continue
                seen.setdefault(self._records[nid].get(key), []).append(nid)
            if len(seen) > 1:
                detail = "; ".join(f"{v}={k}" for k, v in sorted(seen.items(), key=str))
                problems.append(f"{key}: {detail}")
        return problems

    # -- event dispatch -----------------------------------------------------

    def _dispatch(self, sim: Simulator, event: SimEvent) -> None:
        _HANDLERS[type(event.payload)](self, event.dst, event.src, event.payload)

    def _on_arrival(self, node: None, src: None, msg: Arrival) -> None:
        self.submit(msg.query, msg.callback)

    # -- coordinator ----------------------------------------------------------

    def _on_query_req(self, node: str, src: str, req: QueryReq) -> None:
        op_id = req.op_id
        query = req.query
        kind = query.kind
        key = query.key
        state = self.control.maps.get(key)
        if kind is _CREATE:
            replica_ids = place_replicas(key, query.data_ctx.data_geo, self.topology,
                                         self.replication_factor).replica_ids
        elif state is None:  # no CREATE placed the key: no replica to ask
            self.sim.schedule_message(node, src, QueryResult("not_found", op_id=op_id))
            return
        else:
            replica_ids = state.replica_ids

        is_read = kind is _READ
        level = query.level
        if level is None:
            band = self._uniform_band or get_region(
                self.region_set, key, query.client_ctx, query.data_ctx or state.location)
            level = band.read_level if is_read else band.write_level
        try:
            plan = self._plans[node][replica_ids][level]
        except KeyError:
            plan = self._plan(node, replica_ids, level)
        if plan is None:
            self.sim.schedule_message(
                node, src, QueryResult("error", None, level, 0.0, 0, "level_infeasible", op_id))
            return
        required, count, asked, bits = plan

        freshest = None
        if is_read:
            if count:
                freshest = self._records[node].get(key)
        else:
            value = None if kind is _DELETE else query.value
            if state is None:  # a key's first CREATE registers it
                state = self.control.maps[key] = KeyState(replica_ids, query.data_ctx)
            elif kind is _CREATE:  # a re-CREATE places the key again, from here
                state.replica_ids = replica_ids
            if query.data_ctx is not None:
                state.location = query.data_ctx
            state.version += 1
            msg = WriteReq(op_id, VersionedRecord(key, value, state.version))
            if count:
                _apply(self._records[node], msg.record)
        if count >= required:  # answered at once: no deadline, no in-flight state
            if not is_read:  # the other replicas still converge in the background
                self._fan_out(node, replica_ids, asked, msg)
            self.sim.schedule_message(node, src, _answer(op_id, query, level, count, freshest))
            return
        op = OpTimeout(op_id, src, query, level, required, count, bits, 0, freshest)
        self._pending[op_id] = self.sim.set_timer(node, self.timeout_ms, op)
        self._fan_out(node, replica_ids, asked, ReadReq(op_id, key) if is_read else msg)

    def _plan(self, node: str, replica_ids: tuple[str, ...],
              level: ConsistencyLevel) -> tuple[int, int, tuple[str, ...], dict[str, int]] | None:
        """The plan of an op at ``level`` on ``replica_ids`` that ``node`` coordinates.

        It is ``(required, count, asked, bits)``, or ``None`` for a level that needs more
        acks than there are replicas. ``count`` is 1 if the coordinator holds a replica.
        ``asked`` is ``replica_ids``, except in an exact run, where each reply comes one
        fixed round trip after its request: there it is every other replica, in map order,
        whose round trip is at most :data:`_ROUND_TRIP_MARGIN_MS` past the ``n``-th
        shortest, ``n`` being ``required - count`` (none if it is 0). Any other reply comes
        after ``n`` of theirs, whatever the rounding; a tie at the cut widens the set.
        ``bits`` maps each replica to ``1 << i``, ``i`` its index in ``replica_ids``.
        Memoized in ``_plans[node][replica_ids][level]``, which the coordinator reads first.
        """
        try:
            required = required_acks(level, len(replica_ids))
        except LevelInfeasibleError:
            plan = None
        else:
            count = 1 if node in replica_ids else 0
            asked = replica_ids
            if self.sim.exact:
                n = required - count
                asked = ()  # answered at once: no one to ask
                if n:
                    delay = self.sim.delay_ms
                    trip = {r: delay(node, r) + delay(r, node) for r in replica_ids if r != node}
                    nth = sorted(trip.values())[n - 1]
                    asked = tuple(r for r, t in trip.items() if t - nth <= _ROUND_TRIP_MARGIN_MS)
            plan = (required, count, asked, {r: 1 << i for i, r in enumerate(replica_ids)})
        self._plans.setdefault(node, {}).setdefault(replica_ids, {})[level] = plan
        return plan

    def _fan_out(self, node: str, replica_ids: tuple[str, ...], asked: tuple[str, ...],
                 msg: ReadReq | WriteReq) -> None:
        """Send ``msg`` from the coordinator ``node`` to each other replica in ``asked``.

        A write also goes to the rest of ``replica_ids``, as a copy that asks no ack.
        """
        send = self.sim.schedule_message
        if asked is replica_ids or type(msg) is ReadReq:
            for replica_id in asked:
                if replica_id != node:
                    send(node, replica_id, msg)
        else:  # one pass in map order, the order a full fan-out sends in
            rest = WriteReq(None, msg.record)
            for replica_id in replica_ids:
                if replica_id != node:
                    send(node, replica_id, msg if replica_id in asked else rest)

    def _on_reply(self, node: str, src: str, msg: WriteAck | ReadResp) -> None:
        """Count each replica's reply once and keep the freshest record; answer at the count."""
        timer = self._pending.get(msg.op_id)
        if timer is None:
            return  # operation already completed or timed out
        op = timer.payload
        bit = op.bits[src]
        if op.answered & bit:
            return  # this replica's reply was counted already
        op.answered |= bit
        op.count += 1
        record = msg.record
        if record is not None and (op.freshest is None or record.version > op.freshest.version):
            op.freshest = record
        if op.count >= op.required:
            timer.cancelled = True
            del self._pending[op.op_id]
            self.sim.schedule_message(
                node, op.client, _answer(op.op_id, op.query, op.level, op.count, op.freshest))

    def _on_op_timeout(self, node: str, src: None, op: OpTimeout) -> None:
        # A timer that fires was never cancelled, so its op is still in flight.
        del self._pending[op.op_id]
        self.sim.schedule_message(node, op.client, QueryResult(
            "error", None, op.level, 0.0, op.count, "timeout", op.op_id))

    # -- replica side -------------------------------------------------------------

    def _on_write_req(self, node: str, src: str, msg: WriteReq) -> None:
        _apply(self._records[node], msg.record)
        if msg.op_id is not None:
            self.sim.schedule_message(node, src, WriteAck(msg.op_id))

    def _on_read_req(self, node: str, src: str, msg: ReadReq) -> None:
        record = self._records[node].get(msg.key)
        self.sim.schedule_message(node, src, ReadResp(msg.op_id, record))

    # -- client side ------------------------------------------------------------

    def _on_query_resp(self, node: str, src: str, result: QueryResult) -> None:
        op = self._client_ops.pop(result.op_id, None)
        if op is None:
            return  # client already gave up on this operation
        if type(op) is SimEvent:  # the op's deadline timer
            op.cancelled = True
            op = op.payload
        result.latency_ms = self._elapsed_ms(op)
        op.callback(op.query, result)

    def _on_client_timeout(self, node: None, src: None, op: ClientTimeout) -> None:
        del self._client_ops[op.op_id]  # a harness timer fires unless a reply cancelled it
        timer = self._pending.pop(op.op_id, None)  # its OpTimeout died with a crashed coordinator
        if timer is not None:
            timer.cancelled = True
        op.callback(op.query, QueryResult(
            "error", None, None, self._elapsed_ms(op), 0, "timeout", op.op_id))

    def _elapsed_ms(self, op: ClientTimeout) -> float:
        """The op's latency so far, as the float object shared by equal latencies."""
        latency = self.sim.now - op.issued_ms
        if len(self._latencies) < SHARED_LATENCY_CAP:
            return self._latencies.setdefault(latency, latency)
        return self._latencies.get(latency, latency)


def _apply(records: dict[str, VersionedRecord], record: VersionedRecord) -> None:
    """Last write wins: keep ``record`` unless ``records`` holds its key at a version as high."""
    existing = records.get(record.key)
    if existing is None or record.version > existing.version:
        records[record.key] = record


def _answer(op_id: int, query: Query, level: ConsistencyLevel, count: int,
            freshest: VersionedRecord | None) -> QueryResult:
    """The answer to op ``op_id``, which reached its level after ``count`` replies."""
    value = None if query.kind is not _READ or freshest is None else freshest.value
    status = "not_found" if value is None and query.kind is _READ else "ok"
    return QueryResult(status, value, level, 0.0, count, None, op_id)


# Plain functions, called as ``handler(cluster, dst, src, payload)``: a table
# of bound methods would make every cluster refer to itself.
_HANDLERS: dict[type, Callable[..., None]] = {
    QueryReq: Cluster._on_query_req,
    WriteReq: Cluster._on_write_req,
    ReadReq: Cluster._on_read_req,
    WriteAck: Cluster._on_reply,
    ReadResp: Cluster._on_reply,
    QueryResult: Cluster._on_query_resp,
    OpTimeout: Cluster._on_op_timeout,
    ClientTimeout: Cluster._on_client_timeout,
    Arrival: Cluster._on_arrival,
}
