"""Replicated key-value store: per-node replica state plus the coordinator protocol.

Every storage node can act as a coordinator. A client's query travels from
its attach point to the storage node geographically closest to the client.
That coordinator is the only place a query's consistency level is decided
(precedence in :class:`Cluster`). Region bands are looked up against the
data location: the one a CREATE names, else the coordinator's local record,
else the key's placement-time anchor. The coordinator then fans out to the
key's replicas:

* writes are sent to every replica immediately; the client is acknowledged
  as soon as the level's required acknowledgement count is reached, and the
  remaining replicas converge in the background (no rollback on timeout);
* reads are answered from the first ``required`` replica responses, picking
  the record with the highest version among them; level ONE with a local
  replica short-circuits without any replica fan-out.

Clients enter through :meth:`Cluster.submit` (asynchronous, callback on
completion) or :meth:`Cluster.apply_crud` (submit one query and run the
simulation to quiescence).

Versions are (counter, writer) pairs. Counters per key are issued by the
control plane, a zero-latency global registry that also caches replica maps
and placement-time data locations. Real deployments would gossip or use
synchronized clocks here; a shared registry keeps version order aligned
with operation order, which makes last-write-wins resolution deterministic
and exact at simulation scale.

Deletes replicate a tombstone record (no value) that wins by version like
any write; tombstones are never garbage collected since runs are finite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, NamedTuple

from .consistency import (
    ClientContext,
    ConsistencyLevel,
    DataContext,
    LevelInfeasibleError,
    RegionSet,
    get_level,
    get_region,
    required_acks,
)
from .netsim import KIND_TIMER, SimEvent, Simulator, Timer
from .placement import ReplicaMap, place_replicas
from .topology import Coord, Topology, find_closest

__all__ = [
    "QueryKind",
    "Version",
    "VersionedRecord",
    "Query",
    "QueryResult",
    "Cluster",
    "ControlPlane",
    "required_acks",
    "WriteReq",
    "WriteAck",
    "ReadReq",
    "ReadResp",
    "QueryReq",
    "QueryResp",
]


class QueryKind(Enum):
    CREATE = "create"
    READ = "read"
    UPDATE = "update"
    DELETE = "delete"
    TX_BEGIN = "tx_begin"
    TX_COMMIT = "tx_commit"
    TX_ABORT = "tx_abort"
    TX_ROLLBACK = "tx_rollback"

    @property
    def is_transactional(self) -> bool:
        return self.value.startswith("tx_")

    @property
    def is_write(self) -> bool:
        return self in (QueryKind.CREATE, QueryKind.UPDATE, QueryKind.DELETE)


class Version(NamedTuple):
    """Per-key logical timestamp; tuple order gives the total write order."""

    counter: int
    writer: str

    def __str__(self) -> str:
        return f"{self.counter}@{self.writer}"


@dataclass(frozen=True)
class VersionedRecord:
    """What a replica stores for one key. ``value=None`` marks a tombstone.

    ``data_ctx=None`` on an incoming record means "carry the stored data
    context forward", so updates and deletes that do not re-locate the data
    source never clobber it.
    """

    key: str
    value: str | None
    version: Version
    data_ctx: DataContext | None = None

    @property
    def is_tombstone(self) -> bool:
        return self.value is None


@dataclass
class Query:
    """One client operation with its originating context."""

    kind: QueryKind
    key: str
    client_ctx: ClientContext
    value: str | None = None
    data_ctx: DataContext | None = None

    def __post_init__(self) -> None:
        if self.kind in (QueryKind.CREATE, QueryKind.UPDATE) and self.value is None:
            raise ValueError(f"{self.kind.value} query needs a value")
        if self.kind is QueryKind.CREATE and self.data_ctx is None:
            raise ValueError("create query needs a data context")


@dataclass
class QueryResult:
    """Outcome reported to the client, including the level actually used."""

    status: str = "ok"  # ok | not_found | error
    value: str | None = None
    level_used: ConsistencyLevel | None = None
    latency_ms: float = 0.0
    acks_received: int = 0
    error: str | None = None


# -- wire messages ---------------------------------------------------------


@dataclass(frozen=True)
class QueryReq:
    op_id: int
    query: Query
    reply_to: str
    level_override: ConsistencyLevel | None = None

    def __str__(self) -> str:
        return f"QueryReq op={self.op_id} {self.query.kind.value} key={self.query.key}"


@dataclass(frozen=True)
class QueryResp:
    op_id: int
    result: QueryResult

    def __str__(self) -> str:
        return f"QueryResp op={self.op_id} status={self.result.status}"


@dataclass(frozen=True)
class WriteReq:
    op_id: int
    record: VersionedRecord

    def __str__(self) -> str:
        r = self.record
        ctx = f"({r.data_ctx.data_geo[0]};{r.data_ctx.data_geo[1]})" if r.data_ctx else "-"
        return f"WriteReq key={r.key} value={r.value!r} version={r.version} data_ctx={ctx}"


@dataclass(frozen=True)
class WriteAck:
    op_id: int
    key: str
    version: Version

    def __str__(self) -> str:
        return f"WriteAck key={self.key} version={self.version}"


@dataclass(frozen=True)
class ReadReq:
    op_id: int
    key: str

    def __str__(self) -> str:
        return f"ReadReq key={self.key}"


@dataclass(frozen=True)
class ReadResp:
    op_id: int
    key: str
    record: VersionedRecord | None

    def __str__(self) -> str:
        rec = f"{self.record.version}" if self.record else "absent"
        return f"ReadResp key={self.key} record={rec}"


class ControlPlane:
    """Zero-latency global registry of key metadata.

    Holds the replica map and placement-time data location per key, issues
    monotone per-key version counters, and tracks liveness (created vs
    deleted) for duplicate-create detection. Deliberately not a replicated
    component: it stands in for the deployment's metadata service.
    """

    def __init__(self) -> None:
        self.maps: dict[str, ReplicaMap] = {}
        self.anchors: dict[str, Coord] = {}
        self._counters: dict[str, int] = {}
        self._deleted: set[str] = set()

    def replica_map(self, key: str) -> ReplicaMap | None:
        return self.maps.get(key)

    def is_live(self, key: str) -> bool:
        return key in self.maps and key not in self._deleted

    def register(self, key: str, rmap: ReplicaMap, anchor: Coord) -> None:
        self.maps[key] = rmap
        self.anchors[key] = anchor
        self._deleted.discard(key)

    def next_version(self, key: str, writer: str) -> Version:
        counter = self._counters.get(key, 0) + 1
        self._counters[key] = counter
        return Version(counter, writer)

    def note_completed_write(self, key: str, deleted: bool) -> None:
        if deleted:
            self._deleted.add(key)
        else:
            self._deleted.discard(key)


class _ReplicaStore:
    """One node's durable records; survives crash/recover untouched."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: dict[str, VersionedRecord] = {}

    def get(self, key: str) -> VersionedRecord | None:
        return self.records.get(key)

    def apply(self, record: VersionedRecord) -> None:
        existing = self.records.get(record.key)
        if existing is not None and record.version <= existing.version:
            return  # never replace with an older or equal version
        if record.data_ctx is None and existing is not None:
            record = replace(record, data_ctx=existing.data_ctx)
        self.records[record.key] = record


@dataclass
class _PendingOp:
    op_id: int
    direction: str  # read | write
    query: Query
    level: ConsistencyLevel
    required: int
    coordinator: str
    reply_to: str
    start_ms: float
    version: Version | None = None
    is_delete: bool = False
    acks: int = 0
    responses: list[VersionedRecord | None] = field(default_factory=list)
    timer: Timer | None = None


@dataclass
class _ClientOp:
    query: Query
    callback: Callable[[Query, QueryResult], None]
    issued_ms: float
    attach: str
    timer: Timer | None = None


class Cluster:
    """All storage-node state machines plus the client gateway, on one simulator.

    Level sources, in precedence order: an explicit per-query override,
    the fixed read/write level configured for the run, else the region
    spec set. Every mutation happens inside simulator event handlers, so
    the whole cluster is single-threaded and deterministic.
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
        client_timeout_slack_ms: float = 1_000.0,
    ):
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if not topology.storage_ids:
            raise ValueError("topology has no storage nodes")
        self.topology = topology
        self.sim = simulator
        simulator.handler = self._dispatch
        self.replication_factor = replication_factor
        self.region_set = region_set
        self.fixed_read_level = fixed_read_level
        self.fixed_write_level = fixed_write_level
        self.timeout_ms = timeout_ms
        self.client_timeout_ms = timeout_ms + client_timeout_slack_ms
        self.control = ControlPlane()
        self._replicas = {nid: _ReplicaStore() for nid in topology.storage_ids}
        self._op_ids = itertools.count(1)
        self._pending: dict[int, _PendingOp] = {}
        self._client_ops: dict[int, _ClientOp] = {}

    # -- client gateway ---------------------------------------------------

    def submit(
        self,
        query: Query,
        callback: Callable[[Query, QueryResult], None],
        level_override: ConsistencyLevel | None = None,
    ) -> int:
        """Issue a query from its client's location; callback fires on completion.

        The query originates at the topology node nearest the client and is
        coordinated by the storage node geographically closest to the
        client. A harness-side deadline guarantees the callback fires even
        if the coordinator crashes mid-operation.
        """
        op_id = next(self._op_ids)
        attach = self.topology.nearest_node(query.client_ctx.client_geo)
        coordinator = find_closest(self.topology, query.client_ctx.client_geo)
        cop = _ClientOp(query, callback, issued_ms=self.sim.now, attach=attach)
        cop.timer = self.sim.set_timer(None, self.client_timeout_ms, ("client_timeout", op_id))
        self._client_ops[op_id] = cop
        self.sim.schedule_message(attach, coordinator, QueryReq(op_id, query, attach, level_override))
        return op_id

    def apply_crud(self, query: Query, level: ConsistencyLevel | None = None) -> QueryResult:
        """Submit one query and run the simulation until fully quiescent."""
        box: list[QueryResult] = []
        self.submit(query, lambda _q, r: box.append(r), level_override=level)
        self.sim.run_until_quiescent()
        return box[0]

    # -- introspection ------------------------------------------------------

    def replica_record(self, node_id: str, key: str) -> VersionedRecord | None:
        return self._replicas[node_id].get(key)

    def convergence_violations(self) -> list[str]:
        """Keys whose live replicas disagree (expected empty at quiescence
        of a fault-free run; crashed nodes are excluded)."""
        problems = []
        for key in sorted(self.control.maps):
            rmap = self.control.maps[key]
            seen: dict[object, list[str]] = {}
            for nid in rmap.replica_ids:
                if not self.sim.is_up(nid):
                    continue
                record = self._replicas[nid].get(key)
                fingerprint = None if record is None else (
                    record.value, record.version, record.data_ctx)
                seen.setdefault(fingerprint, []).append(nid)
            if len(seen) > 1:
                detail = "; ".join(f"{v}={k}" for k, v in sorted(seen.items(), key=str))
                problems.append(f"{key}: {detail}")
        return problems

    # -- event dispatch -----------------------------------------------------

    def _dispatch(self, sim: Simulator, event: SimEvent) -> None:
        payload = event.payload
        if event.kind == KIND_TIMER:
            if callable(payload):  # harness-scheduled callback (e.g. open-loop arrivals)
                payload()
                return
            tag, op_id = payload  # type: ignore[misc]
            if tag == "op_timeout":
                self._on_op_timeout(op_id)
            else:
                self._on_client_timeout(op_id)
            return
        if isinstance(payload, QueryReq):
            self._on_query_req(event.dst, payload)
        elif isinstance(payload, WriteReq):
            self._on_write_req(event.dst, event.src, payload)
        elif isinstance(payload, WriteAck):
            self._on_write_ack(payload)
        elif isinstance(payload, ReadReq):
            self._on_read_req(event.dst, event.src, payload)
        elif isinstance(payload, ReadResp):
            self._on_read_resp(payload)
        elif isinstance(payload, QueryResp):
            self._on_query_resp(payload)

    # -- coordinator: query entry -------------------------------------------

    def _on_query_req(self, node: str, req: QueryReq) -> None:
        query = req.query
        if query.kind.is_transactional:
            self._reply(node, req, QueryResult(status="error", error="unsupported_operation"))
            return
        direction = "read" if query.kind is QueryKind.READ else "write"

        rmap = self.control.replica_map(query.key)
        if query.kind is QueryKind.CREATE:
            if rmap is not None and self.control.is_live(query.key):
                self._reply(node, req, QueryResult(status="error", error="duplicate_key"))
                return
            anchor = query.data_ctx.data_geo  # create always carries a data context
            rmap = place_replicas(query.key, anchor, self.topology, self.replication_factor)
            self.control.register(query.key, rmap, anchor)
        elif rmap is None:
            self._reply(node, req, QueryResult(status="not_found"))
            return

        level = req.level_override
        if level is None:
            level = self.fixed_read_level if direction == "read" else self.fixed_write_level
        if level is None:
            if self.region_set is None:
                self._reply(node, req, QueryResult(status="error", error="no_level_configured"))
                return
            level = self._map_level(node, query, direction)
        try:
            required = required_acks(level, rmap.effective_rf)
        except LevelInfeasibleError:
            self._reply(node, req, QueryResult(status="error", error="level_infeasible",
                                               level_used=level))
            return

        pend = _PendingOp(
            op_id=req.op_id, direction=direction, query=query, level=level,
            required=required, coordinator=node, reply_to=req.reply_to,
            start_ms=self.sim.now,
        )
        self._pending[req.op_id] = pend
        pend.timer = self.sim.set_timer(node, self.timeout_ms, ("op_timeout", req.op_id))
        if direction == "write":
            self._start_write(node, pend, rmap)
        else:
            self._start_read(node, pend, rmap)

    def _map_level(self, node: str, query: Query, direction: str) -> ConsistencyLevel:
        if query.kind is QueryKind.CREATE:
            # the local record may be a tombstone that still holds the old location
            data_ctx = query.data_ctx
        else:
            record = self._replicas[node].get(query.key)
            if record is not None and record.data_ctx is not None:
                data_ctx = record.data_ctx
            else:
                data_ctx = DataContext(self.control.anchors[query.key])
        band = get_region(self.region_set, query.key, query.client_ctx, data_ctx)
        return get_level(band, direction)  # type: ignore[arg-type]

    # -- coordinator: write path ----------------------------------------------

    def _start_write(self, node: str, pend: _PendingOp, rmap: ReplicaMap) -> None:
        query = pend.query
        pend.is_delete = query.kind is QueryKind.DELETE
        pend.version = self.control.next_version(query.key, node)
        record = VersionedRecord(
            key=query.key,
            value=None if pend.is_delete else query.value,
            version=pend.version,
            data_ctx=query.data_ctx,
        )
        if node in rmap.replica_ids:
            self._replicas[node].apply(record)
            pend.acks += 1
        for replica_id in rmap.replica_ids:
            if replica_id != node:
                self.sim.schedule_message(node, replica_id, WriteReq(pend.op_id, record))
        if pend.acks >= pend.required:
            self._finish_write(pend)

    def _on_write_req(self, node: str, src: str, msg: WriteReq) -> None:
        self._replicas[node].apply(msg.record)
        self.sim.schedule_message(node, src, WriteAck(msg.op_id, msg.record.key, msg.record.version))

    def _on_write_ack(self, msg: WriteAck) -> None:
        pend = self._pending.get(msg.op_id)
        if pend is None or pend.direction != "write":
            return  # operation already completed or timed out
        pend.acks += 1
        if pend.acks >= pend.required:
            self._finish_write(pend)

    def _finish_write(self, pend: _PendingOp) -> None:
        self.control.note_completed_write(pend.query.key, deleted=pend.is_delete)
        self._reply_pending(pend, QueryResult(
            status="ok", level_used=pend.level, acks_received=pend.acks))

    # -- coordinator: read path -------------------------------------------------

    def _start_read(self, node: str, pend: _PendingOp, rmap: ReplicaMap) -> None:
        if node in rmap.replica_ids:
            pend.responses.append(self._replicas[node].get(pend.query.key))
            if len(pend.responses) >= pend.required:
                self._finish_read(pend)  # local answer, no fan-out
                return
        for replica_id in rmap.replica_ids:
            if replica_id != node:
                self.sim.schedule_message(node, replica_id, ReadReq(pend.op_id, pend.query.key))

    def _on_read_req(self, node: str, src: str, msg: ReadReq) -> None:
        record = self._replicas[node].get(msg.key)
        self.sim.schedule_message(node, src, ReadResp(msg.op_id, msg.key, record))

    def _on_read_resp(self, msg: ReadResp) -> None:
        pend = self._pending.get(msg.op_id)
        if pend is None or pend.direction != "read":
            return
        pend.responses.append(msg.record)
        if len(pend.responses) >= pend.required:
            self._finish_read(pend)

    def _finish_read(self, pend: _PendingOp) -> None:
        freshest: VersionedRecord | None = None
        for record in pend.responses:
            if record is not None and (freshest is None or record.version > freshest.version):
                freshest = record
        if freshest is None or freshest.is_tombstone:
            result = QueryResult(status="not_found", level_used=pend.level,
                                 acks_received=len(pend.responses))
        else:
            result = QueryResult(status="ok", value=freshest.value, level_used=pend.level,
                                 acks_received=len(pend.responses))
        self._reply_pending(pend, result)

    # -- completion and timeouts ---------------------------------------------

    def _on_op_timeout(self, op_id: int) -> None:
        pend = self._pending.get(op_id)
        if pend is None:
            return
        acks = pend.acks if pend.direction == "write" else len(pend.responses)
        self._reply_pending(pend, QueryResult(
            status="error", error="timeout", level_used=pend.level, acks_received=acks))

    def _reply_pending(self, pend: _PendingOp, result: QueryResult) -> None:
        self._pending.pop(pend.op_id, None)
        if pend.timer is not None:
            pend.timer.cancel()
        self.sim.schedule_message(pend.coordinator, pend.reply_to, QueryResp(pend.op_id, result))

    def _reply(self, node: str, req: QueryReq, result: QueryResult) -> None:
        self.sim.schedule_message(node, req.reply_to, QueryResp(req.op_id, result))

    # -- client side ------------------------------------------------------------

    def _on_query_resp(self, msg: QueryResp) -> None:
        cop = self._client_ops.pop(msg.op_id, None)
        if cop is None:
            return  # client already gave up on this operation
        if cop.timer is not None:
            cop.timer.cancel()
        msg.result.latency_ms = self.sim.now - cop.issued_ms
        cop.callback(cop.query, msg.result)

    def _on_client_timeout(self, op_id: int) -> None:
        cop = self._client_ops.pop(op_id, None)
        if cop is None:
            return
        result = QueryResult(status="error", error="timeout",
                             latency_ms=self.sim.now - cop.issued_ms)
        cop.callback(cop.query, result)
