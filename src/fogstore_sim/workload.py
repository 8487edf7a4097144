"""Read-latest workload generation and latency percentile reporting.

The generator emits a seeded mix of inserts and reads. Inserts append keys
``<prefix>1, <prefix>2, ...``; each read targets key ``N - J`` where ``N``
is the newest inserted index and ``J`` is geometrically distributed with
parameter ``recency_skew`` (clamped so reads always hit an existing key).
Larger skew concentrates reads on the newest keys. A read drawn before the
first insert is emitted as an insert instead, so replayed sequences never
reference missing keys.

Percentiles use the nearest-rank method: the value at index
``ceil(p/100 * n) - 1`` of the ascending sort. No interpolation, so results
are exactly reproducible.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from random import Random
from typing import Sequence

from .consistency import ClientContext, ConsistencyLevel, DataContext, _parse_level
from .errors import coord, document, element, expect, integer, load_json, number, string
from .store import Query, QueryKind
from .topology import Coord

PERCENTILES = (25, 50, 75, 95, 99)

STATS_CSV_HEADER = "setting,level,op_kind,min,p25,p50,p75,p95,p99,count"


class EmptySampleError(Exception):
    """Percentiles of an empty sample are undefined."""


def _finite_positive(x: float) -> bool:
    return math.isfinite(x) and x > 0


@dataclass(frozen=True)
class WorkloadClient:
    client_id: str
    geo: Coord
    weight: float = 1.0


@dataclass
class WorkloadSpec:
    """Parameters of one workload run; fully determined by ``seed``."""

    op_count: int
    clients: tuple[WorkloadClient, ...]
    read_fraction: float = 0.95
    key_prefix: str = "key-"
    recency_skew: float = 0.3
    data_geo: Coord | None = None  # default: each insert anchors data at its client
    fixed_read_level: ConsistencyLevel | None = None
    fixed_write_level: ConsistencyLevel | None = None
    open_loop_interval_ms: float | None = None  # None = closed loop (the default)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.op_count < 1:
            raise ValueError(f"op_count: must be >= 1 (got {self.op_count})")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read_fraction: must be in [0, 1] (got {self.read_fraction})")
        if not _finite_positive(self.recency_skew):
            raise ValueError(f"recency_skew: must be finite and > 0 (got {self.recency_skew})")
        if not self.clients:
            raise ValueError("clients: must name at least one client")
        for i, client in enumerate(self.clients):
            if not _finite_positive(client.weight):
                raise ValueError(
                    f"clients[{i}].weight: must be finite and > 0 (got {client.weight})")
            if not all(math.isfinite(c) for c in client.geo):
                raise ValueError(f"clients[{i}].geo: must be finite (got {client.geo})")
        if self.data_geo is not None and not all(math.isfinite(c) for c in self.data_geo):
            raise ValueError(f"data_geo: must be finite (got {self.data_geo})")
        if (self.fixed_read_level is None) != (self.fixed_write_level is None):
            raise ValueError("fixed_read_level/fixed_write_level: give both or neither")
        interval = self.open_loop_interval_ms
        if interval is not None and not _finite_positive(interval):
            raise ValueError(f"open_loop_interval_ms: must be finite and > 0 (got {interval})")


def generate_ops(spec: WorkloadSpec) -> list[Query]:
    """Deterministic operation sequence for one workload run.

    Each op draws, in order: read or insert; its client, by weight, bisecting
    the cumulative weights as ``random.choices`` does; and, for a read, its
    geometric offset ``int(log(1 - u) / log(1 - skew))`` back from the newest
    key, which draws nothing when ``skew >= 1`` (the offset is then always 0).
    """
    random = Random(spec.seed).random
    # Contexts are frozen, so ops share them: a client context per client entry
    # (entries with equal ids stay apart) and a data context per insert anchor.
    anchor = None if spec.data_geo is None else DataContext(spec.data_geo)
    entries = [(ClientContext(c.client_id, c.geo),
                DataContext(c.geo) if anchor is None else anchor) for c in spec.clients]
    cum_weights = list(accumulate(c.weight for c in spec.clients))
    total = cum_weights[-1] + 0.0
    hi = len(cum_weights) - 1
    read_fraction = spec.read_fraction
    skew = spec.recency_skew
    log_miss = math.log(1.0 - skew) if skew < 1.0 else None
    prefix = spec.key_prefix
    log = math.log
    read, create = QueryKind.READ, QueryKind.CREATE
    ops: list[Query] = []
    append = ops.append
    keys: list[str] = []  # keys[n - 1] is key n; a read shares its CREATE's string
    for _ in range(spec.op_count):
        is_read = random() < read_fraction
        ctx, data_ctx = entries[bisect_right(cum_weights, random() * total, 0, hi)]
        if is_read and keys:
            back = 0 if log_miss is None else int(log(1.0 - random()) / log_miss)
            append(Query(read, keys[-1 - back] if back < len(keys) else keys[0], ctx))
        else:
            newest = len(keys) + 1
            key = f"{prefix}{newest}"
            keys.append(key)
            append(Query(create, key, ctx, f"v{newest}", data_ctx))
    return ops


def percentile(sorted_latencies: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    if not sorted_latencies:
        raise EmptySampleError("cannot take a percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError("p must be in (0, 100]")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_latencies)))
    return sorted_latencies[rank - 1]


@dataclass(frozen=True)
class StatsSummary:
    """Latency summary in milliseconds for one operation kind."""

    min_ms: float
    p25: float
    p50: float
    p75: float
    p95: float
    p99: float
    count: int


@dataclass
class LatencyStats:
    """Per-operation-kind latency samples collected by a run."""

    samples: dict[str, list[float]] = field(default_factory=dict)

    def add(self, op_kind: str, latency_ms: float) -> None:
        self.samples.setdefault(op_kind, []).append(latency_ms)

    def count(self, op_kind: str) -> int:
        return len(self.samples.get(op_kind, ()))

    def summary(self, op_kind: str) -> StatsSummary:
        values = sorted(self.samples.get(op_kind, ()))
        if not values:
            raise EmptySampleError(f"no samples for op kind {op_kind!r}")
        p25, p50, p75, p95, p99 = (percentile(values, p) for p in PERCENTILES)
        return StatsSummary(values[0], p25, p50, p75, p95, p99, len(values))


def format_stats_row(setting: str, level: str, op_kind: str, summary: StatsSummary) -> str:
    cells = [setting, level, op_kind] + [
        f"{v:g}" for v in (summary.min_ms, summary.p25, summary.p50,
                           summary.p75, summary.p95, summary.p99)
    ] + [str(summary.count)]
    return ",".join(cells)


def workload_from_dict(data: dict, source: str = "<dict>") -> WorkloadSpec:
    """Build a workload spec from the JSON document structure."""
    data = document(data, source, "workload")
    clients = []
    for i, raw in enumerate(expect(data.get("clients", []), list, source, "clients")):
        where = f"clients[{i}]"
        raw = expect(raw, dict, source, where)
        with element(source, where):
            clients.append(WorkloadClient(
                client_id=string(raw["id"], source, f"{where}.id"),
                geo=coord(raw["geo"], source, f"{where}.geo"),
                weight=number(raw.get("weight", 1.0), source, f"{where}.weight"),
            ))
    data_geo = None
    if data.get("data_geo") is not None:
        data_geo = coord(data["data_geo"], source, "data_geo")
    fixed_read_level, fixed_write_level = (
        None if data.get(name) is None else _parse_level(data[name], source, name)
        for name in ("fixed_read_level", "fixed_write_level")
    )
    with element(source):
        return WorkloadSpec(
            op_count=integer(data.get("op_count", 0), source, "op_count"),
            clients=tuple(clients),
            read_fraction=number(data.get("read_fraction", 0.95), source, "read_fraction"),
            key_prefix=string(data.get("key_prefix", "key-"), source, "key_prefix"),
            recency_skew=number(data.get("recency_skew", 0.3), source, "recency_skew"),
            data_geo=data_geo,
            fixed_read_level=fixed_read_level,
            fixed_write_level=fixed_write_level,
            open_loop_interval_ms=(
                number(data["open_loop_interval_ms"], source, "open_loop_interval_ms")
                if data.get("open_loop_interval_ms") is not None else None
            ),
            seed=integer(data.get("seed", 0), source, "seed"),
        )


def load_workload(path: str | Path) -> WorkloadSpec:
    """Load and validate a workload JSON file."""
    return workload_from_dict(load_json(path), str(path))
