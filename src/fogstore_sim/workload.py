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
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .consistency import ClientContext, ConsistencyLevel, DataContext, _parse_level
from .errors import ConfigError, load_json
from .store import Query, QueryKind
from .topology import Coord

PERCENTILES = (25, 50, 75, 95, 99)

STATS_CSV_HEADER = "setting,level,op_kind,min,p25,p50,p75,p95,p99,count"


class EmptySampleError(Exception):
    """Percentiles of an empty sample are undefined."""


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
            raise ValueError("op_count must be >= 1")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.recency_skew <= 0.0:
            raise ValueError("recency_skew must be > 0")
        if not self.clients:
            raise ValueError("at least one client position is required")
        if any(c.weight <= 0 for c in self.clients):
            raise ValueError("client weights must be > 0")
        if self.open_loop_interval_ms is not None and self.open_loop_interval_ms <= 0:
            raise ValueError("open_loop_interval_ms must be > 0")

    @property
    def insert_fraction(self) -> float:
        return 1.0 - self.read_fraction


def _geometric(rng: random.Random, p: float) -> int:
    """Failures before first success; p >= 1 degenerates to always 0."""
    if p >= 1.0:
        return 0
    u = rng.random()
    return int(math.log(1.0 - u) / math.log(1.0 - p))


def generate_ops(spec: WorkloadSpec) -> list[Query]:
    """Deterministic operation sequence for one workload run."""
    rng = random.Random(spec.seed)
    clients = list(spec.clients)
    weights = [c.weight for c in clients]
    ops: list[Query] = []
    newest = 0
    for _ in range(spec.op_count):
        is_read = rng.random() < spec.read_fraction
        client = rng.choices(clients, weights)[0]
        ctx = ClientContext(client.client_id, client.geo)
        if is_read and newest > 0:
            back = min(_geometric(rng, spec.recency_skew), newest - 1)
            ops.append(Query(QueryKind.READ, f"{spec.key_prefix}{newest - back}", ctx))
        else:
            newest += 1
            data_geo = spec.data_geo if spec.data_geo is not None else client.geo
            ops.append(Query(
                QueryKind.CREATE,
                f"{spec.key_prefix}{newest}",
                ctx,
                value=f"v{newest}",
                data_ctx=DataContext(data_geo),
            ))
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
    if not isinstance(data, dict):
        raise ConfigError(source, "workload document must be a JSON object")
    clients = []
    for i, raw in enumerate(data.get("clients", [])):
        where = f"clients[{i}]"
        try:
            geo = raw["geo"]
            clients.append(WorkloadClient(
                client_id=str(raw["id"]),
                geo=(float(geo[0]), float(geo[1])),
                weight=float(raw.get("weight", 1.0)),
            ))
        except KeyError as exc:
            raise ConfigError(source, f"{where}: missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError, IndexError) as exc:
            raise ConfigError(source, f"{where}: {exc}") from None
    data_geo = None
    if data.get("data_geo") is not None:
        raw_geo = data["data_geo"]
        try:
            data_geo = (float(raw_geo[0]), float(raw_geo[1]))
        except (TypeError, ValueError, IndexError):
            raise ConfigError(source, "data_geo: expected [x, y]") from None
    fixed_read_level, fixed_write_level = (
        None if data.get(name) is None else _parse_level(data[name], source, name)
        for name in ("fixed_read_level", "fixed_write_level")
    )
    try:
        return WorkloadSpec(
            op_count=int(data.get("op_count", 0)),
            clients=tuple(clients),
            read_fraction=float(data.get("read_fraction", 0.95)),
            key_prefix=str(data.get("key_prefix", "key-")),
            recency_skew=float(data.get("recency_skew", 0.3)),
            data_geo=data_geo,
            fixed_read_level=fixed_read_level,
            fixed_write_level=fixed_write_level,
            open_loop_interval_ms=(
                float(data["open_loop_interval_ms"])
                if data.get("open_loop_interval_ms") is not None else None
            ),
            seed=int(data.get("seed", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(source, str(exc)) from None


def load_workload(path: str | Path) -> WorkloadSpec:
    """Load and validate a workload JSON file."""
    path = Path(path)
    return workload_from_dict(load_json(path), source=str(path))
