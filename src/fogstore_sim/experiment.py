"""Experiment assembly: build a simulation, drive a workload, report stats.

Runs are closed-loop by default: one logical client issues the next
operation the moment the previous result arrives, so latency samples
measure pure request paths with no queueing. A workload that sets
``open_loop_interval_ms`` issues operations at that fixed interval instead.

A sweep generates its op list once and replays it in every cell: the cells
differ only in their fixed levels, which the generator never reads, and no
run changes a query.

``make_paper_topologies`` generates the three canonical star networks
(one switch hub, five storage nodes each in its own failure group, one
client attach node at 1 ms) whose storage link delays are 4/5/6/7/8 ms
(low), 8/10/12/14/16 ms (medium) and 12/15/18/21/24 ms (high). Node
coordinates are laid out on a line at 100 m per millisecond of link delay,
so geographic closeness agrees with link latency.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path
from typing import Callable, Sequence

from .consistency import ConsistencyLevel, RegionSet, _parse_level
from .errors import ConfigError, element, expect, integer, load_json, number, string
from .netsim import BudgetExceededError, FaultAction, Simulator
from .store import _READ, Arrival, Cluster, Query, QueryResult
from .topology import FogNode, Link, Topology, load_topology
from .workload import (
    STATS_CSV_HEADER,
    LatencyStats,
    WorkloadSpec,
    _finite_positive,
    format_stats_row,
    generate_ops,
    load_workload,
)

PAPER_LATENCY_SETTINGS: dict[str, tuple[float, ...]] = {
    "low": (4, 5, 6, 7, 8),
    "medium": (8, 10, 12, 14, 16),
    "high": (12, 15, 18, 21, 24),
}

STAR_CLIENT_GEO = (-100.0, 0.0)

GEO_METERS_PER_MS = 100.0


def build_star_topology(
    storage_latencies_ms: Sequence[float],
    client_latency_ms: float = 1.0,
) -> Topology:
    """Star network: central switch, one storage node per spoke, one client node."""
    nodes = [
        FogNode("switch", (0.0, 0.0), "fg-switch", is_storage=False),
        FogNode("client", (-GEO_METERS_PER_MS * client_latency_ms, 0.0), "fg-client",
                is_storage=False),
    ]
    links = [Link("client", "switch", client_latency_ms)]
    for i, latency in enumerate(storage_latencies_ms, start=1):
        node_id = f"fog-{i}"
        nodes.append(FogNode(node_id, (GEO_METERS_PER_MS * latency, 0.0), f"fg-{i}"))
        links.append(Link("switch", node_id, float(latency)))
    return Topology(nodes, links)


def make_paper_topologies(out_dir: str | Path) -> dict[str, Path]:
    """Write the three star topology files; returns name -> path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for name, latencies in PAPER_LATENCY_SETTINGS.items():
        topo = build_star_topology(latencies)
        path = out_dir / f"star6-{name}.json"
        path.write_text(json.dumps(topo.to_dict(), indent=2) + "\n")
        paths[name] = path
    return paths


@dataclass
class RunOutput:
    """Everything a single run produces."""

    stats: LatencyStats
    results: list[tuple[Query, QueryResult]]
    error_counts: dict[str, int] = field(default_factory=dict)


def run_queries(
    cluster: Cluster,
    queries: Sequence[Query],
    budget_ms: float | None = None,
    open_loop_interval_ms: float | None = None,
) -> list[tuple[Query, QueryResult]]:
    """Replay queries on the cluster's simulator; results in completion order.

    Closed loop (default): the next operation is issued the instant the
    previous result arrives. Open loop: operation ``i`` is issued at
    ``i * open_loop_interval_ms`` regardless of completion, so operations
    may overlap in flight; the arrivals form one timer series, so each
    query's ``Arrival`` is built only when the one before it fires. In either
    loop a query runs at the level it pins.
    """
    results: list[tuple[Query, QueryResult]] = []

    if open_loop_interval_ms is None:
        pending = iter(queries)

        def advance(prev_query: Query | None = None,
                    prev_result: QueryResult | None = None) -> None:
            if prev_query is not None:
                results.append((prev_query, prev_result))
            nxt = next(pending, None)
            if nxt is not None:
                cluster.submit(nxt, advance)

        advance()
    else:
        def collect(query: Query, result: QueryResult) -> None:
            results.append((query, result))

        cluster.sim.set_timer_series(None, len(queries), open_loop_interval_ms,
                                     map(Arrival, queries, repeat(collect)))
    try:
        cluster.sim.run_until_quiescent(budget_ms)
    finally:
        # ``advance`` refers to itself, and the ops a failed run leaves in
        # flight hold it as their callback: clear both closure cells, or the
        # closure and the queries and cluster it holds live on as garbage
        # until a cyclic collection.
        advance = cluster = None
    return results


def run_single(
    topology: Topology,
    workload: WorkloadSpec,
    region_set: RegionSet | None = None,
    replication_factor: int = 5,
    timeout_ms: float = 10_000.0,
    fault_script: Sequence[FaultAction] = (),
    trace_sink: Callable[[str], None] | None = None,
    budget_ms: float | None = None,
    jitter_ms: float = 0.0,
    jitter_seed: int = 0,
    queries: Sequence[Query] | None = None,
) -> RunOutput:
    """Build one simulation, run the workload to quiescence, collect stats.

    ``queries`` replays an op list already generated from ``workload``;
    left ``None``, the list is generated here.
    """
    sim = Simulator(
        topology,
        fault_script=fault_script,
        trace=trace_sink,
        jitter_ms=jitter_ms,
        jitter_seed=jitter_seed,
    )
    cluster = Cluster(
        topology,
        sim,
        replication_factor=replication_factor,
        region_set=region_set,
        fixed_read_level=workload.fixed_read_level,
        fixed_write_level=workload.fixed_write_level,
        timeout_ms=timeout_ms,
    )
    if queries is None:
        queries = generate_ops(workload)
    try:
        results = run_queries(cluster, queries, budget_ms=budget_ms,
                              open_loop_interval_ms=workload.open_loop_interval_ms)
    finally:
        sim.handler = None  # the handler refers back to the cluster
    stats = LatencyStats()
    error_counts: dict[str, int] = {}
    for query, result in results:
        if result.status in ("ok", "not_found"):
            stats.add("read" if query.kind is _READ else "write", result.latency_ms)
        else:
            label = result.error or "error"
            error_counts[label] = error_counts.get(label, 0) + 1
    return RunOutput(stats=stats, results=results, error_counts=error_counts)


@dataclass
class SweepPlan:
    """Cross product of latency settings, consistency levels and directions.

    Each cell measures one direction: the measured direction runs at the
    cell's level while the opposite direction is pinned to ONE, matching
    how read and write latency are reported separately.
    """

    settings: list[tuple[str, Topology]]
    levels: list[ConsistencyLevel]
    directions: list[str]
    workload: WorkloadSpec
    replication_factor: int = 5
    timeout_ms: float = 10_000.0
    budget_ms: float | None = None

    def __post_init__(self) -> None:
        if not self.settings:
            raise ValueError("sweep needs at least one setting")
        if not self.levels:
            raise ValueError("sweep needs at least one level")
        if not self.directions:
            raise ValueError("directions: must name at least one of read, write")
        for direction in self.directions:
            if direction not in ("read", "write"):
                raise ValueError(f"unknown direction {direction!r}")
        if self.replication_factor < 1:
            raise ValueError(f"replication_factor: must be >= 1 (got {self.replication_factor})")
        for name in ("timeout_ms", "budget_ms"):
            value = getattr(self, name)
            if value is not None and not _finite_positive(value):
                raise ValueError(f"{name}: must be finite and > 0 (got {value})")


@dataclass
class SweepResult:
    """CSV text plus any cells that blew the simulation budget or measured nothing."""

    csv_text: str
    cell_failures: list[str] = field(default_factory=list)


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Run every sweep cell sequentially, all on one generated op list.

    Rows appear in deterministic (setting, level, direction) order. Two
    invocations with the same plan produce byte-identical output. A cell
    that exceeds the budget, or whose measured direction has no successful
    op (an infeasible level, every op timed out), is reported in
    ``cell_failures`` and its row is omitted; the remaining cells still run.
    """
    lines = [STATS_CSV_HEADER]
    failures: list[str] = []
    queries = generate_ops(plan.workload)
    for setting_name, topology in plan.settings:
        for level in plan.levels:
            for direction in plan.directions:
                cell_workload = replace(
                    plan.workload,
                    fixed_read_level=level if direction == "read" else ConsistencyLevel.ONE,
                    fixed_write_level=level if direction == "write" else ConsistencyLevel.ONE,
                )
                cell = f"{setting_name}/{level.value}/{direction}"
                try:
                    output = run_single(topology, cell_workload,
                                        replication_factor=plan.replication_factor,
                                        timeout_ms=plan.timeout_ms, budget_ms=plan.budget_ms,
                                        queries=queries)
                except BudgetExceededError as exc:
                    failures.append(f"{cell}: {exc}")
                    continue
                # Only the row outlives the run, so one cell is alive at a time.
                stats, error_counts, output = output.stats, output.error_counts, None
                if stats.count(direction):
                    lines.append(format_stats_row(setting_name, level.value, direction,
                                                  stats.summary(direction)))
                else:
                    errors = ", ".join(f"{n} {label}" for label, n in sorted(error_counts.items()))
                    failures.append(f"{cell}: no successful {direction} ops "
                                    f"({errors or 'none failed'})")
    return SweepResult("\n".join(lines) + "\n", failures)


def load_sweep_plan(path: str | Path) -> SweepPlan:
    """Load a sweep plan file; relative paths resolve against its directory."""
    path = Path(path)
    data = load_json(path)
    if not isinstance(data, dict):
        raise ConfigError(str(path), "sweep document must be a JSON object")
    base = path.parent

    def resolve(p: str) -> Path:
        candidate = Path(p)
        return candidate if candidate.is_absolute() else base / candidate

    if "workload" not in data:
        raise ConfigError(str(path), "workload: a workload file is required")
    workload = load_workload(resolve(string(data["workload"], str(path), "workload")))

    settings: list[tuple[str, Topology]] = []
    for i, raw in enumerate(expect(data.get("settings", []), list, str(path), "settings")):
        where = f"settings[{i}]"
        raw = expect(raw, dict, str(path), where)
        with element(str(path), where):  # an absent field reads "missing field"
            name = string(raw["name"], str(path), f"{where}.name")
            topology = string(raw["topology"], str(path), f"{where}.topology")
        for field, value in (("name", name), ("topology", topology)):
            if not value:
                raise ConfigError(str(path), f"{where}.{field}: must not be empty")
        settings.append((name, load_topology(resolve(topology))))

    levels = [_parse_level(raw, str(path), f"levels[{i}]")
              for i, raw in enumerate(expect(data.get("levels", []), list, str(path), "levels"))]

    directions = [string(d, str(path), f"directions[{i}]") for i, d in
                  enumerate(expect(data.get("directions", ["read", "write"]), list, str(path),
                                   "directions"))]
    try:
        return SweepPlan(
            settings=settings,
            levels=levels,
            directions=directions,
            workload=workload,
            replication_factor=integer(data.get("replication_factor", 5), str(path),
                                       "replication_factor"),
            timeout_ms=number(data.get("timeout_ms", 10_000.0), str(path), "timeout_ms"),
            budget_ms=(number(data["budget_ms"], str(path), "budget_ms")
                       if data.get("budget_ms") is not None else None),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(path), str(exc)) from None
