"""Experiment assembly: build a simulation, drive a workload, report stats.

Runs are closed-loop: one logical client issues the next operation the
moment the previous result arrives. Latency samples therefore measure pure
request paths with no queueing, which is what the star-topology latency
studies expect.

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
from pathlib import Path
from typing import Callable, Sequence

from .consistency import ConsistencyLevel, RegionSet, _parse_level
from .errors import ConfigError, load_json
from .netsim import BudgetExceededError, FaultAction, SimReport, Simulator
from .store import Cluster, Query, QueryKind, QueryResult
from .topology import FogNode, Link, Topology, load_topology
from .workload import (
    STATS_CSV_HEADER,
    LatencyStats,
    WorkloadSpec,
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
        FogNode("switch", (0.0, 0.0), "fg-switch", tier=2, is_storage=False),
        FogNode(
            "client",
            (-GEO_METERS_PER_MS * client_latency_ms, 0.0),
            "fg-client",
            tier=0,
            is_storage=False,
        ),
    ]
    links = [Link("client", "switch", client_latency_ms)]
    for i, latency in enumerate(storage_latencies_ms, start=1):
        node_id = f"fog-{i}"
        nodes.append(
            FogNode(node_id, (GEO_METERS_PER_MS * latency, 0.0), f"fg-{i}", tier=1)
        )
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


def scale_topology(topology: Topology, multiplier: float) -> Topology:
    """Copy of the topology with every link latency multiplied."""
    if multiplier <= 0:
        raise ValueError("multiplier must be > 0")
    links = [
        Link(l.endpoint_a, l.endpoint_b, l.latency_ms * multiplier)
        for l in topology.links
    ]
    return Topology(topology.nodes.values(), links)


@dataclass
class RunOutput:
    """Everything a single run produces."""

    stats: LatencyStats
    results: list[tuple[Query, QueryResult]]
    report: SimReport
    cluster: Cluster
    error_counts: dict[str, int] = field(default_factory=dict)


class _ScheduledSubmit:
    """Timer callback with a stable textual form so traces stay replayable."""

    __slots__ = ("fn", "label")

    def __init__(self, fn: Callable[[], None], label: str):
        self.fn = fn
        self.label = label

    def __call__(self) -> None:
        self.fn()

    def __str__(self) -> str:
        return self.label


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
    may overlap in flight.
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

        for i, query in enumerate(queries):
            def issue(q: Query = query) -> None:
                cluster.submit(q, collect)

            cluster.sim.set_timer(
                None, i * open_loop_interval_ms,
                _ScheduledSubmit(issue, f"issue op {i}"),
            )
    cluster.sim.run_until_quiescent(budget_ms)
    return results


def op_direction(kind: QueryKind) -> str:
    return "read" if kind is QueryKind.READ else "write"


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
) -> RunOutput:
    """Build one simulation, run the workload to quiescence, collect stats."""
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
    queries = generate_ops(workload)
    results = run_queries(cluster, queries, budget_ms=budget_ms,
                          open_loop_interval_ms=workload.open_loop_interval_ms)
    stats = LatencyStats()
    error_counts: dict[str, int] = {}
    for query, result in results:
        if result.status in ("ok", "not_found"):
            stats.add(op_direction(query.kind), result.latency_ms)
        else:
            label = result.error or "error"
            error_counts[label] = error_counts.get(label, 0) + 1
    return RunOutput(stats=stats, results=results, report=sim.report,
                     cluster=cluster, error_counts=error_counts)


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
        for direction in self.directions:
            if direction not in ("read", "write"):
                raise ValueError(f"unknown direction {direction!r}")


@dataclass
class SweepResult:
    """CSV text plus any cells that blew the simulation budget."""

    csv_text: str
    cell_failures: list[str] = field(default_factory=list)


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Run every sweep cell sequentially.

    Rows appear in deterministic (setting, level, direction) order. Two
    invocations with the same plan produce byte-identical output. A cell
    that exceeds the budget is reported in ``cell_failures`` and its row is
    omitted; the remaining cells still run.
    """
    lines = [STATS_CSV_HEADER]
    failures: list[str] = []
    for setting_name, topology in plan.settings:
        for level in plan.levels:
            for direction in plan.directions:
                cell_workload = replace(
                    plan.workload,
                    fixed_read_level=level if direction == "read" else ConsistencyLevel.ONE,
                    fixed_write_level=level if direction == "write" else ConsistencyLevel.ONE,
                )
                try:
                    output = run_single(
                        topology,
                        cell_workload,
                        replication_factor=plan.replication_factor,
                        timeout_ms=plan.timeout_ms,
                        budget_ms=plan.budget_ms,
                    )
                except BudgetExceededError as exc:
                    failures.append(f"{setting_name}/{level.value}/{direction}: {exc}")
                    continue
                summary = output.stats.summary(direction)
                lines.append(format_stats_row(setting_name, level.value, direction, summary))
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
    workload = load_workload(resolve(str(data["workload"])))

    base_topology: Topology | None = None
    if data.get("base_topology"):
        base_topology = load_topology(resolve(str(data["base_topology"])))

    settings: list[tuple[str, Topology]] = []
    for i, raw in enumerate(data.get("settings", [])):
        where = f"settings[{i}]"
        name = raw.get("name")
        if not name:
            raise ConfigError(str(path), f"{where}: missing field 'name'")
        if raw.get("topology"):
            settings.append((str(name), load_topology(resolve(str(raw["topology"])))))
        elif raw.get("multiplier") is not None:
            if base_topology is None:
                raise ConfigError(
                    str(path), f"{where}: multiplier needs a base_topology at the top level")
            settings.append((str(name), scale_topology(base_topology, float(raw["multiplier"]))))
        else:
            raise ConfigError(str(path), f"{where}: needs 'topology' or 'multiplier'")

    levels = [_parse_level(raw, str(path), f"levels[{i}]")
              for i, raw in enumerate(data.get("levels", []))]

    directions = [str(d) for d in data.get("directions", ["read", "write"])]
    try:
        return SweepPlan(
            settings=settings,
            levels=levels,
            directions=directions,
            workload=workload,
            replication_factor=int(data.get("replication_factor", 5)),
            timeout_ms=float(data.get("timeout_ms", 10_000.0)),
            budget_ms=float(data["budget_ms"]) if data.get("budget_ms") is not None else None,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(path), str(exc)) from None
