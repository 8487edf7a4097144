"""Shared fixtures and seeded generators for the test suite."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from fogstore_sim.consistency import ClientContext, ConsistencyLevel
from fogstore_sim.experiment import PAPER_LATENCY_SETTINGS, build_star_topology, run_queries
from fogstore_sim.netsim import FaultAction
from fogstore_sim.store import Cluster, Query, QueryResult
from fogstore_sim.topology import FogNode, Link, Topology

STAR_CLIENT = (-100.0, 0.0)

# A fault script that changes no delivery but makes a simulator inexact, so
# the store fans out to every replica and sets every client deadline.
INEXACT = (FaultAction(0.0, "heal"),)


@pytest.fixture
def star_low() -> Topology:
    return build_star_topology(PAPER_LATENCY_SETTINGS["low"])


def client_ctx(geo=STAR_CLIENT, client_id="c1") -> ClientContext:
    return ClientContext(client_id, geo)


def random_topology(seed: int, max_nodes: int = 12, min_storage: int = 1) -> Topology:
    """Connected random topology with random failure groups and latencies."""
    rng = random.Random(seed)
    n = rng.randint(max(2, min_storage), max_nodes)
    n_groups = rng.randint(1, n)
    ids = [f"n{i:02d}" for i in range(n)]
    nodes = []
    storage_flags = [rng.random() < 0.8 for _ in ids]
    while sum(storage_flags) < min_storage:
        storage_flags[rng.randrange(n)] = True
    for nid, is_storage in zip(ids, storage_flags):
        nodes.append(
            FogNode(
                nid,
                (round(rng.uniform(0, 1000), 1), round(rng.uniform(0, 1000), 1)),
                f"g{rng.randint(1, n_groups)}",
                is_storage=is_storage,
            )
        )
        rng.randint(0, 2)  # an unused draw, kept so every seed keeps its topology
    links = []
    seen = set()
    for i in range(1, n):
        j = rng.randrange(i)
        links.append(Link(ids[i], ids[j], round(rng.uniform(1, 10), 1)))
        seen.add(frozenset((ids[i], ids[j])))
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(ids, 2)
        if frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            links.append(Link(a, b, round(rng.uniform(1, 10), 1)))
    return Topology(nodes, links)


def brute_force_shortest(topology: Topology, a: str, b: str) -> float:
    """Exhaustive simple-path enumeration; independent of the graph library."""
    if a == b:
        return 0.0
    adjacency: dict[str, list[tuple[str, float]]] = {nid: [] for nid in topology.nodes}
    for link in topology.links:
        adjacency[link.endpoint_a].append((link.endpoint_b, link.latency_ms))
        adjacency[link.endpoint_b].append((link.endpoint_a, link.latency_ms))
    best = math.inf

    def walk(node: str, seen: frozenset[str], total: float) -> None:
        nonlocal best
        if total >= best:
            return
        if node == b:
            best = total
            return
        for neighbor, weight in adjacency[node]:
            if neighbor not in seen:
                walk(neighbor, seen | {neighbor}, total + weight)

    walk(a, frozenset({a}), 0.0)
    return best


def brute_force_closest(topology: Topology, location) -> str:
    """Independent oracle for the geographically closest storage node."""
    best_id, best_d = None, math.inf
    for nid in sorted(topology.nodes):
        node = topology.nodes[nid]
        if not node.is_storage:
            continue
        d = math.dist(node.geo, location)
        if d < best_d:
            best_id, best_d = nid, d
    return best_id


def disjoint_selection_exists(topology: Topology, anchor: str, size: int) -> bool:
    """Exhaustively check for a size-``size`` all-distinct-group selection
    that includes the anchor node."""
    if size == 1:
        return True
    others = [nid for nid in topology.storage_ids if nid != anchor]
    anchor_group = topology.node(anchor).failure_group_id
    for combo in itertools.combinations(others, size - 1):
        groups = {topology.node(nid).failure_group_id for nid in combo}
        if len(groups) == size - 1 and anchor_group not in groups:
            return True
    return False


def run_one(cluster: Cluster, query: Query) -> QueryResult:
    """Run one query through the experiment driver until the cluster is quiescent."""
    [(_, result)] = run_queries(cluster, [query])
    return result


ALL_LEVELS = (
    ConsistencyLevel.ONE,
    ConsistencyLevel.TWO,
    ConsistencyLevel.QUORUM,
    ConsistencyLevel.ALL,
)


def quorum_violations_for_seed(seed: int) -> list[tuple]:
    """Run one random schedule and report quorum-intersection violations.

    Writes carry increasing value indexes (w1, w2, ...). For every read
    whose required acks plus those of the latest completed write exceed the
    key's replica count, the read must observe that write or a newer one.
    """
    from fogstore_sim.consistency import DataContext, required_acks
    from fogstore_sim.netsim import Simulator
    from fogstore_sim.store import QueryKind

    rng = random.Random(seed)
    topo = random_topology(seed, max_nodes=8, min_storage=3)
    rf = rng.choice([3, 5])
    one = ConsistencyLevel.ONE  # every op pins its own level
    cluster = Cluster(topo, Simulator(topo), replication_factor=rf,
                      fixed_read_level=one, fixed_write_level=one)
    keys = [f"k{i}" for i in range(rng.randint(1, 3))]
    created = set()
    queries = []
    write_seq = 0
    for _ in range(rng.randint(10, 25)):
        key = rng.choice(keys)
        geo = (rng.uniform(0, 1000), rng.uniform(0, 1000))
        ctx = ClientContext(f"c{rng.randrange(3)}", geo)
        level = rng.choice(ALL_LEVELS)
        if key not in created:
            created.add(key)
            write_seq += 1
            queries.append(Query(QueryKind.CREATE, key, ctx, value=f"w{write_seq}",
                                 data_ctx=DataContext(geo), level=level))
        elif rng.random() < 0.5:
            write_seq += 1
            queries.append(Query(QueryKind.UPDATE, key, ctx, value=f"w{write_seq}", level=level))
        else:
            queries.append(Query(QueryKind.READ, key, ctx, level=level))
    results = run_queries(cluster, queries)

    completed: dict[str, list[tuple[int, int]]] = {}
    violations = []
    for query, result in results:
        eff = len(cluster.control.maps[query.key].replica_ids)
        if query.kind in (QueryKind.CREATE, QueryKind.UPDATE):
            if result.status == "ok":
                completed.setdefault(query.key, []).append(
                    (int(query.value[1:]), required_acks(result.level_used, eff)))
        elif query.kind is QueryKind.READ and result.status in ("ok", "not_found"):
            read_acks = required_acks(result.level_used, eff)
            observed = int(result.value[1:]) if result.status == "ok" else -1
            for write_idx, write_acks in reversed(completed.get(query.key, [])):
                if write_acks + read_acks > eff:
                    if observed < write_idx:
                        violations.append((seed, query.key, write_idx, observed))
                    break
    return violations
