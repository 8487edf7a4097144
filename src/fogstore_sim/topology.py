"""Fog continuum model: nodes, failure groups, weighted links, geometry.

A topology is immutable once constructed. All-pairs network latency is
precomputed at load time, one row per source (``latency_rows[src][dst]``),
so the loader can reject disconnected graphs up front. Those rows are the
only table of pair latencies: a simulator reads them too, never a copy.

Two distance notions coexist and are deliberately kept apart:

* geographic distance (meters, planar Euclidean) -- used to pick the node
  closest to a data source or client location;
* network latency (milliseconds, shortest path over link delays) -- used
  for node-to-node proximity, e.g. ordering replica candidates.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .errors import ConfigError, coord, element, expect, load_json, number, string

if TYPE_CHECKING:
    from .placement import ReplicaMap

Coord = tuple[float, float]

# Most distinct locations one topology memoizes in ``nearest_node``; lookups
# past the cap are computed without being stored, so memory stays bounded.
NEAREST_MEMO_CAP = 4096


class TopologyError(Exception):
    """Structurally invalid topology or bad node reference."""


class UnknownNodeError(TopologyError):
    """A node id was not declared in the topology."""


class UnreachableError(TopologyError):
    """Two nodes have no connecting path."""


class NoStorageNodesError(TopologyError):
    """The topology declares no storage-capable node."""


@dataclass(frozen=True)
class FogNode:
    """A host in the fog continuum.

    ``service_ms`` is an optional per-node processing delay added to every
    message delivered to this node (default 0: latency is attributed to
    the network only).
    """

    node_id: str
    geo: Coord
    failure_group_id: str
    is_storage: bool = True
    service_ms: float = 0.0


@dataclass(frozen=True)
class Link:
    """Symmetric network link; ``latency_ms`` is the one-way delay."""

    endpoint_a: str
    endpoint_b: str
    latency_ms: float


class Topology:
    """Immutable node/link graph with precomputed shortest-path latencies.

    Because nothing changes after construction, ``nearest_node`` memoizes
    its answers per instance, and ``placements`` holds
    :func:`~fogstore_sim.placement.place_replicas`' choices by (anchor,
    replica count); ``storage_by_latency`` sorts the anchor's row anew.
    A node's ``service_ms`` is only stored here: the simulator adds it to
    each delay.

    Raises :class:`TopologyError` subclasses on construction when ids are
    duplicated, links dangle, latencies are nonpositive, the graph is
    disconnected, or no node can store data.
    """

    def __init__(self, nodes: Iterable[FogNode], links: Iterable[Link]):
        node_list = list(nodes)
        link_list = list(links)

        self.nodes: dict[str, FogNode] = {}
        for i, node in enumerate(node_list):
            if node.node_id in self.nodes:
                raise TopologyError(f"duplicate node id {node.node_id!r}")
            if not all(math.isfinite(c) for c in node.geo):
                raise TopologyError(f"nodes[{i}].geo: must be finite (node {node.node_id!r})")
            if not (math.isfinite(node.service_ms) and node.service_ms >= 0):
                raise TopologyError(f"nodes[{i}].service_ms: must be finite and >= 0 "
                                    f"(got {node.service_ms}, node {node.node_id!r})")
            self.nodes[node.node_id] = node
        if not self.nodes:
            raise TopologyError("topology has no nodes")

        adjacency: dict[str, dict[str, float]] = {nid: {} for nid in self.nodes}
        for i, link in enumerate(link_list):
            for end in (link.endpoint_a, link.endpoint_b):
                if end not in self.nodes:
                    raise UnknownNodeError(f"links[{i}]: unknown node {end!r}")
            if link.endpoint_a == link.endpoint_b:
                raise TopologyError(f"links[{i}]: self-links are not allowed")
            if not (math.isfinite(link.latency_ms) and link.latency_ms > 0):
                raise TopologyError(
                    f"links[{i}].latency_ms: must be finite and > 0 (got {link.latency_ms})"
                )
            # A repeated link overwrites the earlier latency in place.
            adjacency[link.endpoint_a][link.endpoint_b] = link.latency_ms
            adjacency[link.endpoint_b][link.endpoint_a] = link.latency_ms
        self.links: tuple[Link, ...] = tuple(link_list)

        # src -> dst -> shortest-path latency, 0.0 from a node to itself; read only
        self.latency_rows: dict[str, dict[str, float]] = {
            src: _dijkstra(adjacency, src) for src in adjacency
        }
        first = next(iter(adjacency))
        if len(self.latency_rows[first]) < len(adjacency):
            missing = sorted(nid for nid in adjacency if nid not in self.latency_rows[first])
            raise UnreachableError(
                f"topology is disconnected: nodes {missing} cannot be reached from {first!r}")

        # Summation order varies with the Dijkstra source, which can skew the
        # two directions by float epsilons; mirror one triangle so the metric
        # is exactly symmetric.
        for a, row in self.latency_rows.items():
            for b, value in row.items():
                if a < b:
                    self.latency_rows[b][a] = value
        self.storage_ids: tuple[str, ...] = tuple(
            sorted(nid for nid, n in self.nodes.items() if n.is_storage)
        )
        if not self.storage_ids:
            raise NoStorageNodesError("topology has no storage nodes")
        self._node_ids: tuple[str, ...] = tuple(sorted(self.nodes))
        self._nearest: dict[tuple[float, float, bool], str] = {}
        # (anchor, replica count) -> the replica map every key placed there shares
        self.placements: dict[tuple[str, int], ReplicaMap] = {}

    def node(self, node_id: str) -> FogNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node_id!r}") from None

    def latency_ms(self, a: str, b: str) -> float:
        """Shortest-path latency from ``a`` to ``b``; an unknown node raises UnknownNodeError."""
        try:
            return self.latency_rows[a][b]
        except KeyError:
            raise UnknownNodeError(f"unknown node {b if a in self.nodes else a!r}") from None

    def nearest_node(self, location: Coord, storage_only: bool = False) -> str:
        """Node id geographically closest to ``location``; ties break on id."""
        # Keyed on the coordinates, so a list location finds a tuple's entry.
        key = (location[0], location[1], storage_only)
        nearest = self._nearest.get(key)
        if nearest is None:
            candidates = self.storage_ids if storage_only else self._node_ids
            nearest = min(candidates,
                          key=lambda nid: (geo_distance(self.nodes[nid].geo, location), nid))
            if len(self._nearest) < NEAREST_MEMO_CAP:
                self._nearest[key] = nearest
        return nearest

    def storage_by_latency(self, anchor: str) -> tuple[str, ...]:
        """Storage ids other than ``anchor``, lowest latency from it first; ties on id."""
        self.node(anchor)  # an unknown anchor raises UnknownNodeError
        row = self.latency_rows[anchor]
        return tuple(sorted((nid for nid in self.storage_ids if nid != anchor),
                            key=lambda nid: (row[nid], nid)))

    def to_dict(self) -> dict:
        return {
            "nodes": [
                {
                    "id": n.node_id,
                    "geo": list(n.geo),
                    "failure_group": n.failure_group_id,
                    "is_storage": n.is_storage,
                    **({"service_ms": n.service_ms} if n.service_ms else {}),
                }
                for n in sorted(self.nodes.values(), key=lambda n: n.node_id)
            ],
            "links": [
                {"a": l.endpoint_a, "b": l.endpoint_b, "latency_ms": l.latency_ms}
                for l in self.links
            ],
        }


def _dijkstra(adjacency: dict[str, dict[str, float]], source: str) -> dict[str, float]:
    """Shortest-path latency from ``source`` to every node it reaches.

    Links are relaxed in insertion order and heap ties break by push order,
    as in the reference implementation the tests compare every latency with
    bit for bit.
    """
    dist: dict[str, float] = {}
    seen = {source: 0.0}
    tie = count()
    fringe = [(0.0, next(tie), source)]
    while fringe:
        d, _, node = heapq.heappop(fringe)
        if node in dist:
            continue
        dist[node] = d
        for neighbor, weight in adjacency[node].items():
            nd = d + weight
            if neighbor not in dist and (neighbor not in seen or nd < seen[neighbor]):
                seen[neighbor] = nd
                heapq.heappush(fringe, (nd, next(tie), neighbor))
    return dist


def geo_distance(a: Coord, b: Coord) -> float:
    """Planar Euclidean distance in meters."""
    return math.dist(a, b)


def topology_from_dict(data: dict, source: str = "<dict>") -> Topology:
    """Build a topology from the JSON document structure, validating fields.

    Fields it does not know are ignored, so documents may carry extra ones.
    """
    if not isinstance(data, dict):
        raise ConfigError(source, "topology document must be a JSON object")
    nodes = []
    for i, raw in enumerate(expect(data.get("nodes", []), list, source, "nodes")):
        where = f"nodes[{i}]"
        with element(source, where):
            nodes.append(
                FogNode(
                    node_id=string(raw["id"], source, f"{where}.id"),
                    geo=coord(raw["geo"], source, f"{where}.geo"),
                    failure_group_id=string(raw["failure_group"], source,
                                            f"{where}.failure_group"),
                    is_storage=expect(raw.get("is_storage", True), bool, source,
                                      f"{where}.is_storage"),
                    service_ms=number(raw.get("service_ms", 0.0), source, f"{where}.service_ms"),
                )
            )
    links = []
    for i, raw in enumerate(expect(data.get("links", []), list, source, "links")):
        where = f"links[{i}]"
        with element(source, where):
            links.append(
                Link(
                    endpoint_a=string(raw["a"], source, f"{where}.a"),
                    endpoint_b=string(raw["b"], source, f"{where}.b"),
                    latency_ms=number(raw["latency_ms"], source, f"{where}.latency_ms"),
                )
            )
    try:
        return Topology(nodes, links)
    except TopologyError as exc:
        raise ConfigError(source, str(exc)) from None


def load_topology(path: str | Path) -> Topology:
    """Load and validate a topology JSON file."""
    path = Path(path)
    return topology_from_dict(load_json(path), source=str(path))
