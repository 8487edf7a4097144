"""Fog continuum model: nodes, failure groups, weighted links, geometry.

A topology is immutable once constructed. All-pairs network latency is
precomputed at load time, so lookups during a simulation are O(1) and the
loader can reject disconnected graphs up front.

Two distance notions coexist and are deliberately kept apart:

* geographic distance (meters, planar Euclidean) -- used to pick the node
  closest to a data source or client location;
* network latency (milliseconds, shortest path over link delays) -- used
  for node-to-node proximity, e.g. ordering replica candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import networkx as nx

from .errors import ConfigError, load_json

Coord = tuple[float, float]


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

    ``tier`` 0 is the network edge; higher tiers sit toward the cloud.
    ``service_ms`` is an optional per-node processing delay added to every
    message delivered to this node (default 0: latency is attributed to
    the network only).
    """

    node_id: str
    geo: Coord
    failure_group_id: str
    tier: int = 0
    is_storage: bool = True
    service_ms: float = 0.0


@dataclass(frozen=True)
class FailureGroup:
    """Nodes expected to fail together for one shared technical cause."""

    group_id: str
    member_ids: frozenset[str]


@dataclass(frozen=True)
class Link:
    """Symmetric network link; ``latency_ms`` is the one-way delay."""

    endpoint_a: str
    endpoint_b: str
    latency_ms: float


class Topology:
    """Immutable node/link graph with precomputed shortest-path latencies.

    Raises :class:`TopologyError` subclasses on construction when ids are
    duplicated, links dangle, latencies are nonpositive, or the graph is
    disconnected.
    """

    def __init__(self, nodes: Iterable[FogNode], links: Iterable[Link]):
        node_list = list(nodes)
        link_list = list(links)

        self.nodes: dict[str, FogNode] = {}
        for node in node_list:
            if node.node_id in self.nodes:
                raise TopologyError(f"duplicate node id {node.node_id!r}")
            if not all(math.isfinite(c) for c in node.geo):
                raise TopologyError(f"node {node.node_id!r}: geo must be finite")
            if node.service_ms < 0:
                raise TopologyError(f"node {node.node_id!r}: service_ms must be >= 0")
            self.nodes[node.node_id] = node
        if not self.nodes:
            raise TopologyError("topology has no nodes")

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes)
        for i, link in enumerate(link_list):
            for end in (link.endpoint_a, link.endpoint_b):
                if end not in self.nodes:
                    raise UnknownNodeError(f"links[{i}]: unknown node {end!r}")
            if link.endpoint_a == link.endpoint_b:
                raise TopologyError(f"links[{i}]: self-links are not allowed")
            if link.latency_ms <= 0:
                raise TopologyError(
                    f"links[{i}]: latency_ms must be > 0 (got {link.latency_ms})"
                )
            graph.add_edge(link.endpoint_a, link.endpoint_b, latency_ms=link.latency_ms)
        self.links: tuple[Link, ...] = tuple(link_list)
        self._graph = graph

        if len(self.nodes) > 1 and not nx.is_connected(graph):
            components = [sorted(c) for c in nx.connected_components(graph)]
            raise UnreachableError(f"topology is disconnected: components {components}")

        # Failure groups are derived from node membership, so the partition
        # invariant (every node in exactly one group) holds by construction.
        members: dict[str, set[str]] = {}
        for node in self.nodes.values():
            members.setdefault(node.failure_group_id, set()).add(node.node_id)
        self.groups: dict[str, FailureGroup] = {
            gid: FailureGroup(gid, frozenset(ids)) for gid, ids in sorted(members.items())
        }

        self._latency: dict[str, dict[str, float]] = {
            src: dict(dists)
            for src, dists in nx.all_pairs_dijkstra_path_length(graph, weight="latency_ms")
        }
        # Summation order varies with the Dijkstra source, which can skew the
        # two directions by float epsilons; mirror one triangle so the metric
        # is exactly symmetric.
        for a in self._latency:
            for b, value in self._latency[a].items():
                if a < b:
                    self._latency[b][a] = value
        self.storage_ids: tuple[str, ...] = tuple(
            sorted(nid for nid, n in self.nodes.items() if n.is_storage)
        )

    def node(self, node_id: str) -> FogNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node_id!r}") from None

    def latency_ms(self, a: str, b: str) -> float:
        if a not in self.nodes:
            raise UnknownNodeError(f"unknown node {a!r}")
        if b not in self.nodes:
            raise UnknownNodeError(f"unknown node {b!r}")
        if a == b:
            return 0.0
        return self._latency[a][b]

    def nearest_node(self, location: Coord, storage_only: bool = False) -> str:
        """Node id geographically closest to ``location``; ties break on id."""
        candidates = self.storage_ids if storage_only else sorted(self.nodes)
        if not candidates:
            raise NoStorageNodesError("topology has no storage nodes")
        return min(candidates, key=lambda nid: (geo_distance(self.nodes[nid].geo, location), nid))

    def to_dict(self) -> dict:
        return {
            "nodes": [
                {
                    "id": n.node_id,
                    "geo": list(n.geo),
                    "failure_group": n.failure_group_id,
                    "tier": n.tier,
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


def geo_distance(a: Coord, b: Coord) -> float:
    """Planar Euclidean distance in meters."""
    return math.dist(a, b)


def network_latency(topology: Topology, a: str, b: str) -> float:
    """One-way shortest-path latency in milliseconds (0 for a == b)."""
    return topology.latency_ms(a, b)


def find_closest(topology: Topology, location: Coord) -> str:
    """Storage node geographically closest to ``location``; ties break on id."""
    return topology.nearest_node(location, storage_only=True)


def topology_from_dict(data: dict, source: str = "<dict>") -> Topology:
    """Build a topology from the JSON document structure, validating fields."""
    if not isinstance(data, dict):
        raise ConfigError(source, "topology document must be a JSON object")
    nodes = []
    for i, raw in enumerate(data.get("nodes", [])):
        where = f"nodes[{i}]"
        try:
            geo = raw["geo"]
            if not (isinstance(geo, (list, tuple)) and len(geo) == 2):
                raise ConfigError(source, f"{where}.geo: expected [x, y]")
            nodes.append(
                FogNode(
                    node_id=str(raw["id"]),
                    geo=(float(geo[0]), float(geo[1])),
                    failure_group_id=str(raw["failure_group"]),
                    tier=int(raw.get("tier", 0)),
                    is_storage=bool(raw.get("is_storage", True)),
                    service_ms=float(raw.get("service_ms", 0.0)),
                )
            )
        except KeyError as exc:
            raise ConfigError(source, f"{where}: missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(source, f"{where}: {exc}") from None
    links = []
    for i, raw in enumerate(data.get("links", [])):
        where = f"links[{i}]"
        try:
            links.append(
                Link(
                    endpoint_a=str(raw["a"]),
                    endpoint_b=str(raw["b"]),
                    latency_ms=float(raw["latency_ms"]),
                )
            )
        except KeyError as exc:
            raise ConfigError(source, f"{where}: missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(source, f"{where}: {exc}") from None
    try:
        return Topology(nodes, links)
    except TopologyError as exc:
        raise ConfigError(source, str(exc)) from None


def load_topology(path: str | Path) -> Topology:
    """Load and validate a topology JSON file."""
    path = Path(path)
    return topology_from_dict(load_json(path), source=str(path))
