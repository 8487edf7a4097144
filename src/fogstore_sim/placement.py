"""Replica placement: failure-group disjointness with latency-first ordering.

The first replica lands on the storage node geographically closest to the
data location. Every further slot is filled greedily with the storage node
that has the lowest network latency to that first replica, skipping nodes
whose failure group is already represented. Once every remaining group is
taken (fewer groups than slots), the group constraint is relaxed and the
remaining slots fill in pure latency order; the result is then flagged
``degraded`` rather than rejected, trading strict placement for
availability.

Ties anywhere break on the lexicographically smallest node id, so identical
inputs always yield identical maps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .topology import Coord, Topology


@dataclass(frozen=True)
class ReplicaMap:
    """Ordered replica set for one key; ``replica_ids[0]`` is the anchor.

    ``degraded`` is True when the failure-group constraint had to be
    relaxed because fewer distinct storage-bearing groups exist than
    replicas requested.
    """

    key: str
    replica_ids: tuple[str, ...]
    degraded: bool = False

    def __post_init__(self) -> None:
        if len(set(self.replica_ids)) != len(self.replica_ids):
            raise ValueError("replica_ids must be distinct")


def place_replicas(
    key: str,
    data_location: Coord,
    topology: Topology,
    replication_factor: int,
) -> ReplicaMap:
    """Choose replica nodes for ``key`` anchored near ``data_location``.

    The choice depends only on the anchor and the replica count, so the
    topology keeps it per pair and each call builds only the key's map.
    """
    if replication_factor < 1:
        raise ValueError("replication_factor must be >= 1")
    anchor = topology.nearest_node(data_location, storage_only=True)
    target = min(replication_factor, len(topology.storage_ids))
    try:
        replica_ids, degraded = topology.placements[anchor, target]
    except KeyError:
        replica_ids, degraded = topology.placements[anchor, target] = _place(
            topology, anchor, target)
    return ReplicaMap(key, replica_ids, degraded)


def _place(topology: Topology, anchor: str, target: int) -> tuple[tuple[str, ...], bool]:
    """``target`` replicas from ``anchor`` on, and whether the group constraint was relaxed."""
    chosen = [anchor]
    used_groups = {topology.node(anchor).failure_group_id}
    set_aside: list[str] = []
    for nid in topology.storage_by_latency(anchor):
        if len(chosen) == target:
            break
        group = topology.node(nid).failure_group_id
        if group in used_groups:
            set_aside.append(nid)
        else:
            chosen.append(nid)
            used_groups.add(group)

    degraded = len(chosen) < target
    chosen.extend(set_aside[:target - len(chosen)])
    return tuple(chosen), degraded


def placement_csv_rows(maps: list[ReplicaMap]) -> list[str]:
    """Render replica maps as ``key,replica1,...,replicaN,degraded`` rows."""
    return [
        ",".join([m.key, *m.replica_ids, "degraded" if m.degraded else "ok"])
        for m in maps
    ]
