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
inputs always yield identical maps; keys placed at one anchor and replica
count share one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .topology import Coord, Topology


@dataclass(frozen=True)
class ReplicaMap:
    """Ordered replica set; ``replica_ids[0]`` is the anchor.

    ``degraded`` is True when the failure-group constraint had to be
    relaxed because fewer distinct storage-bearing groups exist than
    replicas requested.
    """

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

    This policy ignores ``key``: it returns the one map that ``topology``
    keeps per (anchor, replica count), shared by every key placed there.
    Other policies may place by key, hence the signature.
    """
    if replication_factor < 1:
        raise ValueError("replication_factor must be >= 1")
    anchor = topology.nearest_node(data_location, storage_only=True)
    target = min(replication_factor, len(topology.storage_ids))
    rmap = topology.placements.get((anchor, target))
    if rmap is None:
        rmap = topology.placements[anchor, target] = _place(topology, anchor, target)
    return rmap


def _place(topology: Topology, anchor: str, target: int) -> ReplicaMap:
    """``target`` replicas from ``anchor`` on."""
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
    return ReplicaMap(tuple(chosen), degraded)


def placement_csv_rows(keys: list[str], maps: list[ReplicaMap]) -> list[str]:
    """Render each key's replica map as a ``key,replica1,...,replicaN,degraded`` row."""
    return [
        ",".join([key, *m.replica_ids, "degraded" if m.degraded else "ok"])
        for key, m in zip(keys, maps, strict=True)
    ]
