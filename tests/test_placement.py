import random

import pytest

from fogstore_sim.experiment import build_star_topology
from fogstore_sim.placement import ReplicaMap, place_replicas, placement_csv_rows
from fogstore_sim.topology import FogNode, Link, Topology

from conftest import (
    STAR_CLIENT,
    brute_force_closest,
    disjoint_selection_exists,
    random_topology,
)


def make_two_group_star():
    # anchor A with B in the same failure group and C in another; latencies
    # from A: B at 2 ms, C at 3 ms
    nodes = [
        FogNode("A", (0, 0), "g1"),
        FogNode("B", (10, 0), "g1"),
        FogNode("C", (20, 0), "g2"),
    ]
    links = [Link("A", "B", 2.0), Link("A", "C", 3.0)]
    return Topology(nodes, links)


class TestPlaceReplicas:
    def test_rf_one_is_just_the_closest(self):
        topo = make_two_group_star()
        rmap = place_replicas("k", (0, 0), topo, 1)
        assert rmap.replica_ids == ("A",)
        assert not rmap.degraded

    def test_same_group_neighbor_skipped(self):
        topo = make_two_group_star()
        rmap = place_replicas("k", (0, 0), topo, 2)
        assert rmap.replica_ids == ("A", "C")  # B shares A's group
        assert not rmap.degraded

    def test_star_rf5_uses_all_nodes_latency_ordered(self):
        topo = build_star_topology((4, 5, 6, 7, 8))
        rmap = place_replicas("k", STAR_CLIENT, topo, 5)
        assert rmap.replica_ids == ("fog-1", "fog-2", "fog-3", "fog-4", "fog-5")
        assert not rmap.degraded

    def test_degraded_when_groups_run_out(self):
        topo = make_two_group_star()
        rmap = place_replicas("k", (0, 0), topo, 3)
        assert rmap.replica_ids == ("A", "C", "B")  # C first (new group), then relax
        assert rmap.degraded

    def test_rf_capped_by_storage_count(self):
        topo = make_two_group_star()
        rmap = place_replicas("k", (0, 0), topo, 10)
        assert len(rmap.replica_ids) == 3

    def test_rf_must_be_positive(self):
        with pytest.raises(ValueError):
            place_replicas("k", (0, 0), make_two_group_star(), 0)

    def test_keys_at_one_anchor_and_count_share_one_map(self):
        topo = make_two_group_star()
        rmap = place_replicas("k1", (0, 0), topo, 2)
        assert place_replicas("k2", (1, 1), topo, 2) is rmap
        other = place_replicas("k3", (0, 0), topo, 3)
        assert other is not rmap
        assert topo.placements == {("A", 2): rmap, ("A", 3): other}

    def test_replica_map_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ReplicaMap(("a", "a"))


class TestPlacementProperties:
    def test_properties_over_random_topologies(self):
        rng = random.Random(4242)
        for seed in range(200):
            topo = random_topology(seed)
            rf = rng.randint(1, 5)
            location = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            rmap = place_replicas("k", location, topo, rf)
            target = min(rf, len(topo.storage_ids))

            assert len(rmap.replica_ids) == target
            assert len(set(rmap.replica_ids)) == target
            assert rmap.replica_ids[0] == brute_force_closest(topo, location)

            groups = {topo.node(n).failure_group_id for n in rmap.replica_ids}
            storage_groups = {topo.node(n).failure_group_id for n in topo.storage_ids}
            if len(storage_groups) >= rf:
                assert len(groups) == target, "groups must be pairwise distinct"
            # degraded exactly when no same-cardinality disjoint selection exists
            assert rmap.degraded == (
                not disjoint_selection_exists(topo, rmap.replica_ids[0], target)
            )

            again = place_replicas("k", location, topo, rf)
            assert again == rmap

    def test_second_replica_has_minimal_latency_among_eligible(self):
        for seed in range(80):
            topo = random_topology(seed, min_storage=2)
            rmap = place_replicas("k", (500, 500), topo, 3)
            if len(rmap.replica_ids) < 2:
                continue
            anchor = rmap.replica_ids[0]
            anchor_group = topo.node(anchor).failure_group_id
            eligible = [
                nid for nid in topo.storage_ids
                if nid != anchor and topo.node(nid).failure_group_id != anchor_group
            ]
            if not eligible:
                eligible = [nid for nid in topo.storage_ids if nid != anchor]
            best = min(eligible, key=lambda nid: (topo.latency_ms(anchor, nid), nid))
            assert rmap.replica_ids[1] == best

    def test_every_replica_follows_latency_order_over_unused_groups(self):
        # Each replica after the anchor is the nearest (by latency, then id)
        # storage node of an unused group; once none is left, the nearest unchosen.
        rng = random.Random(77)
        for seed in range(100):
            for max_nodes in (8, 12, 30):
                topo = random_topology(seed, max_nodes=max_nodes)
                location = (rng.uniform(0, 1000), rng.uniform(0, 1000))
                rmap = place_replicas("k", location, topo, rng.randint(1, 8))
                anchor = rmap.replica_ids[0]
                order = sorted((nid for nid in topo.storage_ids if nid != anchor),
                               key=lambda nid: (topo.latency_ms(anchor, nid), nid))
                chosen = [anchor]
                used = {topo.node(anchor).failure_group_id}
                relaxed = False
                for actual in rmap.replica_ids[1:]:
                    unchosen = [nid for nid in order if nid not in chosen]
                    eligible = [nid for nid in unchosen
                                if topo.node(nid).failure_group_id not in used]
                    relaxed = relaxed or not eligible
                    assert actual == (eligible or unchosen)[0], (seed, max_nodes)
                    chosen.append(actual)
                    used.add(topo.node(actual).failure_group_id)
                assert rmap.degraded == relaxed


class TestAnchorOrder:
    def test_storage_by_latency_matches_a_fresh_sort(self):
        for seed in range(150):
            topo = random_topology(seed, max_nodes=20)
            for anchor in sorted(topo.nodes):
                fresh = sorted((nid for nid in topo.storage_ids if nid != anchor),
                               key=lambda nid: (topo.latency_ms(anchor, nid), nid))
                assert topo.storage_by_latency(anchor) == tuple(fresh)
                assert topo.storage_by_latency(anchor) == tuple(fresh)  # sorted again

    def test_placements_reused_per_anchor_match_a_fresh_topology(self):
        rng = random.Random(99)
        for seed in range(60):
            topo = random_topology(seed, max_nodes=20)
            for i in range(40):
                location = (rng.uniform(0, 1000), rng.uniform(0, 1000))
                rf = rng.randint(1, 8)
                fresh = Topology(topo.nodes.values(), topo.links)  # nothing memoized yet
                assert (place_replicas(f"k{i}", location, topo, rf)
                        == place_replicas(f"k{i}", location, fresh, rf)), (seed, i)
            assert len(topo.placements) < 40  # anchors and counts repeat


class TestPlacementCsv:
    def test_rows(self):
        topo = make_two_group_star()
        rows = placement_csv_rows(["k1", "k2"], [
            place_replicas("k1", (0, 0), topo, 2),
            place_replicas("k2", (0, 0), topo, 3),
        ])
        assert rows == ["k1,A,C,ok", "k2,A,C,B,degraded"]
