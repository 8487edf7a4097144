import math
import random

import pytest

from fogstore_sim.consistency import (
    Band,
    ClientContext,
    ConsistencyLevel,
    ConsistencyRegionSpec,
    DataContext,
    RegionSet,
)
from fogstore_sim.experiment import build_star_topology, run_queries
from fogstore_sim.netsim import FaultAction, Simulator
from fogstore_sim.store import (
    Cluster,
    Query,
    QueryKind,
    Version,
    VersionedRecord,
    required_acks,
    _ReplicaStore,
)

from conftest import (
    ALL_LEVELS,
    STAR_CLIENT,
    client_ctx,
    quorum_violations_for_seed,
    random_topology,
    run_schedule,
)

ONE = ConsistencyLevel.ONE
TWO = ConsistencyLevel.TWO
QUORUM = ConsistencyLevel.QUORUM
ALL = ConsistencyLevel.ALL


def star_cluster(fault_script=(), **kwargs):
    topo = build_star_topology((4, 5, 6, 7, 8))
    sim = Simulator(topo, fault_script=fault_script)
    return Cluster(topo, sim, replication_factor=kwargs.pop("replication_factor", 5), **kwargs)


def create(cluster, key="k1", value="v1", geo=STAR_CLIENT, data_geo=None, level=ONE):
    query = Query(QueryKind.CREATE, key, client_ctx(geo), value=value,
                  data_ctx=DataContext(data_geo or geo))
    return cluster.apply_crud(query, level=level)


def read(cluster, key, level):
    return cluster.apply_crud(Query(QueryKind.READ, key, client_ctx()), level=level)


def update(cluster, key, value, level):
    return cluster.apply_crud(Query(QueryKind.UPDATE, key, client_ctx(), value=value), level=level)


class TestRequiredAcksSurface:
    def test_paper_values(self):
        assert required_acks(ONE, 5) == 1
        assert required_acks(TWO, 5) == 2
        assert required_acks(QUORUM, 5) == 3
        assert required_acks(ALL, 5) == 5


class TestVersions:
    def test_total_order(self):
        assert Version(2, "a") > Version(1, "z")
        assert Version(1, "b") > Version(1, "a")
        assert sorted([Version(2, "a"), Version(1, "b")]) == [Version(1, "b"), Version(2, "a")]

    def test_replica_never_downgrades(self):
        store = _ReplicaStore()
        newer = VersionedRecord("k", "new", Version(2, "a"), DataContext((0, 0)))
        older = VersionedRecord("k", "old", Version(1, "b"), DataContext((0, 0)))
        store.apply(newer)
        store.apply(older)
        assert store.get("k").value == "new"

    def test_last_write_wins_is_order_independent(self):
        records = [
            VersionedRecord("k", f"v{i}", Version(i, w), DataContext((0, 0)))
            for i, w in [(1, "a"), (3, "b"), (2, "c")]
        ]
        outcomes = set()
        for order in ([0, 1, 2], [2, 1, 0], [1, 0, 2]):
            store = _ReplicaStore()
            for idx in order:
                store.apply(records[idx])
            outcomes.add(store.get("k").version)
        assert outcomes == {Version(3, "b")}

    def test_data_context_carried_forward(self):
        store = _ReplicaStore()
        store.apply(VersionedRecord("k", "v1", Version(1, "a"), DataContext((5, 5))))
        store.apply(VersionedRecord("k", "v2", Version(2, "a"), data_ctx=None))
        assert store.get("k").data_ctx == DataContext((5, 5))


class TestCrudPaths:
    def test_create_then_read(self):
        cluster = star_cluster()
        assert create(cluster).status == "ok"
        result = read(cluster, "k1", ONE)
        assert (result.status, result.value) == ("ok", "v1")

    def test_read_of_never_written_key(self):
        cluster = star_cluster()
        result = read(cluster, "ghost", ALL)
        assert result.status == "not_found"

    def test_duplicate_create_rejected(self):
        cluster = star_cluster()
        assert create(cluster).status == "ok"
        again = create(cluster)
        assert (again.status, again.error) == ("error", "duplicate_key")

    def test_update_unknown_key_not_found(self):
        cluster = star_cluster()
        result = update(cluster, "ghost", "v", ONE)
        assert result.status == "not_found"

    def test_delete_then_read_all_is_not_found(self):
        cluster = star_cluster()
        create(cluster)
        gone = cluster.apply_crud(
            Query(QueryKind.DELETE, "k1", client_ctx(STAR_CLIENT)), level=QUORUM)
        assert gone.status == "ok"
        result = read(cluster, "k1", ALL)
        assert result.status == "not_found"  # tombstone dominates by version

    def test_recreate_after_delete(self):
        cluster = star_cluster()
        create(cluster)
        cluster.apply_crud(Query(QueryKind.DELETE, "k1", client_ctx(STAR_CLIENT)), level=ONE)
        fresh = create(cluster, value="v2")
        assert fresh.status == "ok"
        result = read(cluster, "k1", ALL)
        assert (result.status, result.value) == ("ok", "v2")

    def test_tx_operations_are_stubs(self):
        cluster = star_cluster()
        for kind in (QueryKind.TX_BEGIN, QueryKind.TX_COMMIT, QueryKind.TX_ABORT, QueryKind.TX_ROLLBACK):
            result = cluster.apply_crud(Query(kind, "k", client_ctx(STAR_CLIENT)))
            assert (result.status, result.error) == ("error", "unsupported_operation")

    def test_level_infeasible_via_map_size(self):
        cluster = star_cluster(replication_factor=1)
        create(cluster)  # single replica
        result = read(cluster, "k1", TWO)
        assert (result.status, result.error) == ("error", "level_infeasible")

    def test_no_level_source_is_an_error(self):
        cluster = star_cluster()  # no fixed levels, no regions
        result = cluster.apply_crud(
            Query(QueryKind.CREATE, "k", client_ctx(STAR_CLIENT), value="v",
                  data_ctx=DataContext(STAR_CLIENT)))
        assert (result.status, result.error) == ("error", "no_level_configured")


class TestLatencyPaths:
    def test_one_with_local_replica_is_two_hops(self):
        cluster = star_cluster()
        create(cluster)
        result = read(cluster, "k1", ONE)
        assert result.latency_ms == 10.0  # 2 x (1 + 4), no replica fan-out

    def test_all_waits_for_farthest_replica(self):
        cluster = star_cluster()
        create(cluster)
        result = read(cluster, "k1", ALL)
        assert result.latency_ms == 34.0  # 10 + 2 x (4 + 8)
        assert result.acks_received == 5

    def test_write_latencies_match_read_paths(self):
        cluster = star_cluster()
        create(cluster)
        assert update(cluster, "k1", "w1", ONE).latency_ms == 10.0
        assert update(cluster, "k1", "w2", TWO).latency_ms == 28.0
        assert update(cluster, "k1", "w3", QUORUM).latency_ms == 30.0
        assert update(cluster, "k1", "w4", ALL).latency_ms == 34.0

    def test_coordinator_without_replica_hops_to_nearest(self):
        # rf=1 anchored on the farthest node: the client's coordinator holds
        # no replica, so even level ONE costs one extra round trip
        cluster = star_cluster(replication_factor=1)
        create(cluster, data_geo=(800.0, 0.0))  # anchor on fog-5 (8 ms link)
        assert cluster.control.replica_map("k1").replica_ids == ("fog-5",)
        result = read(cluster, "k1", ONE)
        assert result.latency_ms == 34.0  # 10 + 2 x (4 + 8)


class TestConvergence:
    def test_background_completion_converges_all_replicas(self):
        cluster = star_cluster()
        create(cluster)
        update(cluster, "k1", "v2", ONE)
        cluster.sim.run_until_quiescent()
        assert cluster.convergence_violations() == []
        versions = {cluster.replica_record(n, "k1").value for n in cluster.topology.storage_ids}
        assert versions == {"v2"}

    def test_random_workload_converges(self):
        rng = random.Random(1)
        cluster = star_cluster()
        ops = []
        keys = ["a", "b", "c"]
        for key in keys:
            ops.append((Query(QueryKind.CREATE, key, client_ctx(), value=f"{key}0",
                              data_ctx=DataContext(STAR_CLIENT)), rng.choice(ALL_LEVELS)))
        for i in range(60):
            key = rng.choice(keys)
            if rng.random() < 0.5:
                ops.append((Query(QueryKind.UPDATE, key, client_ctx(), value=f"{key}{i + 1}"),
                            rng.choice(ALL_LEVELS)))
            else:
                ops.append((Query(QueryKind.READ, key, client_ctx()), rng.choice(ALL_LEVELS)))
        results = run_schedule(cluster, ops)
        assert all(r.status in ("ok", "not_found") for _, r in results)
        assert cluster.convergence_violations() == []


class TestFaultInteraction:
    def test_all_with_crashed_replica_times_out(self):
        script = [FaultAction(at_ms=0.0, action="crash", node="fog-5")]
        cluster = star_cluster(fault_script=script)
        create(cluster)  # level ONE create succeeds without fog-5
        result = update(cluster, "k1", "v2", ALL)
        assert (result.status, result.error) == ("error", "timeout")
        assert result.acks_received == 4

    def test_quorum_survives_two_partitioned_replicas(self):
        cluster = star_cluster()
        create(cluster)
        cluster.sim.apply_fault(FaultAction(
            at_ms=0.0, action="partition",
            group_a=frozenset(["fog-4", "fog-5"]),
            group_b=frozenset(["fog-1", "fog-2", "fog-3", "switch", "client"])))
        result = update(cluster, "k1", "v2", QUORUM)
        assert (result.status, result.acks_received) == ("ok", 3)

    def test_stale_write_visible_to_all_level_read(self):
        # write lands only on the coordinator (others partitioned away); a
        # later ALL read must surface the coordinator's fresher version
        cluster = star_cluster()
        create(cluster)
        cluster.sim.run_until_quiescent()
        cluster.sim.apply_fault(FaultAction(
            at_ms=0.0, action="partition",
            group_a=frozenset(["fog-1"]),
            group_b=frozenset(["fog-2", "fog-3", "fog-4", "fog-5"])))
        lone = update(cluster, "k1", "v-new", ONE)
        assert (lone.status, lone.acks_received) == ("ok", 1)
        cluster.sim.apply_fault(FaultAction(at_ms=0.0, action="heal"))
        assert cluster.replica_record("fog-2", "k1").value == "v1"  # still stale
        result = read(cluster, "k1", ALL)
        assert (result.status, result.value) == ("ok", "v-new")

    def test_crash_recover_preserves_replica_state(self):
        cluster = star_cluster()
        create(cluster, level=ALL)
        before = cluster.replica_record("fog-5", "k1")
        cluster.sim.apply_fault(FaultAction(at_ms=0.0, action="crash", node="fog-5"))
        update(cluster, "k1", "v2", QUORUM)
        cluster.sim.apply_fault(FaultAction(at_ms=0.0, action="recover", node="fog-5"))
        assert cluster.replica_record("fog-5", "k1") == before  # durable, but stale

    def test_client_deadline_covers_coordinator_crash(self):
        script = [FaultAction(at_ms=7.0, action="crash", node="fog-1")]
        cluster = star_cluster(fault_script=script)
        create(cluster)
        cluster.sim.run_until_quiescent()  # create finishes before the crash lands
        result = read(cluster, "k1", QUORUM)
        assert (result.status, result.error) == ("error", "timeout")


class TestDataContextUpdates:
    def regions(self):
        inner = Band(500.0, read_level=ALL, write_level=ONE)
        outer = Band(math.inf, read_level=ONE, write_level=ONE)
        return RegionSet([], default=ConsistencyRegionSpec("", (inner, outer)))

    def test_data_context_update_moves_the_region_anchor(self):
        cluster = star_cluster(region_set=self.regions())
        client = ClientContext("car", (-400.0, 0.0))  # 300 m from (-100, 0)
        cluster.apply_crud(Query(QueryKind.CREATE, "tl-1", client, value="red",
                                 data_ctx=DataContext((-100.0, 0.0))))
        before = cluster.apply_crud(Query(QueryKind.READ, "tl-1", client))
        assert before.level_used is ALL  # inside the 500 m band

        # the data source moves 10 km away; same client is now far outside
        moved = cluster.apply_crud(Query(QueryKind.UPDATE, "tl-1", client, value="green",
                                         data_ctx=DataContext((10_000.0, 0.0))))
        assert moved.status == "ok"
        after = cluster.apply_crud(Query(QueryKind.READ, "tl-1", client))
        assert after.level_used is ONE
        assert after.value == "green"


class TestQueryValidation:
    def test_create_needs_value_and_data_context(self):
        with pytest.raises(ValueError):
            Query(QueryKind.CREATE, "k", client_ctx(), value=None, data_ctx=DataContext((0, 0)))
        with pytest.raises(ValueError):
            Query(QueryKind.CREATE, "k", client_ctx(), value="v")

    def test_update_needs_value(self):
        with pytest.raises(ValueError):
            Query(QueryKind.UPDATE, "k", client_ctx())


class TestQuorumIntersection:
    def test_intersecting_quorums_observe_latest_write(self):
        violations = []
        for seed in range(100):
            violations.extend(quorum_violations_for_seed(seed))
        assert violations == []


class TestClosedLoopDriver:
    def test_run_queries_preserves_order_and_latency(self):
        cluster = star_cluster(fixed_read_level=ONE, fixed_write_level=ONE)
        queries = [
            Query(QueryKind.CREATE, "a", client_ctx(), value="1", data_ctx=DataContext(STAR_CLIENT)),
            Query(QueryKind.READ, "a", client_ctx()),
            Query(QueryKind.READ, "a", client_ctx()),
        ]
        results = run_queries(cluster, queries)
        assert [q.kind for q, _ in results] == [QueryKind.CREATE, QueryKind.READ, QueryKind.READ]
        assert all(r.latency_ms == 10.0 for _, r in results)


class TestOpenLoopDriver:
    def test_overlapping_arrivals_complete_independently(self):
        cluster = star_cluster(fixed_read_level=ALL, fixed_write_level=ONE)
        queries = [Query(QueryKind.CREATE, "a", client_ctx(), value="1",
                         data_ctx=DataContext(STAR_CLIENT))]
        queries += [Query(QueryKind.READ, "a", client_ctx()) for _ in range(9)]
        # 1 ms arrivals against 34 ms ALL reads: many operations in flight
        results = run_queries(cluster, queries, open_loop_interval_ms=1.0)
        assert len(results) == 10
        reads = [r for q, r in results if q.kind is QueryKind.READ]
        assert {r.status for r in reads} == {"ok"}
        assert {r.latency_ms for r in reads} == {34.0}

    def test_open_loop_trace_is_deterministic(self):
        def one_trace():
            trace = []
            topo = build_star_topology((4, 5, 6, 7, 8))
            sim = Simulator(topo, trace=trace.append)
            cluster = Cluster(topo, sim, replication_factor=5,
                              fixed_read_level=ONE, fixed_write_level=ONE)
            queries = [Query(QueryKind.CREATE, "a", client_ctx(), value="1",
                             data_ctx=DataContext(STAR_CLIENT))]
            queries += [Query(QueryKind.READ, "a", client_ctx()) for _ in range(4)]
            run_queries(cluster, queries, open_loop_interval_ms=2.0)
            return trace

        assert one_trace() == one_trace()
