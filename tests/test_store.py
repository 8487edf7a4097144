import gc
import hashlib
import itertools
import math
import random
import re
from collections import Counter, defaultdict
from dataclasses import is_dataclass, replace

import pytest

from fogstore_sim.consistency import (
    Band,
    ClientContext,
    ConsistencyLevel,
    ConsistencyRegionSpec,
    DataContext,
    LevelInfeasibleError,
    RegionSet,
)
from fogstore_sim.experiment import (
    PAPER_LATENCY_SETTINGS,
    build_star_topology,
    run_queries,
    run_single,
)
from fogstore_sim.netsim import BudgetExceededError, FaultAction, Simulator
from fogstore_sim import store
from fogstore_sim.placement import place_replicas
from fogstore_sim.store import (
    SHARED_LATENCY_CAP,
    Arrival,
    ClientTimeout,
    Cluster,
    OpTimeout,
    Query,
    QueryKind,
    QueryReq,
    QueryResp,
    QueryResult,
    ReadReq,
    ReadResp,
    VersionedRecord,
    WriteAck,
    WriteReq,
    required_acks,
    _apply,
)
from fogstore_sim.topology import Topology
from fogstore_sim.workload import WorkloadClient, WorkloadSpec, generate_ops

from conftest import (
    ALL_LEVELS,
    INEXACT,
    STAR_CLIENT,
    client_ctx,
    quorum_violations_for_seed,
    random_topology,
    run_one,
)

ONE = ConsistencyLevel.ONE
TWO = ConsistencyLevel.TWO
QUORUM = ConsistencyLevel.QUORUM
ALL = ConsistencyLevel.ALL


def star_cluster(fault_script=(), **kwargs):
    """The low star at rf 5, with fixed ONE levels unless ``kwargs`` names a region set."""
    topo = build_star_topology((4, 5, 6, 7, 8))
    sim = Simulator(topo, fault_script=fault_script)
    if "region_set" not in kwargs:
        kwargs = {"fixed_read_level": ONE, "fixed_write_level": ONE, **kwargs}
    return Cluster(topo, sim, replication_factor=kwargs.pop("replication_factor", 5), **kwargs)


def create(cluster, key="k1", value="v1", geo=STAR_CLIENT, data_geo=None, level=ONE):
    query = Query(QueryKind.CREATE, key, client_ctx(geo), value=value,
                  data_ctx=DataContext(data_geo or geo), level=level)
    return run_one(cluster, query)


def read(cluster, key, level):
    return run_one(cluster, Query(QueryKind.READ, key, client_ctx(), level=level))


def update(cluster, key, value, level):
    return run_one(cluster, Query(QueryKind.UPDATE, key, client_ctx(), value=value, level=level))


class TestRequiredAcksSurface:
    def test_paper_values(self):
        assert required_acks(ONE, 5) == 1
        assert required_acks(TWO, 5) == 2
        assert required_acks(QUORUM, 5) == 3
        assert required_acks(ALL, 5) == 5


class TestVersions:
    def test_replica_never_downgrades(self):
        records = {}
        newer = VersionedRecord("k", "new", 2)
        older = VersionedRecord("k", "old", 1)
        _apply(records, newer)
        _apply(records, older)
        assert records["k"].value == "new"

    def test_last_write_wins_is_order_independent(self):
        writes = [VersionedRecord("k", f"v{i}", i) for i in (1, 3, 2)]
        outcomes = set()
        for order in ([0, 1, 2], [2, 1, 0], [1, 0, 2]):
            records = {}
            for idx in order:
                _apply(records, writes[idx])
            outcomes.add(records["k"].version)
        assert outcomes == {3}


class TestCrudPaths:
    # The coordinator fog-1 holds a replica: ONE answers a write at once, ALL waits.
    WRITE_PATHS = (ONE, ALL)

    def test_create_then_read(self):
        cluster = star_cluster()
        assert create(cluster).status == "ok"
        result = read(cluster, "k1", ONE)
        assert (result.status, result.value) == ("ok", "v1")

    @pytest.mark.parametrize("write_level", WRITE_PATHS, ids=lambda level: level.value)
    def test_a_create_of_a_live_key_overwrites_it(self, write_level):
        cluster = star_cluster()
        assert create(cluster, level=write_level).status == "ok"
        assert create(cluster, value="v2", level=write_level).status == "ok"
        result = read(cluster, "k1", ALL)
        assert (result.status, result.value) == ("ok", "v2")

    @pytest.mark.parametrize("kind, deleted", [
        (QueryKind.UPDATE, True),
        (QueryKind.READ, False), (QueryKind.UPDATE, False), (QueryKind.DELETE, False),
    ], ids=["update-after-delete", "read-unplaced", "update-unplaced", "delete-unplaced"])
    def test_a_write_is_an_upsert_and_an_unplaced_key_is_not_found(self, kind, deleted):
        # A key no CREATE placed has no replicas to ask: the coordinator answers
        # at once, at no level. A placed key takes any write, as in Cassandra,
        # so an UPDATE brings a deleted key back.
        cluster = star_cluster()
        if deleted:
            create(cluster, key="k")
            run_one(cluster, Query(QueryKind.DELETE, "k", client_ctx()))
        value = "back" if kind is QueryKind.UPDATE else None
        result = run_one(cluster, Query(kind, "k", client_ctx(), value=value, level=ALL))
        if deleted:
            assert result.status == "ok"
            after = read(cluster, "k", ALL)
            assert (after.status, after.value) == ("ok", "back")
        else:
            assert (result.status, result.latency_ms, result.level_used) == (
                "not_found", 10.0, None)

    @pytest.mark.parametrize("write_level", WRITE_PATHS, ids=lambda level: level.value)
    def test_delete_then_read_all_is_not_found(self, write_level):
        cluster = star_cluster()
        create(cluster, level=write_level)
        gone = run_one(cluster, Query(QueryKind.DELETE, "k1", client_ctx(STAR_CLIENT),
                                      level=write_level))
        assert gone.status == "ok"
        result = read(cluster, "k1", ALL)
        assert result.status == "not_found"  # tombstone dominates by version

    @pytest.mark.parametrize("write_level", WRITE_PATHS, ids=lambda level: level.value)
    def test_recreate_after_delete(self, write_level):
        cluster = star_cluster()
        create(cluster, level=write_level)
        run_one(cluster, Query(QueryKind.DELETE, "k1", client_ctx(STAR_CLIENT), level=write_level))
        fresh = create(cluster, value="v2", level=write_level)
        assert fresh.status == "ok"
        result = read(cluster, "k1", ALL)
        assert (result.status, result.value) == ("ok", "v2")

    def test_level_infeasible_via_map_size(self):
        cluster = star_cluster(replication_factor=1)
        create(cluster)  # single replica
        result = read(cluster, "k1", TWO)
        assert (result.status, result.error) == ("error", "level_infeasible")

    @pytest.mark.parametrize("sources", [
        {},
        {"fixed_read_level": ONE},
        {"fixed_write_level": ONE},
        {"region_set": RegionSet.uniform(ONE, ONE), "fixed_read_level": ONE},
        {"region_set": RegionSet.uniform(ONE, ONE), "fixed_read_level": ONE,
         "fixed_write_level": ONE},
    ], ids=["neither", "read-only", "write-only", "regions-and-read", "regions-and-both"])
    def test_cluster_needs_exactly_one_level_source(self, sources):
        topo = build_star_topology((4, 5, 6, 7, 8))
        with pytest.raises(ValueError, match="either a region set or both fixed levels"):
            Cluster(topo, Simulator(topo), **sources)

    def test_rejected_create_leaves_the_key_unregistered(self):
        cluster = star_cluster(replication_factor=1)
        rejected = create(cluster, level=TWO)
        assert (rejected.status, rejected.error) == ("error", "level_infeasible")
        assert cluster.control.maps.get("k1") is None
        assert create(cluster, level=ONE).status == "ok"
        result = read(cluster, "k1", ONE)
        assert (result.status, result.value) == ("ok", "v1")

    def test_concurrent_creates_of_a_key_both_land(self):
        # The second CREATE reaches fog-1 while the first still waits for its
        # ALL acks. Each is an upsert, so both complete and the later one wins.
        cluster = star_cluster(fixed_read_level=ALL, fixed_write_level=ALL)
        queries = [Query(QueryKind.CREATE, "k", client_ctx(), value=value,
                         data_ctx=DataContext(STAR_CLIENT)) for value in ("first", "second")]
        results = run_queries(cluster, queries, open_loop_interval_ms=1.0)  # completion order
        assert [(q.value, r.status, r.error, r.latency_ms) for q, r in results] == [
            ("first", "ok", None, 34.0), ("second", "ok", None, 34.0)]
        result = read(cluster, "k", ALL)
        assert (result.status, result.value) == ("ok", "second")
        assert cluster.convergence_violations() == []

    @pytest.mark.parametrize("deleted", [True, False], ids=["after-delete", "live"])
    def test_a_recreate_places_the_key_again(self, deleted):
        cluster = star_cluster(replication_factor=2, fixed_read_level=ALL,
                               fixed_write_level=ALL)
        assert create(cluster, key="k", level=None).status == "ok"
        assert cluster.control.maps["k"].replica_ids == ("fog-1", "fog-2")
        if deleted:
            gone = run_one(cluster, Query(QueryKind.DELETE, "k", client_ctx()))
            assert gone.status == "ok"
        again = create(cluster, key="k", value="v2", data_geo=(800.0, 0.0), level=None)
        assert again.status == "ok"
        assert cluster.control.maps["k"].replica_ids == ("fog-5", "fog-1")
        records = {nid: cluster._records[nid].get("k") for nid in ("fog-1", "fog-2", "fog-5")}
        version = 3 if deleted else 2
        # fog-2 left the map, so it keeps what it last held: the tombstone or v1.
        old = VersionedRecord("k", None, 2) if deleted else VersionedRecord("k", "v1", 1)
        assert records == {"fog-1": VersionedRecord("k", "v2", version),
                           "fog-5": VersionedRecord("k", "v2", version),
                           "fog-2": old}
        assert cluster.convergence_violations() == []


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
        assert cluster.control.maps.get("k1").replica_ids == ("fog-5",)
        result = read(cluster, "k1", ONE)
        assert result.latency_ms == 34.0  # 10 + 2 x (4 + 8)


def closed_form_latency(topo, issued_ms, client_geo, replica_ids, required):
    """Latency of a fault-free, jitter-free op, added up as the simulator does.

    Client hop to the coordinator, then the ``required``-th smallest replica
    round trip (a local replica answers at once), then the hop back. Every
    hop adds the destination's service time.
    """
    def hop(t, a, b):
        return t + (topo.latency_ms(a, b) + topo.node(b).service_ms)

    attach = topo.nearest_node(client_geo)
    coordinator = topo.nearest_node(client_geo, storage_only=True)
    at_coordinator = hop(issued_ms, attach, coordinator)
    replies = sorted(at_coordinator if r == coordinator
                     else hop(hop(at_coordinator, coordinator, r), r, coordinator)
                     for r in replica_ids)
    return hop(replies[required - 1], coordinator, attach) - issued_ms


class TestLatencyOracle:
    def test_every_feasible_level_matches_the_closed_form(self):
        checked, mismatches = 0, []
        for seed in range(500):
            rng = random.Random(seed)
            topo = random_topology(seed)
            if seed % 2:
                topo = Topology([replace(n, service_ms=round(rng.uniform(0.1, 3), 2))
                                 for n in topo.nodes.values()], topo.links)
            ctx = ClientContext("c", (rng.uniform(0, 1000), rng.uniform(0, 1000)))
            data_geo = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            for rf in (1, 3, 5):
                cluster = Cluster(topo, Simulator(topo), replication_factor=rf,
                                  fixed_read_level=ONE, fixed_write_level=ONE)
                for level in ALL_LEVELS:
                    key = f"k-{level.value}"
                    replica_ids = place_replicas(key, data_geo, topo, rf).replica_ids
                    try:
                        required = required_acks(level, len(replica_ids))
                    except LevelInfeasibleError:
                        continue
                    for query in (Query(QueryKind.CREATE, key, ctx, value="v",
                                        data_ctx=DataContext(data_geo), level=level),
                                  Query(QueryKind.READ, key, ctx, level=level)):
                        issued_ms = cluster.sim.now
                        result = run_one(cluster, query)
                        expected = closed_form_latency(topo, issued_ms, ctx.client_geo,
                                                       replica_ids, required)
                        checked += 1
                        if (result.status, result.latency_ms) != ("ok", expected):
                            mismatches.append((seed, rf, level.value, query.kind.value,
                                               result.status, result.latency_ms, expected))
        assert mismatches == []
        assert checked > 10_000


class TestConvergence:
    def test_background_completion_converges_all_replicas(self):
        cluster = star_cluster()
        create(cluster)
        update(cluster, "k1", "v2", ONE)
        cluster.sim.run_until_quiescent()
        assert cluster.convergence_violations() == []
        versions = {cluster._records[n].get("k1").value for n in cluster.topology.storage_ids}
        assert versions == {"v2"}

    def test_random_workload_converges(self):
        rng = random.Random(1)
        cluster = star_cluster()
        queries = []
        keys = ["a", "b", "c"]
        for key in keys:
            queries.append(Query(QueryKind.CREATE, key, client_ctx(), value=f"{key}0",
                                 data_ctx=DataContext(STAR_CLIENT), level=rng.choice(ALL_LEVELS)))
        for i in range(60):
            key = rng.choice(keys)
            if rng.random() < 0.5:
                queries.append(Query(QueryKind.UPDATE, key, client_ctx(), value=f"{key}{i + 1}",
                                     level=rng.choice(ALL_LEVELS)))
            else:
                queries.append(Query(QueryKind.READ, key, client_ctx(),
                                     level=rng.choice(ALL_LEVELS)))
        results = run_queries(cluster, queries)
        assert all(r.status in ("ok", "not_found") for _, r in results)
        assert cluster.convergence_violations() == []

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 3: no replica repair")
    def test_a_replica_that_missed_a_write_while_down_converges(self):
        # fog-5 is down when the create's copy reaches it, and nothing sends
        # the record again after it recovers, so it never holds one. A setup
        # that goes wrong fails outright instead of passing as the known defect.
        script = [FaultAction(0.0, "crash", node="fog-5"),
                  FaultAction(100.0, "recover", node="fog-5")]
        cluster = star_cluster(fault_script=script)
        result = create(cluster, key="k")
        if (result.status, cluster.sim.is_up("fog-5")) != ("ok", True):
            pytest.fail(f"setup: {result}, fog-5 up: {cluster.sim.is_up('fog-5')}")
        assert cluster.convergence_violations() == []


class TestFaultInteraction:
    def test_all_with_crashed_replica_times_out(self):
        script = [FaultAction(at_ms=0.0, action="crash", node="fog-5")]
        cluster = star_cluster(fault_script=script)
        create(cluster)  # level ONE create succeeds without fog-5
        result = update(cluster, "k1", "v2", ALL)
        assert (result.status, result.error) == ("error", "timeout")
        assert result.acks_received == 4

    def test_a_create_that_timed_out_is_indeterminate_and_a_retry_upserts(self):
        # With fog-5 down the ALL CREATE times out, yet it reached the other
        # four replicas. The retry writes over it at the next version.
        script = [FaultAction(0.0, "crash", node="fog-5")]
        cluster = star_cluster(fault_script=script, timeout_ms=100)
        queries = [
            Query(QueryKind.CREATE, "k", client_ctx(), value="first",
                  data_ctx=DataContext(STAR_CLIENT), level=ALL),
            Query(QueryKind.CREATE, "k", client_ctx(), value="retry",
                  data_ctx=DataContext(STAR_CLIENT), level=QUORUM),
            Query(QueryKind.READ, "k", client_ctx(), level=QUORUM),
        ]
        results = [(r.status, r.error, r.value, r.latency_ms)
                   for _, r in run_queries(cluster, queries)]
        assert results == [("error", "timeout", None, 110.0), ("ok", None, None, 30.0),
                           ("ok", None, "retry", 30.0)]

    def test_quorum_survives_two_partitioned_replicas(self):
        cluster = star_cluster(fault_script=INEXACT)  # takes direct faults
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
        cluster = star_cluster(fault_script=INEXACT)  # takes direct faults
        create(cluster)
        cluster.sim.run_until_quiescent()
        cluster.sim.apply_fault(FaultAction(
            at_ms=0.0, action="partition",
            group_a=frozenset(["fog-1"]),
            group_b=frozenset(["fog-2", "fog-3", "fog-4", "fog-5"])))
        lone = update(cluster, "k1", "v-new", ONE)
        assert (lone.status, lone.acks_received) == ("ok", 1)
        cluster.sim.apply_fault(FaultAction(at_ms=0.0, action="heal"))
        assert cluster._records["fog-2"].get("k1").value == "v1"  # still stale
        result = read(cluster, "k1", ALL)
        assert (result.status, result.value) == ("ok", "v-new")

    def test_crash_recover_preserves_replica_state(self):
        cluster = star_cluster(fault_script=INEXACT)  # takes direct faults
        create(cluster, level=ALL)
        before = cluster._records["fog-5"].get("k1")
        cluster.sim.apply_fault(FaultAction(at_ms=0.0, action="crash", node="fog-5"))
        update(cluster, "k1", "v2", QUORUM)
        cluster.sim.apply_fault(FaultAction(at_ms=0.0, action="recover", node="fog-5"))
        assert cluster._records["fog-5"].get("k1") == before  # durable, but stale

    def test_a_message_dropped_at_send_prints_no_seq(self):
        # fog-2 is down from t=0, so the ALL create's WriteReq to it is dropped
        # at send. That drop used to print the seq of the next event scheduled.
        trace = []
        topo = build_star_topology(PAPER_LATENCY_SETTINGS["low"])
        sim = Simulator(topo, fault_script=[FaultAction(0.0, "crash", node="fog-2")],
                        trace=trace.append)
        cluster = Cluster(topo, sim, fixed_read_level=ONE, fixed_write_level=ONE)
        create(cluster, level=ALL)
        drops = [line for line in trace if "blocked at send" in line]
        assert [line.split(",", 5)[:5] for line in drops] == [["5.0", "-", "drop", "fog-1", "fog-2"]]
        seqs = [line.split(",")[1] for line in trace if line not in drops]
        assert len(set(seqs)) == len(seqs)

    def test_client_deadline_covers_coordinator_crash(self):
        script = [FaultAction(at_ms=7.0, action="crash", node="fog-1")]
        cluster = star_cluster(fault_script=script)
        create(cluster)
        cluster.sim.run_until_quiescent()  # create finishes before the crash lands
        result = read(cluster, "k1", QUORUM)
        assert (result.status, result.error) == ("error", "timeout")
        assert cluster._pending == {}


class TestClientOnStorageNode:
    """A client standing on fog-1 attaches to it and is coordinated by it, so
    its QueryReq and QueryResp go from fog-1 to fog-1 itself."""

    @pytest.mark.parametrize("kind", [QueryKind.READ, QueryKind.UPDATE])
    def test_request_and_reply_on_one_node(self, kind):
        cluster = star_cluster()
        on_fog1 = cluster.topology.nodes["fog-1"].geo
        assert on_fog1 == (400.0, 0.0)
        created = create(cluster, geo=on_fog1, level=ALL)
        assert (created.status, created.latency_ms) == ("ok", 24.0)
        latencies = {}
        for level in ALL_LEVELS:
            value = "v2" if kind is QueryKind.UPDATE else None
            query = Query(kind, "k1", client_ctx(on_fog1), value=value, level=level)
            result = run_one(cluster, query)
            assert (result.status, result.level_used) == ("ok", level)
            latencies[level] = result.latency_ms
        assert latencies == {ONE: 0.0, TWO: 18.0, QUORUM: 20.0, ALL: 24.0}
        assert cluster._pending == {}
        assert cluster._client_ops == {}


class TestDataContextUpdates:
    def regions(self):
        inner = Band(500.0, read_level=ALL, write_level=ONE)
        outer = Band(math.inf, read_level=ONE, write_level=ONE)
        return RegionSet([], default=ConsistencyRegionSpec("", (inner, outer)))

    def test_data_context_update_moves_the_region_anchor(self):
        cluster = star_cluster(region_set=self.regions())
        client = ClientContext("car", (-400.0, 0.0))  # 300 m from (-100, 0)
        run_one(cluster, Query(QueryKind.CREATE, "tl-1", client, value="red",
                               data_ctx=DataContext((-100.0, 0.0))))
        before = run_one(cluster, Query(QueryKind.READ, "tl-1", client))
        assert before.level_used is ALL  # inside the 500 m band

        # the data source moves 10 km away; same client is now far outside
        moved = run_one(cluster, Query(QueryKind.UPDATE, "tl-1", client, value="green",
                                       data_ctx=DataContext((10_000.0, 0.0))))
        assert moved.status == "ok"
        after = run_one(cluster, Query(QueryKind.READ, "tl-1", client))
        assert after.level_used is ONE
        assert after.value == "green"

    def test_read_resolves_against_the_location_an_update_moved_to(self):
        # rf 1 puts the only replica on fog-5, so the coordinator fog-1 holds no record
        cluster = star_cluster(region_set=self.regions(), replication_factor=1)
        assert create(cluster, "tl-1", "red", data_geo=(800.0, 0.0)).status == "ok"
        assert cluster.control.maps.get("tl-1").replica_ids == ("fog-5",)
        moved = run_one(cluster, Query(QueryKind.UPDATE, "tl-1", client_ctx(), value="green",
                                       data_ctx=DataContext(STAR_CLIENT)))
        assert moved.status == "ok"
        after = run_one(cluster, Query(QueryKind.READ, "tl-1", client_ctx()))
        assert after.level_used is ALL  # the client sits on the data's new location
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

    @pytest.mark.parametrize("timeout_ms", [0.0, -1.0, math.nan, math.inf])
    def test_cluster_rejects_an_unusable_timeout(self, timeout_ms):
        with pytest.raises(ValueError, match="timeout_ms"):
            star_cluster(timeout_ms=timeout_ms)

    def test_cluster_rejects_a_simulator_on_another_topology(self):
        # It used to route and place on one topology and take message delays
        # from the other: a ONE create from the client returned ok in 26 ms.
        low = build_star_topology(PAPER_LATENCY_SETTINGS["low"])
        high = build_star_topology(PAPER_LATENCY_SETTINGS["high"])
        with pytest.raises(ValueError, match="topology"):
            Cluster(low, Simulator(high), fixed_read_level=ONE, fixed_write_level=ONE)


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

    def test_finished_run_leaves_no_cyclic_garbage(self):
        # Reference counting alone must free a finished run's queries and
        # results; the cluster stays alive, as a caller holding it would keep it.
        cluster = star_cluster(fixed_read_level=ONE, fixed_write_level=ONE)
        workload = WorkloadSpec(op_count=200, clients=(WorkloadClient("c1", STAR_CLIENT),),
                                seed=5)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            queries = generate_ops(workload)
            results = run_queries(cluster, queries)
            assert len(results) == 200
            del results, queries
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_dropped_run_output_leaves_no_cyclic_garbage(self):
        # Reference counting alone must free a whole run, its cluster and
        # simulator included, once the caller drops the output.
        topo = build_star_topology((4, 5, 6, 7, 8))
        workload = WorkloadSpec(op_count=200, clients=(WorkloadClient("c1", STAR_CLIENT),),
                                fixed_read_level=ONE, fixed_write_level=ONE, seed=5)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            output = run_single(topo, workload)
            assert len(output.results) == 200
            del output
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_budget_failed_run_leaves_no_cyclic_garbage(self):
        # The ops still in flight when the budget runs out hold the driver's
        # callback; the failed run must still be freed by reference counting.
        topo = build_star_topology((4, 5, 6, 7, 8))
        workload = WorkloadSpec(op_count=200, clients=(WorkloadClient("c1", STAR_CLIENT),),
                                fixed_read_level=ALL, fixed_write_level=ONE, seed=5)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            with pytest.raises(BudgetExceededError):
                run_single(topo, workload, budget_ms=100.0)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_equal_latencies_share_one_float(self):
        cluster = star_cluster(fixed_read_level=ONE, fixed_write_level=ONE)
        workload = WorkloadSpec(op_count=200, clients=(WorkloadClient("c1", STAR_CLIENT),),
                                seed=5)
        latencies = [r.latency_ms for _, r in run_queries(cluster, generate_ops(workload))]
        assert len({id(x) for x in latencies}) == len(set(latencies)) < 200


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

    def test_overlapping_queries_run_at_the_levels_they_pin(self):
        cluster = star_cluster()  # the region set alone would give ONE everywhere
        queries = [Query(QueryKind.CREATE, "a", client_ctx(), value="1",
                         data_ctx=DataContext(STAR_CLIENT))]
        queries += [Query(QueryKind.READ, "a", client_ctx(), level=ALL if i % 2 else ONE)
                    for i in range(1, 7)]
        results = run_queries(cluster, queries, open_loop_interval_ms=1.0)
        reads = [(q, r) for q, r in results if q.kind is QueryKind.READ]
        assert len(reads) == 6
        assert all(r.status == "ok" and r.level_used is q.level for q, r in reads)
        # the closed-form paths: ALL waits for fog-5, ONE answers at fog-1
        assert {(q.level, r.latency_ms) for q, r in reads} == {(ALL, 34.0), (ONE, 10.0)}

    def test_every_op_gets_exactly_one_callback_under_faults(self):
        # The partition cuts the coordinator fog-1 off its peers, so QUORUM ops
        # time out at the coordinator; while fog-1 is down only the client
        # deadline answers.
        others = frozenset({"fog-2", "fog-3", "fog-4", "fog-5"})
        faults = [FaultAction(100.0, "partition", group_a=frozenset({"fog-1"}), group_b=others),
                  FaultAction(300.0, "heal"),
                  FaultAction(400.0, "crash", node="fog-1"),
                  FaultAction(600.0, "recover", node="fog-1")]
        workload = WorkloadSpec(op_count=400, clients=(WorkloadClient("c1", STAR_CLIENT),),
                                read_fraction=0.7, fixed_read_level=QUORUM,
                                fixed_write_level=QUORUM, open_loop_interval_ms=2.0, seed=3)
        trace = []
        topo = build_star_topology((4, 5, 6, 7, 8))
        cluster = Cluster(topo, Simulator(topo, fault_script=faults, trace=trace.append),
                          fixed_read_level=QUORUM, fixed_write_level=QUORUM, timeout_ms=50.0)
        results = run_queries(cluster, generate_ops(workload), open_loop_interval_ms=2.0)
        fired = Counter(line.split(",")[5].split()[0] for line in trace
                        if line.split(",")[2] == "timer")
        assert fired["Arrival"] == 400
        assert fired["OpTimeout"] > 0 and fired["ClientTimeout"] > 0
        assert len(results) == 400
        assert len({id(query) for query, _ in results}) == 400
        timeouts = sum(r.status == "error" and r.error == "timeout" for _, r in results)
        assert timeouts == fired["OpTimeout"] + fired["ClientTimeout"]
        # At most one answer per op, delivered or dropped: at rf 5 every waited
        # op also gets late acks and read responses, which must be ignored.
        answers = Counter(re.search(r"QueryResp op=(\d+)", line)[1] for line in trace
                          if line.split(",")[2] in ("message", "drop") and "QueryResp" in line)
        assert answers and max(answers.values()) == 1
        assert cluster._pending == {}
        assert cluster._client_ops == {}

    def test_shared_latencies_stop_at_the_cap(self):
        topo = build_star_topology((4, 5, 6, 7, 8))
        cluster = Cluster(topo, Simulator(topo, jitter_ms=1.0, jitter_seed=1),
                          fixed_read_level=QUORUM, fixed_write_level=QUORUM)
        workload = WorkloadSpec(op_count=SHARED_LATENCY_CAP + 500, seed=2,
                                clients=(WorkloadClient("c1", STAR_CLIENT),))
        results = run_queries(cluster, generate_ops(workload), open_loop_interval_ms=1.0)
        assert len({r.latency_ms for _, r in results}) > SHARED_LATENCY_CAP
        assert len(cluster._latencies) == SHARED_LATENCY_CAP

    def test_replica_message_summaries(self):
        trace = []
        topo = build_star_topology((4, 5, 6, 7, 8))
        cluster = Cluster(topo, Simulator(topo, trace=trace.append),
                          fixed_read_level=ALL, fixed_write_level=ALL)
        run_queries(cluster, [
            Query(QueryKind.CREATE, "a", client_ctx(), value="1", data_ctx=DataContext(STAR_CLIENT)),
            Query(QueryKind.READ, "a", client_ctx()),
        ])
        messages = {tuple(line.split(",", 5)[3:]) for line in trace if ",message," in line}
        assert {("fog-1", "fog-2", "WriteReq key=a value='1' version=1"),
                ("fog-2", "fog-1", "WriteAck op=1"),
                ("fog-1", "fog-2", "ReadReq key=a"),
                ("fog-2", "fog-1", "ReadResp op=2 record=1")} <= messages
        assert str(ReadResp(3, None)) == "ReadResp op=3 record=absent"

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


def count_timers(monkeypatch) -> Counter:
    """Count the timers set from now on, by payload type name."""
    timers: Counter = Counter()
    set_timer = Simulator.set_timer

    def counted(sim, node_id, delay_ms, payload):
        timers[type(payload).__name__] += 1
        return set_timer(sim, node_id, delay_ms, payload)

    monkeypatch.setattr(Simulator, "set_timer", counted)
    return timers


def test_per_op_objects_have_no_instance_dict():
    # Millions of these are made per sweep; slots keep each one small.
    ctx = ClientContext("c1", STAR_CLIENT)
    query = Query(QueryKind.READ, "k", ctx)
    record = VersionedRecord("k", "v", 1)
    result = QueryResult()
    objects = [
        Simulator(build_star_topology((4, 5, 6, 7, 8))).set_timer(None, 0.0, None),
        QueryReq(1, query), QueryResp(1, result), WriteReq(1, record), WriteAck(1),
        ReadReq(1, "k"), ReadResp(1, record),
        OpTimeout(1, "client", query, ONE, 1, 0, None), ClientTimeout(1, query, print, 0.0),
        Arrival(query, print),
        query, result, record,
        ctx, DataContext(STAR_CLIENT),
    ]
    assert [type(obj).__name__ for obj in objects if hasattr(obj, "__dict__")] == []


def test_every_store_dataclass_declares_slots():
    # A per-op class added to the store without slots fails here, listed or not.
    classes = [obj for obj in vars(store).values()
               if is_dataclass(obj) and obj.__module__ == store.__name__]
    assert len(classes) >= 10
    assert [cls.__name__ for cls in classes if "__slots__" not in vars(cls)] == []


class TestEventOrder:
    """Pins the event order of a small grid, the ``seq`` column of every trace line cut.

    An op that the coordinator answers at once sets no deadline, so it takes
    no seq; that may renumber later events but must never reorder them.
    """

    LOOPS = (None, 0.5, 3.0)  # the closed loop, then open-loop intervals in ms
    FAULTS = (
        FaultAction(10.0, "crash", node="fog-3"),
        FaultAction(25.0, "partition", group_a=frozenset({"fog-1", "fog-2"}),
                    group_b=frozenset({"fog-4", "fog-5"})),
        FaultAction(50.0, "heal"),
        FaultAction(70.0, "recover", node="fog-3"),
        FaultAction(80.0, "crash", node="fog-1"),
        FaultAction(95.0, "recover", node="fog-1"),
    )
    DIGESTS = {
        (ONE, ONE):
            "a8b9c732baf019b9b66128035ce45bfa55a600e5bdb422f6f1c8adbffde421d7",
        (QUORUM, ONE):
            "7a249fd5366fb0914f333022a9ebf98b733001ca054eccfdce9c4bcdc86fe4c2",
        (TWO, ALL):
            "5432458a7b94d6be2d491770a6a7c68295e2c9b237c5e8120ce494bf704e8adc",
        (ALL, QUORUM):
            "49b6fda98e4bb7be6d91f6d92379d872e921a302785638d4884dcd6db71fa5cf",
    }

    @pytest.mark.parametrize("levels", list(DIGESTS), ids=lambda ls: "/".join(l.value for l in ls))
    def test_trace_without_seqs_matches_the_pinned_digest(self, levels):
        topo = build_star_topology(PAPER_LATENCY_SETTINGS["low"])
        workload = WorkloadSpec(op_count=200, clients=(WorkloadClient("c1", STAR_CLIENT),),
                                read_fraction=0.5, fixed_read_level=levels[0],
                                fixed_write_level=levels[1], seed=11)
        digest = hashlib.sha256()
        for interval in self.LOOPS:
            for jitter_ms in (0.0, 1.0):
                for rf in (5, 2, 1):
                    trace = []
                    run_single(topo, replace(workload, open_loop_interval_ms=interval),
                               replication_factor=rf, timeout_ms=50.0,
                               fault_script=self.FAULTS, trace_sink=trace.append,
                               jitter_ms=jitter_ms, jitter_seed=3)
                    digest.update(f"# loop={interval} jitter={jitter_ms} rf={rf}\n".encode())
                    for line in trace:
                        at, _seq, rest = line.split(",", 2)
                        digest.update(f"{at},{rest}\n".encode())
        assert digest.hexdigest() == self.DIGESTS[levels]

    # Whole trace lines, seqs included: the simulator's own bookkeeping (heap
    # entries, timer lanes and series) may change, the seqs it hands out may not.
    SEQ_DIGESTS = {
        (ONE, ONE):
            "c8db2d0a309eab9f5fa688b155129d61a0dce4d57d2597e7c362c17e7569d6ea",
        (QUORUM, ONE):
            "11d84305c5c6cbd2979cec1ebd01b353272fdf3d0e239f1b1301149b901a36f2",
        (TWO, ALL):
            "a08cb20cb5ceab3f23c24fa5a6c6155c4dca5d394c6146b77408cd3ad4b68964",
        (ALL, QUORUM):
            "f800f114ca124b888c770ed66c7a637e116f04ac69418a2a5b502aea90391353",
    }
    EXACT_SEQ_DIGEST = "f456f842271efae6ab3680f5bad77f87dead1f1a1d1ae430a7143b1f677adbb6"

    @staticmethod
    def trace_digest(topo, workload, runs):
        """sha256 of every trace line of each ``(interval, rf, faults, jitter)`` run."""
        digest = hashlib.sha256()
        for interval, rf, fault_script, jitter_ms in runs:
            trace = []
            run_single(topo, replace(workload, open_loop_interval_ms=interval),
                       replication_factor=rf, timeout_ms=50.0, fault_script=fault_script,
                       trace_sink=trace.append, jitter_ms=jitter_ms, jitter_seed=3)
            digest.update(f"# loop={interval} jitter={jitter_ms} rf={rf}\n".encode())
            digest.update("".join(line + "\n" for line in trace).encode())
        return digest.hexdigest()

    @pytest.mark.parametrize("levels", list(SEQ_DIGESTS),
                             ids=lambda ls: "/".join(l.value for l in ls))
    def test_faulted_trace_with_seqs_matches_the_pinned_digest(self, levels):
        workload = WorkloadSpec(op_count=200, clients=(WorkloadClient("c1", STAR_CLIENT),),
                                read_fraction=0.5, fixed_read_level=levels[0],
                                fixed_write_level=levels[1], seed=11)
        runs = [(interval, rf, self.FAULTS, jitter_ms) for interval in self.LOOPS
                for jitter_ms in (0.0, 1.0) for rf in (5, 2, 1)]
        digest = self.trace_digest(build_star_topology(PAPER_LATENCY_SETTINGS["low"]),
                                   workload, runs)
        assert digest == self.SEQ_DIGESTS[levels]

    def test_exact_trace_with_seqs_matches_the_pinned_digest(self):
        # Every level pair, closed and open loop, on star6-low with no fault or jitter.
        topo = build_star_topology(PAPER_LATENCY_SETTINGS["low"])
        digest = hashlib.sha256()
        for read_level in ALL_LEVELS:
            for write_level in ALL_LEVELS:
                workload = WorkloadSpec(op_count=200, read_fraction=0.5, seed=11,
                                        clients=(WorkloadClient("c1", STAR_CLIENT),),
                                        fixed_read_level=read_level,
                                        fixed_write_level=write_level)
                runs = [(interval, rf, (), 0.0) for interval in (None, 0.1) for rf in (5, 3)]
                digest.update(self.trace_digest(topo, workload, runs).encode())
        assert digest.hexdigest() == self.EXACT_SEQ_DIGEST

    # An exact run sets no client deadline that cannot fire; its inexact twin sets one per op.
    @pytest.mark.parametrize("fault_script", [(), INEXACT], ids=["exact", "inexact"])
    @pytest.mark.parametrize("kind, level, expected", [
        (QueryKind.READ, ONE, {}),
        (QueryKind.UPDATE, ONE, {}),
        (QueryKind.READ, QUORUM, {"OpTimeout": 1}),
        (QueryKind.UPDATE, QUORUM, {"OpTimeout": 1}),
    ])
    def test_only_an_op_that_waits_sets_a_coordinator_deadline(self, monkeypatch, kind,
                                                               level, expected, fault_script):
        if fault_script:
            expected = {"ClientTimeout": 1, **expected}
        cluster = star_cluster(fault_script)
        create(cluster)  # fog-1, the coordinator, holds a replica
        timers = count_timers(monkeypatch)
        value = "v2" if kind is QueryKind.UPDATE else None
        result = run_one(cluster, Query(kind, "k1", client_ctx(), value=value, level=level))
        assert (result.status, result.level_used) == ("ok", level)
        assert timers == expected


def star_with_service(spokes, service_ms):
    """``build_star_topology(spokes)`` with a service time on the named nodes."""
    topo = build_star_topology(spokes)
    nodes = [replace(node, service_ms=service_ms.get(nid, 0.0)) for nid, node in topo.nodes.items()]
    return Topology(nodes, topo.links)


def mixed_queries(seed, count=40):
    """Creates, updates, deletes and reads of a few keys from two clients.

    One client sits at fog-1's end of the star, one at fog-5's, so two
    coordinators run the ops, and each key's data anchors at either end.
    """
    rng = random.Random(seed)
    ends = (STAR_CLIENT, (900.0, 0.0))
    queries = []
    for i in range(count):
        kind = rng.choice([QueryKind.CREATE, QueryKind.UPDATE, QueryKind.READ, QueryKind.READ,
                           QueryKind.DELETE])
        key = f"k{rng.randrange(4)}"
        ctx = client_ctx(rng.choice(ends))
        if kind is QueryKind.CREATE:
            queries.append(Query(kind, key, ctx, value=f"v{i}",
                                 data_ctx=DataContext(rng.choice(ends))))
        else:
            queries.append(Query(kind, key, ctx, value=f"v{i}" if kind is QueryKind.UPDATE else None))
    return queries


def watched_run(topo, fault_script, queries, rf, levels, interval_ms, timeout_ms):
    """Run ``queries``; return the cluster, its results, per op id the replicas
    sent a request that asks a reply, and per op id each replica reply that
    reached the coordinator as ``(replica, counted, at_ms)``."""
    sim = Simulator(topo, fault_script=fault_script)
    cluster = Cluster(topo, sim, replication_factor=rf, fixed_read_level=levels[0],
                      fixed_write_level=levels[1], timeout_ms=timeout_ms)
    asked, replies = defaultdict(set), defaultdict(list)
    dispatch = sim.handler

    def handler(sim, event):
        msg = event.payload
        if type(msg) in (ReadReq, WriteReq) and msg.op_id is not None:
            asked[msg.op_id].add(event.dst)
        elif type(msg) in (ReadResp, WriteAck):
            replies[msg.op_id].append((event.src, msg.op_id in cluster._pending, sim.now))
        dispatch(sim, event)

    sim.handler = handler
    results = run_queries(cluster, queries, open_loop_interval_ms=interval_ms)
    return cluster, results, asked, replies


def random_queries(rng, count):
    """Creates, updates, deletes and reads of three keys from clients anywhere."""
    def geo():
        return (rng.uniform(0, 1000), rng.uniform(0, 1000))

    queries = []
    for i in range(count):
        kind = rng.choice(list(QueryKind))
        key = f"k{rng.randrange(3)}"
        queries.append(Query(kind, key, client_ctx(geo()),
                             value=None if kind in (QueryKind.READ, QueryKind.DELETE) else f"v{i}",
                             data_ctx=DataContext(geo()) if kind is QueryKind.CREATE else None))
    return queries


def outcome(result):
    return (result.status, result.value, result.error, result.level_used,
            result.acks_received, repr(result.latency_ms))


class TestExactRuns:
    """An exact run asks only the replicas whose replies can count and sets
    only the client deadlines that can fire; its results must equal those of
    its inexact twin, a run whose one fault, a heal at 0 ms, changes no
    delivery but keeps the full fan-out and every deadline."""

    TOPOLOGIES = {
        # fog-1, fog-2 and fog-3 sit at one spot; equal hop pairs go in map order
        "tied spokes": ((5, 5, 5, 7, 8), {}),
        "unequal service": ((4, 5, 6, 7, 8),
                            {"fog-1": 0.5, "fog-2": 2.25, "fog-4": 1.0, "fog-5": 0.125}),
        # from fog-1, fog-2 and fog-3 take 11 + 9 ms and fog-4 takes 10 + 10 ms:
        # fog-4's reply leaves first, so ranking fog-2 first would be wrong
        "split tie": ((4, 5, 5, 6, 8), {"fog-2": 2.0, "fog-3": 2.0}),
        # fog-2's round trip is 1e-7 ms longer than fog-3's: too close to call
        "near tie": ((4, 5, 6, 7, 8), {"fog-2": 2.0000001}),
    }
    # Topologies whose round trips tie at a cut: there a plan asks the whole
    # tie group, more replicas than the replies it counts.
    TIED = {"tied spokes", "split tie", "near tie"}

    @pytest.mark.parametrize("name", list(TOPOLOGIES))
    def test_results_equal_the_inexact_twin(self, name):
        topo = star_with_service(*self.TOPOLOGIES[name])
        widened = False
        for rf in range(1, 6):
            for levels in [(r, w) for r in ALL_LEVELS for w in ALL_LEVELS]:
                for seed, interval_ms in enumerate((None, 0.1, 1.0)):
                    queries = mixed_queries(seed)
                    # The open loops' 22 ms deadline cuts some waits short; on 4-8 ms
                    # spokes it ties fog-4's reply to fog-1, and the deadline wins.
                    timeout_ms = 22.0 if seed else 10_000.0
                    runs = [watched_run(topo, script, queries, rf, levels, interval_ms, timeout_ms)
                            for script in ((), INEXACT)]
                    (exact, got, _, replies), (twin, want, _, twin_replies) = runs
                    where = (rf, levels, interval_ms)
                    assert [outcome(r) for _, r in got] == [outcome(r) for _, r in want], where
                    assert exact.convergence_violations() == twin.convergence_violations() == []
                    for op_id, twin_op_replies in twin_replies.items():  # the exact run asked
                        replied = {src for src, *_ in replies.get(op_id, ())}  # every one counted
                        assert {src for src, used, _ in twin_op_replies if used} <= replied, where
                    assert sum(map(len, replies.values())) <= sum(map(len, twin_replies.values()))
                    widened |= any(len(asked) > required - count
                                   for by_replicas in exact._plans.values()
                                   for by_level in by_replicas.values()
                                   for required, count, asked in filter(None, by_level.values()))
        assert widened == (name in self.TIED)

    def test_asks_every_reply_that_can_count_and_no_later_one(self):
        # Each exact op against the same op in its inexact twin, which asks
        # every replica: each reply the twin counted was asked for (safety),
        # and each one asked arrives in the twin within twice the margin of
        # the last reply the twin counted (minimality).
        margin_ms = 2 * store._ROUND_TRIP_MARGIN_MS
        sizes, ties = Counter(), 0
        for seed in range(150):
            rng = random.Random(seed)
            topo = random_topology(seed)
            if seed % 3:  # service times split a round trip into unequal hops
                topo = Topology([replace(n, service_ms=rng.choice((0.0, 0.5, 1.0, 1.5)))
                                 for n in topo.nodes.values()], topo.links)
            rf = 1 + seed % 5
            queries = random_queries(rng, 12)
            interval_ms = (None, 0.1)[seed % 2]
            for levels in itertools.product(ALL_LEVELS, repeat=2):
                (_, got, asked, _), (_, want, _, replies) = [
                    watched_run(topo, script, queries, rf, levels, interval_ms, 10_000.0)
                    for script in ((), INEXACT)]
                where = (seed, rf, levels)
                assert [outcome(r) for _, r in got] == [outcome(r) for _, r in want], where
                for op_id, op_asked in asked.items():
                    arrived = {src: at_ms for src, _, at_ms in replies[op_id]}
                    counted = {src for src, used, _ in replies[op_id] if used}
                    last_counted_ms = max(arrived[src] for src in counted)
                    assert counted <= op_asked, where
                    assert all(arrived[r] - last_counted_ms <= margin_ms for r in op_asked), where
                    sizes[len(op_asked)] += 1
                    ties += len(op_asked) > len(counted)
        # Every asked-set size rf 1-5 allows, and ties at a cut that widen the set.
        assert set(sizes) == {1, 2, 3, 4, 5} and ties > 10, (sizes, ties)

    def test_a_slow_client_link_keeps_its_deadline(self):
        # The 600 ms client link makes the reply's round trip 1208 ms, past the
        # 1050 ms client deadline: it must be set, and it fires first.
        topo = build_star_topology((4, 5, 6, 7, 8), client_latency_ms=600.0)
        far = topo.nodes["client"].geo
        queries = [Query(QueryKind.CREATE, "a", client_ctx(far), value="1",
                         data_ctx=DataContext(STAR_CLIENT)),
                   Query(QueryKind.READ, "a", client_ctx(far))]
        outputs = []
        for script in ((), INEXACT):
            trace = []
            output = run_single(topo, WorkloadSpec(op_count=2, clients=(WorkloadClient("c", far),),
                                                   fixed_read_level=QUORUM,
                                                   fixed_write_level=QUORUM),
                                timeout_ms=50.0, fault_script=script, trace_sink=trace.append,
                                queries=queries)
            fired = Counter(line.split(",")[5].split()[0] for line in trace if ",timer," in line)
            assert fired["ClientTimeout"] == 2
            outputs.append([outcome(r) for _, r in output.results])
        assert outputs[0] == outputs[1]
        assert {o[:3] for o in outputs[0]} == {("error", None, "timeout")}

    def test_a_far_pair_anywhere_keeps_every_client_deadline(self, monkeypatch):
        # fog-5 sits 300 ms out, so a round trip to it takes over half of the
        # client's 1000 ms slack. No client coordinates through it, yet an exact
        # run sets a client deadline per op; on star6-low it sets none.
        queries = mixed_queries(0)
        timers = count_timers(monkeypatch)
        for spokes, deadlines in [((4, 5, 6, 7, 300), len(queries)),
                                  (PAPER_LATENCY_SETTINGS["low"], 0)]:
            topo = build_star_topology(spokes)
            outcomes = []
            for script in ((), INEXACT):
                timers.clear()
                _, results, _, _ = watched_run(topo, script, queries, 5, (QUORUM, ALL), None,
                                            10_000.0)
                outcomes.append([outcome(r) for _, r in results])
                assert timers["ClientTimeout"] == (deadlines if not script else len(queries))
            assert outcomes[0] == outcomes[1]
            assert "timeout" not in {o[2] for o in outcomes[0]}  # no deadline fired

    def test_only_an_inexact_cluster_takes_a_direct_fault(self, monkeypatch):
        # An exact cluster plans its ops on fixed delays for life, so its
        # simulator refuses a direct fault, with an op in flight and idle.
        topo = build_star_topology((4, 5, 6, 7, 8))
        exact = Cluster(topo, Simulator(topo), fixed_read_level=QUORUM, fixed_write_level=QUORUM)
        create(exact)
        exact.submit(Query(QueryKind.READ, "k1", client_ctx()), lambda q, r: None)
        for _ in range(2):
            with pytest.raises(ValueError, match="exact simulator takes no fault"):
                exact.sim.apply_fault(FaultAction(0.0, "crash", node="fog-5"))
            exact.sim.run_until_quiescent()
        assert exact.sim.exact and exact.sim.is_up("fog-5")
        # An inexact one takes it, and asks every replica from then on.
        trace = []
        cluster = Cluster(topo, Simulator(topo, fault_script=INEXACT, trace=trace.append),
                          fixed_read_level=QUORUM, fixed_write_level=QUORUM)
        create(cluster)
        cluster.sim.apply_fault(FaultAction(0.0, "crash", node="fog-5"))
        del trace[:]
        timers = count_timers(monkeypatch)
        result = read(cluster, "k1", QUORUM)
        assert (result.status, result.acks_received) == ("ok", 3)
        assert timers == {"ClientTimeout": 1, "OpTimeout": 1}
        asked = {line.split(",")[4] for line in trace if "ReadReq" in line}
        assert asked == {"fog-2", "fog-3", "fog-4", "fog-5"}  # fog-5's is dropped at send

    def test_the_longest_round_trip_is_the_bound_the_topology_gave(self):
        # The bound moved from the topology build to the simulator. The
        # topology's formula, written out here, must give the same float.
        def reference(topo):
            service = {nid: node.service_ms for nid, node in topo.nodes.items()}
            return max(service[a] + max(latency + latency + service[b] for b, latency in row.items())
                       for a, row in topo.latency_rows.items())

        topologies = [build_star_topology(spokes) for spokes in PAPER_LATENCY_SETTINGS.values()]
        topologies += [star_with_service(*spec) for spec in self.TOPOLOGIES.values()]
        rng = random.Random(33)
        for seed in range(150):
            topo = random_topology(seed)
            nodes = [replace(node, service_ms=rng.choice([0.0, 0.0, 2.5, rng.uniform(0, 5)]))
                     for node in topo.nodes.values()]
            topologies.append(Topology(nodes, topo.links))
        assert sum(any(n.service_ms for n in t.nodes.values()) for t in topologies) > 100
        for topo in topologies:
            assert Simulator(topo).longest_round_trip_ms == reference(topo)

    @pytest.mark.parametrize("build", [{"fault_script": INEXACT}, {"jitter_ms": 0.5}],
                             ids=["script", "jitter"])
    def test_an_inexact_cluster_never_reads_the_bound(self, build):
        # A driver that is not exact need only say so: the cluster reads the
        # bound of an exact simulator alone, once, when it is built.
        class NoBound(Simulator):
            @property
            def longest_round_trip_ms(self):
                raise AssertionError("the bound of an inexact simulator was read")

        topo = build_star_topology(PAPER_LATENCY_SETTINGS["low"])
        queries = mixed_queries(0)
        outcomes = []
        for simulator in (Simulator, NoBound):
            cluster = Cluster(topo, simulator(topo, **build), fixed_read_level=QUORUM,
                              fixed_write_level=QUORUM)
            results = run_queries(cluster, queries)
            assert len(results) == len(queries)
            outcomes.append([outcome(r) for _, r in results])
        assert outcomes[0] == outcomes[1]
        assert "timeout" not in {o[2] for o in outcomes[0]}

    def test_a_write_asking_no_ack_is_marked_in_the_trace(self):
        # fog-1 holds a replica: it answers a ONE write at once and asks no
        # replica to ack, while a QUORUM write asks only fog-2 and fog-3.
        traces = {}
        for level in (ONE, QUORUM):
            traces[level] = trace = []
            topo = build_star_topology(PAPER_LATENCY_SETTINGS["low"])
            cluster = Cluster(topo, Simulator(topo, trace=trace.append),
                              fixed_read_level=ONE, fixed_write_level=level)
            run_queries(cluster, [Query(QueryKind.CREATE, "a", client_ctx(), value="1",
                                        data_ctx=DataContext(STAR_CLIENT))])
        assert traces[ONE] == [
            "5.0,0,message,client,fog-1,QueryReq op=1 create key=a",
            "10.0,5,message,fog-1,client,QueryResp op=1 status=ok",
            "14.0,1,message,fog-1,fog-2,WriteReq key=a value='1' version=1 no-ack",
            "15.0,2,message,fog-1,fog-3,WriteReq key=a value='1' version=1 no-ack",
            "16.0,3,message,fog-1,fog-4,WriteReq key=a value='1' version=1 no-ack",
            "17.0,4,message,fog-1,fog-5,WriteReq key=a value='1' version=1 no-ack",
        ]
        fields = [line.split(",", 5)[3:] for line in traces[QUORUM]]
        marked = {dst: msg.endswith(" no-ack") for _, dst, msg in fields
                  if msg.startswith("WriteReq")}
        acked = {src for src, _, msg in fields if msg.startswith("WriteAck")}
        assert marked == {"fog-2": False, "fog-3": False, "fog-4": True, "fog-5": True}
        assert acked == {"fog-2", "fog-3"}


class TestUniformLevels:
    """A region set of no specs and one band gives each direction one level,
    which the cluster resolves once, at build time. Its ops must run exactly
    as those of a set that matches a band per op and finds the same levels."""

    @staticmethod
    def banded(read_level, write_level):
        """Every key matches the ``""`` spec, whose two bands both give these levels."""
        bands = (Band(500.0, read_level, write_level), Band(math.inf, read_level, write_level))
        return RegionSet([ConsistencyRegionSpec("", bands)],
                         ConsistencyRegionSpec("", (Band(math.inf, ALL, ALL),)))

    @staticmethod
    def count_region_matches(monkeypatch):
        """The key of each band lookup the store makes from now on."""
        matched = []
        get_region = store.get_region
        monkeypatch.setattr(store, "get_region",
                            lambda *args: matched.append(args[1]) or get_region(*args))
        return matched

    @pytest.mark.parametrize("interval_ms", [None, 0.1], ids=["closed", "open-0.1"])
    @pytest.mark.parametrize("fault_script", [(), INEXACT], ids=["exact", "inexact"])
    def test_results_and_trace_equal_a_band_matched_set(self, monkeypatch, fault_script,
                                                        interval_ms):
        matched = self.count_region_matches(monkeypatch)
        topo = build_star_topology(PAPER_LATENCY_SETTINGS["low"])
        queries = mixed_queries(seed=5)
        for levels in [(r, w) for r in ALL_LEVELS for w in ALL_LEVELS]:
            runs = []
            for region_set in (RegionSet.uniform(*levels), self.banded(*levels)):
                del matched[:]
                trace = []
                cluster = Cluster(topo, Simulator(topo, fault_script=fault_script,
                                                  trace=trace.append),
                                  region_set=region_set, timeout_ms=22.0)
                results = run_queries(cluster, queries, open_loop_interval_ms=interval_ms)
                runs.append(([outcome(r) for _, r in results], trace, len(matched)))
            (uniform, uniform_trace, uniform_matches), (banded, banded_trace, band_matches) = runs
            assert uniform == banded, levels
            assert uniform_trace == banded_trace, levels
            assert uniform_matches == 0
            assert band_matches > 0

    def test_a_set_with_any_spec_matches_per_op(self, monkeypatch):
        matched = self.count_region_matches(monkeypatch)
        never = ConsistencyRegionSpec("no-such-key-", (Band(math.inf, ALL, ALL),))
        cluster = star_cluster(region_set=RegionSet([never], RegionSet.uniform(ONE, ONE).default))
        assert create(cluster, level=None).level_used is ONE
        assert read(cluster, "k1", None).level_used is ONE
        assert matched == ["k1", "k1"]
