"""What a fixed-level op may not cost once its cluster is built.

A sweep cell runs 10k ops at fixed levels, so per-op work whose answer
cannot change within a cell shows up in every cell. ``Cluster.__init__``
itself iterates ``ConsistencyLevel``; only ``run_queries`` is watched.
Nor may a message cost an event object: only timers have one. Nor a
``Topology.latency_ms`` call: every delay is read from the topology's rows.
"""

import enum
import pickle
import sys
from collections import Counter

import pytest

from fogstore_sim.consistency import ConsistencyLevel, get_region
from fogstore_sim.experiment import PAPER_LATENCY_SETTINGS, build_star_topology, run_queries
from fogstore_sim.netsim import SimEvent, Simulator
from fogstore_sim.store import Cluster
from fogstore_sim.topology import Topology
from fogstore_sim.workload import WorkloadClient, WorkloadSpec, generate_ops

from conftest import INEXACT, STAR_CLIENT

ONE = ConsistencyLevel.ONE
QUORUM = ConsistencyLevel.QUORUM
ALL = ConsistencyLevel.ALL


def profiled_run(cluster, queries, interval_ms):
    """Run the queries under ``sys.setprofile``: calls per code object."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        results = run_queries(cluster, queries, open_loop_interval_ms=interval_ms)
    finally:
        sys.setprofile(None)
    return results, calls


@pytest.mark.parametrize("interval_ms", [None, 0.5], ids=["closed", "open-0.5"])
@pytest.mark.parametrize("levels", [(ONE, ONE), (QUORUM, ALL)], ids=["ONE/ONE", "QUORUM/ALL"])
def test_a_fixed_level_op_runs_no_enum_code_no_region_match_and_no_latency_lookup(
        levels, interval_ms):
    topo = build_star_topology(PAPER_LATENCY_SETTINGS["low"])
    cluster = Cluster(topo, Simulator(topo), fixed_read_level=levels[0],
                      fixed_write_level=levels[1])
    queries = generate_ops(WorkloadSpec(op_count=2_000, seed=3,
                                        clients=(WorkloadClient("c1", STAR_CLIENT),)))
    results, calls = profiled_run(cluster, queries, interval_ms)

    assert len(results) == len(queries)
    assert {r.level_used for q, r in results if r.status != "error"} <= set(levels)
    assert [code.co_name for code in calls if code.co_filename == enum.__file__] == []
    assert calls[get_region.__code__] == 0
    # Messages were sent, each on a delay read from the topology's rows.
    assert calls[Simulator.schedule_message.__code__] > 0
    assert calls[Topology.latency_ms.__code__] == 0


@pytest.mark.parametrize("interval_ms", [None, 0.5], ids=["closed", "open-0.5"])
@pytest.mark.parametrize("fault_script", [(), INEXACT], ids=["exact", "inexact"])
def test_only_timers_build_an_event_and_each_coordinator_plans_a_level_once(
        fault_script, interval_ms):
    topo = build_star_topology(PAPER_LATENCY_SETTINGS["low"])
    cluster = Cluster(topo, Simulator(topo, fault_script=fault_script),
                      fixed_read_level=QUORUM, fixed_write_level=ALL)
    queries = generate_ops(WorkloadSpec(op_count=2_000, seed=3,
                                        clients=(WorkloadClient("c1", STAR_CLIENT),)))
    watched = {SimEvent.__init__.__code__: "events", Simulator.set_timer.__code__: "timers",
               Simulator.run_until_quiescent.__code__: "runs"}
    plan = Cluster._plan.__code__
    calls: Counter = Counter()
    planned: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code in watched:
                calls[watched[code]] += 1
            elif code is plan:
                f_locals = frame.f_locals
                planned[f_locals["node"], f_locals["replica_ids"], f_locals["level"]] += 1

    sys.setprofile(profile)
    try:
        results = run_queries(cluster, queries, open_loop_interval_ms=interval_ms)
    finally:
        sys.setprofile(None)

    assert len(results) == len(queries)
    arrivals = 0 if interval_ms is None else len(queries)  # an open loop's timer series
    # One delivery record per run carries every message.
    assert calls["events"] == calls["timers"] + arrivals + calls["runs"]
    assert calls["timers"] > 0 and calls["runs"] == 1
    # Both levels run on every coordinator that takes an op, each planned once.
    assert set(planned.values()) == {1}
    assert {level for _, _, level in planned} == {QUORUM, ALL}


def test_levels_hash_by_identity_and_stay_singletons():
    assert {QUORUM: "q"}[ConsistencyLevel("QUORUM")] == "q"
    assert all(pickle.loads(pickle.dumps(level)) is level for level in ConsistencyLevel)
