"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The full consistency x latency-setting sweep (criterion 2) runs once
per session and is reused; criterion 8 re-runs it from scratch to prove
byte-identical output.
"""

import math
import random

import pytest

from fogstore_sim.consistency import (
    Band,
    ConsistencyLevel,
    ConsistencyRegionSpec,
    DataContext,
    RegionSet,
    required_acks,
)
from fogstore_sim.experiment import (
    PAPER_LATENCY_SETTINGS,
    SweepPlan,
    build_star_topology,
    run_single,
    run_sweep,
)
from fogstore_sim.netsim import Simulator
from fogstore_sim.placement import place_replicas
from fogstore_sim.store import Cluster, Query, QueryKind
from fogstore_sim.workload import WorkloadClient, WorkloadSpec

from conftest import (
    STAR_CLIENT,
    brute_force_closest,
    client_ctx,
    disjoint_selection_exists,
    quorum_violations_for_seed,
    random_topology,
)

ONE = ConsistencyLevel.ONE
TWO = ConsistencyLevel.TWO
QUORUM = ConsistencyLevel.QUORUM
ALL = ConsistencyLevel.ALL

SETTINGS = list(PAPER_LATENCY_SETTINGS)
LEVELS = [ONE, TWO, QUORUM, ALL]
DIRECTIONS = ["read", "write"]
SWEEP_OPS = 10_000
SWEEP_SEED = 42


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"acceptance criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed {detail}"


def full_sweep_csv() -> str:
    settings = [(name, build_star_topology(lat)) for name, lat in PAPER_LATENCY_SETTINGS.items()]
    workload = WorkloadSpec(
        op_count=SWEEP_OPS,
        clients=(WorkloadClient("ycsb", STAR_CLIENT),),
        seed=SWEEP_SEED,
    )
    plan = SweepPlan(settings=settings, levels=LEVELS, directions=DIRECTIONS,
                     workload=workload, replication_factor=5)
    result = run_sweep(plan)
    assert result.cell_failures == []
    return result.csv_text


def parse_p50(csv_text: str) -> dict[tuple[str, str, str], float]:
    table = {}
    for line in csv_text.splitlines()[1:]:
        cells = line.split(",")
        table[(cells[0], cells[1], cells[2])] = float(cells[5])
    return table


@pytest.fixture(scope="module")
def sweep_csv() -> str:
    return full_sweep_csv()


def test_criterion_1_quorum_arithmetic():
    ok = (
        required_acks(ONE, 5) == 1
        and required_acks(TWO, 5) == 2
        and required_acks(QUORUM, 5) == 3
        and required_acks(ALL, 5) == 5
    )
    check(1, "quorum arithmetic", ok)


def test_criterion_2_level_ordering_and_gap(sweep_csv):
    p50 = parse_p50(sweep_csv)
    ok = True
    detail = []
    for setting in SETTINGS:
        for direction in DIRECTIONS:
            one = p50[(setting, "ONE", direction)]
            two = p50[(setting, "TWO", direction)]
            quorum = p50[(setting, "QUORUM", direction)]
            all_ = p50[(setting, "ALL", direction)]
            cell_ok = (
                two - one >= 1.0          # strict: ONE below TWO by >= 1 ms
                and two <= quorum <= all_
                and (two - one) - (quorum - two) >= 1.0  # strict gap dominance
            )
            if not cell_ok:
                detail.append(f"{setting}/{direction}: {one},{two},{quorum},{all_}")
            ok = ok and cell_ok
    check(2, "level ordering and ONE-vs-TWO gap", ok, "; ".join(detail))


def test_criterion_3_latency_sensitivity(sweep_csv):
    p50 = parse_p50(sweep_csv)
    ok = True
    for direction in DIRECTIONS:
        all_delta = p50[("high", "ALL", direction)] - p50[("low", "ALL", direction)]
        one_delta = p50[("high", "ONE", direction)] - p50[("low", "ONE", direction)]
        ok = ok and all_delta > one_delta
    check(3, "ALL suffers more than ONE from added latency", ok)


def test_criterion_4_closed_form_spot_checks():
    topo = build_star_topology(PAPER_LATENCY_SETTINGS["low"])
    cluster = Cluster(topo, Simulator(topo), replication_factor=5)
    created = cluster.apply_crud(
        Query(QueryKind.CREATE, "k1", client_ctx(), value="v1",
              data_ctx=DataContext(STAR_CLIENT)),
        level=ONE,
    )
    read_one = cluster.apply_crud(Query(QueryKind.READ, "k1", client_ctx()), level=ONE)
    read_all = cluster.apply_crud(Query(QueryKind.READ, "k1", client_ctx()), level=ALL)
    ok = (
        created.status == "ok"
        and read_one.latency_ms == 10.0  # bit-exact: 2 x (1 + 4)
        and read_all.latency_ms == 34.0  # bit-exact: 10 + 2 x (4 + 8)
    )
    check(4, "closed-form path delays (10 ms / 34 ms)", ok,
          f"got {read_one.latency_ms} / {read_all.latency_ms}")


def test_criterion_5_placement_properties():
    ok = True
    detail = []
    for seed in range(500):
        topo = random_topology(seed)
        rng = random.Random(seed)
        rf = rng.randint(1, 5)
        location = (rng.uniform(0, 1000), rng.uniform(0, 1000))
        rmap = place_replicas("k", location, topo, rf)
        target = min(rf, len(topo.storage_ids))

        if rmap.replica_ids[0] != brute_force_closest(topo, location):
            ok = False
            detail.append(f"seed {seed}: first replica not geo-closest")
        storage_groups = {topo.node(n).failure_group_id for n in topo.storage_ids}
        groups_used = {topo.node(n).failure_group_id for n in rmap.replica_ids}
        if len(storage_groups) >= rf and len(groups_used) != target:
            ok = False
            detail.append(f"seed {seed}: groups not disjoint")
        if rmap.degraded == disjoint_selection_exists(topo, rmap.replica_ids[0], target):
            ok = False
            detail.append(f"seed {seed}: degraded flag inconsistent with oracle")
        if place_replicas("k", location, topo, rf) != rmap:
            ok = False
            detail.append(f"seed {seed}: nondeterministic")
    check(5, "placement properties over 500 random topologies", ok, "; ".join(detail[:5]))


def test_criterion_6_quorum_intersection_1000_schedules():
    violations = []
    for seed in range(1000):
        violations.extend(quorum_violations_for_seed(seed))
    check(6, "quorum intersection over 1000 schedules", violations == [],
          f"violations: {violations[:5]}")


def traffic_region_set() -> RegionSet:
    spec = ConsistencyRegionSpec("", (
        Band(500.0, read_level=ALL, write_level=ONE),
        Band(math.inf, read_level=ONE, write_level=ONE),
    ))
    return RegionSet([], default=spec)


def test_criterion_7_differential_consistency():
    data_geo = STAR_CLIENT  # the traffic light sits at the client attach point
    near_geo = (STAR_CLIENT[0] - 300.0, 0.0)
    far_geo = (STAR_CLIENT[0] - 800.0, 0.0)
    ok = True
    detail = []
    for setting, latencies in PAPER_LATENCY_SETTINGS.items():
        topo = build_star_topology(latencies)
        p50 = {}
        for label, geo in (("near", near_geo), ("far", far_geo)):
            workload = WorkloadSpec(
                op_count=1000,
                clients=(WorkloadClient(label, geo),),
                data_geo=data_geo,
                seed=SWEEP_SEED,
            )
            output = run_single(topo, workload, region_set=traffic_region_set(),
                                replication_factor=5)
            expected = ALL if label == "near" else ONE
            read_levels = {r.level_used for q, r in output.results
                           if q.kind is QueryKind.READ}
            if read_levels != {expected}:
                ok = False
                detail.append(f"{setting}/{label}: levels {read_levels}")
            p50[label] = output.stats.summary("read").p50
        if not p50["far"] < p50["near"]:
            ok = False
            detail.append(f"{setting}: far p50 {p50['far']} !< near p50 {p50['near']}")
    check(7, "differential consistency (ALL at 300 m, ONE at 800 m)", ok, "; ".join(detail))


def test_criterion_8_deterministic_sweep(sweep_csv):
    second = full_sweep_csv()
    check(8, "byte-identical sweep output", second.encode() == sweep_csv.encode())
