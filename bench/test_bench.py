"""Tests of the benchmark's own measurements: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fogstore_sim.consistency import ClientContext, ConsistencyLevel, DataContext  # noqa: E402
from fogstore_sim.experiment import run_queries  # noqa: E402
from fogstore_sim.netsim import Simulator  # noqa: E402
from fogstore_sim.store import Cluster, Query, QueryKind  # noqa: E402
from fogstore_sim.topology import FogNode, Link, Topology  # noqa: E402

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def line_cluster() -> Cluster:
    """a --10 ms-- b --10 ms-- c, every node its own failure group, rf 3, ONE/ONE."""
    topology = Topology(
        [FogNode(n, (x, 0.0), f"fg-{n}") for n, x in (("a", 0.0), ("b", 1000.0), ("c", 2000.0))],
        [Link("a", "b", 10.0), Link("b", "c", 10.0)],
    )
    return Cluster(topology, Simulator(topology), replication_factor=3,
                   fixed_read_level=ConsistencyLevel.ONE,
                   fixed_write_level=ConsistencyLevel.ONE)


def test_one_write_then_far_one_read_is_exactly_one_stale_read():
    cluster = line_cluster()
    queries = [
        # Coordinated and acknowledged at a at t=0; the write reaches c at t=20.
        Query(QueryKind.CREATE, "k", ClientContext("near", (0.0, 0.0)), value="v",
              data_ctx=DataContext((0.0, 0.0))),
        # Issued at t=5 next to c, which answers ONE from its own empty replica.
        Query(QueryKind.READ, "k", ClientContext("far", (2000.0, 0.0))),
    ]
    results = run_queries(cluster, queries, open_loop_interval_ms=5.0)
    cell = checks.CellCheck()
    cell.add(cluster, queries, results, 5.0, hashlib.sha256())

    assert [r.status for _, r in results] == ["ok", "not_found"]
    assert (cell.stale_reads, cell.reads) == (1, 1)
    assert cell.callback_errors == 0


def test_self_time_subtracts_nested_frames():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 5.0

    def outer():
        now[0] += 1.0
        traced_inner()
        now[0] += 2.0

    traced_inner = tracer.frame("inner", inner, span=True)
    tracer.frame("outer", outer, span=True)()

    assert tracer.stats["outer"] == [1, 8.0, 3.0]
    assert tracer.stats["inner"] == [1, 5.0, 5.0]
    assert [(parent, name) for parent, name, *_ in tracer.spans] == [(None, "outer"), (0, "inner")]


def test_closed_loop_spans_carry_the_op_id_of_their_submit(tmp_path):
    # In a closed loop each submit runs inside the previous op's dispatch.
    cluster = line_cluster()
    queries = [Query(QueryKind.CREATE, f"k{i}", ClientContext("c", (2000.0 * (i % 2), 0.0)),
                     value="v", data_ctx=DataContext((0.0, 0.0))) for i in range(5)]
    tracer = Tracer()
    tracer.install()
    try:
        run_queries(cluster, queries)
    finally:
        tracer.uninstall()
    tracer.write_spans(tmp_path / "spans.jsonl")
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]

    submits = {s["id"]: s["op"] for s in spans if s["name"] == "store.submit"}
    nested = [(s["op"], submits[s["parent"]]) for s in spans if s["parent"] in submits]
    assert len(set(submits.values())) == len(queries)
    assert len(nested) >= len(queries)  # nearest_node at least once per submit
    assert all(op == submit_op for op, submit_op in nested)


def test_verify_checks_the_pinned_fingerprints_of_the_seeds_a_workload_reads():
    spec = workloads.SPEC["star-faults"]
    held_out = spec["expected"][1]
    rep = {"cells": checks.CellCheck(), "csv_sha256": None, "op_digest": held_out["op_digest"]}

    assert worker.verify("star-faults", held_out["seeds"], [rep]) == []
    assert worker.verify("star-faults", held_out["seeds"], [dict(rep, op_digest="0")])
    assert worker.verify("star-faults", {"seed": 5, "jitter_seed": 1}, [dict(rep, op_digest="0")]) == []


def test_digest_is_identical_across_runs_and_under_tracing(tmp_path):
    spec = workloads.SPEC["star-faults"]
    collector = worker.Collector()
    collector.install()
    tracer = Tracer()
    try:
        plain = worker.repetition("star-faults", tmp_path, spec["defaults"], collector)
        collector.uninstall()
        tracer.install()
        collector.install()
        traced = worker.repetition("star-faults", tmp_path, spec["defaults"], collector)
    finally:
        collector.uninstall()
        tracer.uninstall()

    assert plain["op_digest"] == traced["op_digest"] == spec["expected"][0]["op_digest"]
    assert plain["cells"].callback_errors == traced["cells"].callback_errors == 0
    assert tracer.calls("netsim.run") == 1
    assert Cluster.submit.__qualname__ == "Cluster.submit"  # nothing left patched
