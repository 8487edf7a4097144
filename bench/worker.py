"""Run one benchmark workload in this (fresh) process; print its figures as JSON.

``run.py`` starts this script; it can also be run by hand with the same
arguments. Modes:

* ``--probe``: set the workload up once, stop at the first
  ``Cluster.submit`` and print the monotonic clock at that instant;
* default: repeat the workload for ``--seconds`` and print the end-to-end
  figures; with ``--trace 1`` the second half of the time runs traced
  repetitions and the per-layer figures are printed as well.

Every repetition's outputs are checked, so a run whose outputs are wrong
says so instead of reporting a speed: every op gets exactly one callback;
on the seeds pinned in ``workloads.json`` the CSV hash and the per-op digest
must match; and all repetitions of a run must agree on both. A paper-sweep
repetition takes most of a 30-s run, so on an unpinned seed an untraced
paper-sweep run has only the callback check.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

from fogstore_sim import experiment, store  # noqa: E402
from fogstore_sim.workload import percentile  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

RUN_QUERIES_SIGNATURE = inspect.signature(experiment.run_queries)
LEVELS = ("ONE", "TWO", "QUORUM", "ALL")


class SetupDone(Exception):
    """Raised at the first submit of a set-up probe."""


class Collector:
    """Checks every ``experiment.run_queries`` call of the current repetition."""

    def __init__(self) -> None:
        self.check_s = 0.0
        self.cells = checks.CellCheck()
        self.digest = hashlib.sha256()
        self._original = None

    def start(self) -> None:
        self.cells = checks.CellCheck()
        self.digest = hashlib.sha256()

    def install(self) -> None:
        self._original = run_queries = experiment.run_queries

        def checked(*args, **kwargs):
            results = run_queries(*args, **kwargs)
            start = time.perf_counter()
            call = RUN_QUERIES_SIGNATURE.bind(*args, **kwargs)
            call.apply_defaults()
            self.cells.add(call.arguments["cluster"], call.arguments["queries"], results,
                           call.arguments["open_loop_interval_ms"], self.digest)
            self.check_s += time.perf_counter() - start
            return results

        experiment.run_queries = checked

    def uninstall(self) -> None:
        experiment.run_queries = self._original


def repetition(name: str, work: Path, seeds: dict, collector: Collector,
               probe: bool = False) -> dict:
    """One full workload run; times split at the first ``Cluster.submit``."""
    marks: dict[str, float] = {}
    original = store.Cluster.submit

    def first_submit(cluster, *args, **kwargs):
        store.Cluster.submit = original
        marks["submit"] = time.perf_counter()
        if probe:
            raise SetupDone(time.monotonic())
        return original(cluster, *args, **kwargs)

    work.mkdir(parents=True, exist_ok=True)
    collector.start()
    check_before = collector.check_s
    store.Cluster.submit = first_submit
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        output = workloads.REPS[name](work, seeds)
    finally:
        store.Cluster.submit = original
    end = time.perf_counter()
    check_s = collector.check_s - check_before
    cells = collector.cells
    return {
        "sim_s": end - marks["submit"] - check_s,
        "wall_s": end - start - check_s,
        "cpu_s": time.process_time() - cpu_start - check_s,
        "cells": cells,
        "op_digest": collector.digest.hexdigest(),
        "csv_sha256": hashlib.sha256(output.encode()).hexdigest() if output else None,
    }


def end_to_end(reps: list[dict]) -> dict:
    first = reps[0]["cells"]
    metrics = {
        "ops_per_s": statistics.median(r["cells"].completed / r["sim_s"] for r in reps),
        "events_per_s": statistics.median(r["cells"].events / r["sim_s"] for r in reps),
        "peak_rss_mb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                           resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0,
        "succeeded_op_frac": first.succeeded / first.ops,
        "fresh_read_frac": 1.0 - first.stale_reads / first.reads,
        "converged_key_frac": 1.0 - first.diverged_keys / first.keys,
    }
    for direction in ("read", "write"):
        for p in (50, 99):
            metrics[f"sim_{direction}_p{p}_ms"] = percentile(sorted(first.latency[direction]), p)
    return metrics


def per_layer(tracer: Tracer, rep: dict) -> dict:
    cells = rep["cells"]
    ops = cells.ops
    dispatch_s = tracer.self_s("store.dispatch")
    place_calls = tracer.calls("placement.place_replicas")
    place_s = tracer.self_s("placement.place_replicas")
    metrics = {
        "netsim.self_s": tracer.self_s("netsim.run"),
        "netsim.events": cells.events,
        "netsim.events_per_op": cells.events / ops,
        "netsim.messages_delivered": cells.delivered,
        "netsim.messages_dropped": cells.dropped,
        "netsim.timers_set": tracer.timers_set,
        "netsim.timer_fire_frac": cells.timers_fired / tracer.timers_set,
        "store.dispatch_s": dispatch_s,
        "store.dispatch_us_per_event": dispatch_s / cells.events * 1e6,
        "store.replica_msgs_per_op":
            sum(tracer.messages.get(kind, 0) for kind in checks.REPLICA_MESSAGES) / ops,
        "store.acks_per_op": cells.acks / cells.completed,
        "store.inflight_peak": tracer.inflight_peak,
        "store.timeouts": cells.timeouts,
        "store.failed_op_frac": (ops - cells.succeeded) / ops,
        "store.diverged_keys": cells.diverged_keys,
        "store.diverged_key_frac": cells.diverged_keys / cells.keys,
        "topology.build_s": tracer.self_s("topology.build"),
        "topology.nearest_node.calls": tracer.calls("topology.nearest_node"),
        "topology.nearest_node_s": tracer.self_s("topology.nearest_node"),
        "topology.nearest_node.calls_per_op": tracer.calls("topology.nearest_node") / ops,
        "topology.latency_ms.calls": tracer.calls("topology.latency_ms"),
        "topology.latency_ms_s": tracer.self_s("topology.latency_ms"),
        "placement.calls": place_calls,
        "placement.place_replicas_s": place_s,
        "placement.us_per_call": place_s / place_calls * 1e6 if place_calls else 0.0,
        "consistency.get_region.calls": tracer.calls("consistency.get_region"),
        "consistency.get_region_s": tracer.self_s("consistency.get_region"),
        "consistency.stale_read_frac": cells.stale_reads / cells.reads,
        "workload.generate_ops_s": tracer.self_s("workload.generate_ops"),
        "workload.summary_s": tracer.self_s("workload.summary"),
        "experiment.issue_s": tracer.self_s("experiment.run_queries"),
        "experiment.cell_s_p50": statistics.median(tracer.cell_s),
        "experiment.cell_s_max": max(tracer.cell_s),
        "cli.config_load_s": tracer.self_s("cli.load_sweep_plan"),
        "trace.host_s": rep["wall_s"],
    }
    for level in LEVELS:
        metrics[f"consistency.level_{level}_frac"] = cells.levels[level] / cells.completed
    return metrics


def repeat(budget_s: float, run) -> list:
    """Call ``run`` once, then again while another call should end within ``budget_s``."""
    results = []
    start = time.monotonic()
    while True:
        begun = time.monotonic()
        results.append(run())
        now = time.monotonic()
        if now - start + (now - begun) > budget_s:
            return results


def verify(name: str, seeds: dict, reps: list[dict]) -> list[str]:
    """Problems with the repetitions' outputs; empty when all checks pass."""
    problems = []
    spec = workloads.SPEC[name]
    for i, rep in enumerate(reps):
        cells = rep["cells"]
        if cells.callback_errors:
            problems.append(f"rep {i}: {cells.missing} ops without a callback, "
                            f"{cells.duplicate} extra callbacks, {cells.unknown} unknown")
    expected = next((e for e in spec["expected"] if e["seeds"] == seeds), {})
    for key in ("csv_sha256", "op_digest"):
        seen = {rep[key] for rep in reps}
        if len(seen) > 1:
            problems.append(f"{key} differs between repetitions: {sorted(map(str, seen))}")
        if key in expected and reps[0][key] != expected[key]:
            problems.append(f"{key} is {reps[0][key]}, expected {expected[key]}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.REPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--topology-seed", type=int)
    parser.add_argument("--jitter-seed", type=int)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="write the traced run's spans here")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    seeds = {key: getattr(args, key) for key in workloads.SPEC[args.workload]["defaults"]}
    if None in seeds.values():
        parser.error(f"{args.workload} reads the seeds {sorted(seeds)}")
    work = BENCH / "out" / "work" / f"{args.workload}-{os.getpid()}"
    collector = Collector()
    collector.install()
    try:
        if args.probe:
            try:
                repetition(args.workload, work, seeds, collector, probe=True)
            except SetupDone as done:
                print(json.dumps({"first_submit_monotonic": done.args[0]}))
                return 0
            raise RuntimeError("the workload never called Cluster.submit")
        budget = args.seconds / 2 if args.trace else args.seconds
        reps = repeat(budget, lambda: repetition(args.workload, work, seeds, collector))
        result = {"end_to_end": end_to_end(reps), "reps": [rep["sim_s"] for rep in reps]}
        traced_reps = []
        if args.trace:
            tracer = Tracer(excluded_s=lambda: collector.check_s)
            collector.uninstall()
            tracer.install()
            collector.install()

            def traced() -> dict:
                tracer.reset()
                rep = repetition(args.workload, work, seeds, collector)
                rep["layers"] = per_layer(tracer, rep)
                return rep

            traced_reps = repeat(budget, traced)
            layers = {key: statistics.median(rep["layers"][key] for rep in traced_reps)
                      for key in traced_reps[0]["layers"]}
            layers["experiment.cpu_s"] = statistics.median(rep["cpu_s"] for rep in reps)
            layers["trace.overhead_frac"] = (
                layers["trace.host_s"] / statistics.median(rep["wall_s"] for rep in reps) - 1.0)
            result["per_layer"] = layers
            if args.spans is not None:
                tracer.write_spans(args.spans)
        checked = reps + traced_reps
        result["problems"] = verify(args.workload, seeds, checked)
        result["attempted"] = sum(rep["cells"].ops for rep in checked)
        result["failed"] = sum(rep["cells"].callback_errors for rep in checked)
        result["fingerprints"] = {key: reps[0][key] for key in ("csv_sha256", "op_digest")}
        print(json.dumps(result))
        return 0
    finally:
        collector.uninstall()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
