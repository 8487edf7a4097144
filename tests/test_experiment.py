from collections import Counter
from dataclasses import replace

from fogstore_sim import experiment
from fogstore_sim.consistency import ConsistencyLevel
from fogstore_sim.experiment import SweepPlan, build_star_topology, run_single, run_sweep
from fogstore_sim.store import QueryKind
from fogstore_sim.workload import (
    STATS_CSV_HEADER,
    WorkloadClient,
    WorkloadSpec,
    format_stats_row,
)

from conftest import STAR_CLIENT

ONE = ConsistencyLevel.ONE
TWO = ConsistencyLevel.TWO
ALL = ConsistencyLevel.ALL


def small_plan() -> SweepPlan:
    settings = [("low", build_star_topology((4, 5, 6, 7, 8))),
                ("high", build_star_topology((12, 15, 18, 21, 24)))]
    workload = WorkloadSpec(op_count=300, clients=(WorkloadClient("ycsb", STAR_CLIENT),),
                            read_fraction=0.8, seed=9)
    return SweepPlan(settings=settings, levels=[ONE, ALL], directions=["read", "write"],
                     workload=workload)


def test_sweep_generates_its_ops_once_and_runs_cells_through_the_module_hooks(monkeypatch):
    # Benchmarks and tracers patch these module attributes, so every cell
    # must still reach run_single and run_queries through them.
    plan = small_plan()
    calls: Counter = Counter()

    def count(name):
        original = getattr(experiment, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, name, counted)

    for name in ("generate_ops", "run_single", "run_queries"):
        count(name)
    shared = run_sweep(plan)
    assert calls == {"generate_ops": 1, "run_single": 8, "run_queries": 8}

    # The same CSV as every cell generating its own list.
    monkeypatch.undo()
    lines = [STATS_CSV_HEADER]
    for setting, topology in plan.settings:
        for level in plan.levels:
            for direction in plan.directions:
                cell = replace(plan.workload,
                               fixed_read_level=level if direction == "read" else ONE,
                               fixed_write_level=level if direction == "write" else ONE)
                summary = run_single(topology, cell).stats.summary(direction)
                lines.append(format_stats_row(setting, level.value, direction, summary))
    assert shared.cell_failures == []
    assert shared.csv_text == "\n".join(lines) + "\n"


def test_run_single_replays_a_given_op_list():
    plan = small_plan()
    workload = replace(plan.workload, fixed_read_level=ALL, fixed_write_level=ONE)
    topology = plan.settings[0][1]
    queries = experiment.generate_ops(workload)
    replayed = run_single(topology, workload, queries=queries)
    assert [id(query) for query, _ in replayed.results] == list(map(id, queries))  # in order
    fresh = run_single(topology, workload)
    assert [(r.status, r.value, r.latency_ms) for _, r in replayed.results] \
        == [(r.status, r.value, r.latency_ms) for _, r in fresh.results]


def test_a_cell_with_no_successful_op_in_its_direction_fails_alone():
    # One replica makes TWO infeasible; a 0.001 ms deadline times out every
    # op that waits for a replica. The ONE cells, answered at once, still run.
    plan = small_plan()
    queries = experiment.generate_ops(plan.workload)
    ops = {"read": sum(q.kind is QueryKind.READ for q in queries)}
    ops["write"] = len(queries) - ops["read"]
    for changes, level, error in [({"levels": [ONE, TWO], "replication_factor": 1},
                                   TWO, "level_infeasible"),
                                  ({"timeout_ms": 0.001}, ALL, "timeout")]:
        result = run_sweep(replace(plan, **changes))
        rows = result.csv_text.splitlines()
        assert rows[0] == STATS_CSV_HEADER
        assert [row.split(",")[:3] for row in rows[1:]] == [
            [setting, "ONE", direction] for setting in ("low", "high")
            for direction in ("read", "write")]
        assert result.cell_failures == [
            f"{setting}/{level.value}/{direction}: no successful {direction} ops "
            f"({ops[direction]} {error})"
            for setting in ("low", "high") for direction in ("read", "write")]
