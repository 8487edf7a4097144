"""Command-line front door: run experiments, sweeps, and config tooling.

Subcommands:

* ``run``               one experiment (topology + workload, optional regions/faults)
* ``sweep``             the full settings x levels x directions grid from a plan file
* ``gen-paper-configs`` write the three star6 topologies plus sample workload/sweep files
* ``place``             dump replica placements for keys at a data location
* ``validate``          parse and validate config files without running
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, ContextManager, TextIO

from .consistency import load_regions
from .errors import ConfigError
from .experiment import (
    PAPER_LATENCY_SETTINGS,
    STAR_CLIENT_GEO,
    load_sweep_plan,
    make_paper_topologies,
    run_single,
    run_sweep,
)
from .netsim import BudgetExceededError, check_fault_nodes, load_fault_script
from .placement import place_replicas, placement_csv_rows
from .topology import load_topology
from .workload import (STATS_CSV_HEADER, WorkloadSpec, _finite_positive, format_stats_row,
                       load_workload)

SAMPLE_WORKLOAD = """\
{
  "op_count": 10000,
  "read_fraction": 0.95,
  "key_prefix": "key-",
  "recency_skew": 0.3,
  "clients": [{"id": "ycsb", "geo": [%(x)s, 0.0], "weight": 1.0}],
  "fixed_read_level": "ONE",
  "fixed_write_level": "ONE",
  "seed": 42
}
"""

SAMPLE_SWEEP = """\
{
  "workload": "star6-workload.json",
  "settings": [
    {"name": "low", "topology": "star6-low.json"},
    {"name": "medium", "topology": "star6-medium.json"},
    {"name": "high", "topology": "star6-high.json"}
  ],
  "levels": ["ONE", "TWO", "QUORUM", "ALL"],
  "directions": ["read", "write"],
  "replication_factor": 5
}
"""


def _positive(parse: Callable[[str], float]) -> Callable[[str], float]:
    """An argparse type: ``parse`` the text, then accept only finite values > 0."""

    def check(text: str) -> float:
        value = parse(text)
        if not _finite_positive(value):
            raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
        return value

    check.__name__ = parse.__name__  # argparse names the type in "invalid int value"
    return check


_positive_int = _positive(int)
_positive_float = _positive(float)


def _open_output(path: str | None) -> ContextManager[TextIO]:
    """Open an output file (stdout if ``path`` is None) before any work runs.

    A path that cannot be written is a ConfigError, so a bad ``--out`` fails
    before a long run instead of after it.
    """
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(path, f"cannot write file: {exc.strerror}") from None


def _check_level_source(workload: WorkloadSpec, workload_path: str,
                        regions_path: str | None) -> None:
    """Levels come from exactly one source: the workload's fixed levels or a regions file."""
    fixed = workload.fixed_read_level is not None  # a workload sets both or neither
    if fixed == bool(regions_path):
        raise ConfigError(workload_path, "fixed_read_level/fixed_write_level: give these or a "
                          f"regions file, not {'both' if fixed else 'neither'}")


def _with_overrides(workload: WorkloadSpec, args: argparse.Namespace) -> WorkloadSpec:
    """``workload`` with the seed and op count that ``--seed`` and ``--ops`` give, if any."""
    given = {"seed": args.seed, "op_count": args.ops}
    return replace(workload, **{name: value for name, value in given.items() if value is not None})


def _cmd_run(args: argparse.Namespace) -> int:
    topology = load_topology(args.topology)
    workload = _with_overrides(load_workload(args.workload), args)
    _check_level_source(workload, args.workload, args.regions)
    region_set = load_regions(args.regions) if args.regions else None
    fault_script = load_fault_script(args.faults) if args.faults else ()
    check_fault_nodes(fault_script, topology, args.faults)

    with contextlib.ExitStack() as files:
        out = files.enter_context(_open_output(args.out))
        trace_file = files.enter_context(_open_output(args.trace)) if args.trace else None
        trace_sink = (lambda line: trace_file.write(line + "\n")) if trace_file else None
        output = run_single(
            topology,
            workload,
            region_set=region_set,
            replication_factor=args.rf,
            timeout_ms=args.timeout_ms,
            fault_script=fault_script,
            trace_sink=trace_sink,
            budget_ms=args.budget_ms,
        )

        setting = args.setting_name or Path(args.topology).stem
        lines = [STATS_CSV_HEADER]
        for kind in ("read", "write"):
            if output.stats.count(kind) == 0:
                continue
            level = workload.fixed_read_level if kind == "read" else workload.fixed_write_level
            lines.append(format_stats_row(setting, level.value if level else "region", kind,
                                          output.stats.summary(kind)))
        out.write("\n".join(lines) + "\n")
    for label, count in sorted(output.error_counts.items()):
        print(f"note: {count} operations failed with {label}", file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    plan = load_sweep_plan(args.config)
    plan.workload = _with_overrides(plan.workload, args)
    if args.budget_ms is not None:
        plan.budget_ms = args.budget_ms
    with _open_output(args.out) as out:
        result = run_sweep(plan)
        out.write(result.csv_text)
    for failure in result.cell_failures:
        print(f"cell failed: {failure}", file=sys.stderr)
    return 3 if result.cell_failures else 0


def _cmd_gen_paper_configs(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    workload_path = out_dir / "star6-workload.json"
    sweep_path = out_dir / "star6-sweep.json"
    try:
        paths = make_paper_topologies(out_dir)
        workload_path.write_text(SAMPLE_WORKLOAD % {"x": STAR_CLIENT_GEO[0]})
        sweep_path.write_text(SAMPLE_SWEEP)
    except OSError as exc:
        raise ConfigError(exc.filename or args.out_dir,
                          f"cannot write file: {exc.strerror}") from None
    for name in PAPER_LATENCY_SETTINGS:
        print(paths[name])
    print(workload_path)
    print(sweep_path)
    return 0


def _cmd_place(args: argparse.Namespace) -> int:
    topology = load_topology(args.topology)
    try:
        x_str, y_str = args.at.split(",")
        location = (float(x_str), float(y_str))
        if not all(map(math.isfinite, location)):
            raise ValueError
    except ValueError:
        raise ConfigError("--at", f"expected finite X,Y coordinates, got {args.at!r}") from None
    maps = [place_replicas(key, location, topology, args.rf) for key in args.keys]
    with _open_output(args.out) as out:
        out.write("\n".join(placement_csv_rows(args.keys, maps)) + "\n")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    checks = [
        ("topology", args.topology, load_topology),
        ("regions", args.regions, load_regions),
        ("workload", args.workload, load_workload),
        ("faults", args.faults, load_fault_script),
    ]
    given = [(label, path, loader) for label, path, loader in checks if path]
    if not given:
        print("nothing to validate: pass --topology/--regions/--workload/--faults", file=sys.stderr)
        return 2
    failures = 0
    topology = None
    for label, path, loader in given:
        try:
            loaded = loader(path)
            if label == "topology":
                topology = loaded
            elif label == "workload" and args.regions:
                _check_level_source(loaded, path, args.regions)
            elif label == "faults" and topology is not None:
                check_fault_nodes(loaded, topology, path)
            print(f"ok: {path}")
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fogstore-sim",
        description="Replicated fog key-value store simulator and latency benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)  # the flags run and sweep share
    shared.add_argument("--seed", type=int, help="override the workload seed")
    shared.add_argument("--ops", type=_positive_int, help="override the workload op count")
    shared.add_argument("--budget-ms", type=_positive_float,
                        help="abort a run, or fail a sweep cell, if the sim clock passes this")
    shared.add_argument("--out", help="CSV output path (default stdout)")

    run = sub.add_parser("run", parents=[shared], help="run a single experiment")
    run.add_argument("--topology", required=True)
    run.add_argument("--workload", required=True)
    run.add_argument("--regions", help="consistency regions file (omit to use fixed levels)")
    run.add_argument("--faults", help="fault script file")
    run.add_argument("--rf", type=_positive_int, default=5, help="replication factor (default 5)")
    run.add_argument("--timeout-ms", type=_positive_float, default=10_000.0)
    run.add_argument("--setting-name", help="setting label for CSV rows (default: topology stem)")
    run.add_argument("--trace", help="write an event trace to this path")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", parents=[shared],
                           help="run a settings x levels x directions sweep")
    sweep.add_argument("--config", required=True, help="sweep plan JSON file")
    sweep.set_defaults(func=_cmd_sweep)

    gen = sub.add_parser("gen-paper-configs",
                         help="write the star6 low/medium/high topologies and sample configs")
    gen.add_argument("--out-dir", default=".", help="directory to write into")
    gen.set_defaults(func=_cmd_gen_paper_configs)

    place = sub.add_parser("place", help="dump replica placements as CSV")
    place.add_argument("--topology", required=True)
    place.add_argument("--rf", type=_positive_int, default=5)
    place.add_argument("--at", required=True, help="data location as X,Y meters")
    place.add_argument("--out", help="output path (default stdout)")
    place.add_argument("keys", nargs="+", help="keys to place")
    place.set_defaults(func=_cmd_place)

    validate = sub.add_parser("validate", help="check config files without running")
    validate.add_argument("--topology")
    validate.add_argument("--regions")
    validate.add_argument("--workload")
    validate.add_argument("--faults")
    validate.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
