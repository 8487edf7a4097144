"""fogstore-sim benchmark: one workload per call, figures as JSON on the last line.

Usage, from the repository root::

    python3 bench/run.py --workload paper-sweep --seed 42 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric from a separate traced run.
The workloads, their default and held-out seeds, their expected outputs and
the per-layer metrics each is expected to move are in
``bench/workloads.json``.

Each workload runs in a fresh single-threaded Python process
(``worker.py``). ``setup_s`` is measured in five more fresh processes, from
process start to the first ``Cluster.submit``, and reported as their median.
The run exits non-zero, without a result line, if the program is missing or
fails, and with ``"correct": false`` and exit code 1 if an output check fails.
A record of each run, with the machine it ran on, is written to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170


def worker(args: argparse.Namespace, *extra: str, timeout: float) -> dict:
    """Run worker.py in a fresh process and return the JSON it printed."""
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    for key, value in args.seeds.items():
        command += [f"--{key.replace('_', '-')}", str(value)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_seconds(args: argparse.Namespace) -> list[float]:
    """Process start to first ``Cluster.submit``, once per fresh process."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        probe = worker(args, "--probe", timeout=60)
        samples.append(probe["first_submit_monotonic"] - start)
    return samples


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    return done.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    try:
        networkx = metadata.version("networkx")
    except metadata.PackageNotFoundError:
        networkx = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "networkx": networkx,
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    # SystemExit unwinds subprocess.run, which kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "fogstore_sim" / "__init__.py").is_file():
        print(f"error: no fogstore_sim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((BENCH / "workloads.json").read_text())

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec))
    parser.add_argument("--seed", type=int, help="workload seed (default per workload)")
    parser.add_argument("--topology-seed", type=int, help="fog-regions continuum seed")
    parser.add_argument("--jitter-seed", type=int, help="star-faults link jitter seed")
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    defaults = spec[args.workload]["defaults"]  # the seeds this workload reads
    for key in ("topology_seed", "jitter_seed"):
        if key not in defaults and getattr(args, key) is not None:
            parser.error(f"{args.workload} does not read --{key.replace('_', '-')}")
    args.seeds = {key: defaults[key] if getattr(args, key) is None else getattr(args, key)
                  for key in defaults}

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seeds['seed']}-trace{args.trace}"
    try:
        setup = [] if args.trace else setup_seconds(args)
        extra = ("--spans", str(out / f"{stem}-spans.jsonl")) if args.trace else ()
        result = worker(args, *extra, timeout=WORKER_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        declared, figures = manifest["per_layer"], result["per_layer"]
    else:
        declared, figures = manifest["end_to_end"], dict(result["end_to_end"])
        figures["setup_s"] = statistics.median(setup)
    missing = [m["name"] for m in declared if m["name"] not in figures]
    if missing:
        print(f"error: the worker did not measure {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in declared}
    correct = not result["problems"] and result["failed"] == 0
    line = {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}

    record = {"workload": args.workload, "seeds": args.seeds,
              "seconds": args.seconds, "trace": args.trace, "environment": environment(),
              "setup_samples_s": setup, "repetition_sim_s": result["reps"],
              "fingerprints": result["fingerprints"], "problems": result["problems"],
              "all_figures": figures, **line}
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
