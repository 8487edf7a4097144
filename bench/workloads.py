"""The benchmark's three workloads: their generated configs and one repetition each.

A repetition is everything a user of the simulator does for one result:
write the config files, load them, build the topology and run the workload
through the program's public entry points (``cli.main`` for the paper sweep,
``experiment.run_single`` for the two single-cell workloads). Seeds come from
the benchmark; the program only sees the files it generates.

Seeds, held-out seeds, expected outputs and the layer -> metric mapping live
in ``workloads.json`` next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

from fogstore_sim import cli, experiment
from fogstore_sim.consistency import load_regions
from fogstore_sim.netsim import load_fault_script
from fogstore_sim.topology import load_topology
from fogstore_sim.workload import load_workload

SPEC = json.loads(Path(__file__).with_name("workloads.json").read_text())

# fog-regions: 4 regions x 4 sites x (1 switch, 1 edge attach, 3 storage nodes),
# plus 4 region hubs and one cloud storage node: 85 nodes, 49 storage.
FOG_REGIONS = 4
FOG_SITES = 4
FOG_STORAGE_PER_SITE = 3
FOG_CLIENTS_PER_SITE = 2
FOG_REGION_RADIUS_M = 40_000.0
FOG_SITE_RADIUS_M = 3_000.0  # neighbouring sites land inside the 5 km band, opposite ones outside
FOG_OPS = 20_000
FOG_RF = 3
FOG_INTERVAL_MS = 0.5

# The paper's example bands on the traffic-light keyspace.
FOG_BANDS = {
    "specs": [
        {"keyspace": "tl-", "bands": [
            {"radius_m": 500, "read": "ALL", "write": "ONE"},
            {"radius_m": 5000, "read": "QUORUM", "write": "ONE"},
            {"radius_m": None, "read": "ONE", "write": "ONE"},
        ]},
    ],
    "default": {"bands": [{"radius_m": None, "read": "ONE", "write": "ONE"}]},
}

STAR_OPS = 20_000
STAR_RF = 5
STAR_INTERVAL_MS = 1.0
STAR_TIMEOUT_MS = 500.0
STAR_JITTER_MS = 1.0
STAR_FAULTS = {"events": [
    {"at_ms": 2000, "action": "crash", "node": "fog-3"},
    {"at_ms": 4000, "action": "partition", "group_a": ["fog-1", "fog-2"],
     "group_b": ["fog-4", "fog-5"]},
    {"at_ms": 6000, "action": "heal"},
    {"at_ms": 7000, "action": "recover", "node": "fog-3"},
    {"at_ms": 9000, "action": "crash", "node": "fog-1"},
    {"at_ms": 11000, "action": "recover", "node": "fog-1"},
]}


def _polar(center: tuple[float, float], radius: float, angle: float) -> list[float]:
    return [round(center[0] + radius * math.cos(angle), 1),
            round(center[1] + radius * math.sin(angle), 1)]


def fog_continuum(topology_seed: int) -> tuple[dict, list[dict]]:
    """The fog-regions topology document and its 32 edge clients."""
    rng = random.Random(topology_seed)
    nodes = [{"id": "cloud", "geo": [0.0, 0.0], "failure_group": "fg-cloud",
              "tier": 3, "is_storage": True}]
    links = []
    clients = []
    for r in range(FOG_REGIONS):
        hub = f"region-{r}"
        hub_geo = _polar((0.0, 0.0), FOG_REGION_RADIUS_M, r * math.pi / 2)
        nodes.append({"id": hub, "geo": hub_geo, "failure_group": f"fg-{hub}",
                      "tier": 2, "is_storage": False})
        links.append({"a": "cloud", "b": hub, "latency_ms": round(rng.uniform(18, 22), 2)})
        for s in range(FOG_SITES):
            site = f"{r}-{s}"
            group = f"fg-site-{site}"
            angle = s * math.pi / 2 + rng.uniform(-0.35, 0.35)
            center = _polar(hub_geo, FOG_SITE_RADIUS_M, angle)
            nodes.append({"id": f"switch-{site}", "geo": center, "failure_group": group,
                          "tier": 1, "is_storage": False})
            links.append({"a": hub, "b": f"switch-{site}",
                          "latency_ms": round(rng.uniform(3, 5), 2)})
            edge_geo = _polar(center, 400.0, angle)  # on the far side, away from the hub
            nodes.append({"id": f"edge-{site}", "geo": edge_geo, "failure_group": group,
                          "tier": 0, "is_storage": False})
            links.append({"a": f"switch-{site}", "b": f"edge-{site}", "latency_ms": 1.0})
            for k in range(FOG_STORAGE_PER_SITE):
                storage = f"fog-{site}-{k}"
                geo = _polar(center, rng.uniform(50, 150), rng.uniform(0, 2 * math.pi))
                nodes.append({"id": storage, "geo": geo, "failure_group": group,
                              "tier": 1, "is_storage": True})
                links.append({"a": f"switch-{site}", "b": storage, "latency_ms": 0.5})
            for c in range(FOG_CLIENTS_PER_SITE):
                geo = _polar(edge_geo, rng.uniform(5, 50), rng.uniform(0, 2 * math.pi))
                clients.append({"id": f"client-{site}-{c}", "geo": geo, "weight": 1.0})
    return {"nodes": nodes, "links": links}, clients


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def run_paper_sweep(work: Path, seeds: dict) -> str:
    """gen-paper-configs + sweep through the CLI; returns the CSV text."""
    csv_path = work / "sweep.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["gen-paper-configs", "--out-dir", str(work)])
        if rc == 0:
            rc = cli.main(["sweep", "--config", str(work / "star6-sweep.json"),
                           "--seed", str(seeds["seed"]), "--out", str(csv_path)])
    if rc != 0:
        raise RuntimeError(f"fogstore-sim exited with {rc}")
    return csv_path.read_text()


def run_fog_regions(work: Path, seeds: dict) -> None:
    topology_doc, clients = fog_continuum(seeds["topology_seed"])
    topology = load_topology(_write(work / "fog-continuum.json", topology_doc))
    regions = load_regions(_write(work / "fog-regions.json", FOG_BANDS))
    workload = load_workload(_write(work / "fog-workload.json", {
        "op_count": FOG_OPS, "read_fraction": 0.7, "key_prefix": "tl-",
        "recency_skew": 0.05, "clients": clients,
        "open_loop_interval_ms": FOG_INTERVAL_MS, "seed": seeds["seed"],
    }))
    experiment.run_single(topology, workload, region_set=regions, replication_factor=FOG_RF)


def run_star_faults(work: Path, seeds: dict) -> None:
    topology = load_topology(experiment.make_paper_topologies(work)["low"])
    workload = load_workload(_write(work / "star-workload.json", {
        "op_count": STAR_OPS, "read_fraction": 0.5, "key_prefix": "key-",
        "recency_skew": 0.3,
        "clients": [{"id": "ycsb", "geo": list(experiment.STAR_CLIENT_GEO)}],
        "fixed_read_level": "QUORUM", "fixed_write_level": "QUORUM",
        "open_loop_interval_ms": STAR_INTERVAL_MS, "seed": seeds["seed"],
    }))
    faults = load_fault_script(_write(work / "star-faults.json", STAR_FAULTS))
    experiment.run_single(topology, workload, replication_factor=STAR_RF,
                          timeout_ms=STAR_TIMEOUT_MS, fault_script=faults,
                          jitter_ms=STAR_JITTER_MS, jitter_seed=seeds["jitter_seed"])


REPS = {
    "paper-sweep": run_paper_sweep,
    "fog-regions": run_fog_regions,
    "star-faults": run_star_faults,
}
