"""README's "File formats" examples load through their loaders as written."""

import re
from pathlib import Path

from fogstore_sim.consistency import load_regions
from fogstore_sim.experiment import load_sweep_plan
from fogstore_sim.netsim import load_fault_script
from fogstore_sim.topology import load_topology
from fogstore_sim.workload import load_workload

README = Path(__file__).resolve().parents[1] / "README.md"


def file_format_blocks() -> list[str]:
    """The JSON code blocks of README's "File formats" section, in order."""
    section = README.read_text().split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```json\n(.*?)^```$", section, flags=re.M | re.S)


def test_every_file_format_example_loads(tmp_path):
    topology, regions, workload, sweep, faults = file_format_blocks()
    # The sweep plan names a workload and a topology: the examples above it.
    files = {"star6-low.json": topology, "regions.json": regions,
             "star6-workload.json": workload, "star6-sweep.json": sweep,
             "faults.json": faults}
    for name, text in files.items():
        (tmp_path / name).write_text(text)

    topo = load_topology(tmp_path / "star6-low.json")
    assert topo.latency_ms("switch", "fog-1") == 4.0
    load_regions(tmp_path / "regions.json")
    assert load_workload(tmp_path / "star6-workload.json").op_count == 10000
    plan = load_sweep_plan(tmp_path / "star6-sweep.json")
    assert [(name, t.to_dict()) for name, t in plan.settings] == [("low", topo.to_dict())]
    assert [action.action for action in load_fault_script(tmp_path / "faults.json")] \
        == ["crash", "recover", "partition", "heal"]
