import json

import pytest

from fogstore_sim.consistency import load_regions
from fogstore_sim.errors import ConfigError
from fogstore_sim.experiment import load_sweep_plan
from fogstore_sim.netsim import load_fault_script
from fogstore_sim.topology import load_topology
from fogstore_sim.workload import load_workload

LOADERS = [load_topology, load_regions, load_fault_script, load_workload, load_sweep_plan]


@pytest.mark.parametrize("loader", LOADERS, ids=lambda f: f.__name__)
class TestLoadJson:
    def test_missing_file_names_path(self, loader, tmp_path):
        path = tmp_path / "nope.json"
        with pytest.raises(ConfigError, match="cannot read file") as err:
            loader(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_malformed_file_names_path(self, loader, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON") as err:
            loader(path)
        assert str(err.value).startswith(f"{path}: ")


BAND = {"read": "ONE", "write": "ONE"}
GOOD_DEFAULT = {"bands": [BAND]}

MALFORMED = [
    (load_sweep_plan, {"settings": [1]}, "settings[0]"),
    (load_sweep_plan, {"settings": 5}, "settings"),
    (load_sweep_plan, {"levels": 5}, "levels"),
    (load_sweep_plan, {"directions": 5}, "directions"),
    (load_sweep_plan, {"base_topology": "t.json", "settings": [{"name": "x", "multiplier": "x"}]},
     "settings[0].multiplier"),
    (load_sweep_plan, {"base_topology": "t.json", "settings": [{"name": "x", "multiplier": 0}]},
     "settings[0].multiplier"),
    (load_regions, {"default": 3}, "default"),
    (load_regions, {"default": GOOD_DEFAULT, "specs": [1]}, "specs[0]"),
    (load_regions, {"default": GOOD_DEFAULT, "specs": 5}, "specs"),
    (load_regions, {"default": {"bands": [1]}}, "default.bands[0]"),
    (load_regions, {"default": {"bands": 5}}, "default.bands"),
    (load_regions, {"default": {"bands": [{**BAND, "radius_m": "x"}]}},
     "default.bands[0].radius_m"),
    (load_fault_script,
     {"events": [{"at_ms": 1, "action": "partition", "group_a": 5, "group_b": ["a"]}]},
     "events[0].group_a"),
    (load_fault_script, {"events": 5}, "events"),
    (load_topology, {"nodes": 5}, "nodes"),
    (load_topology, {"links": 5}, "links"),
    (load_workload, {"clients": 5}, "clients"),
]


@pytest.mark.parametrize(
    "loader,doc,where", MALFORMED,
    ids=[f"{loader.__name__}-{where}" for loader, _, where in MALFORMED],
)
def test_malformed_element_names_file_and_path(loader, doc, where, tmp_path):
    workload = {"op_count": 1, "clients": [{"id": "c", "geo": [0, 0]}]}
    (tmp_path / "w.json").write_text(json.dumps(workload))
    topology = {"nodes": [{"id": "a", "geo": [0, 0], "failure_group": "g"}]}
    (tmp_path / "t.json").write_text(json.dumps(topology))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"workload": "w.json", **doc}))
    with pytest.raises(ConfigError) as err:
        loader(path)
    assert str(err.value).startswith(f"{path}: {where}: ")
