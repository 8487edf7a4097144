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
