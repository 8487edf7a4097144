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
NAN, INF = float("nan"), float("inf")
GOOD_DEFAULT = {"bands": [BAND]}

MALFORMED = [
    (load_sweep_plan, {"settings": [1]}, "settings[0]"),
    (load_sweep_plan, {"settings": 5}, "settings"),
    (load_sweep_plan, {"levels": 5}, "levels"),
    (load_sweep_plan, {"directions": 5}, "directions"),
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


def _topology(link_ms=1.0, service_ms=0.0, is_storage=True):
    return {"nodes": [{"id": "a", "geo": [0, 0], "failure_group": "g", "service_ms": service_ms,
                       "is_storage": is_storage},
                      {"id": "b", "geo": [1, 0], "failure_group": "g"}],
            "links": [{"a": "a", "b": "b", "latency_ms": link_ms}]}


def _workload(interval=None, skew=0.3, weight=1.0, geo=(0, 0)):
    return {"op_count": 1, "open_loop_interval_ms": interval, "recency_skew": skew,
            "clients": [{"id": "c", "geo": list(geo), "weight": weight}]}


# Non-finite numbers: json reads NaN and Infinity, and NaN passes every "<= 0" check.
NON_FINITE = [
    (load_topology, _topology(link_ms=NAN), "links[0].latency_ms", "nan"),
    (load_topology, _topology(link_ms=INF), "links[0].latency_ms", "inf"),
    (load_topology, _topology(service_ms=NAN), "nodes[0].service_ms", "nan"),
    (load_topology, _topology(service_ms=INF), "nodes[0].service_ms", "inf"),
    (load_workload, _workload(interval=NAN), "open_loop_interval_ms", "nan"),
    (load_workload, _workload(interval=INF), "open_loop_interval_ms", "inf"),
    (load_workload, _workload(skew=NAN), "recency_skew", "nan"),
    (load_workload, _workload(weight=NAN), "clients[0].weight", "nan"),
    (load_workload, _workload(weight=INF), "clients[0].weight", "inf"),
    (load_workload, _workload(geo=(NAN, 0)), "clients[0].geo", "nan"),
    (load_workload, {**_workload(), "data_geo": [INF, 0]}, "data_geo", "inf"),
    (load_regions, {"default": {"bands": [{**BAND, "radius_m": NAN}, BAND]}}, "default", "nan"),
    (load_fault_script, {"events": [{"at_ms": NAN, "action": "crash", "node": "fog-1"}]},
     "events[0].at_ms", "nan"),
    (load_fault_script, {"events": [{"at_ms": INF, "action": "crash", "node": "fog-1"}]},
     "events[0].at_ms", "inf"),
    (load_fault_script, {"events": [{"at_ms": -5, "action": "crash", "node": "fog-1"}]},
     "events[0].at_ms", "negative"),
]


def _sweep(**fields):
    return {"settings": [{"name": "x", "topology": "t.json"}], "levels": ["ONE"], **fields}


# Sweep plans a run cannot use: a setting without a topology, and numbers or
# lists out of range (NaN would otherwise turn a budget off or empty a sample).
BAD_SWEEP_PLAN = [
    (load_sweep_plan, {"settings": [{"name": "x"}]}, "settings[0]", "no-topology"),
    (load_sweep_plan, _sweep(timeout_ms=NAN), "timeout_ms", "nan"),
    (load_sweep_plan, _sweep(timeout_ms=-1), "timeout_ms", "negative"),
    (load_sweep_plan, _sweep(budget_ms=NAN), "budget_ms", "nan"),
    (load_sweep_plan, _sweep(budget_ms=INF), "budget_ms", "inf"),
    (load_sweep_plan, _sweep(replication_factor=0), "replication_factor", "zero"),
    (load_sweep_plan, _sweep(directions=[]), "directions", "empty"),
]

# Ids and names that str() used to coerce: two nodes with a null failure group
# shared group "None", an id 1.0 read "1.0", and a null key prefix made the
# keys None1, None2, ...
NOT_A_STRING = [
    (load_topology, {"nodes": [{"id": "a", "geo": [0, 0], "failure_group": None}]},
     "nodes[0].failure_group", "null"),
    (load_topology, {"nodes": [{"id": 1.0, "geo": [0, 0], "failure_group": "g"}]},
     "nodes[0].id", "number"),
    (load_topology, {**_topology(), "links": [{"a": "a", "b": True, "latency_ms": 1}]},
     "links[0].b", "boolean"),
    (load_workload, {**_workload(), "key_prefix": None}, "key_prefix", "null"),
    (load_workload, {"op_count": 1, "clients": [{"id": 7, "geo": [0, 0]}]}, "clients[0].id",
     "number"),
    (load_regions, {"default": GOOD_DEFAULT, "specs": [{"keyspace": None, "bands": [BAND]}]},
     "specs[0].keyspace", "null"),
    (load_fault_script, {"events": [{"at_ms": 1, "action": "crash", "node": 3}]},
     "events[0].node", "number"),
    (load_fault_script, {"events": [{"at_ms": 1, "action": None}]}, "events[0].action", "null"),
    (load_fault_script,
     {"events": [{"at_ms": 1, "action": "partition", "group_a": [1], "group_b": ["a"]}]},
     "events[0].group_a[0]", "number"),
    (load_fault_script,
     {"events": [{"at_ms": 1, "action": "partition", "group_a": ["a"], "group_b": [True]}]},
     "events[0].group_b[0]", "boolean"),
    (load_sweep_plan, {"workload": 5}, "workload", "number"),
    (load_sweep_plan, {"settings": [{"name": 5, "topology": "t.json"}]}, "settings[0].name",
     "number"),
    (load_sweep_plan, {"settings": [{"name": "x", "topology": True}]}, "settings[0].topology",
     "boolean"),
    (load_sweep_plan, _sweep(directions=["read", None]), "directions[1]", "null"),
]

# Values of the wrong JSON type that bool() or int() used to coerce:
# bool("false") is True, int(10.7) is 10 and int(True) is 1.
WRONG_JSON_TYPE = [
    (load_topology, _topology(is_storage="false"), "nodes[0].is_storage", "string"),
    (load_topology, _topology(is_storage=0), "nodes[0].is_storage", "number"),
    (load_topology, _topology(is_storage=None), "nodes[0].is_storage", "null"),
    (load_workload, {**_workload(), "op_count": 10.7}, "op_count", "fraction"),
    (load_workload, {**_workload(), "op_count": True}, "op_count", "boolean"),
    (load_workload, {**_workload(), "op_count": "10"}, "op_count", "string"),
    (load_workload, {**_workload(), "seed": 1.5}, "seed", "fraction"),
    (load_workload, {**_workload(), "seed": NAN}, "seed", "nan"),
    (load_sweep_plan, _sweep(replication_factor=2.5), "replication_factor", "fraction"),
    (load_sweep_plan, _sweep(replication_factor=True), "replication_factor", "boolean"),
    (load_sweep_plan, _sweep(replication_factor=INF), "replication_factor", "inf"),
    # float() used to take booleans and numeric strings where a number belongs.
    (load_workload, {**_workload(), "read_fraction": True}, "read_fraction", "boolean"),
    (load_workload, _workload(skew="0.5"), "recency_skew", "string"),
    (load_workload, _workload(interval="2"), "open_loop_interval_ms", "string"),
    (load_workload, _workload(weight="2"), "clients[0].weight", "string"),
    (load_workload, _workload(geo=(True, "3")), "clients[0].geo", "boolean-string"),
    (load_workload, {**_workload(), "data_geo": [0, False]}, "data_geo", "boolean"),
    (load_topology, _topology(service_ms=True), "nodes[0].service_ms", "boolean"),
    (load_topology, _topology(link_ms="2"), "links[0].latency_ms", "string"),
    (load_regions, {"default": {"bands": [{**BAND, "radius_m": True}]}},
     "default.bands[0].radius_m", "boolean"),
    (load_fault_script, {"events": [{"at_ms": "5", "action": "crash", "node": "fog-1"}]},
     "events[0].at_ms", "string"),
    (load_sweep_plan, _sweep(timeout_ms="5"), "timeout_ms", "string"),
    (load_sweep_plan, _sweep(budget_ms=True), "budget_ms", "boolean"),
    *NOT_A_STRING,
]

# A present field of the wrong type used to read as missing. Only an absent
# field says so (for bands, null or an empty array too); any other wrong type
# gets the message of the check for its type, and an empty string its own.
FIELD_MESSAGES = [
    (load_sweep_plan, {"settings": [{"topology": "t.json"}]},
     "settings[0]: missing field 'name'"),
    (load_sweep_plan, {"settings": [{"name": "x"}]}, "settings[0]: missing field 'topology'"),
    (load_sweep_plan, {"settings": [{"name": 0, "topology": "t.json"}]},
     "settings[0].name: expected a JSON string, got 0"),
    (load_sweep_plan, {"settings": [{"name": None, "topology": "t.json"}]},
     "settings[0].name: expected a JSON string, got None"),
    (load_sweep_plan, {"settings": [{"name": "", "topology": "t.json"}]},
     "settings[0].name: must not be empty"),
    (load_sweep_plan, {"settings": [{"name": "x", "topology": 0}]},
     "settings[0].topology: expected a JSON string, got 0"),
    (load_sweep_plan, {"settings": [{"name": "x", "topology": 7}]},
     "settings[0].topology: expected a JSON string, got 7"),
    (load_sweep_plan, {"settings": [{"name": "x", "topology": ""}]},
     "settings[0].topology: must not be empty"),
    (load_regions, {"default": {}}, "default: missing or empty 'bands'"),
    (load_regions, {"default": {"bands": None}}, "default: missing or empty 'bands'"),
    (load_regions, {"default": {"bands": []}}, "default: missing or empty 'bands'"),
    (load_regions, {"default": {"bands": 0}}, "default.bands: expected a JSON array, got 0"),
    (load_regions, {"default": {"bands": False}},
     "default.bands: expected a JSON array, got False"),
    (load_regions, {"default": {"bands": ""}}, "default.bands: expected a JSON array, got ''"),
    (load_regions, {"default": {"bands": {}}}, "default.bands: expected a JSON array, got {}"),
    (load_regions, {"default": {"bands": 5}}, "default.bands: expected a JSON array, got 5"),
    (load_regions, {"default": GOOD_DEFAULT, "specs": [{"keyspace": "k", "bands": 0}]},
     "specs[0].bands: expected a JSON array, got 0"),
]


@pytest.mark.parametrize("loader,doc,message", FIELD_MESSAGES,
                         ids=[message for _, _, message in FIELD_MESSAGES])
def test_only_an_absent_field_reads_missing(loader, doc, message, tmp_path):
    with pytest.raises(ConfigError) as err:
        load_beside_good_files(loader, doc, tmp_path)
    assert str(err.value) == f"{tmp_path / 'doc.json'}: {message}"


# A coordinate pair is exactly two numbers in both loaders that read one.
BAD_COORDS = [
    (load_workload, _workload(geo=(1, 2, 3)), "clients[0].geo", "three"),
    (load_workload, {**_workload(), "data_geo": [1, 2, 3]}, "data_geo", "three"),
    (load_workload, {**_workload(), "data_geo": [1]}, "data_geo", "one"),
    (load_topology, {"nodes": [{"id": "a", "geo": [0, 0, 0], "failure_group": "g"}]},
     "nodes[0].geo", "three"),
    (load_topology, {"nodes": [{"id": "a", "geo": [True, 0], "failure_group": "g"}]},
     "nodes[0].geo", "boolean"),
]


@pytest.mark.parametrize(
    "loader,doc,where",
    MALFORMED + [row[:3] for row in NON_FINITE + BAD_SWEEP_PLAN + WRONG_JSON_TYPE + BAD_COORDS],
    ids=[f"{loader.__name__}-{where}" for loader, _, where in MALFORMED]
    + [f"{loader.__name__}-{where}-{tag}"
       for loader, _, where, tag in NON_FINITE + BAD_SWEEP_PLAN + WRONG_JSON_TYPE + BAD_COORDS],
)
def test_malformed_element_names_file_and_path(loader, doc, where, tmp_path):
    with pytest.raises(ConfigError) as err:
        load_beside_good_files(loader, doc, tmp_path)
    assert str(err.value).startswith(f"{tmp_path / 'doc.json'}: {where}: ")


def load_beside_good_files(loader, doc, tmp_path):
    """Load ``doc`` (a sweep plan's ``workload`` defaults to a good file) next to good
    workload and topology files."""
    workload = {"op_count": 1, "clients": [{"id": "c", "geo": [0, 0]}]}
    (tmp_path / "w.json").write_text(json.dumps(workload))
    topology = {"nodes": [{"id": "a", "geo": [0, 0], "failure_group": "g"}]}
    (tmp_path / "t.json").write_text(json.dumps(topology))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"workload": "w.json", **doc}))
    return loader(path)


@pytest.mark.parametrize("loader,doc,where", [row[:3] for row in BAD_COORDS],
                         ids=[f"{loader.__name__}-{where}-{tag}"
                              for loader, _, where, tag in BAD_COORDS])
def test_bad_coordinates_read_expected_x_y(loader, doc, where, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        loader(path)
    assert str(err.value).startswith(f"{path}: {where}: expected [x, y]")


@pytest.mark.parametrize("loader,doc,where", [row[:3] for row in NOT_A_STRING],
                         ids=[f"{loader.__name__}-{where}-{tag}"
                              for loader, _, where, tag in NOT_A_STRING])
def test_non_string_reads_expected_a_json_string(loader, doc, where, tmp_path):
    with pytest.raises(ConfigError) as err:
        load_beside_good_files(loader, doc, tmp_path)
    assert str(err.value).startswith(f"{tmp_path / 'doc.json'}: {where}: expected a JSON string, got ")
