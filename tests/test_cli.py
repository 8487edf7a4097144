import json

import pytest

from fogstore_sim.cli import main
from fogstore_sim.errors import ConfigError
from fogstore_sim.experiment import (
    PAPER_LATENCY_SETTINGS,
    build_star_topology,
    load_sweep_plan,
    make_paper_topologies,
    scale_topology,
)
from fogstore_sim.topology import load_topology, network_latency


def write_workload(path, **overrides):
    doc = {
        "op_count": 40,
        "read_fraction": 0.9,
        "key_prefix": "key-",
        "recency_skew": 0.3,
        "clients": [{"id": "ycsb", "geo": [-100.0, 0.0], "weight": 1.0}],
        "fixed_read_level": "ONE",
        "fixed_write_level": "ONE",
        "seed": 42,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def paper_dir(tmp_path):
    make_paper_topologies(tmp_path)
    return tmp_path


class TestGenPaperConfigs:
    def test_writes_three_settings_with_paper_latencies(self, tmp_path, capsys):
        assert main(["gen-paper-configs", "--out-dir", str(tmp_path)]) == 0
        for name, latencies in PAPER_LATENCY_SETTINGS.items():
            topo = load_topology(tmp_path / f"star6-{name}.json")
            spoke_delays = sorted(
                l.latency_ms for l in topo.links if "fog" in (l.endpoint_a, l.endpoint_b) or
                l.endpoint_b.startswith("fog")
            )
            assert spoke_delays == sorted(latencies)
            client_links = [l for l in topo.links if "client" in (l.endpoint_a, l.endpoint_b)]
            assert [l.latency_ms for l in client_links] == [1.0]
            assert len(topo.storage_ids) == 5
            groups = {topo.node(n).failure_group_id for n in topo.storage_ids}
            assert len(groups) == 5  # each storage node fails alone
        out = capsys.readouterr().out
        assert "star6-workload.json" in out and "star6-sweep.json" in out

    def test_sample_sweep_plan_loads(self, tmp_path):
        main(["gen-paper-configs", "--out-dir", str(tmp_path)])
        plan = load_sweep_plan(tmp_path / "star6-sweep.json")
        assert [name for name, _ in plan.settings] == ["low", "medium", "high"]
        assert len(plan.levels) == 4
        assert plan.directions == ["read", "write"]


class TestRun:
    def test_single_run_one_level_read_p50(self, paper_dir, tmp_path):
        workload = write_workload(tmp_path / "wl.json")
        out = tmp_path / "out.csv"
        code = main([
            "run",
            "--topology", str(paper_dir / "star6-low.json"),
            "--workload", str(workload),
            "--setting-name", "low",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("setting,level,op_kind,min")
        read_row = next(l for l in lines if ",read," in l)
        cells = read_row.split(",")
        assert cells[:3] == ["low", "ONE", "read"]
        assert cells[5] == "10"  # p50 read latency in ms

    def test_missing_topology_file_names_path(self, tmp_path, capsys):
        workload = write_workload(tmp_path / "wl.json")
        code = main(["run", "--topology", str(tmp_path / "absent.json"),
                     "--workload", str(workload)])
        assert code == 2
        assert "absent.json" in capsys.readouterr().err

    def test_missing_level_source_is_config_error(self, paper_dir, tmp_path, capsys):
        workload = write_workload(tmp_path / "wl.json",
                                  fixed_read_level=None, fixed_write_level=None)
        code = main(["run", "--topology", str(paper_dir / "star6-low.json"),
                     "--workload", str(workload)])
        assert code == 2
        assert "fixed_read_level" in capsys.readouterr().err

    def test_trace_file_is_written_and_deterministic(self, paper_dir, tmp_path):
        workload = write_workload(tmp_path / "wl.json", op_count=10)
        traces = []
        for name in ("t1.log", "t2.log"):
            trace = tmp_path / name
            main(["run", "--topology", str(paper_dir / "star6-low.json"),
                  "--workload", str(workload),
                  "--out", str(tmp_path / "ignored.csv"),
                  "--trace", str(trace)])
            traces.append(trace.read_bytes())
        assert traces[0] == traces[1]
        first = traces[0].decode().splitlines()[0]
        assert first.count(",") >= 5  # t,seq,kind,src,dst,summary


class TestSweep:
    def test_read_only_sweep_has_twelve_rows(self, paper_dir, tmp_path):
        write_workload(tmp_path / "wl.json", op_count=40)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "workload": "wl.json",
            "settings": [
                {"name": "low", "topology": str(paper_dir / "star6-low.json")},
                {"name": "medium", "topology": str(paper_dir / "star6-medium.json")},
                {"name": "high", "topology": str(paper_dir / "star6-high.json")},
            ],
            "levels": ["ONE", "TWO", "QUORUM", "ALL"],
            "directions": ["read"],
        }))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 13  # header + 4 levels x 3 settings
        assert all(",read," in l for l in lines[1:])

    def test_multiplier_settings(self, paper_dir, tmp_path):
        base = load_topology(paper_dir / "star6-low.json")
        doubled = scale_topology(base, 2.0)
        assert network_latency(doubled, "client", "fog-1") == 10.0

        write_workload(tmp_path / "wl.json", op_count=20)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "workload": "wl.json",
            "base_topology": str(paper_dir / "star6-low.json"),
            "settings": [{"name": "x2", "multiplier": 2.0}],
            "levels": ["ONE"],
            "directions": ["read"],
        }))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1]
        assert row.split(",")[5] == "20"  # 2 x (2 + 8) ms

    def test_budget_exceeded_reported_per_cell(self, paper_dir, tmp_path, capsys):
        write_workload(tmp_path / "wl.json", op_count=100)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "workload": "wl.json",
            "settings": [{"name": "low", "topology": str(paper_dir / "star6-low.json")}],
            "levels": ["ONE", "ALL"],
            "directions": ["read"],
        }))
        out = tmp_path / "sweep.csv"
        # ~100 closed-loop ops: the ONE cell finishes near 1 s of simulated
        # time, the ALL cell needs over 3 s
        code = main(["sweep", "--config", str(config), "--budget-ms", "2000",
                     "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "low/ALL/read" in err  # the slow cell blew the budget
        lines = out.read_text().splitlines()
        assert any(l.startswith("low,ONE,read") for l in lines)  # fast cell survived

    def test_bad_level_in_plan(self, paper_dir, tmp_path, capsys):
        write_workload(tmp_path / "wl.json")
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "workload": "wl.json",
            "settings": [{"name": "low", "topology": str(paper_dir / "star6-low.json")}],
            "levels": ["SOME"],
        }))
        assert main(["sweep", "--config", str(config)]) == 2
        assert "SOME" in capsys.readouterr().err

    def test_bad_level_in_plan_names_index_and_choices(self, paper_dir, tmp_path):
        write_workload(tmp_path / "wl.json")
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "workload": "wl.json",
            "settings": [{"name": "low", "topology": str(paper_dir / "star6-low.json")}],
            "levels": ["ONE", "SOME"],
        }))
        with pytest.raises(ConfigError) as err:
            load_sweep_plan(config)
        assert str(err.value) == (f"{config}: levels[1]: unknown level 'SOME' "
                                  "(expected one of ONE, TWO, QUORUM, ALL)")


class TestPlace:
    def test_placement_dump(self, paper_dir, tmp_path, capsys):
        code = main(["place", "--topology", str(paper_dir / "star6-low.json"),
                     "--rf", "3", "--at=-100,0", "k1", "k2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["k1,fog-1,fog-2,fog-3,ok", "k2,fog-1,fog-2,fog-3,ok"]

    def test_bad_location(self, paper_dir, capsys):
        code = main(["place", "--topology", str(paper_dir / "star6-low.json"),
                     "--at", "oops", "k1"])
        assert code == 2
        assert "X,Y" in capsys.readouterr().err


class TestValidate:
    def test_all_good(self, paper_dir, tmp_path, capsys):
        workload = write_workload(tmp_path / "wl.json")
        regions = tmp_path / "regions.json"
        regions.write_text(json.dumps({
            "specs": [],
            "default": {"bands": [{"radius_m": None, "read": "ONE", "write": "ONE"}]},
        }))
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps({"events": [{"at_ms": 5, "action": "crash", "node": "fog-1"}]}))
        code = main(["validate",
                     "--topology", str(paper_dir / "star6-low.json"),
                     "--workload", str(workload),
                     "--regions", str(regions),
                     "--faults", str(faults)])
        assert code == 0
        assert capsys.readouterr().out.count("ok:") == 4

    def test_bad_file_fails_with_diagnostic(self, paper_dir, tmp_path, capsys):
        bad = tmp_path / "bad-topo.json"
        doc = json.loads((paper_dir / "star6-low.json").read_text())
        doc["links"][0]["latency_ms"] = -4
        bad.write_text(json.dumps(doc))
        code = main(["validate", "--topology", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert "bad-topo.json" in err and "links[0]" in err

    def test_fault_script_nodes_checked_against_topology(self, paper_dir, tmp_path, capsys):
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps({"events": [{"at_ms": 0, "action": "crash", "node": "ghost"}]}))
        code = main(["validate", "--topology", str(paper_dir / "star6-low.json"),
                     "--faults", str(faults)])
        assert code == 1
        assert "ghost" in capsys.readouterr().err

    def test_nothing_to_validate(self, capsys):
        assert main(["validate"]) == 2


class TestStarTopologyGeometry:
    def test_geo_closest_matches_lowest_latency(self):
        topo = build_star_topology(PAPER_LATENCY_SETTINGS["high"])
        # the client-side coordinator must be the lowest-latency spoke in
        # every setting, so geographic and latency closeness agree
        assert topo.nearest_node((-100.0, 0.0), storage_only=True) == "fog-1"
        assert network_latency(topo, "client", "fog-1") == 13.0
