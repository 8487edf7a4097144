import json

import pytest

from fogstore_sim.cli import main
from fogstore_sim.consistency import ConsistencyLevel
from fogstore_sim.errors import ConfigError
from fogstore_sim.experiment import (
    PAPER_LATENCY_SETTINGS,
    STAR_CLIENT_GEO,
    build_star_topology,
    load_sweep_plan,
    make_paper_topologies,
)
from fogstore_sim.topology import load_topology
from fogstore_sim.workload import WorkloadClient, WorkloadSpec, load_workload


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


def write_regions(path, level):
    """A regions file with one band: ``level`` for reads and writes at any distance."""
    path.write_text(json.dumps(
        {"default": {"bands": [{"radius_m": None, "read": level, "write": level}]}}))
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

    def test_the_files_load_to_the_paper_sweep(self, tmp_path, capsys):
        assert main(["gen-paper-configs", "--out-dir", str(tmp_path)]) == 0
        names = [f"star6-{name}.json" for name in PAPER_LATENCY_SETTINGS]
        names += ["star6-workload.json", "star6-sweep.json"]
        assert capsys.readouterr().out.splitlines() == [str(tmp_path / name) for name in names]
        workload = WorkloadSpec(
            op_count=10_000, clients=(WorkloadClient("ycsb", STAR_CLIENT_GEO, 1.0),),
            read_fraction=0.95, key_prefix="key-", recency_skew=0.3,
            fixed_read_level=ConsistencyLevel.ONE, fixed_write_level=ConsistencyLevel.ONE,
            seed=42)
        assert load_workload(tmp_path / "star6-workload.json") == workload
        plan = load_sweep_plan(tmp_path / "star6-sweep.json")
        assert plan.workload == workload
        assert [name for name, _ in plan.settings] == list(PAPER_LATENCY_SETTINGS)
        for name, topology in plan.settings:
            star = build_star_topology(PAPER_LATENCY_SETTINGS[name])
            assert topology.to_dict() == star.to_dict()
        assert plan.levels == list(ConsistencyLevel)
        assert plan.directions == ["read", "write"]
        assert plan.replication_factor == 5

    def test_readme_run_example(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["gen-paper-configs", "--out-dir", "configs/"]) == 0
        assert main(["run", "--topology", "configs/star6-low.json",
                     "--workload", "configs/star6-workload.json",
                     "--out", "run.csv", "--trace", "run.trace"]) == 0
        rows = (tmp_path / "run.csv").read_text().splitlines()
        assert any(row.startswith("star6-low,ONE,read,") for row in rows)


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

    def test_regions_set_the_levels_of_a_workload_without_fixed_levels(self, paper_dir, tmp_path):
        workload = write_workload(tmp_path / "wl.json",
                                  fixed_read_level=None, fixed_write_level=None)
        out = tmp_path / "out.csv"
        code = main(["run", "--topology", str(paper_dir / "star6-low.json"),
                     "--workload", str(workload), "--regions",
                     str(write_regions(tmp_path / "r.json", "ALL")), "--out", str(out)])
        assert code == 0
        read_row = next(l for l in out.read_text().splitlines() if ",read," in l)
        assert read_row.split(",")[:3] == ["star6-low", "region", "read"]
        assert read_row.split(",")[5] == "34"  # p50 of an ALL read

    def test_regions_with_fixed_levels_is_config_error(self, tmp_path, capsys):
        # The sample workload fixes ONE/ONE, which used to override the ALL band
        # silently: rows labelled "region" showed ONE latencies.
        main(["gen-paper-configs", "--out-dir", str(tmp_path)])
        workload = tmp_path / "star6-workload.json"
        out = tmp_path / "out.csv"
        code = main(["run", "--topology", str(tmp_path / "star6-low.json"),
                     "--workload", str(workload), "--regions",
                     str(write_regions(tmp_path / "r.json", "ALL")), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {workload}: fixed_read_level")
        assert not out.exists()

    @pytest.mark.parametrize("unset", ["fixed_read_level", "fixed_write_level"])
    def test_half_configured_workload_is_config_error(self, paper_dir, tmp_path, capsys, unset):
        # Used to run and fail every op of the unconfigured direction, exiting 0.
        workload = write_workload(tmp_path / "wl.json", **{unset: None})
        code = main(["run", "--topology", str(paper_dir / "star6-low.json"),
                     "--workload", str(workload)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {workload}: fixed_read_level/fixed_write_level: give both or neither\n")
        assert main(["validate", "--workload", str(workload)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {workload}: fixed_read_level")

    def test_unknown_fault_node_names_the_fault_script(self, paper_dir, tmp_path, capsys):
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps({"events": [{"at_ms": 1, "action": "crash", "node": "fog-9"}]}))
        out = tmp_path / "out.csv"
        code = main(["run", "--topology", str(paper_dir / "star6-low.json"),
                     "--workload", str(write_workload(tmp_path / "wl.json")),
                     "--faults", str(faults), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {faults}: unknown node 'fog-9'")
        assert not out.exists()  # checked before any output file is opened

    def test_seed_and_ops_write_what_the_workload_file_would(self, tmp_path):
        assert main(["gen-paper-configs", "--out-dir", str(tmp_path)]) == 0
        sample = tmp_path / "star6-workload.json"
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps({**json.loads(sample.read_text()),
                                      "seed": 3, "op_count": 100}))
        topology = str(tmp_path / "star6-low.json")
        outs = {}
        for name, flags in [("flags", ["--workload", str(sample), "--seed", "3", "--ops", "100"]),
                            ("file", ["--workload", str(edited)]),
                            ("seed-42", ["--workload", str(sample), "--ops", "100"])]:
            outs[name] = tmp_path / f"{name}.csv"
            assert main(["run", "--topology", topology, *flags, "--out", str(outs[name])]) == 0
        counts = {name: [row.split(",")[-1] for row in out.read_text().splitlines()[1:]]
                  for name, out in outs.items()}
        assert counts == {"flags": ["92", "8"], "file": ["92", "8"], "seed-42": ["93", "7"]}
        assert outs["flags"].read_bytes() == outs["file"].read_bytes()

    def test_a_run_in_which_every_op_fails_writes_the_header_alone(self, paper_dir, tmp_path,
                                                                   capsys):
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps({"events": [
            {"at_ms": 0, "action": "crash", "node": f"fog-{i}"} for i in range(1, 6)]}))
        out = tmp_path / "out.csv"
        code = main(["run", "--topology", str(paper_dir / "star6-low.json"),
                     "--workload", str(write_workload(tmp_path / "wl.json")),
                     "--faults", str(faults), "--ops", "5", "--timeout-ms", "1",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text() == "setting,level,op_kind,min,p25,p50,p75,p95,p99,count\n"
        assert capsys.readouterr().err == "note: 5 operations failed with timeout\n"

    def test_a_run_over_its_budget_exits_3(self, paper_dir, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(["run", "--topology", str(paper_dir / "star6-low.json"),
                     "--workload", str(write_workload(tmp_path / "wl.json")),
                     "--budget-ms", "1", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: simulation budget 1.0 ms exceeded: next event at 5.0 ms, 1 pending\n")
        assert not out.exists()

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

    def test_seed_writes_what_the_plan_s_workload_would(self, tmp_path):
        assert main(["gen-paper-configs", "--out-dir", str(tmp_path)]) == 0
        sample = tmp_path / "star6-workload.json"
        (tmp_path / "seed-3.json").write_text(json.dumps({**json.loads(sample.read_text()),
                                                          "seed": 3}))
        plan, edited = tmp_path / "star6-sweep.json", tmp_path / "edited-sweep.json"
        doc = {**json.loads(plan.read_text()),
               "settings": [{"name": "low", "topology": "star6-low.json"}]}
        plan.write_text(json.dumps(doc))
        edited.write_text(json.dumps({**doc, "workload": "seed-3.json"}))
        outs = {}
        for name, flags in [("flags", ["--config", str(plan), "--seed", "3"]),
                            ("file", ["--config", str(edited)]),
                            ("seed-42", ["--config", str(plan)])]:
            outs[name] = tmp_path / f"{name}.csv"
            assert main(["sweep", *flags, "--ops", "100", "--out", str(outs[name])]) == 0
        assert outs["flags"].read_bytes() == outs["file"].read_bytes()
        assert outs["flags"].read_bytes() != outs["seed-42"].read_bytes()

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

    def test_a_cell_with_no_successful_op_exits_3_after_the_other_cells(self, tmp_path, capsys):
        # One replica makes TWO infeasible: its cells measure nothing.
        assert main(["gen-paper-configs", "--out-dir", str(tmp_path)]) == 0
        config = tmp_path / "star6-sweep.json"
        config.write_text(json.dumps({**json.loads(config.read_text()),
                                      "replication_factor": 1}))
        out = tmp_path / "sweep.csv"
        capsys.readouterr()
        assert main(["sweep", "--config", str(config), "--ops", "50", "--out", str(out)]) == 3
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("cell failed: ")]
        assert [line.split(": ")[1] for line in failed] == [
            f"{setting}/TWO/{direction}" for setting in PAPER_LATENCY_SETTINGS
            for direction in ("read", "write")]
        assert all("level_infeasible" in line for line in failed)
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 3 * 3 * 2  # every other cell kept its row
        assert not any(",TWO," in line for line in lines)

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

    def test_a_repeated_setting_name_fails_before_any_cell_runs(self, paper_dir, tmp_path,
                                                                 capsys):
        write_workload(tmp_path / "wl.json")
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "workload": "wl.json",
            "settings": [{"name": "x", "topology": str(paper_dir / f"star6-{name}.json")}
                         for name in ("low", "high")],
            "levels": ["ONE"],
        }))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
        assert f"{config}: settings[1].name: duplicate setting 'x'" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command,flag", [("run", "--out"), ("run", "--trace"),
                                          ("sweep", "--out")])
def test_unwritable_output_fails_before_running(command, flag, paper_dir, tmp_path, capsys,
                                                monkeypatch):
    write_workload(tmp_path / "wl.json")
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "workload": "wl.json",
        "settings": [{"name": "low", "topology": str(paper_dir / "star6-low.json")}],
        "levels": ["ONE"],
    }))
    for name in ("run_single", "run_sweep"):
        monkeypatch.setattr(f"fogstore_sim.cli.{name}",
                            lambda *a, **k: pytest.fail("ran with an unwritable output"))
    inputs = {
        "run": ["--topology", str(paper_dir / "star6-low.json"),
                "--workload", str(tmp_path / "wl.json")],
        "sweep": ["--config", str(config)],
    }[command]
    bad = tmp_path / "missing-dir" / "out"
    assert main([command, *inputs, flag, str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: cannot write file: ")


@pytest.mark.parametrize("command,flag,value", [
    ("run", "--timeout-ms", "nan"), ("run", "--timeout-ms", "-1"), ("run", "--rf", "0"),
    ("run", "--ops", "0"), ("run", "--budget-ms", "nan"), ("sweep", "--ops", "0"),
    ("sweep", "--budget-ms", "inf"), ("place", "--rf", "0"),
])
def test_bad_numbers_exit_2_before_any_output(command, flag, value, paper_dir, tmp_path, capsys):
    write_workload(tmp_path / "wl.json")
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "workload": "wl.json",
        "settings": [{"name": "low", "topology": str(paper_dir / "star6-low.json")}],
        "levels": ["ONE"],
    }))
    topology = str(paper_dir / "star6-low.json")
    inputs = {
        "run": ["--topology", topology, "--workload", str(tmp_path / "wl.json")],
        "sweep": ["--config", str(config)],
        "place": ["--topology", topology, "--at", "0,0", "k"],
    }[command]
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exited:
        main([command, *inputs, flag, value, "--out", str(out)])
    assert exited.value.code == 2
    assert f"argument {flag}: must be finite and > 0, got '{value}'" in capsys.readouterr().err
    assert not out.exists()


def test_gen_paper_configs_under_a_file_fails_cleanly(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    bad = tmp_path / "afile" / "sub"
    assert main(["gen-paper-configs", "--out-dir", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: cannot write file: ")


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


    @pytest.mark.parametrize("at", ["nan,0", "inf,0", "0,-inf"])
    def test_non_finite_location(self, at, paper_dir, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(["place", "--topology", str(paper_dir / "star6-low.json"),
                     f"--at={at}", "--out", str(out), "k1"])
        assert code == 2
        assert capsys.readouterr().err == f"error: --at: expected finite X,Y coordinates, got {at!r}\n"
        assert not out.exists()


@pytest.mark.parametrize("command,code", [("validate", 1), ("run", 2), ("place", 2)])
def test_topology_without_storage_nodes_is_config_error(command, code, tmp_path, capsys):
    topology = tmp_path / "relays.json"
    topology.write_text(json.dumps({
        "nodes": [{"id": "a", "geo": [0, 0], "failure_group": "g", "is_storage": False},
                  {"id": "b", "geo": [1, 1], "failure_group": "g", "is_storage": False}],
        "links": [{"a": "a", "b": "b", "latency_ms": 1.0}],
    }))
    out = tmp_path / "out.csv"
    inputs = {
        "validate": [],
        "run": ["--workload", str(write_workload(tmp_path / "wl.json")), "--out", str(out)],
        "place": ["--at", "0,0", "--out", str(out), "k1"],
    }[command]
    assert main([command, "--topology", str(topology), *inputs]) == code
    out_text, err = capsys.readouterr()
    assert (out_text, err) == ("", f"error: {topology}: nodes: must name at least one storage node\n")
    assert not out.exists()


class TestValidate:
    def test_all_good(self, paper_dir, tmp_path, capsys):
        workload = write_workload(tmp_path / "wl.json",
                                  fixed_read_level=None, fixed_write_level=None)
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

    def test_regions_and_fixed_levels_conflict_as_in_run(self, paper_dir, tmp_path, capsys):
        workload = write_workload(tmp_path / "wl.json")
        regions = write_regions(tmp_path / "r.json", "ONE")
        assert main(["run", "--topology", str(paper_dir / "star6-low.json"),
                     "--workload", str(workload), "--regions", str(regions)]) == 2
        run_error = capsys.readouterr().err
        assert main(["validate", "--workload", str(workload), "--regions", str(regions)]) == 1
        out, err = capsys.readouterr()
        assert err == run_error
        assert err.startswith(f"error: {workload}: fixed_read_level/fixed_write_level: ")
        assert out == f"ok: {regions}\n"

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
        assert topo.latency_ms("client", "fog-1") == 13.0
