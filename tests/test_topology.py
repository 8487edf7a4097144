import json
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import fogstore_sim
from fogstore_sim.errors import ConfigError
from fogstore_sim.experiment import (PAPER_LATENCY_SETTINGS, build_star_topology,
                                     make_paper_topologies)
from fogstore_sim.topology import (
    NEAREST_MEMO_CAP,
    FogNode,
    Link,
    NoStorageNodesError,
    Topology,
    TopologyError,
    UnknownNodeError,
    UnreachableError,
    geo_distance,
    load_topology,
    topology_from_dict,
)

from conftest import brute_force_closest, brute_force_shortest, random_topology


def make_chain():
    # a --2ms-- x --3ms-- b
    nodes = [
        FogNode("a", (0, 0), "g1"),
        FogNode("x", (10, 0), "g2"),
        FogNode("b", (20, 0), "g3"),
    ]
    links = [Link("a", "x", 2.0), Link("x", "b", 3.0)]
    return Topology(nodes, links)


class TestGeoDistance:
    def test_identity(self):
        assert geo_distance((0, 0), (0, 0)) == 0.0

    def test_pythagorean(self):
        assert geo_distance((0, 0), (3, 4)) == 5.0

    def test_axis_aligned(self):
        assert geo_distance((100, 0), (0, 0)) == 100.0

    def test_metric_properties(self):
        rng = random.Random(7)
        for _ in range(200):
            a = (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
            b = (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
            c = (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
            assert geo_distance(a, b) >= 0
            assert geo_distance(a, b) == geo_distance(b, a)
            assert geo_distance(a, a) == 0
            assert geo_distance(a, c) <= geo_distance(a, b) + geo_distance(b, c) + 1e-9


class TestNetworkLatency:
    def test_star_paper_example(self):
        # client 1 ms to the hub, storage node 4 ms: one-way path is 5 ms
        nodes = [
            FogNode("hub", (0, 0), "gh", is_storage=False),
            FogNode("client", (-100, 0), "gc", is_storage=False),
            FogNode("s1", (400, 0), "g1"),
        ]
        links = [Link("client", "hub", 1.0), Link("hub", "s1", 4.0)]
        topo = Topology(nodes, links)
        assert topo.latency_ms("client", "s1") == 5.0

    def test_self_distance_zero(self):
        # A float 0.0 even where every link latency is an int.
        int_links = Topology([FogNode("a", (0, 0), "g1"), FogNode("b", (10, 0), "g2")],
                             [Link("a", "b", 2)])
        for topo in (make_chain(), int_links):
            for nid in topo.nodes:
                got = topo.latency_ms(nid, nid)
                assert (type(got), got) == (float, 0.0)

    def test_chain(self):
        topo = make_chain()
        assert topo.latency_ms("a", "b") == 5.0

    def test_symmetry_and_oracle(self):
        for seed in range(40):
            topo = random_topology(seed, max_nodes=6)
            ids = sorted(topo.nodes)
            for a in ids:
                for b in ids:
                    got = topo.latency_ms(a, b)
                    assert got == topo.latency_ms(b, a)
                    assert got == pytest.approx(brute_force_shortest(topo, a, b))
                    assert got >= 0.0

    def test_unknown_node(self):
        topo = make_chain()
        for a, b in [("a", "nope"), ("nope", "a"), ("nope", "nope")]:
            with pytest.raises(UnknownNodeError, match="unknown node 'nope'"):
                topo.latency_ms(a, b)

    def test_storage_by_latency_unknown_anchor(self):
        with pytest.raises(UnknownNodeError):
            make_chain().storage_by_latency("nope")


class TestFindClosest:
    def test_single_storage_node(self):
        topo = Topology(
            [FogNode("only", (5, 5), "g1"), FogNode("relay", (0, 0), "g2", is_storage=False)],
            [Link("only", "relay", 1.0)],
        )
        assert topo.nearest_node((1000, 1000), storage_only=True) == "only"

    def test_exact_location(self):
        topo = make_chain()
        assert topo.nearest_node((10, 0), storage_only=True) == "x"

    def test_line_of_nodes(self):
        nodes = [FogNode(f"n{i}", (10.0 * i, 0.0), f"g{i}") for i in range(5)]
        links = [Link(f"n{i}", f"n{i + 1}", 1.0) for i in range(4)]
        topo = Topology(nodes, links)
        closest = topo.nearest_node((12.0, 0.0), storage_only=True)
        assert closest == "n1"
        assert closest == brute_force_closest(topo, (12.0, 0.0))

    def test_tie_breaks_lexicographically(self):
        nodes = [FogNode("b", (1, 0), "g1"), FogNode("a", (-1, 0), "g2")]
        topo = Topology(nodes, [Link("a", "b", 1.0)])
        assert topo.nearest_node((0, 0), storage_only=True) == "a"

    def test_matches_brute_force_on_random_topologies(self):
        rng = random.Random(99)
        for seed in range(60):
            topo = random_topology(seed)
            location = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            closest = topo.nearest_node(location, storage_only=True)
            assert closest == brute_force_closest(topo, location)

    def test_deterministic(self):
        topo = random_topology(3)
        first = topo.nearest_node((500, 500), storage_only=True)
        assert first == topo.nearest_node((500, 500), storage_only=True)

    def test_no_storage_nodes(self):
        with pytest.raises(NoStorageNodesError):
            Topology([FogNode("a", (0, 0), "g", is_storage=False),
                      FogNode("b", (1, 1), "g", is_storage=False)],
                     [Link("a", "b", 1.0)])


def scan_nearest(topo: Topology, location, storage_only: bool) -> str:
    """The uncached lookup: every candidate's distance, ties on id."""
    ids = topo.storage_ids if storage_only else topo.nodes
    return min(sorted(ids), key=lambda n: (geo_distance(topo.nodes[n].geo, location), n))


class TestNearestNodeMemo:
    def test_matches_the_scan_on_random_topologies(self):
        rng = random.Random(1709)
        for seed in range(150):
            topo = random_topology(seed)
            points = [(rng.uniform(-200, 1200), rng.uniform(-200, 1200)) for _ in range(12)]
            points += [topo.nodes[nid].geo for nid in rng.sample(sorted(topo.nodes), 2)]
            points += [list(points[0]), list(points[-1])]
            for point in points + points:  # the second pass is answered from the memo
                for storage_only in (False, True):
                    assert (topo.nearest_node(point, storage_only)
                            == scan_nearest(topo, point, storage_only)), (seed, point)

    def test_equidistant_points_break_ties_on_id(self):
        # Declared out of id order; "relay" is not a storage node.
        nodes = [FogNode("d", (10, 10), "g1"), FogNode("b", (10, 0), "g2"),
                 FogNode("c", (0, 10), "g3"), FogNode("relay", (0, 0), "g4", is_storage=False),
                 FogNode("e", (-10, 0), "g5")]
        links = [Link("relay", nid, 1.0) for nid in ("b", "c", "d", "e")]
        topo = Topology(nodes, links)
        for point, storage_only, want in [
            ((5, 5), False, "b"),  # equidistant from all four corners
            ((5, 5), True, "b"),
            ((0, 5), False, "c"),  # c and relay
            ((-5, 0), False, "e"),  # e and relay
            ((-5, 0), True, "e"),
            ([5, 5], True, "b"),
            ((5.0, 5.0), False, "b"),
        ]:
            for _ in range(2):
                assert topo.nearest_node(point, storage_only) == want
                assert scan_nearest(topo, point, storage_only) == want

    def test_list_and_tuple_locations_share_an_entry(self):
        topo = random_topology(11)
        first = topo.nearest_node([123.0, 456.0], storage_only=True)
        assert topo.nearest_node((123.0, 456.0), storage_only=True) == first
        assert len([k for k in topo._nearest if k[:2] == (123.0, 456.0)]) == 1

    def test_lookups_past_the_cap_are_exact_and_not_stored(self):
        topo = random_topology(5, max_nodes=30)
        rng = random.Random(5)
        points = [(rng.uniform(0, 1000), rng.uniform(0, 1000))
                  for _ in range(NEAREST_MEMO_CAP + 300)]
        for point in points + points[-300:]:
            assert topo.nearest_node(point, storage_only=True) == scan_nearest(topo, point, True)
        assert len(topo._nearest) == NEAREST_MEMO_CAP


class TestConstruction:
    def test_duplicate_node_id(self):
        with pytest.raises(TopologyError, match="duplicate"):
            Topology([FogNode("a", (0, 0), "g"), FogNode("a", (1, 1), "g")], [])

    def test_nonpositive_latency(self):
        with pytest.raises(TopologyError, match="latency_ms"):
            Topology([FogNode("a", (0, 0), "g"), FogNode("b", (1, 1), "g")], [Link("a", "b", 0.0)])

    def test_self_link_rejected(self):
        with pytest.raises(TopologyError, match="self"):
            Topology([FogNode("a", (0, 0), "g")], [Link("a", "a", 1.0)])

    def test_unknown_link_endpoint(self):
        with pytest.raises(UnknownNodeError):
            Topology([FogNode("a", (0, 0), "g")], [Link("a", "ghost", 1.0)])

    def test_disconnected_rejected(self):
        nodes = [FogNode("a", (0, 0), "g"), FogNode("b", (1, 1), "g"), FogNode("c", (2, 2), "g")]
        with pytest.raises(UnreachableError):
            Topology(nodes, [Link("a", "b", 1.0)])

    def test_non_finite_geo(self):
        with pytest.raises(TopologyError, match="finite"):
            Topology([FogNode("a", (math.inf, 0), "g")], [])


class TestLoader:
    def good_doc(self):
        return {
            "nodes": [
                {"id": "a", "geo": [0, 0], "failure_group": "g1", "tier": 0, "is_storage": True},
                {"id": "b", "geo": [1, 1], "failure_group": "g2", "tier": 1, "is_storage": False},
            ],
            "links": [{"a": "a", "b": "b", "latency_ms": 2.5}],
        }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(self.good_doc()))
        topo = load_topology(path)
        assert topo.latency_ms("a", "b") == 2.5
        assert topo.node("b").is_storage is False
        reparsed = topology_from_dict(topo.to_dict())
        assert reparsed.to_dict() == topo.to_dict()

    def test_tier_keys_load_and_are_not_written_back(self, tmp_path):
        # Generated fog continua label each node with a tier that nothing reads.
        nodes = [
            {"id": "cloud", "geo": [0.0, 0.0], "failure_group": "fg-cloud",
             "tier": 3, "is_storage": True},
            {"id": "region-0", "geo": [20000.0, 0.0], "failure_group": "fg-region-0",
             "tier": 2, "is_storage": False},
            {"id": "switch-0-0", "geo": [22000.0, 0.0], "failure_group": "fg-site-0-0",
             "tier": 1, "is_storage": False},
            {"id": "edge-0-0", "geo": [22400.0, 0.0], "failure_group": "fg-site-0-0",
             "tier": 0, "is_storage": False},
            {"id": "fog-0-0-0", "geo": [22100.0, 50.0], "failure_group": "fg-site-0-0",
             "tier": 1, "is_storage": True},
        ]
        links = [{"a": "cloud", "b": "region-0", "latency_ms": 20.0},
                 {"a": "region-0", "b": "switch-0-0", "latency_ms": 4.0},
                 {"a": "switch-0-0", "b": "edge-0-0", "latency_ms": 1.0},
                 {"a": "switch-0-0", "b": "fog-0-0-0", "latency_ms": 0.5}]
        topo = topology_from_dict({"nodes": nodes, "links": links})
        assert topo.storage_ids == ("cloud", "fog-0-0-0")
        without_tier = [{k: v for k, v in n.items() if k != "tier"} for n in nodes]
        assert topo.to_dict() == {"nodes": sorted(without_tier, key=lambda n: n["id"]),
                                  "links": links}
        for path in make_paper_topologies(tmp_path).values():
            assert all("tier" not in n for n in json.loads(path.read_text())["nodes"])

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigError) as err:
            load_topology(missing)
        assert "nope.json" in str(err.value)

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_topology(path)

    def test_missing_field_named(self, tmp_path):
        doc = self.good_doc()
        del doc["nodes"][0]["failure_group"]
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=r"nodes\[0\].*failure_group"):
            load_topology(path)

    def test_bad_latency_named(self, tmp_path):
        doc = self.good_doc()
        doc["links"][0]["latency_ms"] = -1
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=r"links\[0\]"):
            load_topology(path)

    def test_disconnected_named(self, tmp_path):
        doc = self.good_doc()
        doc["links"] = []
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="disconnected") as err:
            load_topology(path)
        assert str(err.value).endswith("nodes ['b'] cannot be reached from 'a'")

    def test_service_ms_optional(self):
        doc = self.good_doc()
        doc["nodes"][0]["service_ms"] = 1.5
        topo = topology_from_dict(doc)
        assert topo.node("a").service_ms == 1.5
        assert topo.node("b").service_ms == 0.0


def networkx_latencies(topo: Topology) -> dict[str, dict[str, float]]:
    """Reference all-pairs latencies from networkx, with the same triangle mirror."""
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    graph.add_nodes_from(topo.nodes)
    for link in topo.links:
        graph.add_edge(link.endpoint_a, link.endpoint_b, latency_ms=link.latency_ms)
    latency = {src: dict(dists)
               for src, dists in nx.all_pairs_dijkstra_path_length(graph, weight="latency_ms")}
    for a in latency:
        for b, value in latency[a].items():
            if a < b:
                latency[b][a] = value
    return latency


def latency_mismatches(topo: Topology) -> list[tuple[str, str, str, str]]:
    """Node pairs whose latency differs from networkx's in any bit (compared by repr)."""
    expected = networkx_latencies(topo)
    mismatches = []
    for a in topo.nodes:
        for b in topo.nodes:
            got, want = repr(topo.latency_ms(a, b)), repr(0.0 if a == b else expected[a][b])
            if got != want:
                mismatches.append((a, b, got, want))
    return mismatches


def dense_topology(seed: int) -> Topology:
    """Connected graph with repeated links and tie-prone weights.

    Weights such as 0.1 + 0.2 and 0.3 make equal-length paths whose float
    sums differ in the last bit, so the direction a sum is formed in (the
    triangle mirror) and which of two repeated links counts both show up
    in the latencies.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 14)
    ids = [f"d{i:02d}" for i in range(n)]
    weights = [0.1, 0.2, 0.3, 0.6, 0.7, 1.0, 1.1, 2.2]
    links = [Link(ids[i], ids[rng.randrange(i)], rng.choice(weights)) for i in range(1, n)]
    for _ in range(rng.randint(0, n * n)):
        a, b = rng.sample(ids, 2)
        links.append(Link(a, b, rng.choice(weights)))
    rng.shuffle(links)
    nodes = [FogNode(nid, (float(i), 0.0), f"g{i}") for i, nid in enumerate(ids)]
    return Topology(nodes, links)


class TestLatencyOracle:
    """Latencies must equal networkx's bit for bit: the pinned sweep CSV depends on it."""

    def test_paper_stars(self):
        for latencies in PAPER_LATENCY_SETTINGS.values():
            assert latency_mismatches(build_star_topology(latencies)) == []

    @pytest.mark.parametrize("max_nodes", [12, 30])
    def test_random_topologies(self, max_nodes):
        for seed in range(500):
            assert latency_mismatches(random_topology(seed, max_nodes=max_nodes)) == [], seed

    def test_dense_graphs_with_repeated_links_and_ties(self):
        for seed in range(500):
            assert latency_mismatches(dense_topology(seed)) == [], seed

    def test_repeated_link_overwrites_latency(self):
        nodes = [FogNode("a", (0, 0), "g"), FogNode("b", (1, 1), "g")]
        topo = Topology(nodes, [Link("a", "b", 5.0), Link("b", "a", 2.0)])
        assert topo.latency_ms("a", "b") == 2.0
        assert latency_mismatches(topo) == []


def test_package_runs_without_networkx():
    """Importing the package, building a topology and running a cell never touch networkx."""
    script = textwrap.dedent("""
        import sys
        sys.modules["networkx"] = None  # any import of networkx now raises ImportError
        from fogstore_sim import ConsistencyLevel, build_star_topology, run_single
        from fogstore_sim.experiment import PAPER_LATENCY_SETTINGS
        from fogstore_sim.workload import WorkloadClient, WorkloadSpec
        topo = build_star_topology(PAPER_LATENCY_SETTINGS["low"])
        spec = WorkloadSpec(op_count=50, clients=(WorkloadClient("c", (-100.0, 0.0)),),
                            fixed_read_level=ConsistencyLevel.ONE,
                            fixed_write_level=ConsistencyLevel.ONE, seed=42)
        output = run_single(topo, spec)
        assert output.stats.count("read") + output.stats.count("write") == 50
        assert sys.modules.pop("networkx") is None
        assert not [m for m in sys.modules if m.startswith("networkx.")]
    """)
    src = str(Path(fogstore_sim.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
