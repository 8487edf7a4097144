import json
import math
import random

import pytest

from fogstore_sim.consistency import (
    Band,
    ClientContext,
    ConsistencyLevel,
    ConsistencyRegionSpec,
    DataContext,
    LevelInfeasibleError,
    RegionSet,
    get_region,
    load_regions,
    regions_from_dict,
    required_acks,
)
from fogstore_sim.errors import ConfigError
from fogstore_sim.experiment import build_star_topology
from fogstore_sim.netsim import Simulator
from fogstore_sim.store import Cluster, Query, QueryKind

from conftest import STAR_CLIENT, client_ctx, run_one

ONE = ConsistencyLevel.ONE
TWO = ConsistencyLevel.TWO
QUORUM = ConsistencyLevel.QUORUM
ALL = ConsistencyLevel.ALL


def traffic_spec(keyspace="tl-"):
    return ConsistencyRegionSpec(
        keyspace=keyspace,
        bands=(
            Band(500.0, read_level=ALL, write_level=ONE),
            Band(math.inf, read_level=ONE, write_level=ONE),
        ),
    )


def traffic_regions():
    return RegionSet([traffic_spec()], default=traffic_spec(keyspace=""))


class TestRequiredAcks:
    @pytest.mark.parametrize(
        "level,rf,expected",
        [
            (ONE, 5, 1),
            (TWO, 5, 2),
            (QUORUM, 5, 3),
            (ALL, 5, 5),
            (ALL, 3, 3),
            (QUORUM, 1, 1),
            (QUORUM, 4, 3),
            (TWO, 2, 2),
        ],
    )
    def test_values(self, level, rf, expected):
        assert required_acks(level, rf) == expected

    def test_two_needs_two_replicas(self):
        with pytest.raises(LevelInfeasibleError):
            required_acks(TWO, 1)

    def test_rf_must_be_positive(self):
        with pytest.raises(ValueError):
            required_acks(ONE, 0)


class TestGetRegion:
    def test_client_inside_inner_band(self):
        spec_set = traffic_regions()
        band = get_region(spec_set, "tl-17", client_ctx((300.0, 0.0)), DataContext((0.0, 0.0)))
        assert band.read_level is ALL

    def test_client_outside(self):
        spec_set = traffic_regions()
        band = get_region(spec_set, "tl-17", client_ctx((800.0, 0.0)), DataContext((0.0, 0.0)))
        assert band.read_level is ONE

    def test_zero_distance_is_inner(self):
        spec_set = traffic_regions()
        band = get_region(spec_set, "tl-17", client_ctx((0.0, 0.0)), DataContext((0.0, 0.0)))
        assert band.read_level is ALL

    def test_boundary_belongs_to_inner_band(self):
        spec_set = traffic_regions()
        band = get_region(spec_set, "tl-17", client_ctx((500.0, 0.0)), DataContext((0.0, 0.0)))
        assert band.read_level is ALL

    def test_get_level(self):
        inner, outer = traffic_spec().bands
        assert inner.read_level is ALL
        assert inner.write_level is ONE
        assert outer.read_level is ONE


class TestContexts:
    # A non-finite coordinate was accepted here and crashed a banded run
    # mid-way: its NaN distance fell in no band, so band_for_distance asserted.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_a_non_finite_coordinate_is_refused_when_built(self, bad):
        with pytest.raises(ValueError) as exc:
            ClientContext("c", (bad, 0.0))
        assert str(exc.value) == f"client_geo: must be finite (got {(bad, 0.0)})"
        with pytest.raises(ValueError) as exc:
            DataContext((0.0, bad))
        assert str(exc.value) == f"data_geo: must be finite (got {(0.0, bad)})"


class TestSpecValidation:
    def test_bands_must_increase(self):
        with pytest.raises(ValueError, match="strictly increase"):
            ConsistencyRegionSpec("k", (Band(500, ONE, ONE), Band(500, ONE, ONE), Band(math.inf, ONE, ONE)))

    def test_last_band_must_be_infinite(self):
        with pytest.raises(ValueError, match="infinite"):
            ConsistencyRegionSpec("k", (Band(500, ONE, ONE),))

    def test_radii_positive(self):
        with pytest.raises(ValueError, match="> 0"):
            ConsistencyRegionSpec("k", (Band(0, ONE, ONE), Band(math.inf, ONE, ONE)))

    def test_needs_bands(self):
        with pytest.raises(ValueError, match="band"):
            ConsistencyRegionSpec("k", ())


class TestRegionSetMatching:
    def make_set(self):
        return RegionSet(
            [
                traffic_spec("tl-"),
                traffic_spec("tl-17"),  # exact key
                traffic_spec("t"),
            ],
            default=traffic_spec(""),
        )

    def test_exact_match_wins(self):
        spec_set = self.make_set()
        assert spec_set.match_spec("tl-17").keyspace == "tl-17"

    def test_longest_prefix_wins(self):
        spec_set = self.make_set()
        assert spec_set.match_spec("tl-99").keyspace == "tl-"
        assert spec_set.match_spec("toll-3").keyspace == "t"

    def test_default_fallback(self):
        spec_set = self.make_set()
        assert spec_set.match_spec("unrelated") is spec_set.default

    def test_duplicate_keyspace_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RegionSet([traffic_spec("x"), traffic_spec("x")], default=traffic_spec(""))

    def test_match_is_the_longest_prefix_on_random_keyspaces(self):
        # Brute force: the longest declared keyspace that prefixes the key, else
        # the default; short strings over a 2-letter alphabet nest often.
        rng = random.Random(11)
        def word(n):
            return "".join(rng.choice("ab") for _ in range(n))

        matched = 0
        for _ in range(200):
            keyspaces = list({word(rng.randint(0, 4)) for _ in range(rng.randint(0, 8))})
            rng.shuffle(keyspaces)
            spec_set = RegionSet([traffic_spec(k) for k in keyspaces], default=traffic_spec("*"))
            for _ in range(20):
                key = word(rng.randint(0, 6))
                prefixes = [k for k in keyspaces if key.startswith(k)]
                expected = max(prefixes, key=len) if prefixes else "*"
                assert spec_set.match_spec(key).keyspace == expected
                matched += bool(prefixes)
        assert matched > 1000  # most keys hit a declared keyspace

    def test_uniform_set_gives_its_levels_at_every_distance_and_key(self):
        spec_set = RegionSet.uniform(QUORUM, TWO)
        data = DataContext((0.0, 0.0))
        for key in ("tl-1", "", "other"):
            for distance in (0.0, 500.0, 1e6):
                band = get_region(spec_set, key, client_ctx((distance, 0.0)), data)
                assert (band.read_level, band.write_level) == (QUORUM, TWO)
        assert spec_set.uniform_band is spec_set.default.bands[0]

    def test_only_a_set_of_no_specs_and_one_band_is_uniform(self):
        one_band = ConsistencyRegionSpec("", (Band(math.inf, ONE, ONE),))
        assert RegionSet([], traffic_spec("")).uniform_band is None  # two bands
        assert RegionSet([traffic_spec("tl-")], one_band).uniform_band is None
        assert RegionSet([], one_band).uniform_band is one_band.bands[0]


class TestLevelMonotonicity:
    def test_inner_band_requires_at_least_as_many_acks(self):
        spec_set = traffic_regions()
        data = DataContext((0.0, 0.0))
        distances = [0, 100, 250, 499, 500, 501, 700, 1500, 10_000]
        acks = []
        for d in distances:
            band = get_region(spec_set, "tl-1", client_ctx((float(d), 0.0)), data)
            acks.append(required_acks(band.read_level, 5))
        assert acks == sorted(acks, reverse=True)


def region_cluster(spec_set, replication_factor=5):
    topo = build_star_topology((4, 5, 6, 7, 8))
    return Cluster(topo, Simulator(topo), replication_factor=replication_factor,
                   region_set=spec_set)


class TestCoordinatorLevelResolution:
    def test_infeasible_level_rejected_before_fan_out(self):
        inner_two = ConsistencyRegionSpec(
            "", (Band(500, TWO, ONE), Band(math.inf, ONE, ONE)))
        cluster = region_cluster(RegionSet([], default=inner_two), replication_factor=1)
        create = Query(QueryKind.CREATE, "k", client_ctx(), value="v",
                       data_ctx=DataContext(STAR_CLIENT))
        assert run_one(cluster, create).status == "ok"
        delivered = cluster.sim.report.messages_delivered
        result = run_one(cluster, Query(QueryKind.READ, "k", client_ctx()))
        assert result.status == "error"
        assert result.error == "level_infeasible"
        # only the client's request and the coordinator's reply: no replica traffic
        assert cluster.sim.report.messages_delivered - delivered == 2

    def test_recreate_resolves_against_its_own_data_ctx(self):
        strong_near = ConsistencyRegionSpec(
            "", (Band(500, ALL, ALL), Band(math.inf, ONE, ONE)))
        cluster = region_cluster(RegionSet([], default=strong_near))
        far = DataContext((100000.0, 0.0))

        def create(key, data_ctx):
            return run_one(cluster, Query(QueryKind.CREATE, key, client_ctx(), value="v",
                                          data_ctx=data_ctx))

        assert create("k", DataContext(STAR_CLIENT)).level_used is ALL
        assert run_one(cluster, Query(QueryKind.DELETE, "k", client_ctx())).status == "ok"
        recreated = create("k", far)
        fresh = create("fresh", far)
        assert (fresh.level_used, fresh.latency_ms) == (ONE, 10.0)
        assert (recreated.level_used, recreated.latency_ms) == (ONE, 10.0)


class TestMapAndExecute:
    """A query's level is mapped at the coordinator and the query executed there."""

    def created_cluster(self, key="tl-17"):
        cluster = region_cluster(traffic_regions())
        create = Query(QueryKind.CREATE, key, client_ctx((0.0, 0.0)), value="v",
                       data_ctx=DataContext((0.0, 0.0)))
        assert run_one(cluster, create).status == "ok"
        return cluster

    def test_unknown_key_not_found(self):
        cluster = region_cluster(traffic_regions())
        result = run_one(cluster, Query(QueryKind.READ, "k", client_ctx()))
        assert result.status == "not_found"

    def test_close_client_reads_at_all(self):
        cluster = self.created_cluster()
        query = Query(QueryKind.READ, "tl-17", client_ctx((300.0, 0.0)))
        result = run_one(cluster, query)
        assert result.status == "ok"
        assert result.level_used is ALL
        assert result.acks_received == required_acks(ALL, 5)

    def test_far_client_reads_at_one(self):
        cluster = self.created_cluster()
        query = Query(QueryKind.READ, "tl-17", client_ctx((800.0, 0.0)))
        result = run_one(cluster, query)
        assert result.level_used is ONE

    def test_end_to_end_against_cluster(self):
        cluster = region_cluster(RegionSet([], default=traffic_spec("")))
        data_geo = STAR_CLIENT

        create = Query(QueryKind.CREATE, "tl-1", client_ctx(STAR_CLIENT), value="red",
                       data_ctx=DataContext(data_geo))
        assert run_one(cluster, create).status == "ok"

        near = Query(QueryKind.READ, "tl-1", client_ctx((-400.0, 0.0), "near"))
        far = Query(QueryKind.READ, "tl-1", client_ctx((-900.0, 0.0), "far"))
        near_result = run_one(cluster, near)
        far_result = run_one(cluster, far)
        assert near_result.level_used is ALL
        assert far_result.level_used is ONE
        assert near_result.value == far_result.value == "red"
        assert far_result.latency_ms < near_result.latency_ms


class TestRegionsLoader:
    def good_doc(self):
        return {
            "specs": [
                {
                    "keyspace": "tl-",
                    "bands": [
                        {"radius_m": 500, "read": "ALL", "write": "ONE"},
                        {"radius_m": None, "read": "ONE", "write": "ONE"},
                    ],
                }
            ],
            "default": {
                "bands": [{"radius_m": None, "read": "ONE", "write": "ONE"}],
            },
        }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "regions.json"
        path.write_text(json.dumps(self.good_doc()))
        spec_set = load_regions(path)
        assert spec_set.specs[0].keyspace == "tl-"
        assert spec_set.specs[0].bands[0].max_radius_m == 500
        assert math.isinf(spec_set.specs[0].bands[1].max_radius_m)

    def test_default_required(self):
        doc = self.good_doc()
        del doc["default"]
        with pytest.raises(ConfigError, match="default"):
            regions_from_dict(doc)

    def test_unknown_level_named(self):
        doc = self.good_doc()
        doc["specs"][0]["bands"][0]["read"] = "MOST"
        with pytest.raises(ConfigError, match=r"specs\[0\].bands\[0\].read"):
            regions_from_dict(doc)

    def test_non_increasing_radii_rejected(self):
        doc = self.good_doc()
        doc["specs"][0]["bands"].insert(1, {"radius_m": 400, "read": "ONE", "write": "ONE"})
        with pytest.raises(ConfigError, match="strictly increase"):
            regions_from_dict(doc)

    def test_missing_keyspace_named(self):
        doc = self.good_doc()
        del doc["specs"][0]["keyspace"]
        with pytest.raises(ConfigError, match="keyspace"):
            regions_from_dict(doc)
