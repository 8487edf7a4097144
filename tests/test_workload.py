import json
import math
import random
from collections import Counter

import pytest

from fogstore_sim.consistency import ClientContext, ConsistencyLevel
from fogstore_sim.errors import ConfigError
from fogstore_sim.store import QueryKind
from fogstore_sim.workload import (
    STATS_CSV_HEADER,
    EmptySampleError,
    LatencyStats,
    WorkloadClient,
    WorkloadSpec,
    format_stats_row,
    generate_ops,
    load_workload,
    percentile,
    workload_from_dict,
)

CLIENTS = (WorkloadClient("c1", (0.0, 0.0)),)


def spec(**kwargs):
    defaults = dict(op_count=100, clients=CLIENTS, seed=7)
    defaults.update(kwargs)
    return WorkloadSpec(**defaults)


def key_index(query, prefix="key-"):
    return int(query.key[len(prefix):])


class TestGenerateOps:
    def test_all_inserts_when_read_fraction_zero(self):
        ops = generate_ops(spec(read_fraction=0.0))
        assert all(q.kind is QueryKind.CREATE for q in ops)
        assert [key_index(q) for q in ops] == list(range(1, 101))

    def test_same_seed_same_sequence(self):
        a = generate_ops(spec(seed=123))
        b = generate_ops(spec(seed=123))
        assert [(q.kind, q.key, q.value) for q in a] == [(q.kind, q.key, q.value) for q in b]

    def test_different_seeds_differ(self):
        a = generate_ops(spec(seed=1, op_count=500))
        b = generate_ops(spec(seed=2, op_count=500))
        assert [(q.kind, q.key) for q in a] != [(q.kind, q.key) for q in b]

    def test_first_op_is_insert_even_at_full_read_fraction(self):
        ops = generate_ops(spec(read_fraction=1.0, op_count=10))
        assert ops[0].kind is QueryKind.CREATE
        assert all(q.kind is QueryKind.READ for q in ops[1:])

    def test_reads_always_target_existing_keys(self):
        ops = generate_ops(spec(op_count=2000, read_fraction=0.9, seed=42))
        newest = 0
        for q in ops:
            if q.kind is QueryKind.CREATE:
                newest += 1
                assert key_index(q) == newest
            else:
                assert 1 <= key_index(q) <= newest

    def test_high_skew_concentrates_on_latest_key(self):
        ops = generate_ops(spec(op_count=10_000, read_fraction=0.95,
                                recency_skew=0.95, seed=11))
        offsets = Counter()
        newest = 0
        for q in ops:
            if q.kind is QueryKind.CREATE:
                newest += 1
            else:
                offsets[newest - key_index(q)] += 1
        mode, _ = offsets.most_common(1)[0]
        assert mode == 0  # the newest key dominates

    def test_client_contexts_drawn_by_weight(self):
        clients = (WorkloadClient("heavy", (0, 0), weight=9.0),
                   WorkloadClient("light", (1, 1), weight=1.0))
        ops = generate_ops(spec(clients=clients, op_count=5000, seed=3))
        counts = Counter(q.client_ctx.client_id for q in ops)
        assert counts["heavy"] > 3 * counts["light"]

    def test_insert_data_context_defaults_to_client_geo(self):
        clients = (WorkloadClient("c", (42.0, 24.0)),)
        ops = generate_ops(spec(clients=clients, read_fraction=0.0, op_count=3))
        assert all(q.data_ctx.data_geo == (42.0, 24.0) for q in ops)

    def test_insert_data_context_override(self):
        ops = generate_ops(spec(read_fraction=0.0, op_count=3, data_geo=(7.0, 8.0)))
        assert all(q.data_ctx.data_geo == (7.0, 8.0) for q in ops)


    @staticmethod
    def formatted_reference(workload):
        """(kind, key, value, data geo) per op, each key formatted on its own."""
        rng = random.Random(workload.seed)
        entries = [(c, c.client_id) for c in workload.clients]
        weights = [c.weight for c in workload.clients]
        ops, newest = [], 0
        for _ in range(workload.op_count):
            is_read = rng.random() < workload.read_fraction
            client, _ = rng.choices(entries, weights)[0]
            if is_read and newest > 0:
                u = rng.random()
                geometric = int(math.log(1.0 - u) / math.log(1.0 - workload.recency_skew))
                back = min(geometric, newest - 1)
                ops.append((QueryKind.READ, f"{workload.key_prefix}{newest - back}", None, None))
            else:
                newest += 1
                data_geo = workload.data_geo if workload.data_geo is not None else client.geo
                ops.append((QueryKind.CREATE, f"{workload.key_prefix}{newest}",
                            f"v{newest}", data_geo))
        return ops

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2718])
    def test_reads_share_the_key_string_of_their_create(self, seed):
        clients = (WorkloadClient("a", (0.0, 0.0), weight=3.0), WorkloadClient("b", (5.0, 1.0)))
        workload = spec(op_count=3000, clients=clients, read_fraction=0.9, recency_skew=0.2,
                        key_prefix="tl-", seed=seed)
        ops = generate_ops(workload)
        assert [(q.kind, q.key, q.value, q.data_ctx and q.data_ctx.data_geo) for q in ops] \
            == self.formatted_reference(workload)
        created = {}
        for q in ops:
            if q.kind is QueryKind.CREATE:
                created[q.key] = q.key
            else:
                assert q.key is created[q.key]


def oracle_ops(workload):
    """The straightforward generator: ``rng.choices`` and a geometric draw per read.

    ``(kind, key, value, client context, data geo)`` per op; ``generate_ops``
    must make the same draws in the same order and so give the same ops.
    """
    def geometric(rng, p):
        if p >= 1.0:
            return 0
        u = rng.random()
        return int(math.log(1.0 - u) / math.log(1.0 - p))

    rng = random.Random(workload.seed)
    entries = [(c, ClientContext(c.client_id, c.geo)) for c in workload.clients]
    weights = [c.weight for c in workload.clients]
    ops, keys = [], []
    for _ in range(workload.op_count):
        is_read = rng.random() < workload.read_fraction
        client, ctx = rng.choices(entries, weights)[0]
        if is_read and keys:
            back = min(geometric(rng, workload.recency_skew), len(keys) - 1)
            ops.append((QueryKind.READ, keys[-1 - back], None, ctx, None))
        else:
            keys.append(f"{workload.key_prefix}{len(keys) + 1}")
            data_geo = workload.data_geo if workload.data_geo is not None else client.geo
            ops.append((QueryKind.CREATE, keys[-1], f"v{len(keys)}", ctx, data_geo))
    return ops


ORACLE_CLIENTS = {
    "equal": (WorkloadClient("a", (0.0, 0.0)), WorkloadClient("b", (5.0, 1.0)),
              WorkloadClient("c", (-3.0, 2.0))),
    "unequal": (WorkloadClient("a", (0.0, 0.0), weight=3.0),
                WorkloadClient("b", (5.0, 1.0), weight=0.25),
                WorkloadClient("a", (9.0, 9.0), weight=1.5),  # same id, another place
                WorkloadClient("d", (-3.0, 2.0), weight=7.0)),
    "single": (WorkloadClient("solo", (1.0, -1.0), weight=2.0),),
}

ORACLE_SPECS = {
    "mixed": dict(read_fraction=0.8, recency_skew=0.2),
    "skew-at-1": dict(read_fraction=0.9, recency_skew=1.0),
    "skew-above-1": dict(read_fraction=0.6, recency_skew=3.5),
    "low-skew": dict(read_fraction=0.95, recency_skew=0.01),
    "all-inserts": dict(read_fraction=0.0),
    "all-reads": dict(read_fraction=1.0, recency_skew=0.5),
    "data-geo": dict(read_fraction=0.7, data_geo=(7.0, 8.0)),
}


class TestGenerateOpsOracle:
    @pytest.mark.parametrize("clients", sorted(ORACLE_CLIENTS))
    @pytest.mark.parametrize("params", sorted(ORACLE_SPECS))
    def test_ops_match_the_oracle_on_seeds_0_to_20(self, params, clients):
        for seed in range(21):
            workload = spec(op_count=300, clients=ORACLE_CLIENTS[clients], key_prefix="tl-",
                            seed=seed, **ORACLE_SPECS[params])
            ops = generate_ops(workload)
            assert [(q.kind, q.key, q.value, q.client_ctx, q.data_ctx and q.data_ctx.data_geo)
                    for q in ops] == oracle_ops(workload)
            assert all(q.level is None for q in ops)


class TestSpecValidation:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            spec(read_fraction=1.5)

    def test_op_count_positive(self):
        with pytest.raises(ValueError):
            spec(op_count=0)

    def test_skew_positive(self):
        with pytest.raises(ValueError):
            spec(recency_skew=0.0)

    def test_needs_clients(self):
        with pytest.raises(ValueError):
            spec(clients=())


class TestPercentile:
    def test_singleton(self):
        assert percentile([10], 50) == 10

    def test_nearest_rank_examples(self):
        assert percentile([1, 2, 3, 4], 25) == 1  # ceil(0.25 * 4) = 1
        assert percentile([1, 2, 3, 4], 50) == 2
        assert percentile([1, 2, 3, 4], 99) == 4  # ceil(0.99 * 4) = 4
        assert percentile([1, 2, 3, 4], 100) == 4

    def test_empty_sample(self):
        with pytest.raises(EmptySampleError):
            percentile([], 50)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1], 0)
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_monotone_in_p(self):
        rng = random.Random(5)
        for _ in range(50):
            sample = sorted(rng.uniform(0, 100) for _ in range(rng.randint(1, 40)))
            values = [percentile(sample, p) for p in (1, 25, 50, 75, 95, 99, 100)]
            assert values == sorted(values)

    def test_appending_a_max_never_decreases_percentiles(self):
        rng = random.Random(9)
        for _ in range(50):
            sample = sorted(rng.uniform(0, 100) for _ in range(rng.randint(1, 30)))
            grown = sorted(sample + [max(sample) + 1])
            for p in (25, 50, 75, 95, 99):
                assert percentile(grown, p) >= percentile(sample, p)


class TestLatencyStats:
    def test_summary_ordering_invariant(self):
        rng = random.Random(2)
        stats = LatencyStats()
        for _ in range(500):
            stats.add("read", rng.uniform(1, 50))
        s = stats.summary("read")
        assert s.min_ms <= s.p25 <= s.p50 <= s.p75 <= s.p95 <= s.p99
        assert s.count == 500

    def test_empty_kind_raises(self):
        with pytest.raises(EmptySampleError):
            LatencyStats().summary("read")

    def test_csv_row_shape(self):
        stats = LatencyStats()
        stats.add("read", 10.0)
        row = format_stats_row("low", "ONE", "read", stats.summary("read"))
        assert row == "low,ONE,read,10,10,10,10,10,10,1"
        assert len(row.split(",")) == len(STATS_CSV_HEADER.split(","))


class TestWorkloadLoader:
    def good_doc(self):
        return {
            "op_count": 50,
            "read_fraction": 0.9,
            "key_prefix": "tl-",
            "recency_skew": 0.4,
            "clients": [{"id": "ycsb", "geo": [-100.0, 0.0], "weight": 1.0}],
            "fixed_read_level": "QUORUM",
            "fixed_write_level": "ONE",
            "seed": 42,
        }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps(self.good_doc()))
        loaded = load_workload(path)
        assert loaded.op_count == 50
        assert loaded.key_prefix == "tl-"
        assert loaded.fixed_read_level is ConsistencyLevel.QUORUM
        assert loaded.fixed_write_level is ConsistencyLevel.ONE
        assert loaded.clients[0].client_id == "ycsb"

    def test_integral_floats_are_integers(self):
        doc = {**self.good_doc(), "op_count": 50.0, "seed": 7.0}
        loaded = workload_from_dict(doc)
        assert (loaded.op_count, loaded.seed) == (50, 7)
        assert type(loaded.op_count) is type(loaded.seed) is int

    def test_bad_level_named(self):
        doc = self.good_doc()
        doc["fixed_read_level"] = "SOME"
        with pytest.raises(ConfigError, match="fixed_read_level"):
            workload_from_dict(doc)

    @pytest.mark.parametrize("missing", ["fixed_read_level", "fixed_write_level"])
    def test_one_fixed_level_without_the_other_names_the_file(self, tmp_path, missing):
        doc = self.good_doc()
        del doc[missing]
        path = tmp_path / "half.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="half.json.*give both or neither"):
            load_workload(path)

    def test_no_clients_rejected(self):
        doc = self.good_doc()
        doc["clients"] = []
        with pytest.raises(ConfigError, match="client"):
            workload_from_dict(doc)

    def test_missing_client_field_named(self):
        doc = self.good_doc()
        del doc["clients"][0]["geo"]
        with pytest.raises(ConfigError, match=r"clients\[0\]"):
            workload_from_dict(doc)

    def test_data_geo_parsed(self):
        doc = self.good_doc()
        doc["data_geo"] = [1.0, 2.0]
        assert workload_from_dict(doc).data_geo == (1.0, 2.0)

    def test_open_loop_interval_parsed(self):
        doc = self.good_doc()
        doc["open_loop_interval_ms"] = 2.5
        assert workload_from_dict(doc).open_loop_interval_ms == 2.5
        assert workload_from_dict(self.good_doc()).open_loop_interval_ms is None

    def test_open_loop_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            spec(open_loop_interval_ms=0.0)
