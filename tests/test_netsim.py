import heapq
import json
import math
import random
from collections import Counter
from dataclasses import dataclass

import pytest

from fogstore_sim import netsim
from fogstore_sim.consistency import ConsistencyLevel
from fogstore_sim.errors import ConfigError
from fogstore_sim.experiment import build_star_topology, run_queries, run_single
from fogstore_sim.netsim import (
    BudgetExceededError,
    FaultAction,
    Simulator,
    fault_script_from_dict,
    load_fault_script,
)
from fogstore_sim.store import Arrival, Cluster
from fogstore_sim.topology import FogNode, Link, Topology, UnknownNodeError
from fogstore_sim.workload import WorkloadClient, WorkloadSpec, generate_ops

from conftest import INEXACT, random_topology


def pair_topology():
    nodes = [FogNode("a", (0, 0), "ga"), FogNode("b", (100, 0), "gb")]
    return Topology(nodes, [Link("a", "b", 5.0)])


def recording_handler(log):
    def handler(sim, event):
        log.append((sim.now, event.kind, event.src, event.dst, event.payload))
    return handler


class TestDelivery:
    def test_star_delivery_time(self):
        topo = build_star_topology((4, 5, 6, 7, 8))
        log = []
        sim = Simulator(topo, handler=recording_handler(log))
        sim.schedule_message("client", "fog-1", "ping")
        sim.run_until_quiescent()
        assert log == [(5.0, "message", "client", "fog-1", "ping")]

    def test_self_send_is_immediate(self):
        log = []
        sim = Simulator(pair_topology(), handler=recording_handler(log))
        sim.schedule_message("a", "a", "hello")
        sim.run_until_quiescent()
        assert log == [(0.0, "message", "a", "a", "hello")]

    def test_fifo_between_same_endpoints(self):
        log = []
        sim = Simulator(pair_topology(), handler=recording_handler(log))
        for i in range(5):
            sim.schedule_message("a", "b", i)
        sim.run_until_quiescent()
        assert [payload for *_, payload in log] == [0, 1, 2, 3, 4]

    def test_clock_never_decreases(self):
        topo = random_topology(11)
        ids = sorted(topo.nodes)
        times = []
        rng = random.Random(5)

        def handler(sim, event):
            times.append(sim.now)
            if len(times) < 200:
                sim.schedule_message(event.dst, rng.choice(ids), "again")

        sim = Simulator(topo, handler=handler)
        sim.schedule_message(ids[0], ids[-1], "start")
        sim.run_until_quiescent()
        assert times == sorted(times)

    def test_empty_run_is_quiescent_at_zero(self):
        sim = Simulator(pair_topology())
        report = sim.run_until_quiescent()
        assert report.end_ms == 0.0
        assert report.events_processed == 0

    def test_budget_exceeded(self):
        sim = Simulator(pair_topology())
        sim.schedule_message("a", "b", "late")
        with pytest.raises(BudgetExceededError):
            sim.run_until_quiescent(max_ms=1.0)

    @pytest.mark.parametrize("late", ["message", "timer"])
    def test_a_budget_stop_reports_the_clock_it_stopped_at(self, late):
        sim = Simulator(build_star_topology((4, 5, 6, 7, 8)))
        sim.schedule_message("fog-1", "fog-2", "early")  # due at 9 ms
        if late == "message":
            sim.schedule_message("fog-1", "fog-5", "late")  # due at 12 ms
        else:
            sim.set_timer(None, 12.0, "late")
        with pytest.raises(BudgetExceededError):
            sim.run_until_quiescent(10.0)
        assert (sim.report.events_processed, sim.now) == (1, 9.0)
        assert sim.report.end_ms == 9.0

    def test_nan_budget_rejected_before_any_event(self):
        # NaN compares false with every time, so it would silently mean "no budget"
        topo = build_star_topology((4, 5, 6, 7, 8))
        workload = WorkloadSpec(op_count=5, clients=(WorkloadClient("c", (-100.0, 0.0)),),
                                fixed_read_level=ConsistencyLevel.ONE,
                                fixed_write_level=ConsistencyLevel.ONE)
        with pytest.raises(ValueError, match="NaN"):
            run_single(topo, workload, budget_ms=float("nan"))

    @pytest.mark.parametrize("fault", [
        None,
        FaultAction(0.0, "crash", node="fog-1"),
        FaultAction(0.0, "partition", group_a={"fog-1"}, group_b={"fog-2"}),
    ], ids=["no-fault", "crash", "partition"])
    @pytest.mark.parametrize("jitter_ms", [0.0, 1.0])
    @pytest.mark.parametrize("src, dst", [("fog-1", "nope"), ("nope", "fog-1")])
    def test_unknown_endpoint_raises_unknown_node_error(self, src, dst, jitter_ms, fault):
        # Under a fault, too: an unknown node is an error, not a silent drop.
        # A simulator that takes a fault is built inexact.
        sim = Simulator(build_star_topology((4, 5, 6, 7, 8)), jitter_ms=jitter_ms,
                        fault_script=() if fault is None else INEXACT)
        if fault is not None:
            sim.apply_fault(fault)
        sim.schedule_message("fog-2", "fog-3", "known pair first")
        unreachable = dict(sim._unreachable or {})
        with pytest.raises(UnknownNodeError, match="unknown node 'nope'"):
            sim.schedule_message(src, dst, "x")
        assert sim.report.messages_dropped == 0
        assert dict(sim._unreachable or {}) == unreachable  # no node's set was filled

    def test_jittered_delay_reads_the_topology_rows_not_latency_ms(self, monkeypatch):
        topo = oracle_topology()  # c and d have service times
        calls = []
        latency_ms = Topology.latency_ms
        monkeypatch.setattr(Topology, "latency_ms",
                            lambda self, a, b: calls.append((a, b)) or latency_ms(self, a, b))
        log = []
        sim = Simulator(topo, handler=recording_handler(log), jitter_ms=1.5, jitter_seed=9)
        pairs = [("a", "c"), ("c", "d"), ("d", "a"), ("a", "a"), ("c", "d"), ("a", "c")] * 4
        for src, dst in pairs:
            sim.schedule_message(src, dst, (src, dst))
        sim.run_until_quiescent()
        assert calls == []  # every delay comes from the rows the topology built
        rng = random.Random(9)
        expected = [max(0.0, latency_ms(topo, src, dst) + rng.uniform(-1.5, 1.5))
                    + topo.nodes[dst].service_ms for src, dst in pairs]
        assert sorted((payload, at) for at, *_, payload in log) == sorted(zip(pairs, expected))

    def test_budget_error_counts_only_live_events(self):
        # 200 ALL-read ops at 100 ms: 6 events are still due (the next one
        # included); as many cancelled deadline timers wait beside them. An
        # exact run would set no client deadline, so this one is inexact.
        workload = WorkloadSpec(op_count=200, clients=(WorkloadClient("c", (-100.0, 0.0)),),
                                fixed_read_level=ConsistencyLevel.ALL,
                                fixed_write_level=ConsistencyLevel.ONE, seed=5)
        with pytest.raises(BudgetExceededError) as info:
            run_single(build_star_topology((4, 5, 6, 7, 8)), workload, budget_ms=100.0,
                       fault_script=INEXACT)
        assert (info.value.next_event_ms, info.value.pending) == (101.0, 6)
        assert str(info.value).endswith("next event at 101.0 ms, 6 pending")

    @pytest.mark.parametrize("late", ["message", "lane head", "series timer"])
    def test_a_resumed_run_delivers_the_event_past_the_budget(self, late):
        # The first event past the budget stays queued for the resumed run.
        log = []
        sim = Simulator(build_star_topology((4, 5, 6, 7, 30)), handler=recording_handler(log))
        sim.schedule_message("client", "fog-1", "early")  # due at 5 ms
        if late == "message":
            sim.schedule_message("fog-1", "fog-5", "m")  # due at 34 ms
            expected = [(34.0, "m")]
        elif late == "lane head":
            sim.set_timer(None, 50.0, "t1")  # one lane: t1 in the heap, t2 behind it
            sim.set_timer(None, 60.0, "t2")
            expected = [(50.0, "t1"), (60.0, "t2")]
        else:
            sim.set_timer_series(None, 3, 25.0, ["s0", "s1", "s2"])
            expected = [(25.0, "s1"), (50.0, "s2")]
        with pytest.raises(BudgetExceededError) as info:
            sim.run_until_quiescent(max_ms=20.0)
        assert (info.value.next_event_ms, info.value.pending) == (expected[0][0], len(expected))
        del log[:]
        sim.run_until_quiescent()
        assert [(at, payload) for at, *_, payload in log] == expected

    def test_service_time_applies_at_destination(self):
        nodes = [FogNode("a", (0, 0), "ga"), FogNode("b", (1, 0), "gb", service_ms=2.5)]
        topo = Topology(nodes, [Link("a", "b", 5.0)])
        log = []
        sim = Simulator(topo, handler=recording_handler(log))
        sim.schedule_message("a", "b", "x")
        sim.run_until_quiescent()
        assert log[0][0] == 7.5


class TestTimers:
    def test_timer_fires(self):
        log = []
        sim = Simulator(pair_topology(), handler=recording_handler(log))
        sim.set_timer("a", 42.0, "tick")
        sim.run_until_quiescent()
        assert log == [(42.0, "timer", None, "a", "tick")]

    def test_cancelled_timer_never_fires_nor_advances_clock(self):
        log = []
        sim = Simulator(pair_topology(), handler=recording_handler(log))
        timer = sim.set_timer("a", 1000.0, "tick")
        assert (timer.kind, timer.dst, timer.payload) == ("timer", "a", "tick")  # the event itself
        timer.cancelled = True
        report = sim.run_until_quiescent()
        assert log == []
        assert report.end_ms == 0.0

    def test_timer_at_crashed_node_dropped(self):
        log = []
        script = [FaultAction(at_ms=1.0, action="crash", node="a")]
        sim = Simulator(pair_topology(), handler=recording_handler(log), fault_script=script)
        sim.set_timer("a", 5.0, "tick")
        sim.run_until_quiescent()
        assert log == []
        assert sim.report.messages_dropped == 1

    def test_harness_timer_fires_despite_faults(self):
        log = []
        script = [FaultAction(at_ms=1.0, action="crash", node="a")]
        sim = Simulator(pair_topology(), handler=recording_handler(log), fault_script=script)
        sim.set_timer(None, 5.0, "deadline")
        sim.run_until_quiescent()
        assert [(t, k) for t, k, *_ in log] == [(5.0, "timer")]

    def test_nan_delay_rejected(self):
        # NaN passes a "< 0" check; a timer due at NaN ms has no place in the event order.
        sim = Simulator(pair_topology())
        with pytest.raises(ValueError, match="delay_ms"):
            sim.set_timer(None, float("nan"), "tick")

    def test_infinite_delay_rejected(self):
        # It used to run: the clock jumped to inf, and so did the report's end_ms.
        sim = Simulator(pair_topology())
        with pytest.raises(ValueError, match="delay_ms must be finite"):
            sim.set_timer(None, float("inf"), "tick")
        assert sim.run_until_quiescent().end_ms == 0.0


class TestTimerSeries:
    def test_series_fires_in_order_with_the_seqs_it_reserved(self):
        trace = []
        sim = Simulator(pair_topology(), trace=trace.append)
        sim.set_timer_series("a", 3, 2.0, ["x", "y", "z"])
        sim.schedule_message("a", "b", "m")  # takes the seq after the whole series
        sim.run_until_quiescent()
        assert trace == ["0.0,0,timer,-,a,x", "2.0,1,timer,-,a,y", "4.0,2,timer,-,a,z",
                         "5.0,3,message,a,b,m"]
        assert sim.report.timers_fired == 3

    def test_zero_interval_fires_every_timer_now_in_seq_order(self):
        trace = []
        sim = Simulator(pair_topology(), trace=trace.append)
        sim.set_timer(None, 1.0, "later")
        sim.set_timer_series(None, 3, 0.0, ["x", "y", "z"])
        sim.set_timer(None, 0.0, "after")
        sim.run_until_quiescent()
        assert trace == ["0.0,1,timer,-,-,x", "0.0,2,timer,-,-,y", "0.0,3,timer,-,-,z",
                         "0.0,4,timer,-,-,after", "1.0,0,timer,-,-,later"]

    def test_payloads_are_built_one_pop_at_a_time(self):
        built = []

        def payload(i):
            built.append(i)
            return i

        sim = Simulator(pair_topology(), handler=lambda sim, e: built.append(f"fired {e.payload}"))
        sim.set_timer_series(None, 3, 2.0, map(payload, range(3)))
        assert built == [0]
        sim.run_until_quiescent()
        assert built == [0, 1, "fired 0", 2, "fired 1", "fired 2"]

    def test_empty_series_sets_nothing(self):
        sim = Simulator(pair_topology())
        sim.set_timer_series(None, 0, 1.0, [])
        sim.schedule_message("a", "b", "m")
        assert sim.run_until_quiescent().events_processed == 1
        assert sim._seq == 1

    @pytest.mark.parametrize("interval_ms", [float("nan"), float("inf"), -1.0])
    def test_bad_interval_rejected(self, interval_ms):
        # An infinite interval would put timer 0 at 0 * inf = NaN ms.
        sim = Simulator(pair_topology())
        with pytest.raises(ValueError, match="interval_ms must be finite and >= 0"):
            sim.set_timer_series(None, 2, interval_ms, ["x", "y"])
        assert sim._seq == 0 and sim._series == {}  # nothing was set

    # ``delays`` is the (count, interval_ms) pair the series' delays are built
    # from; the payloads run out at once, as a list and as a spent iterator.
    @pytest.mark.parametrize("delays, payloads", [((3, 1.0), []), ((3, 0.0), iter([]))])
    def test_series_missing_its_first_timer_rejected_when_set(self, delays, payloads):
        count, interval_ms = delays
        sim = Simulator(pair_topology())
        with pytest.raises(ValueError, match="from seq 0 has fewer than 3 payloads"):
            sim.set_timer_series(None, count, interval_ms, payloads)
        assert sim._seq == 0 and sim._series == {}  # nothing was set

    def test_short_series_raises_value_error_when_its_end_is_reached(self):
        # It used to leak a bare StopIteration out of the loop.
        fired = []
        sim = Simulator(pair_topology(), handler=lambda sim, e: fired.append(e.payload))
        sim.schedule_message("a", "b", "m")  # seq 0: the series starts at seq 1
        sim.set_timer_series(None, 3, 1.0, ["x", "y"])
        with pytest.raises(ValueError, match="from seq 1 has fewer than 3 payloads"):
            sim.run_until_quiescent()
        assert fired == ["x"]

    def test_series_timer_at_crashed_node_dropped(self):
        log = []
        sim = Simulator(pair_topology(), handler=recording_handler(log),
                        fault_script=[FaultAction(1.0, "crash", node="a")])
        sim.set_timer_series("a", 3, 1.0, ["x", "y", "z"])
        sim.run_until_quiescent()
        assert log == [(0.0, "timer", None, "a", "x")]
        assert sim.report.messages_dropped == 2


def eager_open_loop(cluster, queries, interval_ms, budget_ms=None):
    """The open loop as one ``set_timer`` call per arrival, all set at t=0."""
    results = []

    def collect(query, result):
        results.append((query, result))

    for i, query in enumerate(queries):
        cluster.sim.set_timer(None, i * interval_ms, Arrival(query, collect))
    cluster.sim.run_until_quiescent(budget_ms)
    return results


class TestOpenLoopSeries:
    """``run_queries``' lazily built arrivals against eager ``set_timer`` scheduling."""

    def cluster(self, trace):
        # Integer link latencies and a 1 ms interval: arrivals tie with deliveries.
        topo = build_star_topology((4, 5, 6, 7, 8))
        return Cluster(topo, Simulator(topo, trace=trace.append), replication_factor=5,
                       fixed_read_level=ConsistencyLevel.QUORUM,
                       fixed_write_level=ConsistencyLevel.QUORUM)

    def queries(self):
        return generate_ops(WorkloadSpec(op_count=300, clients=(WorkloadClient("c", (-100.0, 0.0)),),
                                         read_fraction=0.6, seed=4))

    def test_trace_is_byte_identical_to_eager_scheduling(self):
        # 0.1 is not exact in binary: the lazy ``start + i * interval`` must give
        # the float the eager ``set_timer(None, i * interval)`` gives.
        queries = self.queries()
        for interval_ms in (0.1, 0.5, 1.0):
            lazy_trace, eager_trace = [], []
            lazy = run_queries(self.cluster(lazy_trace), queries,
                               open_loop_interval_ms=interval_ms)
            eager = eager_open_loop(self.cluster(eager_trace), queries, interval_ms)
            assert "\n".join(lazy_trace) == "\n".join(eager_trace), interval_ms
            assert lazy == eager and len(lazy) == 300
            rows = [line.split(",", 5) for line in lazy_trace]
            arrivals = {at for at, _, kind, _, _, what in rows if what.startswith("Arrival")}
            delivered = {at for at, _, kind, _, _, _ in rows if kind == "message"}
            assert len(arrivals & delivered) > 100  # the ties the seq order decides

    @pytest.mark.parametrize("budget_ms", [0.5, 50.5, 298.0])
    def test_budget_error_counts_the_arrivals_not_built_yet(self, budget_ms):
        queries = self.queries()
        with pytest.raises(BudgetExceededError) as lazy:
            run_queries(self.cluster([]), queries, budget_ms=budget_ms, open_loop_interval_ms=1.0)
        with pytest.raises(BudgetExceededError) as eager:
            eager_open_loop(self.cluster([]), queries, 1.0, budget_ms=budget_ms)
        assert (lazy.value.next_event_ms, lazy.value.pending) \
            == (eager.value.next_event_ms, eager.value.pending)
        assert lazy.value.pending >= 300 - int(budget_ms)  # arrivals still to come


class TestFaults:
    def test_send_to_crashed_node_never_delivered(self):
        log = []
        script = [FaultAction(at_ms=0.0, action="crash", node="b")]
        sim = Simulator(pair_topology(), handler=recording_handler(log), fault_script=script)
        sim.run_until_quiescent()  # apply the fault at t=0
        sim.schedule_message("a", "b", "lost")
        sim.run_until_quiescent()
        assert log == []
        assert sim.report.messages_dropped == 1

    def test_crash_between_send_and_delivery_drops(self):
        log = []
        script = [FaultAction(at_ms=2.0, action="crash", node="b")]
        sim = Simulator(pair_topology(), handler=recording_handler(log), fault_script=script)
        sim.schedule_message("a", "b", "mid-flight")  # would arrive at t=5
        sim.run_until_quiescent()
        assert log == []

    def test_sender_crash_after_send_still_delivers(self):
        # Only the destination's state and the partitions gate a delivery: a
        # message already sent is in the network when its sender goes down.
        log, trace = [], []
        script = [FaultAction(at_ms=2.0, action="crash", node="a")]
        sim = Simulator(pair_topology(), handler=recording_handler(log), fault_script=script,
                        trace=trace.append)
        sim.schedule_message("a", "b", "in flight")  # arrives at t=5, a is down from t=2
        sim.run_until_quiescent()
        assert log == [(5.0, "message", "a", "b", "in flight")]
        assert trace == ["2.0,0,fault,-,-,crash a", "5.0,1,message,a,b,in flight"]
        sim.schedule_message("a", "b", "after")  # a is still down: blocked at send
        sim.run_until_quiescent()
        assert sim.report.messages_dropped == 1 and len(log) == 1

    def test_recovered_node_receives_again(self):
        log = []
        script = [
            FaultAction(at_ms=0.0, action="crash", node="b"),
            FaultAction(at_ms=10.0, action="recover", node="b"),
        ]
        sim = Simulator(pair_topology(), handler=recording_handler(log), fault_script=script)
        sim.run_until_quiescent()
        sim.schedule_message("a", "b", "after-recovery")
        sim.run_until_quiescent()
        assert [payload for *_, payload in log] == ["after-recovery"]

    def test_partition_symmetry_and_heal(self):
        log = []
        sim = Simulator(pair_topology(), handler=recording_handler(log), fault_script=INEXACT)
        sim.apply_fault(FaultAction(at_ms=0.0, action="partition",
                                    group_a=frozenset(["a"]), group_b=frozenset(["b"])))
        sim.schedule_message("a", "b", "x")
        sim.schedule_message("b", "a", "y")
        sim.run_until_quiescent()
        assert log == []  # both blocked at send, before the script's heal ran
        assert sim.report.messages_dropped == 2
        sim.apply_fault(FaultAction(at_ms=0.0, action="heal"))
        sim.schedule_message("a", "b", "z")
        sim.run_until_quiescent()
        assert [payload for *_, payload in log] == ["z"]

    def test_events_that_took_no_seq_print_a_dash(self):
        # A message dropped at send and a fault applied directly are never
        # scheduled; they used to print the seq the next event would take.
        trace = []
        sim = Simulator(pair_topology(), trace=trace.append, jitter_ms=0.5)  # takes faults
        sim.apply_fault(FaultAction(at_ms=0.0, action="crash", node="b"))
        sim.schedule_message("a", "b", "lost")
        sim.set_timer(None, 1.0, "tick")
        sim.run_until_quiescent()
        assert trace == ["0.0,-,fault,-,-,crash b", "0.0,-,drop,a,b,blocked at send: lost",
                         "1.0,0,timer,-,-,tick"]

    def test_no_seq_is_printed_twice_in_a_faulted_jittered_open_loop(self):
        workload = WorkloadSpec(op_count=300, clients=(WorkloadClient("c1", (-100.0, 0.0)),
                                                       WorkloadClient("c2", (900.0, 0.0))),
                                read_fraction=0.5, fixed_read_level=ConsistencyLevel.QUORUM,
                                fixed_write_level=ConsistencyLevel.ALL,
                                open_loop_interval_ms=0.5, seed=7)
        faults = [FaultAction(10.0, "crash", node="fog-3"),
                  FaultAction(25.0, "partition", group_a=frozenset({"fog-1", "fog-2"}),
                              group_b=frozenset({"fog-4", "fog-5"})),
                  FaultAction(50.0, "heal"), FaultAction(70.0, "recover", node="fog-3")]
        trace = []
        run_single(build_star_topology((4, 5, 6, 7, 8)), workload, replication_factor=5,
                   timeout_ms=200.0, fault_script=faults, trace_sink=trace.append,
                   jitter_ms=1.0, jitter_seed=5)
        seqs = Counter(line.split(",")[1] for line in trace)
        assert seqs["-"] > 10  # sends the faults blocked
        assert [seq for seq, n in seqs.items() if n > 1 and seq != "-"] == []

    @pytest.mark.parametrize("fault, undo", [
        (dict(action="crash", node="b"), dict(action="recover", node="b")),
        (dict(action="partition", group_a=frozenset({"a"}), group_b=frozenset({"b"})),
         dict(action="heal")),
    ], ids=["crash", "partition"])
    def test_blocking_resumes_after_the_fault_state_empties(self, fault, undo):
        # Fault at 10, undone at 20, again at 30; a -> b takes 5 ms. A send
        # just before each fault dies at delivery, one just after dies at send.
        script = [FaultAction(at_ms=10.0, **fault), FaultAction(at_ms=20.0, **undo),
                  FaultAction(at_ms=30.0, **fault)]
        log, trace = [], []

        def handler(sim, event):
            if event.kind == "timer":
                sim.schedule_message("a", "b", event.payload)
            else:
                log.append((sim.now, event.payload))

        sim = Simulator(pair_topology(), handler=handler, fault_script=script,
                        trace=trace.append)
        for at_ms, name in [(0, "m0"), (8, "m1"), (12, "m2"), (21, "m3"), (27, "m4"), (31, "m5")]:
            sim.set_timer(None, at_ms, name)
        sim.run_until_quiescent()
        assert log == [(5.0, "m0"), (26.0, "m3")]
        drops = [line.split(",", 5)[5] for line in trace if line.split(",")[2] == "drop"]
        assert drops == ["blocked at send: m2", "blocked at delivery: m1",
                         "blocked at send: m5", "blocked at delivery: m4"]

    def test_every_pair_is_decided_right_after_every_fault(self):
        # Each action of random fault scripts, applied directly. Right after
        # it, every node has its entry in the table, and for every ordered
        # pair a send is dropped at send, and a message sent before the
        # action is dropped at delivery, exactly when reference_log's rule
        # says so.
        topology = oracle_topology()
        pairs = [(src, dst) for src in ORACLE_NODES for dst in ORACLE_NODES]
        rng = random.Random(35)
        at_delivery = partitions_seen = 0
        crashed, partitions = set(), []

        def separated(a, b):
            return any((a in group_a and b in group_b) or (a in group_b and b in group_a)
                       for group_a, group_b in partitions)

        def blocked_at_send(src, dst):
            return src in crashed or dst in crashed or separated(src, dst)

        for _ in range(200):
            trace = []
            sim = Simulator(topology, fault_script=INEXACT, trace=trace.append)
            sim.run_until_quiescent()  # the script's heal: no fault is active
            crashed.clear()
            partitions.clear()
            for fault in random_schedule(rng)[0]:
                in_flight = [pair for pair in pairs if not blocked_at_send(*pair)]
                for src, dst in in_flight:
                    sim.schedule_message(src, dst, "before")
                sim.apply_fault(fault)
                if fault.action == "crash":
                    crashed.add(fault.node)
                elif fault.action == "recover":
                    crashed.discard(fault.node)
                elif fault.action == "partition":
                    partitions.append((fault.group_a, fault.group_b))
                    partitions_seen += 1
                else:
                    partitions.clear()
                table = sim._unreachable
                assert table is None or sorted(table) == sorted(topology.nodes)
                del trace[:]
                for src, dst in pairs:
                    sim.schedule_message(src, dst, "after")
                sim.run_until_quiescent()
                expected = []
                for src, dst in in_flight:
                    if dst in crashed or separated(src, dst):
                        expected.append(("drop", src, dst, "blocked at delivery: before"))
                        at_delivery += 1
                    else:
                        expected.append(("message", src, dst, "before"))
                for src, dst in pairs:
                    if blocked_at_send(src, dst):
                        expected.append(("drop", src, dst, "blocked at send: after"))
                    else:
                        expected.append(("message", src, dst, "after"))
                assert sorted(tuple(line.split(",", 5)[2:]) for line in trace) == sorted(expected)
        assert at_delivery > 500 and partitions_seen > 100

    def test_node_timer_dropped_again_after_recovery(self):
        script = [FaultAction(at_ms=10.0, action="crash", node="b"),
                  FaultAction(at_ms=20.0, action="recover", node="b"),
                  FaultAction(at_ms=30.0, action="crash", node="b")]
        log = []
        sim = Simulator(pair_topology(), handler=recording_handler(log), fault_script=script)
        for at_ms in (5.0, 15.0, 25.0, 35.0):
            sim.set_timer("b", at_ms, at_ms)
        sim.run_until_quiescent()
        assert [payload for *_, payload in log] == [5.0, 25.0]
        assert sim.report.messages_dropped == 2

    def test_unknown_node_in_script_rejected(self):
        with pytest.raises(ConfigError, match="ghost"):
            Simulator(pair_topology(), fault_script=[FaultAction(0.0, "crash", node="ghost")])

    @pytest.mark.parametrize("action", ["crash", "recover"])
    def test_crash_or_recover_with_no_node_rejected(self, action):
        # A scripted crash with no node used to crash None, the node of every
        # harness timer, so each of them was dropped instead of fired.
        with pytest.raises(ValueError, match=f"^node: {action} names no node"):
            FaultAction(0.0, action)
        sim = Simulator(pair_topology())
        sim.set_timer(None, 1.0, "harness")
        assert sim.run_until_quiescent().timers_fired == 1

    @pytest.mark.parametrize("fields,at_fault", [
        ({"action": "partition", "group_a": frozenset({"a"}), "group_b": frozenset({"a", "b"})},
         "group_b"),
        ({"action": "partition"}, "group_a"),
        ({"action": "partition", "group_a": frozenset({"a"})}, "group_b"),
        ({"action": "partition", "node": "a", "group_a": frozenset({"a"}),
          "group_b": frozenset({"b"})}, "node"),
        ({"at_ms": 5.0, "action": "explode"}, "action"),
        ({"at_ms": math.nan, "action": "crash", "node": "b"}, "at_ms"),
        ({"at_ms": math.inf, "action": "heal"}, "at_ms"),
        ({"at_ms": -5.0, "action": "crash", "node": "b"}, "at_ms"),
        ({"at_ms": -4.0, "action": "heal"}, "at_ms"),
        ({"action": "heal", "node": "a"}, "node"),
        ({"action": "heal", "group_b": frozenset({"b"})}, "group_b"),
        ({"action": "crash", "node": "a", "group_a": frozenset({"b"})}, "group_a"),
        ({"action": "recover", "node": "a", "group_b": frozenset({"b"})}, "group_b"),
        ({"action": "partition", "group_a": "a", "group_b": frozenset({"b"})}, "group_a"),
    ], ids=["overlapping groups", "no groups", "no group_b", "partition naming a node",
            "unknown action", "nan time", "infinite time", "negative crash", "negative heal",
            "heal naming a node", "heal with a group", "crash with a group",
            "recover with a group", "string group"])
    def test_an_invalid_fault_is_refused_when_built(self, fields, at_fault):
        # Only the script loader used to refuse these. Built directly, each was
        # taken: overlapping groups cut a off from itself, a partition of no
        # groups ended exactness, an unknown action raised only when it fired
        # mid-run, a NaN time traced as "nan" ahead of earlier events, negative
        # times ran the clock backwards, and stray nodes or groups were ignored.
        with pytest.raises(ValueError) as err:
            FaultAction(**{"at_ms": 0.0, **fields})
        assert str(err.value).startswith(f"{at_fault}: ")

    def test_a_fault_keeps_the_groups_it_was_given(self):
        # A fault used to keep the caller's sets: one changed after the build
        # cut a off from itself, the fault could not be hashed, and list
        # groups failed the disjointness check.
        group_b = {"b"}
        fault = FaultAction(0.0, "partition", group_a={"a"}, group_b=group_b)
        group_b.add("a")
        assert fault.group_b == frozenset({"b"})
        log = []
        sim = Simulator(pair_topology(), handler=recording_handler(log), fault_script=INEXACT)
        sim.apply_fault(fault)
        for dst in ("a", "b"):
            sim.schedule_message("a", dst, dst)
        sim.run_until_quiescent()
        assert [payload for *_, payload in log] == ["a"]  # a still reaches itself, not b
        built = FaultAction(0.0, "partition", group_a=["a"], group_b=["b"])
        assert built == fault and hash(built) == hash(fault)
        assert type(built.group_a) is type(built.group_b) is frozenset

    def test_the_loader_accepts_exactly_the_faults_a_direct_build_accepts(self):
        # The loader only reads JSON and builds each action, so it accepts what
        # FaultAction accepts, builds an equal action, and reports a refusal as
        # FaultAction's error under the event's path.
        rng = random.Random(50)
        groups = {"group_a": [[], ["a"], ["a", "b"], ["c"]],
                  "group_b": [[], ["b"], ["c"], ["b", "c"], ["a"]]}
        seen = Counter()
        for _ in range(500):
            kind = rng.choice(["crash", "recover", "partition", "partition", "heal", "explode"])
            raw = {"at_ms": rng.choice([0, 1, 2.5, 7, 10, -0.0, -1, math.nan, math.inf]),
                   "action": kind}
            # Mostly the fields the action takes, sometimes one too few or too many.
            if (kind in ("crash", "recover")) != (rng.random() < 0.15):
                raw["node"] = rng.choice(["a", "b"])
            for name, choices in groups.items():
                if (kind == "partition") != (rng.random() < 0.15):
                    raw[name] = rng.choice(choices)
            try:
                direct = FaultAction(float(raw["at_ms"]), raw["action"], raw.get("node"),
                                     frozenset(raw.get("group_a", ())),
                                     frozenset(raw.get("group_b", ())))
            except ValueError as exc:
                with pytest.raises(ConfigError) as err:
                    fault_script_from_dict({"events": [raw]})
                assert err.value.detail == f"events[0].{exc}", raw
                seen[str(exc).split(":")[0]] += 1
            else:
                assert fault_script_from_dict({"events": [raw]}) == [direct], raw
                seen[direct.action] += 1
        # Every action is accepted, and every field is the one at fault, several times.
        assert min(seen[name] for name in ("crash", "recover", "partition", "heal", "at_ms",
                                            "action", "node", "group_a", "group_b")) >= 5, seen

    @pytest.mark.parametrize("action", [
        FaultAction(0.0, "crash", node="ghost"),
        FaultAction(0.0, "recover", node="ghost"),
        FaultAction(0.0, "partition", group_a=frozenset({"a"}), group_b=frozenset({"ghost"})),
        FaultAction(0.0, "partition", group_a=frozenset({"ghost"}), group_b=frozenset({"b"})),
    ], ids=["crash", "recover", "partition group_b", "partition group_a"])
    @pytest.mark.parametrize("fault_script", [(), INEXACT], ids=["exact", "inexact"])
    def test_unknown_node_in_a_direct_fault_rejected(self, action, fault_script):
        # A direct fault used to be taken silently: the ghost joined the
        # crashed set or a partition, and the simulator stopped being exact.
        # The unknown node is reported first, on an exact simulator too.
        sim = Simulator(pair_topology(), fault_script=fault_script)
        with pytest.raises(UnknownNodeError, match="unknown node 'ghost'"):
            sim.apply_fault(action)
        assert sim.exact == (not fault_script) and sim.report.faults_applied == 0
        assert sim.is_up("ghost") and sim._unreachable is None  # nothing was applied
        sim.schedule_message("a", "b", "x")
        assert sim.run_until_quiescent().messages_delivered == 1


class TestExact:
    """An exact simulator delivers every message after exactly its pair's fixed delay."""

    def test_only_a_simulator_free_of_faults_and_jitter_is_exact(self):
        assert Simulator(pair_topology()).exact
        assert not Simulator(pair_topology(), jitter_ms=0.5).exact
        assert not Simulator(pair_topology(), fault_script=INEXACT).exact
        sim = Simulator(pair_topology())
        sim.schedule_message("a", "b", "x")
        sim.run_until_quiescent()
        assert sim.exact  # for life: running changes nothing

    @pytest.mark.parametrize("idle", [False, True], ids=["events due", "idle"])
    def test_an_exact_simulator_refuses_a_direct_fault(self, idle):
        # A direct fault used to end exactness once the simulator was idle.
        log = []
        sim = Simulator(pair_topology(), handler=recording_handler(log))
        sim.schedule_message("a", "b", "x")
        if idle:
            sim.run_until_quiescent()
        for action in (FaultAction(0.0, "crash", node="b"), FaultAction(0.0, "heal")):
            with pytest.raises(ValueError, match="exact simulator takes no fault"):
                sim.apply_fault(action)
        assert sim.exact and sim.is_up("b") and sim.report.faults_applied == 0
        sim.schedule_message("a", "b", "y")
        sim.run_until_quiescent()
        assert [payload for *_, payload in log] == ["x", "y"]

    @pytest.mark.parametrize("build", [{"fault_script": INEXACT}, {"jitter_ms": 0.5}],
                             ids=["script", "jitter"])
    def test_an_inexact_simulator_takes_a_direct_fault_at_any_time(self, build):
        sim = Simulator(pair_topology(), **build)
        sim.schedule_message("a", "b", "x")
        sim.set_timer(None, 1.0, "t")
        sim.apply_fault(FaultAction(0.0, "crash", node="b"))  # events still due
        assert not sim.is_up("b")
        sim.run_until_quiescent()
        sim.apply_fault(FaultAction(0.0, "recover", node="b"))  # idle
        assert sim.is_up("b") and not sim.exact
        assert sim.report.faults_applied == 2 + len(build.get("fault_script", ()))
        assert sim.report.messages_dropped == 1  # x, at delivery

    def test_the_fixed_delay_is_the_one_a_message_takes(self):
        topo = oracle_topology()  # c and d have service times
        log = []
        sim = Simulator(topo, handler=recording_handler(log))
        pairs = [("a", "c"), ("c", "d"), ("d", "a"), ("a", "a")]
        delays = [sim.delay_ms(src, dst) for src, dst in pairs]
        for src, dst in pairs:
            sim.schedule_message(src, dst, (src, dst))
        sim.run_until_quiescent()
        assert sorted((payload, at) for at, *_, payload in log) == sorted(zip(pairs, delays))
        assert delays[0] == topo.latency_ms("a", "c") + topo.nodes["c"].service_ms > 0
        with pytest.raises(ValueError, match="jitter"):
            Simulator(topo, jitter_ms=1.0).delay_ms("a", "c")

    def test_the_fixed_delay_to_an_unknown_node_names_it(self):
        sim = Simulator(build_star_topology((4, 5, 6, 7, 8)))
        with pytest.raises(UnknownNodeError, match="unknown node 'ghost'"):
            sim.delay_ms("fog-1", "ghost")


class TestDeterminism:
    def run_once(self, jitter_ms=0.0):
        topo = random_topology(17)
        ids = sorted(topo.nodes)
        trace = []
        rng = random.Random(3)

        def handler(sim, event):
            if sim.report.events_processed < 300:
                sim.schedule_message(event.dst, rng.choice(ids), f"m{sim.report.events_processed}")

        sim = Simulator(topo, handler=handler, trace=trace.append,
                        jitter_ms=jitter_ms, jitter_seed=12)
        for i, nid in enumerate(ids):
            sim.schedule_message(ids[0], nid, f"seed{i}")
        sim.run_until_quiescent()
        return trace, sim.report

    def test_bit_identical_traces(self):
        trace_a, report_a = self.run_once()
        trace_b, report_b = self.run_once()
        assert trace_a == trace_b
        assert report_a == report_b

    def test_jitter_is_seeded_and_bounded(self):
        trace_a, _ = self.run_once(jitter_ms=0.5)
        trace_b, _ = self.run_once(jitter_ms=0.5)
        assert trace_a == trace_b
        assert trace_a != self.run_once(jitter_ms=0.0)[0]

    @pytest.mark.parametrize("jitter_ms", [float("nan"), float("inf"), -1.0])
    def test_jitter_must_be_finite_and_not_negative(self, jitter_ms):
        # NaN and negative jitter used to run without jitter, and infinite
        # jitter made every delay 0.0 ms.
        workload = WorkloadSpec(op_count=200, clients=(WorkloadClient("c1", (-100.0, 0.0)),),
                                fixed_read_level=ConsistencyLevel.QUORUM,
                                fixed_write_level=ConsistencyLevel.QUORUM, seed=1)
        with pytest.raises(ValueError, match="jitter_ms"):
            run_single(build_star_topology((4, 5, 6, 7, 8)), workload, jitter_ms=jitter_ms)

    def test_trace_time_reads_back_as_the_clock(self):
        # Six significant digits used to print the last event, at 119628.48 ms,
        # as 119628: earlier than the event, and past 1e6 ms in exponent form.
        workload = WorkloadSpec(op_count=300, clients=(WorkloadClient("c1", (-100.0, 0.0)),),
                                fixed_read_level=ConsistencyLevel.QUORUM,
                                fixed_write_level=ConsistencyLevel.QUORUM,
                                open_loop_interval_ms=400.0)
        trace = []
        topo = build_star_topology((4, 5, 6, 7, 8))
        sim = Simulator(topo, trace=trace.append, jitter_ms=1.0)
        cluster = Cluster(topo, sim, fixed_read_level=workload.fixed_read_level,
                          fixed_write_level=workload.fixed_write_level)
        run_queries(cluster, generate_ops(workload),
                    open_loop_interval_ms=workload.open_loop_interval_ms)
        times = [line.split(",", 1)[0] for line in trace]
        assert float(times[-1]) == sim.report.end_ms > 119_000.0
        assert [t for t in times if "e" in t] == []


@dataclass(frozen=True)
class Payload:
    n: int


class Msg(Payload):
    pass


class TickA(Payload):  # constant delay: always set in order
    pass


class TickB(Payload):  # random delay: often set out of order
    pass


class TickC(Payload):  # mostly constant, sometimes not
    pass


ORACLE_NODES = ("a", "b", "c", "d")
ORACLE_CRASHABLE = ("c", "d")


def oracle_topology():
    nodes = [FogNode("a", (0, 0), "ga"), FogNode("b", (1, 0), "gb"),
             FogNode("c", (2, 0), "gc", service_ms=0.5), FogNode("d", (3, 0), "gd", service_ms=0.25)]
    links = [Link("a", "b", 1.0), Link("b", "c", 0.5), Link("c", "d", 1.5), Link("a", "d", 2.0)]
    return Topology(nodes, links)


def random_schedule(rng):
    """A fault script, the actions issued before the run, and each payload's reactions.

    The script crashes and recovers nodes, and partitions the nodes into two
    random disjoint groups (up to two partitions at once) until a heal. An
    action is ``("msg", src, dst, payload)``, ``("timer", node, delay, payload)``,
    ``("series", node, interval, payloads)``, a timer series whose payloads share
    their types with single timers, or ``("cancel", n)``, which cancels the single
    timer whose payload is ``n`` (a no-op if that timer was never set or has fired).
    """
    faults = []
    for node in ORACLE_CRASHABLE:
        if rng.random() < 0.6:
            crash = rng.choice([0.0, 1.0, 2.5, 4.0, 6.0])
            faults.append(FaultAction(crash, "crash", node=node))
            if rng.random() < 0.7:
                faults.append(FaultAction(crash + rng.choice([0.5, 2.0, 4.0]), "recover", node=node))
    if rng.random() < 0.6:
        split = rng.choice([0.0, 1.0, 2.5, 4.0])
        for _ in range(rng.randint(1, 2)):
            nodes = rng.sample(ORACLE_NODES, rng.randint(2, 4))
            cut = rng.randint(1, len(nodes) - 1)
            faults.append(FaultAction(split, "partition", group_a=frozenset(nodes[:cut]),
                                      group_b=frozenset(nodes[cut:])))
            split += rng.choice([0.0, 1.0, 1.5])
        if rng.random() < 0.7:
            faults.append(FaultAction(split + rng.choice([0.5, 2.0, 4.0]), "heal"))
    faults.sort(key=lambda f: f.at_ms)
    timers: list[int] = []
    count = 0

    def actions(k):
        nonlocal count
        out = []
        for _ in range(k):
            count += 1
            roll = rng.random()
            if roll < 0.4:
                out.append(("msg", rng.choice(ORACLE_NODES), rng.choice(ORACLE_NODES), Msg(count)))
                continue
            if roll < 0.85:
                kind = rng.choice([TickA, TickB, TickC])
                if kind is TickA:
                    delay = 4.0
                elif kind is TickC and rng.random() < 0.7:
                    delay = 3.0
                else:
                    delay = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 7.5])
                node = rng.choice((None,) + ORACLE_NODES)
                out.append(("timer", node, delay, kind(count)))
                timers.append(count)
            elif roll < 0.95:
                interval = rng.choice([0.0, 0.5, 1.0, 1.5, 3.0])
                payloads = [rng.choice([TickA, TickB, TickC])(count)]
                for _ in range(rng.randint(0, 3)):
                    count += 1
                    payloads.append(rng.choice([TickA, TickB, TickC])(count))
                out.append(("series", rng.choice((None,) + ORACLE_NODES), interval, payloads))
            if timers and rng.random() < 0.5:
                out.append(("cancel", rng.choice(timers)))
        return out

    initial = actions(rng.randint(3, 10))
    reactions = {}
    n = 1
    while n <= count and count < 80:
        if rng.random() < 0.6:
            reactions[n] = actions(rng.randint(1, 3))
        n += 1
    return faults, initial, reactions


def reference_log(topology, faults, initial, reactions, jitter_ms=0.0, jitter_seed=0,
                  clamps=None):
    """The same schedule on a plain heap of ``(at_ms, seq)``: what must be delivered.

    With jitter, each message not blocked at send draws one uniform offset,
    in send order, and arrives ``max(0, latency + offset) + service`` later;
    ``clamps``, if given, collects each ``latency + offset`` that was not above 0.
    """
    queue, log, crashed, partitions, cancelled, timer_seqs = [], [], set(), [], set(), {}
    seq, now = 0, 0.0
    uniform = random.Random(jitter_seed).uniform
    for fault in faults:
        heapq.heappush(queue, (fault.at_ms, seq, "fault", None, fault, None))
        seq += 1

    def separated(a, b):
        return any((a in group_a and b in group_b) or (a in group_b and b in group_a)
                   for group_a, group_b in partitions)

    def run(actions):
        nonlocal seq
        for action in actions:
            if action[0] == "msg":
                _, src, dst, payload = action
                if src in crashed or dst in crashed or separated(src, dst):
                    continue  # blocked at send: no seq, no jitter draw
                delay = topology.latency_ms(src, dst)
                if jitter_ms:
                    delay += uniform(-jitter_ms, jitter_ms)
                    if clamps is not None and delay <= 0.0:
                        clamps.append(delay)
                    delay = max(0.0, delay)
                delay += topology.nodes[dst].service_ms
                heapq.heappush(queue, (now + delay, seq, "message", dst, payload, src))
            elif action[0] == "timer":
                _, node, delay, payload = action
                timer_seqs[payload.n] = seq
                heapq.heappush(queue, (now + delay, seq, "timer", node, payload, None))
            elif action[0] == "series":
                _, node, interval, payloads = action
                for i, payload in enumerate(payloads):
                    heapq.heappush(queue, (now + i * interval, seq, "timer", node, payload, None))
                    seq += 1
                continue
            else:
                if action[1] in timer_seqs:
                    cancelled.add(timer_seqs[action[1]])
                continue
            seq += 1

    run(initial)
    while queue:
        at_ms, event_seq, kind, dst, payload, src = heapq.heappop(queue)
        if event_seq in cancelled:
            continue
        now = at_ms
        if kind == "fault":
            if payload.action == "crash":
                crashed.add(payload.node)
            elif payload.action == "recover":
                crashed.discard(payload.node)
            elif payload.action == "partition":
                partitions.append((payload.group_a, payload.group_b))
            else:
                partitions.clear()
            continue
        if dst in crashed or (kind == "message" and separated(src, dst)):
            continue  # the sender's own state does not matter here
        log.append((now, event_seq, kind, payload))
        run(reactions.get(payload.n, ()))
    return log


def simulator_log(topology, faults, initial, reactions, jitter_ms=0.0, jitter_seed=0):
    log, handles, trace = [], {}, []

    def run(sim, actions):
        for action in actions:
            if action[0] == "msg":
                sim.schedule_message(action[1], action[2], action[3])
            elif action[0] == "timer":
                handles[action[3].n] = sim.set_timer(action[1], action[2], action[3])
            elif action[0] == "series":
                sim.set_timer_series(action[1], len(action[3]), action[2], action[3])
            elif action[1] in handles:
                handles[action[1]].cancelled = True

    def handler(sim, event):
        seq = int(trace[-1].split(",", 2)[1])  # an event is traced just before it is handled
        log.append((sim.now, seq, event.kind, event.payload))
        run(sim, reactions.get(event.payload.n, ()))

    sim = Simulator(topology, handler=handler, fault_script=faults, trace=trace.append,
                    jitter_ms=jitter_ms, jitter_seed=jitter_seed)
    run(sim, initial)
    sim.run_until_quiescent()
    return log


def test_event_order_matches_a_reference_heap_on_random_schedules():
    """Messages, timers of several payload types set in and out of order, timer
    series beside single timers of the same types, equal times, cancels before
    and after firing, timers set by handlers, timers at crashed nodes, and
    messages across partitions: delivery matches a plain ``(at_ms, seq)`` heap
    exactly."""
    topology = oracle_topology()
    rng = random.Random(2024)
    delivered = series = partitions = 0
    for _ in range(300):
        schedule = random_schedule(rng)
        expected = reference_log(topology, *schedule)
        assert simulator_log(topology, *schedule) == expected
        delivered += len(expected)
        series += sum(action[0] == "series" for actions in [schedule[1], *schedule[2].values()]
                      for action in actions)
        partitions += sum(fault.action == "partition" for fault in schedule[0])
    assert delivered > 3000  # the schedules are not trivially empty
    assert series > 1000
    assert partitions > 200


def test_jittered_event_order_matches_a_reference_heap_on_random_schedules():
    """The random schedules above under jitter larger than the b-c link's
    latency (and every self-send's), so that the clamp at 0 fires, with service
    times at c and d: delivery times and order match a plain heap whose delays
    come from one ``random.uniform`` per message sent."""
    topology = oracle_topology()
    assert topology.latency_ms("b", "c") < 0.75 and topology.nodes["c"].service_ms > 0
    rng = random.Random(7)
    delivered = clamped = 0
    for seed in range(300):
        schedule = random_schedule(rng)
        clamps = []
        expected = reference_log(topology, *schedule, jitter_ms=0.75, jitter_seed=seed,
                                 clamps=clamps)
        assert simulator_log(topology, *schedule, jitter_ms=0.75, jitter_seed=seed) == expected
        delivered += len(expected)
        clamped += len(clamps)
    assert delivered > 3000
    assert clamped > 300


def test_closed_loop_heap_holds_no_dead_deadline_timers(monkeypatch):
    # Each op sets two deadline timers seconds out and cancels both within
    # milliseconds; they wait in their lanes, so the heap stays a handful long.
    longest = 0

    def heappush(heap, entry):
        nonlocal longest
        heapq.heappush(heap, entry)
        longest = max(longest, len(heap))

    monkeypatch.setattr(netsim, "heappush", heappush)
    workload = WorkloadSpec(op_count=2000, clients=(WorkloadClient("c", (-100.0, 0.0)),),
                            fixed_read_level=ConsistencyLevel.ONE,
                            fixed_write_level=ConsistencyLevel.ONE)
    # Inexact: an exact run would set no client deadline at all.
    output = run_single(build_star_topology((4, 5, 6, 7, 8)), workload, fault_script=INEXACT)
    assert len(output.results) == 2000
    assert 0 < longest <= 16


def test_open_loop_deadline_lanes_stay_bounded():
    # Ops overlap in an open loop and finish out of order, so cancelled
    # deadlines land both at a lane's tail and right behind its head. A lane
    # that kept them would grow with the op count. Inexact, so that every op
    # sets a client deadline.
    def peaks(op_count):
        topo = build_star_topology((4, 5, 6, 7, 8))
        sim = Simulator(topo, fault_script=INEXACT)
        cluster = Cluster(topo, sim, replication_factor=5,
                          fixed_read_level=ConsistencyLevel.QUORUM,
                          fixed_write_level=ConsistencyLevel.QUORUM)
        dispatch = sim.handler
        inflight = longest = 0

        def handler(sim, event):  # timers are only set inside handlers here
            nonlocal inflight, longest
            dispatch(sim, event)
            inflight = max(inflight, len(cluster._client_ops))
            longest = max(longest, *map(len, sim._lanes.values()))

        sim.handler = handler
        queries = generate_ops(WorkloadSpec(op_count=op_count, read_fraction=0.5, seed=3,
                                            clients=(WorkloadClient("c", (-100.0, 0.0)),)))
        assert len(run_queries(cluster, queries, open_loop_interval_ms=0.5)) == op_count
        return inflight, longest

    inflight, longest = peaks(3000)
    assert inflight > 20  # the ops do overlap
    assert longest <= inflight + 1
    assert peaks(6000) == (inflight, longest)


class Unprintable:
    def __str__(self):
        raise AssertionError("payload formatted with no trace sink attached")


def test_payloads_are_formatted_only_for_a_trace_sink():
    """With no sink, no event path stringifies a payload (drops included)."""
    def handler(sim, event):
        if event.kind == "timer":  # a is down by now, so this send is dropped at once
            sim.schedule_message("a", "b", Unprintable())

    sim = Simulator(pair_topology(), handler=handler,
                    fault_script=[FaultAction(3.0, "crash", node="a")])
    sim.schedule_message("a", "b", Unprintable())  # delivered at 5
    sim.schedule_message("b", "a", Unprintable())  # blocked at delivery: a crashed at 3
    sim.set_timer("a", 4.0, Unprintable())  # dropped: a is down when it fires
    sim.set_timer(None, 4.0, Unprintable())  # fires
    report = sim.run_until_quiescent()
    assert (report.messages_delivered, report.messages_dropped, report.timers_fired) == (1, 3, 1)


class TestFaultScriptLoader:
    def good_doc(self):
        return {
            "events": [
                {"at_ms": 10, "action": "crash", "node": "a"},
                {"at_ms": 20, "action": "recover", "node": "a"},
                {"at_ms": 30, "action": "partition", "group_a": ["a"], "group_b": ["b"]},
                {"at_ms": 40, "action": "heal"},
            ]
        }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps(self.good_doc()))
        script = load_fault_script(path)
        assert [a.action for a in script] == ["crash", "recover", "partition", "heal"]
        assert script[2].group_a == frozenset(["a"])

    def test_times_must_be_non_decreasing(self):
        doc = self.good_doc()
        doc["events"][1]["at_ms"] = 5
        with pytest.raises(ConfigError, match="non-decreasing"):
            fault_script_from_dict(doc)

    def test_unknown_action(self):
        doc = {"events": [{"at_ms": 0, "action": "meteor"}]}
        with pytest.raises(ConfigError, match="meteor"):
            fault_script_from_dict(doc)

    def test_partition_groups_must_be_disjoint(self):
        doc = {"events": [{"at_ms": 0, "action": "partition", "group_a": ["a"], "group_b": ["a"]}]}
        with pytest.raises(ConfigError, match="disjoint"):
            fault_script_from_dict(doc)

    def test_partition_groups_must_be_nonempty(self):
        doc = {"events": [{"at_ms": 0, "action": "partition", "group_a": [], "group_b": ["a"]}]}
        with pytest.raises(ConfigError, match="non-empty"):
            fault_script_from_dict(doc)

    def test_crash_needs_node(self):
        doc = {"events": [{"at_ms": 0, "action": "crash"}]}
        with pytest.raises(ConfigError, match="node"):
            fault_script_from_dict(doc)
