"""Output checks and outcome counts, computed from outside the program.

``CellCheck`` looks at one ``run_queries`` call: the queries in op order,
the callbacks that fired, and the cluster at quiescence. It verifies that
every op got exactly one callback, folds each op's outcome into the run's
digest, and counts what the end-to-end metrics need:

* stale reads, after PBS (Bailis et al., VLDB 2012): a successful read that
  returned ``not_found`` for a key whose CREATE was acknowledged no later
  than the read was issued;
* diverged keys, as in Dynamo's anti-entropy setting (DeCandia et al.,
  SOSP 2007): keys whose live replicas disagree at quiescence.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

SUCCESS = ("ok", "not_found")
REPLICA_MESSAGES = ("ReadReq", "ReadResp", "WriteReq", "WriteAck")


def issue_times(latencies: list[float], open_loop_interval_ms: float | None) -> list[float]:
    """Simulated issue time of each op, in op order.

    Open loop: op ``i`` is issued at its slot ``i * interval``. Closed loop:
    each op is issued the instant the previous one completed.
    """
    if open_loop_interval_ms is not None:
        return [i * open_loop_interval_ms for i in range(len(latencies))]
    times, now = [], 0.0
    for latency in latencies:
        times.append(now)
        now += latency
    return times


def count_stale_reads(ops: list, issued_ms: list[float]) -> tuple[int, int]:
    """(stale reads, successful reads) over ``(query, result)`` pairs in op order."""
    acked: dict[str, float] = {}
    for (query, result), at in zip(ops, issued_ms):
        if query.kind.value == "create" and result.status == "ok":
            acked[query.key] = at + result.latency_ms
    stale = reads = 0
    for (query, result), at in zip(ops, issued_ms):
        if query.kind.value == "read" and result.status in SUCCESS:
            reads += 1
            if result.status == "not_found" and acked.get(query.key, math.inf) <= at:
                stale += 1
    return stale, reads


@dataclass
class CellCheck:
    """Totals over the cells of one repetition; ``add`` folds in one cell."""

    ops: int = 0
    completed: int = 0
    missing: int = 0
    duplicate: int = 0
    unknown: int = 0
    succeeded: int = 0
    timeouts: int = 0
    reads: int = 0
    stale_reads: int = 0
    keys: int = 0
    diverged_keys: int = 0
    acks: int = 0
    events: int = 0
    delivered: int = 0
    dropped: int = 0
    timers_fired: int = 0
    levels: Counter = field(default_factory=Counter)
    latency: dict = field(default_factory=lambda: {"read": [], "write": []})

    def add(self, cluster, queries, results, open_loop_interval_ms, digest) -> None:
        """Check one ``run_queries`` call and update ``digest`` in op order."""
        index = {id(query): i for i, query in enumerate(queries)}
        outcome: list = [None] * len(queries)
        calls = [0] * len(queries)
        for query, result in results:
            i = index.get(id(query))
            if i is None:
                self.unknown += 1
                continue
            calls[i] += 1
            outcome[i] = result
        self.ops += len(queries)
        self.completed += len(results)
        self.missing += calls.count(0)
        self.duplicate += sum(c - 1 for c in calls if c > 1)

        answered = []
        for query, result in zip(queries, outcome):
            if result is None:
                digest.update(b"missing\n")
                continue
            digest.update(f"{result.status}|{result.value}|{result.error}|"
                          f"{result.latency_ms!r}\n".encode())
            answered.append((query, result))
            self.acks += result.acks_received
            self.levels[result.level_used.value if result.level_used else "none"] += 1
            if result.status in SUCCESS:
                self.succeeded += 1
                direction = "read" if query.kind.value == "read" else "write"
                self.latency[direction].append(result.latency_ms)
            elif result.error == "timeout":
                self.timeouts += 1
        if len(answered) == len(queries):
            issued = issue_times([r.latency_ms for _, r in answered], open_loop_interval_ms)
            stale, reads = count_stale_reads(answered, issued)
            self.stale_reads += stale
            self.reads += reads
        self.keys += len(cluster.control.maps)
        self.diverged_keys += len(cluster.convergence_violations())
        report = cluster.sim.report
        self.events += report.events_processed
        self.delivered += report.messages_delivered
        self.dropped += report.messages_dropped
        self.timers_fired += report.timers_fired

    @property
    def callback_errors(self) -> int:
        """Ops without a callback, extra callbacks, and callbacks for unknown queries."""
        return self.missing + self.duplicate + self.unknown
