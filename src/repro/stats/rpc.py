"""Request-level latency records and SLO summaries.

A *request* is one closed-loop RPC: a client sprays ``fan_out`` shard
queries and the request completes when the **last** response's final
byte arrives back at the client (fan-in completion).  Request latency
is therefore a max over the shard round-trips — the user-facing number
the paper's incast scenarios degrade — and is summarized at the SLO
percentiles (p50/p99/p999) rather than the flow percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.stats.fct import percentile


@dataclass(frozen=True)
class RpcRecord:
    """One completed closed-loop request (all fan-in responses landed)."""

    request_id: int
    client: int
    fan_out: int
    start_time: int
    finish_time: int

    @property
    def latency(self) -> int:
        return self.finish_time - self.start_time


@dataclass(frozen=True)
class RpcSummary:
    """SLO-percentile statistics over a set of completed requests."""

    count: int
    avg_ns: float
    p50_ns: float
    p99_ns: float
    p999_ns: float
    max_ns: float

    @property
    def avg_us(self) -> float:
        return self.avg_ns / 1_000.0

    @property
    def p99_us(self) -> float:
        return self.p99_ns / 1_000.0

    @property
    def p999_us(self) -> float:
        return self.p999_ns / 1_000.0


def summarize_rpc(records: Iterable[RpcRecord]) -> RpcSummary:
    """Avg / p50 / p99 / p999 / max request latency over ``records``."""
    values: List[float] = sorted(r.latency for r in records)
    if not values:
        return RpcSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return RpcSummary(
        count=len(values),
        avg_ns=sum(values) / len(values),
        p50_ns=percentile(values, 50.0),
        p99_ns=percentile(values, 99.0),
        p999_ns=percentile(values, 99.9),
        max_ns=values[-1],
    )


def requests_per_sec(count: int, sim_time_ns: int) -> float:
    """Achieved request throughput over a simulated window."""
    if sim_time_ns <= 0:
        return 0.0
    return count / (sim_time_ns / 1_000_000_000.0)
