"""Flow-completion-time records and summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence


@dataclass(frozen=True)
class FctRecord:
    """One finished flow.

    ``fct`` is receiver-side completion: time from the flow's start
    until the last byte arrived at the destination host.
    """

    flow_id: int
    src: int
    dst: int
    size: int
    start_time: int
    finish_time: int

    @property
    def fct(self) -> int:
        return self.finish_time - self.start_time

    @property
    def fct_ms(self) -> float:
        return self.fct / 1_000_000.0


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile on an already-sorted sequence."""
    if not sorted_values:
        return 0.0
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass(frozen=True)
class FctSummary:
    """Average / tail statistics over a set of flows."""

    count: int
    avg_ns: float
    p50_ns: float
    p99_ns: float
    max_ns: float

    @property
    def avg_us(self) -> float:
        return self.avg_ns / 1_000.0

    @property
    def p99_us(self) -> float:
        return self.p99_ns / 1_000.0


def summarize_fct(records: Iterable[FctRecord]) -> FctSummary:
    """Avg / median / p99 / max FCT over ``records``."""
    values: List[float] = sorted(r.fct for r in records)
    if not values:
        return FctSummary(0, 0.0, 0.0, 0.0, 0.0)
    return FctSummary(
        count=len(values),
        avg_ns=sum(values) / len(values),
        p50_ns=percentile(values, 50.0),
        p99_ns=percentile(values, 99.0),
        max_ns=values[-1],
    )


def fct_cdf(records: Iterable[FctRecord]) -> List[tuple[float, float]]:
    """Empirical CDF of FCTs as ``(fct_ms, fraction)`` points."""
    values = sorted(r.fct_ms for r in records)
    n = len(values)
    return [(v, (i + 1) / n) for i, v in enumerate(values)]
