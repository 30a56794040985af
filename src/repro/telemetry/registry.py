"""Telemetry configuration and the streaming histogram.

:class:`TelemetryConfig` turns recording on; :class:`Histogram`
is the one instrument with state of its own, installed on the
:class:`~repro.stats.collector.StatsHub` and fed behind is-None checks.
Everything else the export carries is read off the hub (its declared
counters) or polled by the samplers: there is no separate instrument
namespace.  All values are integers or strings, so a snapshot is
deterministic across processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.units import us


@dataclass(frozen=True)
class TelemetryConfig:
    """Turns recording on; part of :class:`ScenarioConfig`.

    A recorded run always carries the throughput, buffer and counter
    series, the end-of-run counters and the FCT / queueing / rpc
    histograms; only the sampling period and the engine profile vary.
    Frozen so it hashes into the sweep cache key: a cached run
    can only serve requests that asked for the same telemetry.
    """

    #: sampling period for all periodic samplers, ns
    interval: int = us(20)
    #: engine profile: per-callback event counts, heap depth
    engine_profile: bool = True

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"interval must be positive, got {self.interval}")


class Histogram:
    """Streaming histogram with power-of-two bins.

    ``observe(v)`` is O(1) and allocation-free after the first hit per
    bin; bin ``i`` covers ``[2**(i-1), 2**i)`` with bin 0 holding
    values <= 0 ... 1.  Bin edges depend only on the values observed,
    never on observation order or wall clock, so two runs that observe
    the same multiset export identical histograms.
    """

    __slots__ = ("name", "unit", "counts", "total", "sum", "min", "max")

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        #: bin index -> count (sparse; only touched bins exist)
        self.counts: Dict[int, int] = {}
        self.total = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, value: int) -> None:
        idx = int(value).bit_length() if value > 0 else 0
        self.counts[idx] = self.counts.get(idx, 0) + 1
        self.total += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge_from(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one.

        Power-of-two bins make the merge exact: a value lands in the
        same bin no matter which domain observed it, so summing bin
        counts reproduces the histogram a single observer would have
        built.  Used by the sharded executors to combine per-domain
        telemetry (:meth:`repro.stats.collector.StatsHub.merge_from`).
        """
        for idx, count in other.counts.items():
            self.counts[idx] = self.counts.get(idx, 0) + count
        self.total += other.total
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def bins(self) -> List[Tuple[int, int]]:
        """Sorted ``(upper_edge, count)`` pairs for the touched bins."""
        return [(1 << i if i else 1, c) for i, c in sorted(self.counts.items())]

    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

