"""Poisson-arrival background traffic.

Flows arrive network-wide as a Poisson process whose rate realizes a
target *load* (fraction of aggregate host bandwidth), with sizes drawn
from a workload distribution and uniformly random (src, dst) pairs —
the paper's non-incast traffic model (§6, "a load of 0.8").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.workloads.distributions import WORKLOADS, FlowSizeDistribution


@dataclass(frozen=True)
class FlowSpec:
    """A flow to be injected: everything but its runtime state."""

    flow_id: int
    src: int
    dst: int
    size: int
    start_time: int


class PoissonGenerator:
    """Pre-generates a Poisson flow schedule.

    ``hosts`` are candidate sources; ``dst_hosts`` candidate
    destinations (defaults to ``hosts``).  Load is defined against the
    sources' aggregate NIC bandwidth, matching the conventional
    definition used by the paper and the HPCC artifact.
    """

    def __init__(
        self,
        distribution: FlowSizeDistribution,
        hosts: Sequence[int],
        host_bandwidth: float,
        load: float,
        rng: random.Random,
        dst_hosts: Optional[Sequence[int]] = None,
        first_flow_id: int = 0,
    ) -> None:
        if not 0.0 < load < 1.5:
            raise ValueError(f"load should be in (0, 1.5), got {load}")
        if len(hosts) < 2:
            raise ValueError("need at least two hosts for traffic")
        self.distribution = distribution
        self.hosts = list(hosts)
        self.dst_hosts = list(dst_hosts) if dst_hosts is not None else list(hosts)
        self.load = load
        self.rng = rng
        self.next_flow_id = first_flow_id
        # lambda (flows/ns): load * aggregate_bw / (8 * mean_size)
        mean_size = distribution.mean()
        aggregate_bps = host_bandwidth * len(self.hosts)
        self.arrival_rate = load * aggregate_bps / (8.0 * mean_size * 1e9)

    def generate(self, duration: int) -> List[FlowSpec]:
        """All flows arriving in ``[0, duration)``."""
        flows: List[FlowSpec] = []
        t = 0.0
        rng = self.rng
        while True:
            t += rng.expovariate(self.arrival_rate)
            if t >= duration:
                break
            src = rng.choice(self.hosts)
            dst = rng.choice(self.dst_hosts)
            while dst == src:
                dst = rng.choice(self.dst_hosts)
            flows.append(
                FlowSpec(
                    self.next_flow_id,
                    src,
                    dst,
                    self.distribution.sample(rng),
                    int(t),
                )
            )
            self.next_flow_id += 1
        return flows


def poisson_traffic(scenario) -> List[FlowSpec]:
    """``pattern="poisson"``: Poisson arrivals among all hosts."""
    cfg = scenario.config
    return PoissonGenerator(
        WORKLOADS[cfg.workload],
        [h.node_id for h in scenario.topology.hosts],
        cfg.host_bandwidth,
        cfg.poisson_load,
        scenario.rng.stream("workload"),
    ).generate(cfg.duration)
