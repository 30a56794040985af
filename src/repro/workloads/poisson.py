"""Poisson-arrival background traffic.

Flows arrive network-wide as a Poisson process whose rate realizes a
target *load* (fraction of aggregate host bandwidth), with sizes drawn
from a workload distribution and uniformly random (src, dst) pairs —
the paper's non-incast traffic model (§6, "a load of 0.8").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.workloads.distributions import WORKLOADS, FlowSizeDistribution


@dataclass(frozen=True)
class FlowSpec:
    """A flow to be injected: everything but its runtime state."""

    flow_id: int
    src: int
    dst: int
    size: int
    start_time: int


def poisson_flows(
    distribution: FlowSizeDistribution,
    hosts: Sequence[int],
    host_bandwidth: float,
    load: float,
    rng: random.Random,
    duration: int,
) -> List[FlowSpec]:
    """Every flow arriving in ``[0, duration)`` between two of ``hosts``,
    ids from 0.

    Load is defined against the hosts' aggregate NIC bandwidth, matching
    the conventional definition used by the paper and the HPCC artifact.
    """
    if len(hosts) < 2:
        raise ValueError("need at least two hosts for traffic")
    # lambda (flows/ns): load * aggregate_bw / (8 * mean_size)
    aggregate_bps = host_bandwidth * len(hosts)
    arrival_rate = load * aggregate_bps / (8.0 * distribution.mean() * 1e9)
    flows: List[FlowSpec] = []
    t = 0.0
    while True:
        t += rng.expovariate(arrival_rate)
        if t >= duration:
            return flows
        src = rng.choice(hosts)
        dst = rng.choice(hosts)
        while dst == src:
            dst = rng.choice(hosts)
        flows.append(
            FlowSpec(len(flows), src, dst, distribution.sample(rng), int(t))
        )


def poisson_traffic(scenario) -> List[FlowSpec]:
    """``pattern="poisson"``: Poisson arrivals among all hosts, unlabelled."""
    cfg = scenario.config
    return poisson_flows(
        WORKLOADS[cfg.workload],
        [h.node_id for h in scenario.topology.hosts],
        cfg.host_bandwidth,
        cfg.poisson_load,
        scenario.rng.stream("workload"),
        cfg.duration,
    )
