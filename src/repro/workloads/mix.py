"""The *incastmix* scenario composer (§6.1).

Combines periodic incast with Poisson background traffic and labels
every flow with the class the paper's analysis uses:

* incast flows themselves;
* *victims of incast* — Poisson flows whose destination shares a ToR
  with the incast destination (they queue behind incast at the last
  aggregation point);
* *victims of PFC* — all other Poisson flows (hurt only when PFC
  pause storms spread congestion).

Poisson destinations exclude the incast destination host itself,
matching "non-incast Poisson arrival flows are transmitted among
hosts except for the destination host of incast" (§5.2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.stats.collector import FlowClass, StatsHub
from repro.workloads.distributions import WORKLOADS, FlowSizeDistribution
from repro.workloads.incast import IncastSpec, periodic_incast
from repro.workloads.poisson import FlowSpec, PoissonGenerator


@dataclass
class IncastMix:
    """Generated incastmix traffic: flows plus class labels."""

    flows: List[FlowSpec] = field(default_factory=list)
    classes: Dict[int, FlowClass] = field(default_factory=dict)
    incast_dst: int = -1

    def register(self, stats: StatsHub) -> None:
        """Install the class labels into a stats hub."""
        for flow_id, cls in self.classes.items():
            stats.register_flow_class(flow_id, cls)


def classify_flows(
    poisson_flows: Sequence[FlowSpec],
    incast: IncastSpec,
    incast_rack_hosts: Sequence[int],
) -> IncastMix:
    """Label flows per the paper's three classes."""
    mix = IncastMix()
    mix.incast_dst = incast.destinations[0]
    rack = set(incast_rack_hosts)
    for spec in incast.flows:
        mix.flows.append(spec)
        mix.classes[spec.flow_id] = FlowClass.INCAST
    for spec in poisson_flows:
        mix.flows.append(spec)
        if spec.dst in rack:
            mix.classes[spec.flow_id] = FlowClass.VICTIM_INCAST
        else:
            mix.classes[spec.flow_id] = FlowClass.VICTIM_PFC
    mix.flows.sort(key=lambda s: s.start_time)
    return mix


def build_incastmix(
    distribution: FlowSizeDistribution,
    hosts: Sequence[int],
    rack_of: Dict[int, int],
    incast_dst: int,
    incast_senders: Sequence[int],
    host_bandwidth: float,
    duration: int,
    rng: random.Random,
    poisson_load: float = 0.8,
    incast_load: float = 0.5,
) -> IncastMix:
    """The full §6.1 scenario.

    ``rack_of`` maps host id -> rack index (used both to exclude the
    incast destination from Poisson traffic and to find its rack mates
    for victim classification).
    """
    poisson_eligible = [h for h in hosts if h != incast_dst]
    poisson = PoissonGenerator(
        distribution,
        hosts=poisson_eligible,
        host_bandwidth=host_bandwidth,
        load=poisson_load,
        rng=rng,
        dst_hosts=poisson_eligible,
        first_flow_id=0,
    )
    poisson_flows = poisson.generate(duration)
    incast = periodic_incast(
        senders=incast_senders,
        dst=incast_dst,
        host_bandwidth=host_bandwidth,
        duration=duration,
        rng=rng,
        load=incast_load,
        first_flow_id=poisson.next_flow_id,
    )
    incast_rack = [
        h for h in hosts if rack_of[h] == rack_of[incast_dst] and h != incast_dst
    ]
    return classify_flows(poisson_flows, incast, incast_rack)


def incastmix_traffic(scenario) -> List[FlowSpec]:
    """``pattern="incastmix"``: the §6.1 mix, its labels on the hub."""
    cfg = scenario.config
    mix = scenario.mix = build_incastmix(
        WORKLOADS[cfg.workload],
        [h.node_id for h in scenario.topology.hosts],
        scenario.rack_of(),
        incast_dst=cfg.incast_dst,
        incast_senders=scenario.incast_senders(),
        host_bandwidth=cfg.host_bandwidth,
        duration=cfg.duration,
        rng=scenario.rng.stream("workload"),
        poisson_load=cfg.poisson_load,
        incast_load=cfg.incast_load,
    )
    mix.register(scenario.stats)
    return mix.flows
