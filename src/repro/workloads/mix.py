"""The *incastmix* scenario composer (§6.1).

Combines periodic incast with Poisson background traffic and labels
every flow with the class the paper's analysis uses:

* incast flows themselves;
* *victims of incast* — Poisson flows whose destination shares a ToR
  with the incast destination (they queue behind incast at the last
  aggregation point);
* *victims of PFC* — all other Poisson flows (hurt only when PFC
  pause storms spread congestion).

Poisson traffic runs among every host but the incast destination,
matching "non-incast Poisson arrival flows are transmitted among
hosts except for the destination host of incast" (§5.2).
"""

from __future__ import annotations

from typing import List

from repro.stats.collector import FlowClass
from repro.workloads.distributions import WORKLOADS
from repro.workloads.incast import periodic_incast
from repro.workloads.poisson import FlowSpec, poisson_flows


def incastmix_traffic(scenario) -> List[FlowSpec]:
    """``pattern="incastmix"``: Poisson flows (ids from 0), then the
    incast bursts, on one stream; every flow labelled on the hub."""
    cfg = scenario.config
    dst = cfg.incast_dst
    rng = scenario.rng.stream("workload")
    poisson = poisson_flows(
        WORKLOADS[cfg.workload],
        [h.node_id for h in scenario.topology.hosts if h.node_id != dst],
        cfg.host_bandwidth,
        cfg.poisson_load,
        rng,
        cfg.duration,
    )
    incast = periodic_incast(
        senders=scenario.incast_senders(),
        dst=dst,
        host_bandwidth=cfg.host_bandwidth,
        duration=cfg.duration,
        rng=rng,
        load=cfg.incast_load,
        first_flow_id=len(poisson),
    )
    label = scenario.stats.register_flow_class
    for spec in incast:
        label(spec.flow_id, FlowClass.INCAST)
    rack_of = scenario.rack_of()
    for spec in poisson:
        if rack_of[spec.dst] == rack_of[dst]:
            label(spec.flow_id, FlowClass.VICTIM_INCAST)
        else:
            label(spec.flow_id, FlowClass.VICTIM_PFC)
    return sorted(incast + poisson, key=lambda s: s.start_time)
