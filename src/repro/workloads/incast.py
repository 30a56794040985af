"""Incast traffic patterns.

Three shapes from the evaluation:

* :func:`periodic_incast` — the §6 default: bursts of ``fan_in``
  synchronized flows (30-40 MTU each) to one fixed destination,
  repeating at an interval that realizes a target load on the
  destination host (0.5 by default).  A ``duration`` shorter than
  that interval leaves exactly one burst: Fig. 14's all-to-one
  ToR scale-up;
* :func:`successive_incast` — repeated all-to-one rounds, round *i*
  targeting host *i* (Fig. 15);
* :func:`staggered_flows` — long flows to one receiver arriving one
  at a time, spaced for congestion control to converge in between
  (Fig. 16).
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.stats.collector import FlowClass
from repro.units import MTU
from repro.workloads.poisson import FlowSpec

#: ns between the rounds of ``pattern="successive"``: back to back, so
#: backlogs stack
SUCCESSIVE_INTERVAL = 20_000
#: ns between the arrivals of ``pattern="staggered"``: room to converge
STAGGERED_INTERVAL = 40_000
#: bytes per staggered flow: long-lived, still sending at the horizon
STAGGERED_FLOW_SIZE = 400_000


def _incast_size(rng: random.Random) -> int:
    """Paper §6: incast flow sizes uniform between 30 and 40 MTU."""
    return rng.randint(30, 40) * MTU


def periodic_incast(
    senders: Sequence[int],
    dst: int,
    host_bandwidth: float,
    duration: int,
    rng: random.Random,
    load: float = 0.5,
    first_flow_id: int = 0,
) -> List[FlowSpec]:
    """Synchronized bursts to ``dst`` at an average destination load,
    the first at t=0.

    Each burst has every sender transmit one 30-40 MTU flow at the
    same instant; the burst interval is sized so the destination
    host's average offered load equals ``load``.
    """
    if not senders:
        raise ValueError("an incast needs at least one sender")
    mean_burst_bytes = len(senders) * 35 * MTU
    interval = int(mean_burst_bytes * 8 / (load * host_bandwidth) * 1e9)
    flows: List[FlowSpec] = []
    fid = first_flow_id
    t = 0
    while t < duration:
        for src in senders:
            flows.append(FlowSpec(fid, src, dst, _incast_size(rng), t))
            fid += 1
        t += interval
    return flows


def successive_incast(
    hosts: Sequence[int],
    duration: int,
    rng: random.Random,
) -> List[FlowSpec]:
    """Back-to-back all-to-one rounds walking the host list (Fig. 15).

    Round ``i`` starts at ``i * SUCCESSIVE_INTERVAL`` (while that is inside
    ``duration``) and targets ``hosts[i % len(hosts)]``; every other
    host sends it one 30-40 MTU flow.
    """
    flows: List[FlowSpec] = []
    for i, t in enumerate(range(0, duration, SUCCESSIVE_INTERVAL)):
        dst = hosts[i % len(hosts)]
        for src in hosts:
            if src != dst:
                flows.append(FlowSpec(len(flows), src, dst, _incast_size(rng), t))
    return flows


def staggered_flows(hosts: Sequence[int], dst: int, duration: int) -> List[FlowSpec]:
    """One 400 KB flow to ``dst`` every 40 us over ``duration`` (Fig. 16).

    Flow ``i`` comes from the ``i``-th of the other hosts, in rotation.
    Deterministic: the sizes are fixed, so no RNG is drawn.
    """
    sources = [h for h in hosts if h != dst]
    return [
        FlowSpec(i, sources[i % len(sources)], dst, STAGGERED_FLOW_SIZE, t)
        for i, t in enumerate(range(0, duration, STAGGERED_INTERVAL))
    ]


def _label_incast(scenario, flows: List[FlowSpec]) -> List[FlowSpec]:
    """Label every one of ``flows`` ``INCAST`` on the hub; return them."""
    for spec in flows:
        scenario.stats.register_flow_class(spec.flow_id, FlowClass.INCAST)
    return flows


def incast_traffic(scenario) -> List[FlowSpec]:
    """``pattern="incast"``: periodic bursts to ``incast_dst``, all incast."""
    cfg = scenario.config
    return _label_incast(scenario, periodic_incast(
        senders=scenario.incast_senders(),
        dst=cfg.incast_dst,
        host_bandwidth=cfg.host_bandwidth,
        duration=cfg.duration,
        rng=scenario.rng.stream("workload"),
        load=cfg.incast_load,
    ))


def successive_traffic(scenario) -> List[FlowSpec]:
    """``pattern="successive"``: one round per host in turn, all incast."""
    hosts = [h.node_id for h in scenario.topology.hosts]
    rng = scenario.rng.stream("workload")
    return _label_incast(
        scenario, successive_incast(hosts, scenario.config.duration, rng)
    )


def staggered_traffic(scenario) -> List[FlowSpec]:
    """``pattern="staggered"``: one long flow after another to
    ``incast_dst``, unlabelled."""
    hosts = [h.node_id for h in scenario.topology.hosts]
    cfg = scenario.config
    return staggered_flows(hosts, cfg.incast_dst, cfg.duration)
