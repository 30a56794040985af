"""Fig. 6: the testbed experiment (§5.2).

One core, three ToRs, two hosts each (10G host / 20G core links).
Four cross-rack senders incast one destination host while Poisson
flows run among the other hosts.  Hosts use the static per-flow
sending window (the testbed's stand-in for DCQCN's first RTT).

Paper numbers: Floodgate cuts non-incast avg FCT 30.6 % and p99 by
1.6x; max buffer on ToR-Down / Core drops 17.2x / 1.8x.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.figures.common import LEAF_SPINE_ROLES, run_variants
from repro.experiments.scenario import ScenarioConfig
from repro.units import gbps


def run(quick: bool = True) -> Dict:
    duration = 400_000 if quick else 2_000_000
    base = ScenarioConfig(
        topology="testbed",
        cc="static",
        workload="webserver",
        pattern="incastmix",
        host_bandwidth=gbps(10),
        fabric_bandwidth=gbps(20),
        host_link_delay=6_000,
        link_delay=500,
        buffer_bytes=100_000,
        duration=duration,
        # two bursts of the testbed's 4 senders per incast round keeps
        # the burst-to-buffer ratio of the paper's 45 KB-BDP testbed
        incast_fan_in=8,
        incast_load=0.8,
        incast_dst=0,
    )
    results = run_variants(
        base, variants={"w/o floodgate": "none", "w/ floodgate": "floodgate"}
    )
    out: Dict = {"fct": {}, "buffers": {}}
    for label, r in results.items():
        s = r.poisson_fct
        out["fct"][label] = {"avg_us": s.avg_us, "p99_us": s.p99_us}
        out["buffers"][label] = r.per_hop_buffers_mb(LEAF_SPINE_ROLES)
    base_fct = out["fct"]["w/o floodgate"]
    fg_fct = out["fct"]["w/ floodgate"]
    out["avg_reduction_pct"] = (
        100.0 * (1 - fg_fct["avg_us"] / base_fct["avg_us"])
        if base_fct["avg_us"]
        else 0.0
    )
    bd = out["buffers"]
    out["tor_down_factor"] = (
        bd["w/o floodgate"]["tor-down"] / bd["w/ floodgate"]["tor-down"]
        if bd["w/ floodgate"]["tor-down"]
        else float("inf")
    )
    return out
