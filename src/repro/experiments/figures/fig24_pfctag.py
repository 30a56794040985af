"""Fig. 24 (Appendix B): comparison with "PFC w/ tag".

PFC w/ tag reacts to last-hop queue depth; Floodgate proactively
tracks in-flight packets.  Paper: comparable on a non-blocking fabric
(though PFC w/ tag burns an order of magnitude more VOQs), and
Floodgate clearly wins once the fabric is oversubscribed — the
reactive scheme's control loop starts at the last hop, too late when
the first-hop ToR is the congestion point.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.parallel import SweepTask, run_sweep
from repro.experiments.scenario import ScenarioConfig
from repro.units import gbps

WORKLOAD = "webserver"


def run(quick: bool = True) -> Dict:
    duration = 300_000 if quick else 1_000_000
    variants = (
        ("dcqcn", "none"),
        ("dcqcn+floodgate", "floodgate"),
        ("dcqcn+pfc w/ tag", "pfc-tag"),
    )
    topologies = {
        # non-blocking: 4 hosts x 10G  vs 1 x 40G uplink per ToR
        "non-blocking": dict(n_spines=1, fabric_bandwidth=gbps(40)),
        # 4:1 oversubscription: uplink capacity quartered
        "oversubscribed-4:1": dict(n_spines=1, fabric_bandwidth=gbps(10)),
    }
    tasks = [
        SweepTask(
            key=(topo_label, label),
            config=ScenarioConfig(
                flow_control=fc,
                workload=WORKLOAD,
                duration=duration,
                n_tors=3,
                hosts_per_tor=4,
                poisson_load=0.4 if topo_label.startswith("oversub") else 0.8,
                **topo_kw,
            ),
        )
        for topo_label, topo_kw in topologies.items()
        for label, fc in variants
    ]
    out: Dict = {}
    for (topo_label, label), r in run_sweep(tasks).items():
        s = r.poisson_fct
        out.setdefault(topo_label, {})[label] = {
            "avg_us": s.avg_us,
            "p99_us": s.p99_us,
            "max_voqs": r.max_voqs_used,
        }
    return out
