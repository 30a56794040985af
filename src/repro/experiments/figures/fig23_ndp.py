"""Fig. 23 (Appendix B): comparison with NDP under incastmix.

Paper: NDP beats DCQCN (shallow queues from trimming) but loses to
DCQCN+Floodgate for non-incast flows — trimming hits innocent flows
once incast has depleted the queue to the cut-payload threshold, and
retransmissions cost at least an RTT.  NDP also *prolongs* incast
flows because trimmed headers consume significant bottleneck
bandwidth.

NDP's trim count is the hub's ``ndp.trimmed_packets`` extension
counter (collected from the switch extensions at the end of the run).
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.figures.common import incastmix_base
from repro.experiments.parallel import SweepTask, run_sweep

WORKLOADS = ("memcached",)


def run(quick: bool = True) -> Dict:
    variants = (
        ("dcqcn", "dcqcn", "none"),
        ("dcqcn+floodgate", "dcqcn", "floodgate"),
        ("ndp", "static", "ndp"),
    )
    tasks = [
        SweepTask(
            key=(workload, label),
            config=incastmix_base(quick, workload, cc=cc, flow_control=fc),
        )
        for workload in WORKLOADS
        for label, cc, fc in variants
    ]
    out: Dict = {}
    for (workload, label), r in run_sweep(tasks).items():
        p, i = r.poisson_fct, r.incast_fct
        trimmed = r.stats.extension_counters.get("ndp.trimmed_packets", 0)
        out.setdefault(workload, {})[label] = {
            "nonincast_avg_us": p.avg_us,
            "nonincast_p99_us": p.p99_us,
            "incast_avg_us": i.avg_us,
            "incast_p99_us": i.p99_us,
            "trimmed_packets": trimmed,
        }
    return out
