"""Table 2: total PFC pause time by node level under DCQCN.

The paper's table shows PFC triggered at the core under every
workload, and additionally at ToRs and hosts (a pause-frame storm)
under Web Server.  With Floodgate, PFC never triggers.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.figures.common import incastmix_base
from repro.experiments.parallel import SweepTask, run_sweep

WORKLOADS = ("memcached", "webserver")


def run(quick: bool = True) -> Dict:
    """Returns {variant: {workload: {level: paused_us}}}."""
    tasks = [
        SweepTask(
            key=(label, workload),
            config=incastmix_base(quick, workload, flow_control=fc),
        )
        for workload in WORKLOADS
        for label, fc in (("dcqcn", "none"), ("dcqcn+floodgate", "floodgate"))
    ]
    out: Dict = {"dcqcn": {}, "dcqcn+floodgate": {}}
    for (label, workload), r in run_sweep(tasks).items():
        out[label][workload] = {
            "host_us": r.pfc_paused_us("host"),
            "tor_us": r.pfc_paused_us("tor"),
            "core_us": r.pfc_paused_us("core"),
            "events": r.stats.pfc_pause_events,
        }
    return out
