"""Fig. 14: buffer occupancy as the number of ToRs scales up (§6.2).

Pure incast: every host outside the destination's rack sends one
30-40 MTU flow to the first host, all at once.  For DCQCN the
destination ToR's buffer grows proportionally to the number of flows;
Floodgate stays stable (the delayCredit mechanism keeps even the core's
share bounded as more ToRs contribute).

The burst is ``pattern="incast"`` with a ``duration`` shorter than the
burst interval (448 us at 8 senders, longer with more), so exactly one
burst is generated, at t=0.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.parallel import SweepTask, run_sweep
from repro.experiments.scenario import ScenarioConfig

HOSTS_PER_TOR = 4
#: ToR counts swept at bench (quick) and paper (full) scale
QUICK_TOR_COUNTS = (3, 6)
FULL_TOR_COUNTS = (4, 8, 12, 16)


def tasks(quick: bool = True) -> List[SweepTask]:
    variants = (("dcqcn", "none"), ("dcqcn+floodgate", "floodgate"))
    return [
        SweepTask(
            key=(label, n_tors),
            config=ScenarioConfig(
                pattern="incast",
                incast_dst=0,
                flow_control=fc,
                n_tors=n_tors,
                hosts_per_tor=HOSTS_PER_TOR,
                duration=200_000,
                max_runtime_factor=40.0,
            ),
        )
        for label, fc in variants
        for n_tors in (QUICK_TOR_COUNTS if quick else FULL_TOR_COUNTS)
    ]


def run(quick: bool = True) -> Dict:
    out: Dict = {}
    for (label, n_tors), r in run_sweep(tasks(quick)).items():
        expected = (n_tors - 1) * HOSTS_PER_TOR
        if r.total_flows != expected:
            raise RuntimeError(
                f"{n_tors} ToRs: expected one burst of {expected} flows, got "
                f"{r.total_flows} (a second burst fits in the duration?)"
            )
        out.setdefault(label, {})[n_tors] = {
            "tor-up_mb": r.max_port_buffer_mb("tor-up"),
            "core_mb": r.max_port_buffer_mb("core"),
            "tor-down_mb": r.max_port_buffer_mb("tor-down"),
            "n_flows": r.total_flows,
            "pfc_events": r.stats.pfc_pause_events,
            "completion": r.completion_rate,
        }
    return out
