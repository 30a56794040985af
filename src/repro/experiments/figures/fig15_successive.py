"""Fig. 15: successive incasts and the per-dst PAUSE trade-off (§6.3).

All-to-one incast rounds are generated back to back (one every 20 us,
so backlogs stack), round *i* targeting host *i* — the destinations
walk the host list, so the quick scale's 2 / 4 rounds all land in the
first rack (4 hosts); the full scale's 8 / 16 rounds reach two and
all four racks.  DCQCN fills the destination ToR and core buffers and
eventually storms PFC; Floodgate's source-ToR (ToR-Up) occupancy grows
with the number of rounds (it is the gate-keeper); Floodgate with
per-dst PAUSE pushes the backlog all the way into the source hosts,
keeping all switch buffers tiny.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.parallel import SweepTask, run_sweep
from repro.experiments.scenario import ScenarioConfig
from repro.workloads.incast import SUCCESSIVE_INTERVAL

#: incast rounds swept at bench (quick) and paper (full) scale
QUICK_ROUND_COUNTS = (2, 4)
FULL_ROUND_COUNTS = (4, 8, 16)


def tasks(quick: bool = True) -> List[SweepTask]:
    variants = (
        ("dcqcn", "none", False),
        ("dcqcn+floodgate", "floodgate", False),
        ("dcqcn+floodgate(per-dst pause)", "floodgate", True),
    )
    return [
        SweepTask(
            key=(label, rounds),
            config=ScenarioConfig(
                pattern="successive",
                flow_control=fc,
                per_dst_pause=pause,
                n_tors=3 if quick else 4,
                hosts_per_tor=4,
                # one round per interval over the duration
                duration=rounds * SUCCESSIVE_INTERVAL,
                max_runtime_factor=60.0,
                # short host links: the dstPause control loop is one
                # hop and must be fast relative to a burst (as at the
                # paper's 100 Gbps scale); swnd_bdp=4 keeps incast
                # flows whole-window "blasts" despite the smaller BDP
                host_link_delay=1_000,
                swnd_bdp=4.0,
            ),
        )
        for label, fc, pause in variants
        for rounds in (QUICK_ROUND_COUNTS if quick else FULL_ROUND_COUNTS)
    ]


def run(quick: bool = True) -> Dict:
    out: Dict = {}
    for (label, rounds), r in run_sweep(tasks(quick)).items():
        out.setdefault(label, {})[rounds] = {
            "tor-up_mb": r.max_port_buffer_mb("tor-up"),
            "core_mb": r.max_port_buffer_mb("core"),
            "tor-down_mb": r.max_port_buffer_mb("tor-down"),
            "pfc_events": r.stats.pfc_pause_events,
            "completion": r.completion_rate,
        }
    return out
