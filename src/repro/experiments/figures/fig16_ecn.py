"""Fig. 16: convergence under different ECN-marking thresholds (§6.4).

Flows to one receiver arrive periodically, spaced far enough apart for
congestion control to converge between arrivals.  Two observations
the paper draws:

* DCQCN's destination-ToR buffer cannot converge — every flow keeps
  at least one packet in flight, so occupancy grows with the flow
  count past the ``Kmax`` inflection;
* Floodgate's buffer converges to a level set by its initial window
  and topology, insensitive to the ECN thresholds.

The buffer is the telemetry export's ``buffer_bytes.tor0`` series,
sampled every 10 us.  Every flow of the run ends at the first host, so
every packet buffered at its ToR (``tor0``) waits for that one
downlink: the switch's occupancy *is* the destination port's.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List

from repro.experiments.parallel import SweepTask, run_sweep
from repro.experiments.scenario import ScenarioConfig
from repro.telemetry.registry import TelemetryConfig
from repro.units import us
from repro.workloads.incast import STAGGERED_INTERVAL

#: flows arriving over the run at bench (quick) and paper (full) scale
QUICK_N_FLOWS = 24
FULL_N_FLOWS = 80
#: the (Kmin, Kmax) ECN thresholds compared, in bytes
ECN_SETTINGS = ((20_000, 80_000), (20_000, 20_000))


def tasks(quick: bool = True) -> List[SweepTask]:
    n_flows = QUICK_N_FLOWS if quick else FULL_N_FLOWS
    variants = (
        ("dcqcn", "none"),
        ("dcqcn+ideal", "floodgate-ideal"),
        ("dcqcn+floodgate", "floodgate"),
    )
    return [
        SweepTask(
            key=(kmin, kmax, label),
            config=ScenarioConfig(
                # one long-lived flow per interval, all to the first host
                pattern="staggered",
                incast_dst=0,
                flow_control=fc,
                ecn_kmin=kmin,
                ecn_kmax=kmax,
                n_tors=3,
                hosts_per_tor=4,
                duration=n_flows * STAGGERED_INTERVAL,
                max_runtime_factor=30.0,
                telemetry=TelemetryConfig(
                    interval=us(10), engine_profile=False
                ),
            ),
        )
        for kmin, kmax in ECN_SETTINGS
        for label, fc in variants
    ]


def run(quick: bool = True) -> Dict:
    n_flows = QUICK_N_FLOWS if quick else FULL_N_FLOWS
    results = run_sweep(tasks(quick))
    out: Dict = {}
    for (kmin, kmax, label), r in results.items():
        key = f"kmin={kmin//1000}KB,kmax={kmax//1000}KB"
        points = r.telemetry.series_named("buffer_bytes.tor0")["points"]
        times = [t for t, _ in points]
        # buffer level observed just before each flow arrival: the last
        # sample at or before it
        series = []
        for i in range(n_flows):
            at = bisect_right(times, (i + 1) * STAGGERED_INTERVAL)
            series.append((i, points[at - 1][1] if at else 0))
        out.setdefault(key, {})[label] = {
            "buffer_vs_flows": series,
            "final_kb": series[-1][1] / 1000 if series else 0,
            "mid_kb": series[n_flows // 2][1] / 1000 if series else 0,
        }
    return out
