"""Fig. 2: realtime throughput under incastmix, DCQCN vs +Floodgate.

The paper shows that without Floodgate, victim-of-incast flows are HOL
blocked (their throughput stays at zero for ~1.8 ms) and victims of
PFC dip when the pause storm spreads; with Floodgate both classes
receive immediately and PFC never triggers.

The per-class receive rates are the telemetry export's
``rx_gbps.<class>`` series, sampled every 20 us.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.figures.common import (
    first_nonzero_ms,
    incastmix_base,
    mean_value,
    points_ms,
    variant_tasks,
)
from repro.experiments.parallel import SweepTask, run_sweep
from repro.telemetry.registry import TelemetryConfig
from repro.units import us

VARIANTS = {"dcqcn": "none", "dcqcn+floodgate": "floodgate"}
WORKLOAD = "webserver"
#: the flow classes the figure plots
CLASSES = ("incast", "victim_incast", "victim_pfc")


def tasks(quick: bool = True) -> List[SweepTask]:
    base = incastmix_base(
        quick,
        WORKLOAD,
        telemetry=TelemetryConfig(interval=us(20), engine_profile=False),
    )
    return variant_tasks(base, VARIANTS)


def run(quick: bool = True) -> Dict:
    """Returns per-variant throughput series and HOL-delay summary."""
    out: Dict = {"series": {}, "summary": {}}
    for label, r in run_sweep(tasks(quick)).items():
        points = {
            name: r.telemetry.series_named(f"rx_gbps.{name}")["points"]
            for name in CLASSES
        }
        out["series"][label] = {
            name: points_ms(pts) for name, pts in points.items()
        }
        out["summary"][label] = {
            "victim_incast_first_rx_ms": first_nonzero_ms(
                points["victim_incast"]
            ),
            "pfc_events": r.stats.pfc_pause_events,
            "mean_victim_pfc_gbps": mean_value(points["victim_pfc"]),
        }
    return out
