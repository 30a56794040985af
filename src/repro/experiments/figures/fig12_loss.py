"""Fig. 12: robustness to manufactured packet loss (§6.2).

Bernoulli loss is injected on every switch-to-switch link (data AND
credit packets are equally at risk — exactly the window-vanishing
hazard §4.3's PSN/switchSYN recovery addresses).  The paper reports
no visible throughput effect at 5 % loss and only small fluctuations
at 10 %.

The loss is a :class:`~repro.faults.RandomLoss` in the config's fault
plan; the receive rate is the telemetry export's ``rx_gbps.total``
series, sampled every 20 us.  That series counts every data packet a
host receives, the out-of-order ones go-back-N discards included, and
a lossy run lasts longer and so averages over more samples: its mean
(``mean_gbps``) is no throughput verdict.  ``goodput_gbps`` is: the
payload of the completed flows over the span from the first start to
the last finish, read beside the incast flows' FCT.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence

from repro.experiments.figures.common import mean_value, points_ms
from repro.experiments.parallel import SweepTask, run_sweep
from repro.experiments.scenario import ScenarioConfig
from repro.faults import RandomLoss, plan_of
from repro.stats.fct import FctRecord
from repro.telemetry.registry import TelemetryConfig
from repro.units import us

#: Bernoulli loss rate on every switch-to-switch link, one row each
LOSS_RATES = (0.0, 0.05, 0.10)


def tasks(quick: bool = True) -> List[SweepTask]:
    base = ScenarioConfig(
        pattern="incast",
        flow_control="floodgate",
        duration=400_000 if quick else 1_500_000,
        n_tors=3 if quick else 0,
        hosts_per_tor=4 if quick else 0,
        max_runtime_factor=20.0,
        telemetry=TelemetryConfig(interval=us(20), engine_profile=False),
    )
    out = []
    for rate in LOSS_RATES:
        # the lossless row carries no plan: a 0 % fault would still
        # move every core delivery to the end of serialization
        plan = None
        if rate > 0:
            plan = plan_of(
                RandomLoss(link="switch-switch", data_rate=rate, ctrl_rate=rate)
            )
        out.append(
            SweepTask(key=f"{rate:.0%}", config=replace(base, fault_plan=plan))
        )
    return out


def goodput_gbps(records: Sequence[FctRecord]) -> float:
    """Payload of ``records`` over first start to last finish, Gbps."""
    if not records:
        return 0.0
    span = max(r.finish_time for r in records) - min(r.start_time for r in records)
    return sum(r.size for r in records) * 8 / span if span > 0 else 0.0


def run(quick: bool = True) -> Dict:
    out: Dict = {"series": {}, "summary": {}}
    for key, r in run_sweep(tasks(quick)).items():
        points = r.telemetry.series_named("rx_gbps.total")["points"]
        out["series"][key] = points_ms(points)
        incast = r.incast_fct
        out["summary"][key] = {
            "completion_rate": r.completion_rate,
            "mean_gbps": mean_value(points),
            "goodput_gbps": goodput_gbps(r.stats.fct_records),
            "incast_fct_us": (incast.avg_us, incast.p99_us),
            "link_drops": r.fault_drops_total,
            "switch_syn_sent": r.stats.extension_counters["floodgate.syn_sent"],
        }
    return out
