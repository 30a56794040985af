"""Fig. 17: parameter selection — credit timer T and delayCredit (§6.5).

(a) larger T -> less credit bandwidth;
(b) larger T -> larger initial windows -> less ToR-Up buffering but
    more at the aggregation points;
(c) larger T -> longer FCT (incast controlled less tightly);
(d) the delayCredit threshold has a wide robust range.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.parallel import SweepTask, run_sweep
from repro.experiments.scenario import ScenarioConfig
from repro.floodgate.config import FloodgateConfig
from repro.units import us

#: credit timers T (us) swept at bench (quick) and paper (full) scale
QUICK_TIMERS_US = (1, 2, 8)
FULL_TIMERS_US = (1, 2, 5, 10, 20)
#: delayCredit thresholds (BDP multiples) swept at each scale
QUICK_MULTIPLES = (1, 2, 10)
FULL_MULTIPLES = (1, 2, 5, 10, 25, 50)


def _credit_timer_config(quick: bool, t: float) -> ScenarioConfig:
    return ScenarioConfig(
        workload="webserver",
        flow_control="floodgate",
        floodgate=FloodgateConfig(credit_timer=us(t)),
        duration=300_000 if quick else 1_000_000,
        n_tors=3 if quick else 0,
        hosts_per_tor=4 if quick else 0,
        track_bandwidth=True,
    )


def _delay_credit_config(quick: bool, m: float) -> ScenarioConfig:
    return ScenarioConfig(
        workload="webserver",
        flow_control="floodgate",
        delay_credit_bdp=m,
        duration=300_000 if quick else 1_000_000,
        n_tors=3 if quick else 0,
        hosts_per_tor=4 if quick else 0,
    )


def run_credit_timer(quick: bool = True) -> Dict:
    results = run_sweep(
        SweepTask(key=t, config=_credit_timer_config(quick, t))
        for t in (QUICK_TIMERS_US if quick else FULL_TIMERS_US)
    )
    out: Dict = {}
    for t, r in results.items():
        total_tx = sum(r.stats.tx_bytes_by_category.values()) or 1
        s = r.poisson_fct
        out[t] = {
            "credit_share_pct": 100.0
            * r.stats.tx_bytes_by_category["credit"]
            / total_tx,
            "tor-up_mb": r.max_port_buffer_mb("tor-up"),
            "core_mb": r.max_port_buffer_mb("core"),
            "tor-down_mb": r.max_port_buffer_mb("tor-down"),
            "avg_fct_us": s.avg_us,
            "p99_fct_us": s.p99_us,
        }
    return out


def run_delay_credit(quick: bool = True) -> Dict:
    results = run_sweep(
        SweepTask(key=m, config=_delay_credit_config(quick, m))
        for m in (QUICK_MULTIPLES if quick else FULL_MULTIPLES)
    )
    return {
        m: {
            "tor-up_mb": r.max_port_buffer_mb("tor-up"),
            "core_mb": r.max_port_buffer_mb("core"),
            "tor-down_mb": r.max_port_buffer_mb("tor-down"),
        }
        for m, r in results.items()
    }


def run(quick: bool = True) -> Dict:
    return {
        "credit_timer": run_credit_timer(quick),
        "delay_credit": run_delay_credit(quick),
    }
