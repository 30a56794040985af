"""Fault sweep: scheme robustness under injected failures.

Crosses the four schemes the paper compares (Floodgate, plain PFC,
BFC, NDP) with a grid of fault types x loss rates from
:mod:`repro.faults`:

* ``random-loss`` — Bernoulli loss at rate *r* on every
  switch-to-switch link, data and control frames independently (the
  Fig. 12 hazard, but hitting every scheme's control plane: credits,
  PFC PAUSE frames, NDP pulls);
* ``burst-loss`` — a total blackout window (``RandomLoss`` at rate 1)
  on one core link whose length scales with *r*;
* ``link-flap`` — one core link goes down mid-run (in-flight packets
  dropped) and comes back after a window scaling with *r*;
* ``corruption`` — packets delivered but failing their integrity
  check at rate *r* (NACKed by the receiver, never counted as
  delivered).

Per cell the sweep reports FCT inflation against the same scheme's
fault-free baseline, retransmissions, completion rate, injected-drop
counters, and recovery time (extra drain time past the baseline's
finish).  A :class:`~repro.faults.StallWatchdog` rides every faulted
run; ``undetected_stalls`` counts runs that failed to complete
*without* the watchdog noticing — the acceptance criterion is zero.

Runs fan out through :func:`repro.experiments.parallel.run_sweep`, so
the grid is pooled across cores and cache-served on re-runs (the
fault plan is part of the config, hence of the cache key).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.faults.plan import Corruption, FaultPlan, LinkDown, RandomLoss
from repro.units import us

if TYPE_CHECKING:
    from repro.experiments.scenario import ScenarioConfig

#: flow-control settings, keyed by the label the paper uses
SCHEMES: Dict[str, str] = {
    "floodgate": "floodgate",
    "pfc": "none",  # today's lossless fabric: PFC only
    "bfc": "bfc",
    "ndp": "ndp",
}

FAULT_KINDS: Tuple[str, ...] = (
    "random-loss",
    "burst-loss",
    "link-flap",
    "corruption",
)

#: the core link the localized faults hit
FAULTED_LINK = "tor0<->spine0"


def plan_for(kind: str, rate: float, duration: int) -> FaultPlan:
    """Build the fault plan for one grid cell.

    ``rate`` is the Bernoulli loss/corruption probability for the
    distributed faults and scales the outage window for the localized
    ones, so one axis sweeps the *severity* of every fault type.
    """
    window = max(us(20), int(duration * rate * 4))
    if kind == "random-loss":
        fault = RandomLoss(
            start=0, link="switch-switch", data_rate=rate, ctrl_rate=rate
        )
    elif kind == "burst-loss":
        fault = RandomLoss(
            start=duration // 4,
            link=FAULTED_LINK,
            duration=window,
            data_rate=1.0,
            ctrl_rate=1.0,
        )
    elif kind == "link-flap":
        fault = LinkDown(at=duration // 4, link=FAULTED_LINK, duration=window)
    elif kind == "corruption":
        fault = Corruption(start=0, link="switch-switch", rate=rate)
    else:
        raise ValueError(f"unknown fault kind {kind!r}")
    # watchdog window: long enough that ordinary scheduling gaps are
    # never flagged, short enough to fire well before the hard stop
    return FaultPlan((fault,), stall_window=duration // 2)


def _config(
    scheme: str, duration: int, plan: Optional[FaultPlan]
) -> ScenarioConfig:
    from repro.experiments.scenario import ScenarioConfig

    return ScenarioConfig(
        flow_control=SCHEMES[scheme],
        workload="websearch",
        duration=duration,
        seed=1,
        fault_plan=plan,
        max_runtime_factor=12.0,
    )


def run(quick: bool = True) -> Dict:
    from repro.experiments.parallel import SweepTask, run_sweep

    duration = 300_000 if quick else 1_500_000
    rates = (0.02,) if quick else (0.01, 0.05, 0.10)

    tasks = [
        SweepTask(
            key=(scheme, "baseline", 0.0),
            config=_config(scheme, duration, None),
        )
        for scheme in SCHEMES
    ]
    for scheme in SCHEMES:
        for kind in FAULT_KINDS:
            for rate in rates:
                tasks.append(
                    SweepTask(
                        key=(scheme, kind, rate),
                        config=_config(
                            scheme, duration, plan_for(kind, rate, duration)
                        ),
                    )
                )
    results = run_sweep(tasks)

    out: Dict = {"summary": {}, "undetected_stalls": 0}
    for scheme in SCHEMES:
        base = results[(scheme, "baseline", 0.0)]
        base_avg = base.poisson_fct.avg_ns or 1
        cells: Dict[str, Dict] = {
            "baseline": {
                "avg_fct_us": base.poisson_fct.avg_ns / 1_000.0,
                "completion_rate": base.completion_rate,
                "retransmitted": base.retransmitted_packets,
            }
        }
        for kind in FAULT_KINDS:
            for rate in rates:
                r = results[(scheme, kind, rate)]
                undetected = r.completion_rate < 1.0 and r.stall_events == 0
                cells[f"{kind}@{rate:g}"] = {
                    "fct_inflation": r.poisson_fct.avg_ns / base_avg,
                    "completion_rate": r.completion_rate,
                    "retransmitted": r.retransmitted_packets,
                    "injected_drops": r.fault_drops_total,
                    "corruptions": r.stats.fault_corruptions,
                    "stall_events": r.stall_events,
                    "recovery_us": max(0, r.sim_time - base.sim_time) / 1_000.0,
                }
                if undetected:
                    out["undetected_stalls"] += 1
        out["summary"][scheme] = cells
    return out
