"""Micro-probes: what one event, one packet, one flow costs in isolation.

Public API only.  Each probe reports host nanoseconds per unit, best of
``REPEATS`` (the work is deterministic, so the fastest repeat is the
one the host disturbed least).  They localise a move in ``wall_s``:

``sim.heap_ns_per_event``      ``Simulator.schedule_call`` + ``run`` of
                               self-rescheduling no-ops at the
                               workload's heap depth
``net.fwd_ns_per_pkt``         one elephant across a dumbbell
``net.flow_setup_ns``          one-MTU mice across the same dumbbell
``floodgate.added_ns_per_pkt`` the elephant again with Floodgate on,
                               minus the plain run
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict

REPEATS = 3
HEAP_EVENTS = 200_000
ELEPHANT_PACKETS = 4_000
MICE = 2_000

perf = time.perf_counter


def _best(fn: Callable[[], float]) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        gc.collect()
        best = min(best, fn())
    return best


def heap_probe(depth: int) -> float:
    """ns per event with ``depth`` events pending throughout."""
    from repro.sim.engine import Simulator

    depth = max(depth, 1)
    period = 1_000

    def once() -> float:
        sim = Simulator()

        def tick() -> None:
            sim.schedule_call(period, tick)

        for i in range(depth):
            sim.schedule_call(i % period, tick)
        until = HEAP_EVENTS // depth * period + period
        start = perf()
        sim.run(until=until)
        return (perf() - start) / sim.events_executed

    return _best(once) * 1e9


def _dumbbell(flow_control: str, flows: Callable[[list], list]) -> float:
    """Seconds to run ``flows(hosts)`` across a dumbbell to completion."""
    from repro.experiments import Scenario, ScenarioConfig, run_scenario

    cfg = ScenarioConfig(
        topology="dumbbell",
        pattern="none",
        flow_control=flow_control,
        duration=1_000_000_000,  # the hard stop; flows end the run first
    )

    def once() -> float:
        sc = Scenario(cfg)
        sc.schedule_flows(flows([h.node_id for h in sc.topology.hosts]))
        start = perf()
        result = run_scenario(cfg, scenario=sc)
        seconds = perf() - start
        if result.completed_flows != result.total_flows:
            raise RuntimeError(
                f"probe left {result.total_flows - result.completed_flows} "
                f"flows unfinished"
            )
        return seconds

    return _best(once)


def _elephant(hosts: list) -> list:
    from repro.units import MTU
    from repro.workloads.poisson import FlowSpec

    return [FlowSpec(0, hosts[0], hosts[-1], ELEPHANT_PACKETS * MTU, 0)]


def _mice(hosts: list) -> list:
    from repro.units import MTU
    from repro.workloads.poisson import FlowSpec

    half = len(hosts) // 2
    # spaced one serialization time apart so mice never queue behind
    # each other: the cost is flow set-up, not congestion
    return [
        FlowSpec(i, hosts[i % half], hosts[half + i % half], MTU, i * 1_000)
        for i in range(MICE)
    ]


def run_probes(heap_depth: int) -> Dict[str, float]:
    plain = _dumbbell("none", _elephant)
    gated = _dumbbell("floodgate", _elephant)
    return {
        "sim.heap_ns_per_event": heap_probe(heap_depth),
        "net.fwd_ns_per_pkt": plain / ELEPHANT_PACKETS * 1e9,
        "net.flow_setup_ns": _dumbbell("none", _mice) / MICE * 1e9,
        "floodgate.added_ns_per_pkt": (gated - plain) / ELEPHANT_PACKETS * 1e9,
    }
