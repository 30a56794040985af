"""Floodgate (CoNEXT '21) reproduction.

A packet-level datacenter network simulator with switch-based per-hop
flow control (Floodgate), reactive congestion control (DCQCN, TIMELY,
HPCC), and the paper's comparison baselines (BFC, NDP, PFC w/ tag).

Quick start::

    from repro.experiments import ScenarioConfig, run_scenario

    result = run_scenario(ScenarioConfig(cc="dcqcn", flow_control="floodgate"))
    print(result.poisson_fct.avg_us, result.max_switch_buffer_mb)
"""

__version__ = "1.0.0"

from repro.sim import Simulator
from repro.units import gbps, kb, mb, ms, us

__all__ = ["Simulator", "gbps", "kb", "mb", "ms", "us", "__version__"]
