"""Flow-level (fluid) simulation: the second fidelity tier.

``repro.flowsim`` trades per-packet events for per-flow rate evolution:
active flows share the topology's links by max-min fairness
(progressive filling), recomputed only at flow arrivals and departures.
A Floodgate model caps each (switch, dst) aggregate at the credit
window's sustainable rate, so per-dst window semantics survive the
abstraction.

The tier sits behind the same :class:`ScenarioConfig` /
:class:`ResultSummary` interface as the packet engine — select it with
``ScenarioConfig(fidelity="flow")`` — and is cross-validated against
packet-level FCT distributions by :mod:`repro.experiments.validate`
(``floodgate-experiment validate-flowsim``).
"""

from repro.flowsim.maxmin import max_min_rates
from repro.flowsim.model import FluidSimulation

__all__ = ["FluidSimulation", "max_min_rates"]
