"""The flow-control schemes a :class:`ScenarioConfig` may name.

``ScenarioConfig`` checks ``flow_control`` against this table, and the
CLI offers it as ``report --scheme``'s choices.  It lives apart from
:mod:`repro.experiments.scenario` so that building the parser (``--help``,
``list``) loads no part of the simulator.
"""

FLOW_CONTROLS = (
    "none",
    "floodgate",
    "floodgate-ideal",
    "bfc",
    "pfc-tag",
    "ndp",
)
