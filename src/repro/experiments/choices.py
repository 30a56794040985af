"""The flow-control schemes a :class:`ScenarioConfig` may name.

One row per ``flow_control`` value.  ``ScenarioConfig`` checks the
value against this table, the CLI offers its keys as ``report
--scheme``'s choices, and the builder, the fluid tiers and the
sanitizer read the row instead of comparing scheme names.  The rows
hold module paths, not classes, and the table lives apart from
:mod:`repro.experiments.scenario`, so that building the parser
(``--help``, ``list``) loads no part of the simulator.
"""

from typing import Dict, NamedTuple, Optional, Tuple


class FlowControl(NamedTuple):
    """What the build needs to know about one scheme."""

    #: module whose ``install(scenario)`` installs the scheme once the
    #: hosts have their CC law; None installs nothing
    module: Optional[str] = None
    #: name of the :class:`~repro.net.host.Host` subclass in ``module``
    #: every host is built as; None builds plain hosts
    host: Optional[str] = None
    #: switches send PFC (NDP trims instead: it is lossy by design)
    pfc: bool = True
    #: the fluid tiers (fidelity "flow" and "hybrid") can model it
    fluid: bool = False
    #: the sanitizer pairs its keyed PAUSE / RESUME frames (BFC's
    #: upstream-queue keys are exempt: see repro.simcheck.sanitizer)
    paired_keys: bool = True
    #: the ``ScenarioConfig`` fields only this scheme reads: a config
    #: naming another scheme must leave them at their defaults
    reads: Tuple[str, ...] = ()


#: what the two Floodgate rows read (the extension's derived config)
_FLOODGATE_READS = ("per_dst_pause", "delay_credit_bdp", "floodgate")


FLOW_CONTROLS: Dict[str, FlowControl] = {
    "none": FlowControl(fluid=True),
    "floodgate": FlowControl(
        "repro.floodgate.extension", fluid=True, reads=_FLOODGATE_READS
    ),
    "floodgate-ideal": FlowControl(
        "repro.floodgate.extension", fluid=True, reads=_FLOODGATE_READS
    ),
    "bfc": FlowControl(
        "repro.baselines.bfc", host="BfcHost", paired_keys=False, reads=("bfc_queues",)
    ),
    "pfc-tag": FlowControl("repro.baselines.pfc_tag"),
    "ndp": FlowControl("repro.baselines.ndp", host="NdpHost", pfc=False),
}
