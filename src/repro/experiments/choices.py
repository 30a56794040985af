"""The choices a :class:`ScenarioConfig` may name: one row per value.

One table per enumerated field: ``flow_control``, ``fidelity``,
``topology`` and ``pattern``.  ``ScenarioConfig`` checks a value
against its table, the CLI offers the keys as choices, and the
builder, the runner, the fabric check, the fluid tiers, the sanitizer
and the validator read the row instead of comparing names.  Every row
names the ``ScenarioConfig`` fields it reads (``reads``): a config
that sets a field some row of the table reads, but its own row does
not, fails at construction.  The rows hold module paths, flags and
field names, not classes, and the tables live apart from
:mod:`repro.experiments.scenario`, so that building the parser
(``--help``, ``list``) loads no part of the simulator.  A new value is
one row, with what it reads, plus the one function (or class) it names.
"""

from importlib import import_module
from typing import Dict, Mapping, NamedTuple, Optional, Tuple


def load(path: str):
    """The object a row names as ``"package.module:name"``."""
    module, _, name = path.partition(":")
    return getattr(import_module(module), name)


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
    #: the ``ScenarioConfig`` fields the scheme reads
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


#: registry scenarios a tier can be validated on: open-loop packet
#: scenarios whose flow ids exist before the run on every tier
SCENARIOS = ("quick", "incast256", "fattree-a2a")


class TierRule(NamedTuple):
    """How the validator (``repro.experiments.validate``) judges a tier."""

    #: the CLI subcommand serving this row, and the tier's prose name
    command: str
    label: str
    #: scenarios run (and asserted) by default
    scenarios: Tuple[str, ...]
    #: p50/p99 divergence budget (fraction of the packet value)
    tolerance: float
    #: per-scenario budgets that replace ``tolerance``
    scenario_tolerance: Mapping[str, float] = {}


class Tier(NamedTuple):
    """What the runner, the config check and the validator need to know."""

    #: ``"module:Class"`` of the engine that takes over the built
    #: scenario and schedules its traffic; None runs the packet engine
    engine: Optional[str] = None
    #: the tier a run is judged against; None: its own ground truth
    reference: Optional[str] = None
    validation: Optional[TierRule] = None
    #: it runs a fault plan, a closed-loop pattern, more than one
    #: shard, a scheme with no fluid model
    faults: bool = True
    closed_loop: bool = True
    shards: bool = True
    any_scheme: bool = True
    #: the ``ScenarioConfig`` fields the tier reads
    reads: Tuple[str, ...] = ()

    #: it runs ``hot_racks`` as packets over a fluid rest: needs racks
    partitions = property(lambda self: "hot_racks" in self.reads)


#: what the approximate tiers cannot run (DESIGN.md "Fidelity tiers")
_FLUID = dict(reference="packet", faults=False, shards=False, any_scheme=False)

FIDELITIES: Dict[str, Tier] = {
    "packet": Tier(),
    "flow": Tier(
        "repro.flowsim.model:FluidSimulation",
        validation=TierRule("validate-flowsim", "fluid", SCENARIOS, 0.15, {"fattree-a2a": 0.25}),
        **_FLUID,
    ),
    "hybrid": Tier(
        "repro.hybrid.model:HybridSimulation",
        validation=TierRule("validate-hybrid", "hybrid", ("incast256", "fattree-a2a"), 0.10),
        closed_loop=False,
        reads=("hot_racks",),
        **_FLUID,
    ),
}


class Fabric(NamedTuple):
    """What the build needs to know about one topology."""

    #: ``"module:function"`` of the builder: it takes the simulator, the
    #: host and switch factories, and ``reads`` as keywords
    build: str
    #: the ``ScenarioConfig`` fields the builder takes, by their names
    reads: Tuple[str, ...]
    #: the hybrid tier can split it into hot and cold racks
    racked: bool = False

    #: built of ``fat_tree_k`` pods: k must be even, shards split per pod
    pods = property(lambda self: "fat_tree_k" in self.reads)


#: what every fabric's links read
_LINKS = ("host_bandwidth", "fabric_bandwidth", "link_delay")

FABRICS: Dict[str, Fabric] = {
    "leaf-spine": Fabric(
        "repro.net.topology:build_leaf_spine",
        ("n_spines", "n_tors", "hosts_per_tor", *_LINKS, "host_link_delay"),
        racked=True,
    ),
    "fat-tree": Fabric(
        "repro.net.topology:build_fat_tree",
        ("fat_tree_k", "hosts_per_edge", *_LINKS, "host_link_delay"),
        racked=True,
    ),
    "testbed": Fabric("repro.net.topology:build_testbed", (*_LINKS, "host_link_delay")),
    "dumbbell": Fabric("repro.net.topology:build_dumbbell", ("hosts_per_tor", *_LINKS)),
}


class Pattern(NamedTuple):
    """What the build and the fabric check need to know."""

    #: ``"module:function"`` returning the built scenario's flows, each
    #: flow's class labelled on ``scenario.stats``; None builds no
    #: traffic (hand-built runs)
    traffic: Optional[str] = None
    #: the fewest hosts its traffic runs between
    min_hosts: int = 0
    #: the ``ScenarioConfig`` fields its traffic reads, past the
    #: run-wide ones (``duration``, ``seed``, ``host_bandwidth``)
    reads: Tuple[str, ...] = ()

    #: it aims at ``incast_dst``
    aims = property(lambda self: "incast_dst" in self.reads)
    #: its senders sit outside that host's rack
    remote_senders = property(lambda self: "incast_fan_in" in self.reads)
    #: a closed loop (``rpc``) that adds flows as it runs
    closed_loop = property(lambda self: "rpc" in self.reads)


#: what the open-loop Poisson draw and the incast bursts read
_POISSON = ("workload", "poisson_load")
_INCAST = ("incast_load", "incast_fan_in", "incast_dst")

PATTERNS: Dict[str, Pattern] = {
    "incastmix": Pattern("repro.workloads.mix:incastmix_traffic", 3, (*_POISSON, *_INCAST)),
    "poisson": Pattern("repro.workloads.poisson:poisson_traffic", 2, _POISSON),
    "incast": Pattern("repro.workloads.incast:incast_traffic", 2, _INCAST),
    "successive": Pattern("repro.workloads.incast:successive_traffic", 2),
    "staggered": Pattern("repro.workloads.incast:staggered_traffic", 2, ("incast_dst",)),
    "rpc": Pattern("repro.rpc.driver:rpc_traffic", 2, ("rpc",)),
    "none": Pattern(),
}
