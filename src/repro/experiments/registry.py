"""Declarative scenario registry: named scenarios as data.

Every named scenario the tooling refers to — the packet scenarios, their
fluid, hybrid and sharded twins, the closed-loop rpc workloads — lives
here as one :class:`ScenarioEntry`: a name, a description, the config
sequence it runs, free-form tags and notes.  ``cli.py`` derives
``report --scenario`` and the ``scenarios list``/``scenarios show``
subcommands from this table; the determinism suites, the port oracle,
``experiments.validate`` and ``benchmarks/e2e/workloads.py`` read their
configs from it, so adding a workload is config, not code spread over
several files.

What the tooling does with an entry is read from its *fields*, never
from its name (the ``flowsim-``/``hybrid-``/``shard-``/``rpc-`` prefixes
are only a naming habit): the reference twin a run is judged against
follows from each config (``scenario.reference_config``), and
``validation_configs`` names the packet-tier configs the approximate
tiers are cross-validated on, where they differ from ``configs``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.experiments.scenario import ScenarioConfig
from repro.rpc.spec import RpcWorkloadSpec
from repro.units import ms, us


@dataclass(frozen=True)
class ScenarioEntry:
    """One named scenario: pure data, no behavior.

    Multi-config entries (the incast-degree sweep) are treated as one
    unit wherever they run.
    """

    name: str
    description: str
    configs: Tuple[ScenarioConfig, ...]
    tags: Tuple[str, ...] = ()
    #: extra knob documentation shown by ``scenarios show``
    notes: str = ""
    #: what ``experiments.validate`` runs for this scenario when
    #: ``configs`` cannot be compared across tiers; empty -> configs
    validation_configs: Tuple[ScenarioConfig, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario entries need a non-empty name")
        if not self.configs:
            raise ValueError(
                f"scenario {self.name!r} needs at least one config"
            )


_REGISTRY: Dict[str, ScenarioEntry] = {}


def register(entry: ScenarioEntry) -> ScenarioEntry:
    """Add ``entry`` to the registry (duplicate names are an error)."""
    if entry.name in _REGISTRY:
        raise ValueError(f"scenario {entry.name!r} is already registered")
    _REGISTRY[entry.name] = entry
    return entry


def get(name: str) -> ScenarioEntry:
    """Look up a scenario; unknown names list what is available."""
    entry = _REGISTRY.get(name)
    if entry is None:
        raise ValueError(
            f"unknown scenario {name!r}; available scenarios: "
            f"{', '.join(names())}"
        )
    return entry


def names(tag: Optional[str] = None) -> List[str]:
    """Registered names in registration (canonical) order."""
    return [
        name
        for name, entry in _REGISTRY.items()
        if tag is None or tag in entry.tags
    ]


# -- built-in entries ---------------------------------------------------------


def _quick_config() -> ScenarioConfig:
    """The canonical fixed-seed ``quick`` scenario.

    Mirrors ``figures.common.quick_overrides`` (the bench-scale
    incastmix substrate) with the webserver workload — the heaviest of
    the quick-scale figure runs, and deterministic at seed 1.
    """
    return ScenarioConfig(
        workload="webserver",
        cc="dcqcn",
        n_tors=4,
        hosts_per_tor=4,
        duration=600_000,
        buffer_bytes=500_000,
        incast_load=0.8,
        incast_fan_in=16,
        seed=1,
    )


def _rpc_fanout_config() -> ScenarioConfig:
    """The canonical closed-loop rpc scenario at bench scale.

    Eight clients on the 16-host leaf-spine substrate, each spraying
    8-way requests under Zipf-skewed shard placement with Floodgate
    holding the fan-in — the regime the rpc subsystem exists for.
    """
    return ScenarioConfig(
        pattern="rpc",
        rpc=RpcWorkloadSpec(
            n_clients=8,
            fan_out=8,
            think_time=us(20),
            zipf_alpha=1.2,
        ),
        flow_control="floodgate",
        cc="dcqcn",
        n_tors=4,
        hosts_per_tor=4,
        duration=600_000,
        buffer_bytes=500_000,
        seed=1,
    )


def _builtin_entries() -> List[ScenarioEntry]:
    incast_sweep = tuple(
        ScenarioConfig(
            workload="websearch",
            cc="dcqcn",
            n_tors=16,
            hosts_per_tor=16,
            n_spines=4,
            pattern="incast",
            incast_fan_in=fan_in,
            incast_load=0.8,
            duration=200_000,
            seed=1,
        )
        for fan_in in (64, 128, 255)
    )
    fattree = ScenarioConfig(
        topology="fat-tree",
        fat_tree_k=8,
        hosts_per_edge=4,
        workload="websearch",
        cc="dcqcn",
        pattern="poisson",
        poisson_load=0.6,
        duration=ms(1),
        seed=1,
    )
    # the cross-validation variant of the sweep, defined here once.
    # The packet sweep cuts runs off long before a 255-fan-in burst can
    # drain a 10 Gbps link, and without flow control the burst
    # collapses into drops the fluid model has no loss model for — so
    # the approximate tiers are judged with Floodgate, a buffer that
    # fits the burst, and a hard stop that lets it drain: flows
    # complete on every tier.
    incast_drop_free = tuple(
        replace(
            cfg,
            flow_control="floodgate",
            buffer_bytes=2_000_000,
            max_runtime_factor=64.0,
        )
        for cfg in incast_sweep
    )
    # same variant on all three tiers, so their runs are directly
    # comparable
    flowsim_incast = tuple(
        replace(cfg, fidelity="flow") for cfg in incast_drop_free
    )
    hybrid_incast = tuple(
        replace(cfg, fidelity="hybrid") for cfg in incast_drop_free
    )
    return [
        ScenarioEntry(
            "quick",
            "bench-scale incastmix (16 hosts, webserver)",
            (_quick_config(),),
            tags=("packet",),
        ),
        ScenarioEntry(
            "incast256",
            "256-host leaf-spine incast-degree sweep (fan-in 64/128/255)",
            incast_sweep,
            tags=("packet",),
            validation_configs=incast_drop_free,
        ),
        ScenarioEntry(
            "fattree-a2a",
            "128-host fat-tree (k=8) Poisson all-to-all",
            (fattree,),
            tags=("packet",),
        ),
        ScenarioEntry(
            "flowsim-quick",
            "fluid tier: bench-scale incastmix at fidelity=flow",
            (replace(_quick_config(), fidelity="flow"),),
            tags=("flowsim",),
        ),
        ScenarioEntry(
            "flowsim-incast256",
            "fluid tier: incast-degree sweep at fidelity=flow "
            "(validation variant: Floodgate, drop-free buffer)",
            flowsim_incast,
            tags=("flowsim",),
        ),
        ScenarioEntry(
            "flowsim-fattree-a2a",
            "fluid tier: fat-tree Poisson all-to-all at fidelity=flow",
            (replace(fattree, fidelity="flow"),),
            tags=("flowsim",),
        ),
        ScenarioEntry(
            "hybrid-incast256",
            "hybrid tier: incast-degree sweep with the victim rack at "
            "packet level over a fluid background",
            hybrid_incast,
            tags=("hybrid",),
        ),
        ScenarioEntry(
            "shard-incast256",
            "sharded engine (2 domains): the incast-degree sweep under "
            "conservative-parallel execution",
            tuple(replace(cfg, shards=2) for cfg in incast_sweep),
            tags=("packet", "shard"),
            notes="incast traffic is boundary-heavy, so speedup over the "
            "serial twin is topology-bound",
        ),
        ScenarioEntry(
            "shard-fattree-a2a",
            "sharded engine (4 per-pod domains): the fat-tree Poisson "
            "all-to-all under conservative-parallel execution",
            (replace(fattree, shards=4),),
            tags=("packet", "shard"),
        ),
        ScenarioEntry(
            "rpc-fanout",
            "closed-loop rpc: 8 clients x 8-way fan-out, Zipf shards, "
            "Floodgate (16 hosts)",
            (_rpc_fanout_config(),),
            tags=("rpc", "packet"),
        ),
        ScenarioEntry(
            "rpc-fanout-flow",
            "fluid tier: the rpc-fanout closed loop at fidelity=flow",
            (replace(_rpc_fanout_config(), fidelity="flow"),),
            tags=("rpc", "flowsim"),
        ),
    ]


for _entry in _builtin_entries():
    register(_entry)
