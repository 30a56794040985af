"""The seven benchmark workloads: seeded ``ScenarioConfig`` sequences.

A workload is a list of *instances* (configs).  Instances differ only
in ``ScenarioConfig.seed`` (sub-seeds of ``--seed``) or, for the hybrid
sweep, in fan-in: one run therefore averages over several draws of the
traffic generator, which is what keeps per-MB cost steady from seed to
seed (a single 32-host incastmix draw moves cost/MB by ~10 %, the fluid
allocator by ~20 %).  Each instance is sized to run in 0.1-0.4 s so the
best-of-n timing in ``driver.py`` can find a quiet slice of the host.

``repro`` is imported inside the builders: the driver process reads the
table (names, worker layout) without importing the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List

#: a pass (all instances together) completing fewer of its flows fails
COMPLETION_FLOOR = 0.95
#: a packet twin costs 5-30x its instance: score accuracy on this many
PACKET_TWINS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: seed -> full-size instance configs (imports repro)
    build: Callable[[int], list]
    #: "" | "packet" (accuracy twin, traced runs only, first
    #: ``PACKET_TWINS`` instances) | "serial" (equivalence twin,
    #: checked on every run)
    reference: str = ""


def _subseeds(seed: int, count: int) -> List[int]:
    return [seed * 1000 + j for j in range(count)]


def _incastmix(flow_control: str) -> Callable[[int], list]:
    def build(seed: int) -> list:
        from repro.experiments import ScenarioConfig

        # CI-scale defaults: 4 ToR x 8 hosts, 2 spines, 10/40 Gbps
        return [
            ScenarioConfig(
                workload="webserver",
                pattern="incastmix",
                poisson_load=0.8,
                incast_load=0.5,
                flow_control=flow_control,
                duration=150_000,
                seed=sub,
            )
            for sub in _subseeds(seed, 4)
        ]

    return build


def _fattree(seed: int, duration: int, fat_tree_k: int = 8, **overrides) -> object:
    from repro.experiments import ScenarioConfig

    return ScenarioConfig(
        topology="fat-tree",
        fat_tree_k=fat_tree_k,
        hosts_per_edge=4,
        workload="webserver",
        pattern="poisson",
        poisson_load=0.6,
        duration=duration,
        seed=seed,
        **overrides,
    )


def _fattree_a2a(seed: int) -> list:
    return [_fattree(sub, 60_000) for sub in _subseeds(seed, 4)]


def _fluid_a2a(seed: int) -> list:
    # k=4 (32 hosts), not the k=8 of fattree-a2a: on the larger fabric a
    # run this short leaves max-min components of ~3 flows and the pass
    # measures Scenario build; here the components stay connected
    # (~10 flows per call, flowsim ~90 % of the pass).  16 draws because
    # the allocator's cost moves 2-3x from one draw to the next.
    return [
        _fattree(sub, 1_000_000, fidelity="flow", fat_tree_k=4)
        for sub in _subseeds(seed, 16)
    ]


def _shard_fattree(seed: int) -> list:
    # timed on the in-process barrier executor.  The process executor
    # (what "auto" resolves to) cannot be timed steadily on a 2-vCPU
    # host: the same seed read 1.5-3.5 s for one 150 us instance, and
    # best-of-12 still moved +-25 % between runs, pinned or not.  It
    # runs once per instance in the traced run's serial-twin check and
    # is reported per layer (sharded.process_wall_s and its CPU split).
    return [
        replace(cfg, shards=2, shard_mode="barrier")
        for cfg in _fattree_a2a(seed)
    ]


def _rpc_fanout(seed: int) -> list:
    from repro.experiments import registry
    from repro.telemetry.registry import TelemetryConfig

    (base,) = registry.get("rpc-fanout").configs
    return [
        replace(
            base,
            duration=base.duration // 2,
            seed=sub,
            telemetry=TelemetryConfig(),
        )
        for sub in _subseeds(seed, 3)
    ]


def _hybrid_incast256(seed: int) -> list:
    from repro.experiments import registry

    return [
        replace(cfg, seed=sub)
        for sub in _subseeds(seed, 2)
        for cfg in registry.get("hybrid-incast256").configs
    ]


def instances(workload: Workload, seed: int, scale: float = 1.0) -> list:
    """The workload's configs for ``--seed``, arrivals window times ``scale``.

    The hard stop stays where it was, so a scaled-down instance (the
    tests run at 0.1) still drains its flows and owes a completion rate.
    """
    configs = workload.build(seed)
    if scale == 1.0:
        return configs
    return [
        replace(
            cfg,
            duration=max(int(cfg.duration * scale), 10_000),
            max_runtime_factor=cfg.max_runtime_factor / scale,
        )
        for cfg in configs
    ]


def reference_config(workload: Workload, cfg):
    """The twin an instance is checked (serial) or scored (packet) against."""
    if workload.reference == "serial":
        return replace(cfg, shards=1, shard_mode="auto")
    return replace(cfg, fidelity="packet")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "incastmix-floodgate",
            "paper's headline scenario; only workload with Floodgate "
            "(VOQ, credits, windows) on every packet's path",
            _incastmix("floodgate"),
        ),
        Workload(
            "incastmix-pfc",
            "same traffic without Floodgate: bypasses floodgate, drives "
            "PFC pause/resume, drops and go-back-N retransmission",
            _incastmix("none"),
        ),
        Workload(
            "fattree-a2a",
            "128-host fat-tree all-to-all: five-hop paths, deepest heap, "
            "no incast; sim heap and net forwarding do the work",
            _fattree_a2a,
        ),
        Workload(
            "rpc-fanout",
            "closed loop, 8 clients x 8-way fan-out: per-flow cost "
            "dominates; only workload with telemetry and export live",
            _rpc_fanout,
        ),
        Workload(
            "fluid-a2a",
            "32-host fat-tree all-to-all at fidelity=flow: flowsim max-min "
            "does nearly all the work, sim and net almost none",
            _fluid_a2a,
            reference="packet",
        ),
        Workload(
            "hybrid-incast256",
            "256-host incast sweep at fidelity=hybrid: boundary crossings "
            "plus a small packet domain over a fluid background",
            _hybrid_incast256,
            reference="packet",
        ),
        Workload(
            "shard-fattree",
            "fat-tree all-to-all on 2 shards: the only workload through "
            "sim.sharded (barrier executor timed, checked against serial twin)",
            _shard_fattree,
            reference="serial",
        ),
    )
}
