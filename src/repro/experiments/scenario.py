"""Scenario construction: topology x congestion control x flow control.

A :class:`ScenarioConfig` names everything an experiment varies; a
:class:`Scenario` builds the simulator, network, protocol stack, and
traffic from it.  The two scales:

* ``Scale.PAPER`` — the paper's parameters (100/400 Gbps, 160 hosts,
  20 MB buffers).  Faithful but far too slow for CI in pure Python.
* ``Scale.CI`` — bandwidths, host counts, and durations shrunk ~10x
  with all dimensionless ratios preserved (oversubscription, loads,
  BDP-relative thresholds), so every result keeps its shape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from importlib import import_module
from types import SimpleNamespace
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, Type,
)

from repro.cc.base import CcAlgorithm
from repro.cc.dcqcn import Dcqcn
from repro.experiments.choices import FABRICS, FIDELITIES, FLOW_CONTROLS, PATTERNS, load
from repro.net.ecn import EcnConfig, EcnMarker
from repro.net.host import Host
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.stats.collector import StatsHub
from repro.units import bdp_bytes, gbps, mb, ms, us
from repro.workloads.distributions import WORKLOADS

if TYPE_CHECKING:
    # optional subsystems and what a row names: each is imported
    # where it is built, so a run that does not select it never loads it
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.faults.watchdog import StallWatchdog
    from repro.floodgate.config import FloodgateConfig
    from repro.net.topology import Topology
    from repro.rpc.driver import ClosedLoopDriver
    from repro.rpc.spec import RpcWorkloadSpec
    from repro.simcheck.sanitizer import SanitizerConfig, SimSanitizer
    from repro.telemetry.recorder import TelemetryRecorder
    from repro.telemetry.registry import TelemetryConfig
    from repro.workloads.poisson import FlowSpec


class Scale(str, Enum):
    """Experiment scale preset (see module docstring)."""

    CI = "ci"
    PAPER = "paper"


#: ``cc`` value -> the law's class, whose flags say what it needs from
#: the fabric; TIMELY and HPCC are imported only when selected
_CC_LAWS: Dict[str, Callable[[], Type[CcAlgorithm]]] = {
    "dcqcn": lambda: Dcqcn,
    "timely": lambda: import_module("repro.cc.timely").Timely,
    "hpcc": lambda: import_module("repro.cc.hpcc").Hpcc,
    "static": lambda: CcAlgorithm,
}


def _every(table: Mapping[str, NamedTuple]) -> Tuple[str, ...]:
    """The fields some row of ``table`` reads, in row order."""
    return tuple(dict.fromkeys(name for row in table.values() for name in row.reads))


#: the ECN marking thresholds: what a law that ``reads_ecn`` reads
_ECN = ("ecn_kmin", "ecn_kmax")

#: per choice field: the fields some row reads, and the selected
#: value's reads.  A config may set only what its rows read.
_READS: Tuple[Tuple[str, Tuple[str, ...], Callable[[str], Tuple[str, ...]]], ...] = (
    ("fidelity", _every(FIDELITIES), lambda v: FIDELITIES[v].reads),
    ("topology", _every(FABRICS), lambda v: FABRICS[v].reads),
    ("cc", _ECN, lambda v: _ECN if _CC_LAWS[v]().reads_ecn else ()),
    ("flow_control", _every(FLOW_CONTROLS), lambda v: FLOW_CONTROLS[v].reads),
    ("pattern", _every(PATTERNS), lambda v: PATTERNS[v].reads),
)


def _tiers(flag: str) -> str:
    """The fidelity tiers whose row sets ``flag``, quoted for a message."""
    return " or ".join(repr(t) for t, row in FIDELITIES.items() if getattr(row, flag))


#: numeric fields whose 0 means "default" or "none" and whose negative
#: values mean nothing
_NON_NEGATIVE = (
    "n_spines", "n_tors", "hosts_per_tor", "host_bandwidth",
    "fabric_bandwidth", "link_delay", "host_link_delay", "buffer_bytes",
    "ecn_kmin", "ecn_kmax", "delay_credit_bdp", "bfc_queues", "rto",
    "incast_fan_in", "incast_dst", "duration",
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one experiment run needs.

    Its fields off their defaults, sub-configs' leaves included, are
    the run's identity in its digest and sweep cache key
    (:func:`repro.experiments.parallel.config_items`).
    """

    # --- fidelity ---------------------------------------------------------
    #: simulation tier: "packet" runs the per-packet event engine,
    #: "flow" the fluid max-min rate model (repro.flowsim), "hybrid"
    #: packet-level hot racks over a fluid background (repro.hybrid)
    fidelity: str = "packet"
    #: hybrid tier: rack indices (ToR order) simulated at packet
    #: fidelity; empty selects hot racks automatically from the
    #: workload's per-destination expected arrival rates
    hot_racks: Tuple[int, ...] = ()

    # --- topology -----------------------------------------------------------
    topology: str = "leaf-spine"  # leaf-spine | fat-tree | testbed | dumbbell
    scale: Scale = Scale.CI
    n_spines: int = 0             # 0 -> scale default
    n_tors: int = 0
    hosts_per_tor: int = 0
    fat_tree_k: int = 4
    hosts_per_edge: int = 2
    host_bandwidth: float = 0.0   # bits/s; 0 -> scale default
    fabric_bandwidth: float = 0.0
    link_delay: int = 0           # ns (switch-switch); 0 -> scale default
    host_link_delay: int = 0      # ns (host-ToR); 0 -> scale default
    buffer_bytes: int = 0         # 0 -> scale default

    # --- protocol stack ------------------------------------------------------
    cc: str = "dcqcn"             # dcqcn | timely | hpcc | static
    flow_control: str = "none"    # none | floodgate | floodgate-ideal |
    #                               bfc | pfc-tag | ndp
    per_dst_pause: bool = False
    #: per-flow sending window in base-BDP units (§6: one BDP)
    swnd_bdp: float = 1.0
    ecn_kmin: int = 0             # bytes; 0 -> BDP-derived default
    ecn_kmax: int = 0
    floodgate: Optional[FloodgateConfig] = None  # None -> scale defaults
    #: delayCredit threshold in BDP units (0 -> scale default: 10 at
    #: paper scale, 2 at CI scale — see EXPERIMENTS.md scaling notes)
    delay_credit_bdp: float = 0.0
    bfc_queues: int = 32          # physical queues/port (bfc); 0 = ideal
    rto: int = 0                  # ns; 0 -> derived from base RTT

    # --- workload ---------------------------------------------------------------
    workload: str = "websearch"
    #: a row of repro.experiments.choices.PATTERNS; "incast" is one
    #: burst if ``duration`` is under the burst interval
    pattern: str = "incastmix"
    poisson_load: float = 0.8
    incast_load: float = 0.5
    incast_fan_in: int = 0        # 0 -> every host outside the dst rack
    incast_dst: int = 0
    #: closed-loop RPC workload (repro.rpc); required iff pattern="rpc"
    rpc: Optional[RpcWorkloadSpec] = None
    duration: int = 0             # ns of traffic generation; 0 -> default
    seed: int = 1

    # --- faults -----------------------------------------------------------------
    #: scheduled fault injection (repro.faults); None or an empty plan
    #: leaves the run bit-identical to a fault-free build
    fault_plan: Optional[FaultPlan] = None

    # --- telemetry --------------------------------------------------------------
    #: unified observability (repro.telemetry); None keeps the run
    #: bit-identical to a telemetry-free build
    telemetry: Optional[TelemetryConfig] = None

    # --- sanitizer --------------------------------------------------------------
    #: runtime invariant checks (repro.simcheck); None keeps the run
    #: bit-identical to a sanitizer-free build
    sanitize: Optional[SanitizerConfig] = None

    # --- run control ------------------------------------------------------------
    #: simulation domains (repro.sim.sharded): 1 runs the classic
    #: serial loop; >1 partitions the topology into per-pod (leaf-spine:
    #: per-ToR-group) domains synchronized by conservative lookahead.
    #: Sharded runs reproduce the serial event order exactly — the
    #: determinism harness asserts byte-identical digests/summaries.
    shards: int = 1
    #: how the sharded window loop reaches its domains: "barrier"
    #: (in-process conservative windows), "process" (one forked worker
    #: per domain, the same calls over pipes; no rpc, whose closed loop
    #: must share one address space), "lockstep" (in-process
    #: global-order merge, the equivalence reference), or "auto"
    #: (barrier: the fastest of the three wherever it has been measured)
    shard_mode: str = "auto"
    #: hard stop as a multiple of `duration` (lets stragglers finish)
    max_runtime_factor: float = 8.0
    track_bandwidth: bool = False

    def __post_init__(self) -> None:
        """Reject invalid field values at construction time.

        Every enumerated field is checked here rather than deep inside
        the build, so ``ScenarioConfig(cc="bogus")`` fails immediately
        with the legal values in the message.  (Misspelled field
        *names* already fail: dataclasses reject unknown kwargs.)
        """
        checks = (
            ("fidelity", self.fidelity, FIDELITIES),
            ("topology", self.topology, FABRICS),
            ("cc", self.cc, tuple(_CC_LAWS)),
            ("flow_control", self.flow_control, FLOW_CONTROLS),
            ("pattern", self.pattern, PATTERNS),
            ("workload", self.workload, tuple(WORKLOADS)),
        )
        for name, value, valid in checks:
            if value not in valid:
                raise ValueError(
                    f"unknown {name} {value!r}; valid values: "
                    f"{', '.join(valid)}"
                )
        for name in _NON_NEGATIVE:
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must not be negative, got {value!r}")
        # a field is set when it holds neither its default nor what
        # resolved() fills in for it (a resolved config stays legal);
        # the row is looked up (a CC law imported) only for a set field
        scale = self._scale_defaults()
        for choice, fields, reads in _READS:
            value = getattr(self, choice)
            for name in fields:
                default = self.__dataclass_fields__[name].default
                if getattr(self, name) not in (default, scale.get(name, default)) and (
                    name not in reads(value)
                ):
                    raise ValueError(f"{name} is set, but {choice}={value!r} does not read it")
        if self.ecn_kmin and self.ecn_kmax and self.ecn_kmax < self.ecn_kmin:
            raise ValueError(
                f"ecn_kmax {self.ecn_kmax} is below ecn_kmin "
                f"{self.ecn_kmin}; the marking ramp needs kmin <= kmax"
            )
        for name in ("swnd_bdp", "max_runtime_factor", "hosts_per_edge"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        tier, pattern = FIDELITIES[self.fidelity], PATTERNS[self.pattern]
        if FABRICS[self.topology].pods and (
            self.fat_tree_k <= 0 or self.fat_tree_k % 2
        ):
            raise ValueError(
                f"fat_tree_k must be a positive even number, "
                f"got {self.fat_tree_k!r}"
            )
        if not 0.0 < self.poisson_load < 1.5:
            raise ValueError(
                f"poisson_load must be in (0, 1.5), got {self.poisson_load!r}"
            )
        if not 0.0 < self.incast_load <= 1.0:
            raise ValueError(
                f"incast_load must be in (0, 1], got {self.incast_load!r}"
            )
        if pattern.closed_loop and self.rpc is None:
            raise ValueError(
                f"pattern={self.pattern!r} needs a workload description: pass "
                "rpc=RpcWorkloadSpec(...) (see repro.rpc.spec for the knobs)"
            )
        if self.rpc is not None and self.fault_plan is not None:
            for fault in self.fault_plan.faults:
                if fault.kind == "link-down" and fault.duration == 0:
                    raise ValueError(
                        "rpc workloads cannot run under a permanent "
                        "LinkDown (duration=0 means the link never comes "
                        "back, so closed-loop clients behind it stall "
                        "forever and the run only ends at the hard stop); "
                        "give the fault a finite duration"
                    )
        if not isinstance(self.shards, int) or self.shards < 1:
            raise ValueError(
                f"shards must be a positive integer, got {self.shards!r}"
            )
        if self.shard_mode not in ("auto", "lockstep", "barrier", "process"):
            raise ValueError(
                f"unknown shard_mode {self.shard_mode!r}; valid values: "
                f"auto, lockstep, barrier, process"
            )
        if self.shards > 1 and not tier.shards:
            raise ValueError(
                f"shards > 1 requires fidelity={_tiers('shards')} "
                "(the fluid model is a single global rate computation)"
            )
        if not tier.any_scheme and not FLOW_CONTROLS[self.flow_control].fluid:
            # the fluid tiers model Floodgate's per-dst windows as rate
            # caps; the queue-level baselines have no fluid equivalent
            fluid = [fc for fc, row in FLOW_CONTROLS.items() if row.fluid]
            raise ValueError(
                f"fidelity={self.fidelity!r} cannot model flow_control="
                f"{self.flow_control!r}; supported: {', '.join(fluid)}"
            )
        if not tier.faults and self.fault_plan is not None and self.fault_plan:
            raise ValueError(
                f"fault injection requires fidelity={_tiers('faults')} "
                "(the fluid model has no packets to drop or links "
                "to flap mid-transfer)"
            )
        if not isinstance(self.hot_racks, tuple) or any(
            not isinstance(r, int) or isinstance(r, bool) or r < 0
            for r in self.hot_racks
        ):
            raise ValueError(
                f"hot_racks must be a tuple of non-negative rack "
                f"indices, got {self.hot_racks!r}"
            )
        if pattern.closed_loop and not tier.closed_loop:
            raise ValueError(
                f"fidelity={self.fidelity!r} does not support closed-loop rpc "
                "workloads yet (the driver would need to observe "
                "completions across both tiers); use fidelity="
                f"{_tiers('closed_loop')}"
            )
        if tier.partitions and not FABRICS[self.topology].racked:
            racked = " or ".join(t for t, row in FABRICS.items() if row.racked)
            raise ValueError(
                f"fidelity={self.fidelity!r} needs a racked topology "
                f"({racked}) to partition into hot and cold domains"
            )

    def _scale_defaults(self) -> Dict[str, object]:
        """What each field left at 0 resolves to at this scale."""
        if self.scale is Scale.PAPER:
            return dict(
                n_spines=4, n_tors=10, hosts_per_tor=16, host_bandwidth=gbps(100),
                fabric_bandwidth=gbps(400), link_delay=600,
                host_link_delay=self.link_delay or 600, buffer_bytes=mb(20), duration=ms(4),
            )
        # CI scale keeps the paper's ratios: host links carry most of
        # the propagation delay so the *end-to-end* BDP stays around one
        # incast flow (30-40 MTU ~ 1 BDP, the sub-BDP regime where CC
        # cannot help), while switch-to-switch hop BDP stays small so
        # Floodgate's windows are small relative to the buffer — the
        # paper's hopBDP << C*T regime.  The incast burst is comparable
        # to the shared buffer so PFC/drop dynamics appear as they do at
        # 100 Gbps scale.
        return dict(
            n_spines=2, n_tors=4, hosts_per_tor=8, host_bandwidth=gbps(10),
            fabric_bandwidth=gbps(40), link_delay=500, host_link_delay=6_000,
            buffer_bytes=500_000, duration=ms(2),
        )

    def resolved(self) -> "ScenarioConfig":
        """Fill in scale-dependent defaults."""
        fill = self._scale_defaults()
        return replace(self, **{name: getattr(self, name) or fill[name] for name in fill})


def reference_config(
    config: ScenarioConfig,
) -> Optional[Tuple[str, ScenarioConfig]]:
    """The twin ``config`` is judged against, as ``(kind, twin)``.

    Every run that is not its own ground truth has exactly one: a
    sharded run must replay its ``"serial"`` twin, an approximate tier
    (fluid, hybrid) is measured against the ``"packet"`` engine on the
    same traffic.  A serial packet run *is* the ground truth: ``None``.
    The cross-tier validator compares FCTs against it.
    """
    if config.shards > 1:
        return "serial", replace(config, shards=1)
    reference = FIDELITIES[config.fidelity].reference
    if reference is not None:
        return reference, replace(config, fidelity=reference, hot_racks=())
    return None


#: a pattern's host minimum, spelled out in its rejection
_COUNTS = ("no", "one", "two", "three")


def _check_fabric(cfg: ScenarioConfig, topology: Topology) -> None:
    """Reject what only the built fabric decides, before any traffic
    exists: more rpc clients than hosts, a ``hot_racks`` entry that is
    not a rack, and a fabric short of what the pattern row needs."""
    hosts, racks = len(topology.hosts), len(topology.racks)
    if cfg.rpc is not None and cfg.rpc.n_clients > hosts:
        raise ValueError(
            f"rpc.n_clients {cfg.rpc.n_clients} exceeds the {hosts} hosts "
            f"of the {cfg.topology} fabric"
        )
    for rack in cfg.hot_racks:
        if rack >= racks:
            raise ValueError(
                f"hot rack {rack} out of range: topology has {racks} racks"
            )
    pattern = PATTERNS[cfg.pattern]
    if pattern.aims and cfg.incast_dst >= hosts:
        raise ValueError(
            f"incast_dst {cfg.incast_dst} is not a host: the "
            f"{cfg.topology} fabric has hosts 0..{hosts - 1}"
        )
    if pattern.remote_senders and racks < 2:
        raise ValueError(
            f"pattern={cfg.pattern!r} needs incast senders outside the "
            f"destination's rack, but the {cfg.topology} fabric has one rack"
        )
    if hosts < pattern.min_hosts:
        raise ValueError(
            f"pattern={cfg.pattern!r} needs at least "
            f"{_COUNTS[pattern.min_hosts]} hosts, but the {cfg.topology} "
            f"fabric has {hosts}"
        )


#: ECN marking probability at ``kmax`` (DCQCN's conventional setting)
_ECN_PMAX = 0.2


class Scenario:
    """A built, ready-to-run experiment."""

    #: There is no packet pool (DESIGN.md "Performance").  This
    #: constant stands in for its two counters because
    #: ``benchmarks/e2e/worker.py::_counts`` reads them on every
    #: operation and a PR may not edit the benchmark that judges it;
    #: nothing else may read it.  ROADMAP item 1(a) drops that read and
    #: then this line.
    pool = SimpleNamespace(allocated=0, recycled=0)

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config.resolved()
        cfg = self.config
        self.sim = Simulator()
        self.stats = StatsHub()
        self.stats.track_bandwidth = cfg.track_bandwidth
        self.rng = RngRegistry(cfg.seed)
        self.flow_table: Dict[int, object] = {}
        self._hosts_pending_cc: List[Host] = []
        self.extensions: List[object] = []
        #: the flow-control scheme's row (repro.experiments.choices), its
        #: module and the class every host is built as
        self._scheme = row = FLOW_CONTROLS[cfg.flow_control]
        scheme = import_module(row.module) if row.module else None
        self._host_class = getattr(scheme, row.host) if row.host else Host
        # the switches depend on the law's class; its instance needs
        # the fabric's base RTT
        law = _CC_LAWS[cfg.cc]()
        self._ecn = self._ecn_config() if law.reads_ecn else None
        fabric = FABRICS[cfg.topology]
        self.topology = load(fabric.build)(
            self.sim, self._host_factory, self._switch_factory,
            **{name: getattr(cfg, name) for name in fabric.reads},
        )
        _check_fabric(cfg, self.topology)
        # hosts and topology share one flow table
        self.topology.flow_table = self.flow_table
        self.base_rtt = self.topology.base_rtt
        self.base_bdp = bdp_bytes(cfg.host_bandwidth, self.base_rtt)
        swnd = max(int(cfg.swnd_bdp * self.base_bdp), 2_000)
        self.cc = law(cfg.host_bandwidth, swnd, self.base_rtt)
        for host in self._hosts_pending_cc:
            host.cc = self.cc
            host.rto = cfg.rto or 20 * self.base_rtt
        if scheme is not None:
            scheme.install(self)
        #: closed-loop driver (repro.rpc), built by a closed-loop
        #: pattern; the runner starts it after the schedule is loaded
        self.rpc_driver: Optional[ClosedLoopDriver] = None
        pattern = PATTERNS[cfg.pattern]
        #: the open-loop schedule the pattern row's function returns,
        #: each flow's class already labelled on the hub
        self.flows: List[FlowSpec] = load(pattern.traffic)(self) if pattern.traffic else []
        #: a tier row's engine attaches itself here (repro.flowsim; the
        #: hybrid engine sets both: it *is* the cold tier); the
        #: sanitizer's conservation sweeps and the export look for them
        self.fluid = None
        self.hybrid = None
        self.fault_injector: Optional[FaultInjector] = None
        self.watchdog: Optional[StallWatchdog] = None
        self.telemetry: Optional[TelemetryRecorder] = None
        self.sanitizer: Optional[SimSanitizer] = None
        if cfg.shards == 1:
            # a sharded run defers all three layers to the sharded
            # runner, which installs them *after* domain binding so
            # fault events land on their link's own simulator, samplers
            # read per-domain hub shards, and the sanitizer keeps
            # per-domain conservation ledgers (repro.sim.sharded); the
            # install order there mirrors this one
            self.install_faults()
            if cfg.telemetry is not None:
                from repro.telemetry.recorder import TelemetryRecorder

                self.telemetry = TelemetryRecorder(self, cfg.telemetry)
                self.telemetry.start()
            if cfg.sanitize is not None:
                from repro.simcheck.sanitizer import SimSanitizer

                self.sanitizer = SimSanitizer(self)
                self.sanitizer.start()

    def install_faults(self, watchdog_sim: Optional[Simulator] = None) -> None:
        """Arm the fault plan, if any (no plan -> nothing scheduled).

        Every link fault schedules on its link's own simulator; the
        stall watchdog, a whole-run observer, rides ``watchdog_sim`` —
        a sharded run passes one of its domain engines, because the
        build-time ``self.sim`` never runs there.
        """
        plan = self.config.fault_plan
        if plan is None or not plan:
            return
        if plan.faults:
            from repro.faults.injector import FaultInjector

            self.fault_injector = FaultInjector(
                self.sim, self.topology, plan, self.rng, stats=self.stats
            )
            self.fault_injector.install()
        if plan.stall_window > 0:
            from repro.faults.watchdog import StallWatchdog

            self.watchdog = StallWatchdog(
                self.sim if watchdog_sim is None else watchdog_sim,
                self.topology, self.stats, plan.stall_window,
            )
            self.watchdog.start()

    # -- topology ----------------------------------------------------------------

    def _host_factory(self, sim: Simulator, node_id: int, name: str) -> Host:
        host = self._host_class(
            sim, node_id, name, None, self.flow_table, stats=self.stats
        )
        self._hosts_pending_cc.append(host)
        return host

    def _switch_factory(
        self, sim: Simulator, node_id: int, name: str, kind: str, level: int
    ) -> Switch:
        cfg = self.config
        ecn = None
        if self._ecn is not None:
            ecn = EcnMarker(self._ecn, self.rng, f"ecn:{name}")
        sw = Switch(
            sim,
            node_id,
            name,
            buffer_capacity=cfg.buffer_bytes,
            kind=kind,
            pfc_enabled=self._scheme.pfc,
            ecn=ecn,
            stats=self.stats,
        )
        sw.level = level
        return sw

    def _ecn_config(self) -> EcnConfig:
        """The marking thresholds every switch shares (built only for a
        CC law that reads marks).

        An unset ``ecn_kmin`` is about one base BDP (the conventional
        setting) and an unset ``ecn_kmax`` four times ``kmin``.  An
        explicit ``ecn_kmax`` below the derived ``kmin`` is rejected
        here, before the build (both set and inverted fails in
        ``ScenarioConfig.__post_init__``).
        """
        cfg = self.config
        if cfg.ecn_kmin:
            kmin = cfg.ecn_kmin
        else:
            approx_rtt = 8 * cfg.link_delay + us(4)
            kmin = max(10_000, bdp_bytes(cfg.host_bandwidth, approx_rtt))
            if cfg.ecn_kmax and cfg.ecn_kmax < kmin:
                raise ValueError(
                    f"ecn_kmax {cfg.ecn_kmax} is below the BDP-derived "
                    f"default ecn_kmin {kmin}; set ecn_kmin as well, or "
                    f"an ecn_kmax of at least {kmin}"
                )
        return EcnConfig(kmin, cfg.ecn_kmax or 4 * kmin, _ECN_PMAX)

    # -- traffic ------------------------------------------------------------------------

    def rack_of(self) -> Dict[int, int]:
        """Host id -> rack index: the topology's rack map (read it, do
        not change it)."""
        return self.topology.rack_of

    def incast_senders(self) -> List[int]:
        """Incast senders: hosts outside the destination's rack.

        ``incast_fan_in`` overrides the burst's flow count; values
        larger than the eligible host set wrap around (several flows
        per sender), which is how the successive-incast experiment
        reaches "hundreds of flows" per burst.
        """
        cfg = self.config
        rack_of = self.rack_of()
        dst_rack = rack_of[cfg.incast_dst]
        eligible = [
            h.node_id
            for h in self.topology.hosts
            if rack_of[h.node_id] != dst_rack
        ]
        if not cfg.incast_fan_in:
            return eligible
        return [eligible[i % len(eligible)] for i in range(cfg.incast_fan_in)]

    def schedule_flows(self, flows: Optional[List[FlowSpec]] = None) -> None:
        """Register and schedule flow start events (bulk heap load)."""
        topo = self.topology
        topo.start_flows(topo.make_flows(flows if flows is not None else self.flows))
