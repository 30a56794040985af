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
from types import SimpleNamespace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.cc.base import CcAlgorithm, StaticWindowCc
from repro.cc.dcqcn import Dcqcn, DcqcnConfig
from repro.experiments.choices import FLOW_CONTROLS
from repro.net.ecn import EcnConfig, EcnMarker
from repro.net.host import Host
from repro.net.switch import Switch
from repro.net.topology import (
    Topology,
    build_dumbbell,
    build_fat_tree,
    build_leaf_spine,
    build_testbed,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.stats.collector import StatsHub
from repro.units import bdp_bytes, gbps, mb, ms, us
from repro.workloads.distributions import WORKLOADS
from repro.workloads.incast import (
    periodic_incast,
    staggered_flows,
    successive_incast,
)
from repro.workloads.mix import IncastMix, build_incastmix
from repro.workloads.poisson import FlowSpec, PoissonGenerator

if TYPE_CHECKING:
    # optional subsystems: each is imported in the branch that builds
    # it, so a run that does not select it never loads it
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.faults.watchdog import StallWatchdog
    from repro.floodgate.config import FloodgateConfig
    from repro.rpc.driver import ClosedLoopDriver
    from repro.rpc.spec import RpcWorkloadSpec
    from repro.simcheck.sanitizer import SanitizerConfig, SimSanitizer
    from repro.telemetry.recorder import TelemetryRecorder
    from repro.telemetry.registry import TelemetryConfig


class Scale(str, Enum):
    """Experiment scale preset (see module docstring)."""

    CI = "ci"
    PAPER = "paper"


#: legal values for every enumerated config field, used by
#: ``ScenarioConfig.__post_init__`` — a typo'd value must fail at
#: construction, not silently run a default (``FLOW_CONTROLS`` is
#: imported from :mod:`repro.experiments.choices`)
_VALID_TOPOLOGIES = ("leaf-spine", "fat-tree", "testbed", "dumbbell")
_VALID_CC = ("dcqcn", "dctcp", "timely", "hpcc", "static")
_VALID_PATTERNS = (
    "incastmix", "poisson", "incast", "successive", "staggered", "rpc", "none",
)
_VALID_FIDELITY = ("packet", "flow", "hybrid")
#: flow controls the fluid tier can model (per-dst window caps); the
#: queue-level baselines have no fluid equivalent.  The hybrid tier
#: inherits the same set: its cold racks are fluid.
_FLOW_FIDELITY_FLOW_CONTROL = ("none", "floodgate", "floodgate-ideal")
#: FloodgateConfig fields ``Scenario._floodgate_config`` derives; a
#: value handed in through ``floodgate=`` would be overwritten, so it
#: is rejected, naming what does own the value
_FLOODGATE_DERIVED = {
    "ideal": "select the strawman design with flow_control='floodgate-ideal'",
    "thre_credit_bytes": "set delay_credit_bdp (the threshold in base-BDP units)",
    "thre_off_bytes": "the dstPause off threshold is one base BDP (§4.3)",
    "thre_on_bytes": "the dstPause on threshold is half a base BDP (§4.3)",
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one experiment run needs."""

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
    per_flow_ecmp: bool = False

    # --- protocol stack ------------------------------------------------------
    cc: str = "dcqcn"             # dcqcn | dctcp | timely | hpcc | static
    flow_control: str = "none"    # none | floodgate | floodgate-ideal |
    #                               bfc | pfc-tag | ndp
    per_dst_pause: bool = False
    pfc_enabled: bool = True
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
    #: incastmix | poisson | incast (periodic bursts to ``incast_dst``;
    #: just one if ``duration`` is under the burst interval) | successive
    #: | staggered (repro.workloads.incast) | rpc | none (hand-built)
    pattern: str = "incastmix"
    poisson_load: float = 0.8
    incast_load: float = 0.5
    incast_fan_in: int = 0        # 0 -> every host outside the dst rack
    incast_dst: int = 0
    #: closed-loop RPC workload (repro.rpc); required iff pattern="rpc".
    #: Plain frozen data, so it hashes into the sweep cache key like
    #: ``fault_plan``.
    rpc: Optional[RpcWorkloadSpec] = None
    duration: int = 0             # ns of traffic generation; 0 -> default
    seed: int = 1

    # --- faults -----------------------------------------------------------------
    #: scheduled fault injection (repro.faults); None or an empty plan
    #: leaves the run bit-identical to a fault-free build.  The plan is
    #: part of the config, so it hashes into the sweep cache key.
    fault_plan: Optional[FaultPlan] = None

    # --- telemetry --------------------------------------------------------------
    #: unified observability (repro.telemetry); None keeps the run
    #: bit-identical to a telemetry-free build.  Part of the config, so
    #: it hashes into the sweep cache key alongside the exported blob.
    telemetry: Optional[TelemetryConfig] = None

    # --- sanitizer --------------------------------------------------------------
    #: runtime invariant checks (repro.simcheck); None keeps the run
    #: bit-identical to a sanitizer-free build.  Part of the config, so
    #: it hashes into the sweep cache key.
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
            ("fidelity", self.fidelity, _VALID_FIDELITY),
            ("topology", self.topology, _VALID_TOPOLOGIES),
            ("cc", self.cc, _VALID_CC),
            ("flow_control", self.flow_control, FLOW_CONTROLS),
            ("pattern", self.pattern, _VALID_PATTERNS),
            ("workload", self.workload, tuple(WORKLOADS)),
        )
        for name, value, valid in checks:
            if value not in valid:
                raise ValueError(
                    f"unknown {name} {value!r}; valid values: "
                    f"{', '.join(valid)}"
                )
        if self.pattern == "rpc" and self.rpc is None:
            raise ValueError(
                "pattern='rpc' needs a workload description: pass "
                "rpc=RpcWorkloadSpec(...) (see repro.rpc.spec for the knobs)"
            )
        if self.rpc is not None and self.pattern != "rpc":
            raise ValueError(
                f"an RpcWorkloadSpec was given but pattern is "
                f"{self.pattern!r}; set pattern='rpc' to drive the "
                f"closed-loop workload (or drop the rpc field)"
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
        if self.floodgate is not None:
            from repro.floodgate.config import FloodgateConfig

            defaults = FloodgateConfig()
            for name, owner in _FLOODGATE_DERIVED.items():
                if getattr(self.floodgate, name) != getattr(defaults, name):
                    raise ValueError(
                        f"floodgate.{name} is derived from the scenario and "
                        f"would be overwritten: {owner}"
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
        if self.shards > 1 and self.fidelity != "packet":
            # faults, telemetry, and the sanitizer all run under shards
            # now (domain-local fault application, per-domain telemetry
            # shards, per-domain conservation ledgers — see
            # repro.sim.sharded); the fluid tier remains a single global
            # rate computation with nothing to partition
            raise ValueError(
                "shards > 1 requires fidelity='packet' (the fluid "
                "model is a single global rate computation)"
            )
        if self.fidelity in ("flow", "hybrid"):
            if self.flow_control not in _FLOW_FIDELITY_FLOW_CONTROL:
                raise ValueError(
                    f"fidelity={self.fidelity!r} cannot model flow_control="
                    f"{self.flow_control!r}; supported: "
                    f"{', '.join(_FLOW_FIDELITY_FLOW_CONTROL)}"
                )
            if self.fault_plan is not None and self.fault_plan:
                raise ValueError(
                    "fault injection requires fidelity='packet' "
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
        if self.hot_racks and self.fidelity != "hybrid":
            raise ValueError(
                "hot_racks only applies to fidelity='hybrid' (packet "
                "runs everything hot, flow runs everything cold)"
            )
        if self.fidelity == "hybrid":
            if self.pattern == "rpc":
                raise ValueError(
                    "fidelity='hybrid' does not support closed-loop rpc "
                    "workloads yet (the driver would need to observe "
                    "completions across both tiers); use fidelity="
                    "'packet' or 'flow'"
                )
            if self.topology not in ("leaf-spine", "fat-tree"):
                raise ValueError(
                    "fidelity='hybrid' needs a racked topology "
                    "(leaf-spine or fat-tree) to partition into hot and "
                    "cold domains"
                )

    def resolved(self) -> "ScenarioConfig":
        """Fill in scale-dependent defaults."""
        if self.scale is Scale.PAPER:
            d = dict(
                n_spines=self.n_spines or 4,
                n_tors=self.n_tors or 10,
                hosts_per_tor=self.hosts_per_tor or 16,
                host_bandwidth=self.host_bandwidth or gbps(100),
                fabric_bandwidth=self.fabric_bandwidth or gbps(400),
                link_delay=self.link_delay or 600,
                host_link_delay=self.host_link_delay or self.link_delay or 600,
                buffer_bytes=self.buffer_bytes or mb(20),
                duration=self.duration or ms(4),
            )
        else:
            # CI scale keeps the paper's ratios: host links carry most
            # of the propagation delay so the *end-to-end* BDP stays
            # around one incast flow (30-40 MTU ~ 1 BDP, the sub-BDP
            # regime where CC cannot help), while switch-to-switch hop
            # BDP stays small so Floodgate's windows are small relative
            # to the buffer — the paper's hopBDP << C*T regime.  The
            # incast burst is comparable to the shared buffer so
            # PFC/drop dynamics appear as they do at 100 Gbps scale.
            d = dict(
                n_spines=self.n_spines or 2,
                n_tors=self.n_tors or 4,
                hosts_per_tor=self.hosts_per_tor or 8,
                host_bandwidth=self.host_bandwidth or gbps(10),
                fabric_bandwidth=self.fabric_bandwidth or gbps(40),
                link_delay=self.link_delay or 500,
                host_link_delay=self.host_link_delay or 6_000,
                buffer_bytes=self.buffer_bytes or 500_000,
                duration=self.duration or ms(2),
            )
        return replace(self, **d)


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
    if config.fidelity != "packet":
        return "packet", replace(config, fidelity="packet", hot_racks=())
    return None


#: ECN marking probability at ``kmax`` (DCQCN's conventional setting)
_ECN_PMAX = 0.2


class Scenario:
    """A built, ready-to-run experiment."""

    #: There is no packet pool (DESIGN.md "Performance").  This
    #: constant stands in for its two counters because
    #: ``benchmarks/e2e/worker.py::_counts`` reads them on every
    #: operation and a PR may not edit the benchmark that judges it;
    #: nothing else may read it.  ROADMAP item 6(e) drops that read and
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
        self.topology = self._build_topology()
        # hosts and topology share one flow table
        self.topology.flow_table = self.flow_table
        self.base_rtt = self.topology.base_rtt
        self.base_bdp = bdp_bytes(cfg.host_bandwidth, self.base_rtt)
        self.cc = self._build_cc()
        for host in self._hosts_pending_cc:
            host.cc = self.cc
            host.int_enabled = getattr(self.cc, "needs_int", False)
            host.rto = cfg.rto or 20 * self.base_rtt
            host.cnp_enabled = cfg.cc == "dcqcn"
        self._install_flow_control()
        self.mix: Optional[IncastMix] = None
        self.flows: List[FlowSpec] = []
        #: closed-loop driver (repro.rpc), built iff pattern="rpc"; the
        #: runner starts it after the open-loop schedule is loaded
        self.rpc_driver: Optional[ClosedLoopDriver] = None
        self._build_traffic()
        #: the fluid engine (repro.flowsim) attaches itself here when
        #: the runner dispatches a fidelity="flow" run; the sanitizer's
        #: rate-conservation sweep looks for it
        self.fluid = None
        #: the hybrid engine (repro.hybrid) attaches itself here on a
        #: fidelity="hybrid" run (it also sets ``fluid``: it *is* the
        #: cold tier); the sanitizer's boundary-conservation sweep and
        #: the telemetry harvest look for it
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

                self.sanitizer = SimSanitizer(self, cfg.sanitize)
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
        cfg = self.config
        if cfg.flow_control == "ndp":
            from repro.baselines.ndp import NdpHost

            host: Host = NdpHost(
                sim, node_id, name, None, self.flow_table, stats=self.stats
            )
        elif cfg.flow_control == "bfc":
            from repro.baselines.bfc import BfcHost

            host = BfcHost(
                sim, node_id, name, None, self.flow_table, stats=self.stats
            )
        else:
            host = Host(
                sim, node_id, name, None, self.flow_table, stats=self.stats
            )
        self._hosts_pending_cc.append(host)
        return host

    def _switch_factory(
        self, sim: Simulator, node_id: int, name: str, kind: str, level: int
    ) -> Switch:
        cfg = self.config
        ecn = None
        if cfg.cc in ("dcqcn", "dctcp", "hpcc"):
            kmin = cfg.ecn_kmin or self._default_kmin()
            kmax = cfg.ecn_kmax or 4 * kmin
            ecn = EcnMarker(
                EcnConfig(kmin, max(kmax, kmin), _ECN_PMAX),
                self.rng.stream(f"ecn:{name}"),
            )
        # NDP is lossy by design (trimming replaces lossless fabrics)
        pfc = cfg.pfc_enabled and cfg.flow_control != "ndp"
        sw = Switch(
            sim,
            node_id,
            name,
            buffer_capacity=cfg.buffer_bytes,
            kind=kind,
            pfc_enabled=pfc,
            ecn=ecn,
            stats=self.stats,
            int_enabled=(cfg.cc == "hpcc"),
            per_flow_ecmp=cfg.per_flow_ecmp,
        )
        sw.level = level
        return sw

    def _default_kmin(self) -> int:
        # ECN marking threshold ~ one base BDP, the conventional setting
        cfg = self.config
        approx_rtt = 8 * cfg.link_delay + us(4)
        return max(10_000, bdp_bytes(cfg.host_bandwidth, approx_rtt))

    def _build_topology(self) -> Topology:
        cfg = self.config
        if cfg.topology == "leaf-spine":
            return build_leaf_spine(
                self.sim,
                self._host_factory,
                self._switch_factory,
                n_spines=cfg.n_spines,
                n_tors=cfg.n_tors,
                hosts_per_tor=cfg.hosts_per_tor,
                host_bandwidth=cfg.host_bandwidth,
                spine_bandwidth=cfg.fabric_bandwidth,
                link_delay=cfg.link_delay,
                host_link_delay=cfg.host_link_delay,
            )
        if cfg.topology == "fat-tree":
            return build_fat_tree(
                self.sim,
                self._host_factory,
                self._switch_factory,
                k=cfg.fat_tree_k,
                hosts_per_edge=cfg.hosts_per_edge,
                host_bandwidth=cfg.host_bandwidth,
                fabric_bandwidth=cfg.fabric_bandwidth or cfg.host_bandwidth,
                link_delay=cfg.link_delay,
                host_link_delay=cfg.host_link_delay,
            )
        if cfg.topology == "testbed":
            return build_testbed(
                self.sim,
                self._host_factory,
                self._switch_factory,
                host_bandwidth=cfg.host_bandwidth,
                core_bandwidth=cfg.fabric_bandwidth,
                link_delay=cfg.link_delay,
                host_link_delay=cfg.host_link_delay,
            )
        if cfg.topology == "dumbbell":
            return build_dumbbell(
                self.sim,
                self._host_factory,
                self._switch_factory,
                hosts_per_side=max(cfg.hosts_per_tor, 2),
                host_bandwidth=cfg.host_bandwidth,
                trunk_bandwidth=cfg.fabric_bandwidth,
                link_delay=cfg.link_delay,
            )
        raise ValueError(f"unknown topology {cfg.topology!r}")

    # -- protocol stack -------------------------------------------------------------

    def _build_cc(self) -> CcAlgorithm:
        cfg = self.config
        swnd = max(int(cfg.swnd_bdp * self.base_bdp), 2_000)
        if cfg.cc == "dcqcn":
            return Dcqcn(cfg.host_bandwidth, swnd, DcqcnConfig())
        if cfg.cc == "dctcp":
            from repro.cc.dctcp import Dctcp, DctcpConfig

            return Dctcp(
                cfg.host_bandwidth, swnd, DctcpConfig(base_rtt=self.base_rtt)
            )
        if cfg.cc == "timely":
            from repro.cc.timely import Timely, TimelyConfig

            return Timely(
                cfg.host_bandwidth, swnd, TimelyConfig(base_rtt=self.base_rtt)
            )
        if cfg.cc == "hpcc":
            from repro.cc.hpcc import Hpcc, HpccConfig

            return Hpcc(
                cfg.host_bandwidth, swnd, HpccConfig(base_rtt=self.base_rtt)
            )
        if cfg.cc == "static":
            return StaticWindowCc(cfg.host_bandwidth, swnd)
        raise ValueError(f"unknown congestion control {cfg.cc!r}")

    def _floodgate_config(self, ideal: bool) -> FloodgateConfig:
        from repro.floodgate.config import FloodgateConfig

        cfg = self.config
        ci = cfg.scale is Scale.CI
        if cfg.floodgate is not None:
            base = cfg.floodgate
        elif ci:
            # Preserve the window-to-buffer ratio at CI scale: the
            # paper's T=10us at 400 Gbps adds ~500 KB to each window
            # against a 20 MB buffer (2.5%); 2us at 40 Gbps adds 10 KB
            # against 0.5 MB (2%).
            base = FloodgateConfig(credit_timer=us(2))
        else:
            base = FloodgateConfig()
        multiple = cfg.delay_credit_bdp or (2.0 if ci else 10.0)
        base = base.with_base_bdp(self.base_bdp, multiple)
        return replace(
            base,
            ideal=ideal,
            per_dst_pause=cfg.per_dst_pause or (ideal and base.per_dst_pause),
        )

    def _install_flow_control(self) -> None:
        cfg = self.config
        fc = cfg.flow_control
        if fc == "none":
            return
        if fc in ("floodgate", "floodgate-ideal"):
            from repro.floodgate.extension import FloodgateExtension

            fg_cfg = self._floodgate_config(ideal=(fc == "floodgate-ideal"))
            for sw in self.topology.switches:
                ext = FloodgateExtension(self.sim, fg_cfg)
                sw.install_extension(ext)
                self.extensions.append(ext)
            return
        if fc == "bfc":
            from repro.baselines.bfc import BfcConfig, install_bfc

            bfc_cfg = BfcConfig(
                n_queues=cfg.bfc_queues,
                pause_threshold=self.base_bdp,
            )
            install_bfc(self.sim, self.topology, bfc_cfg, self.extensions)
            return
        if fc == "pfc-tag":
            from repro.baselines.pfc_tag import PfcTagConfig, install_pfc_tag

            tag_cfg = PfcTagConfig(
                pause_threshold=2 * self.base_bdp,
                resume_threshold=self.base_bdp,
            )
            install_pfc_tag(self.sim, self.topology, tag_cfg, self.extensions)
            return
        if fc == "ndp":
            from repro.baselines.ndp import NdpSwitchExtension, configure_ndp_hosts

            for sw in self.topology.switches:
                ext = NdpSwitchExtension(self.sim)
                sw.install_extension(ext)
                self.extensions.append(ext)
            configure_ndp_hosts(self.topology, self.base_rtt)
            return
        raise ValueError(f"unknown flow control {fc!r}")

    # -- traffic ------------------------------------------------------------------------

    def rack_of(self) -> Dict[int, int]:
        """Host id -> rack index (derived from ToR attachment)."""
        mapping: Dict[int, int] = {}
        tors = [s for s in self.topology.switches if s.level == 0]
        for rack, tor in enumerate(tors):
            for host_id in tor.connected_hosts:
                mapping[host_id] = rack
        return mapping

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

    def _build_traffic(self) -> None:
        cfg = self.config
        if cfg.pattern == "none":
            return
        dist = WORKLOADS[cfg.workload]
        rng = self.rng.stream("workload")
        hosts = [h.node_id for h in self.topology.hosts]
        if cfg.pattern == "incastmix":
            self.mix = build_incastmix(
                dist,
                hosts,
                self.rack_of(),
                incast_dst=cfg.incast_dst,
                incast_senders=self.incast_senders(),
                host_bandwidth=cfg.host_bandwidth,
                duration=cfg.duration,
                rng=rng,
                poisson_load=cfg.poisson_load,
                incast_load=cfg.incast_load,
            )
            self.mix.register(self.stats)
            self.flows = self.mix.flows
        elif cfg.pattern == "poisson":
            gen = PoissonGenerator(
                dist,
                hosts,
                cfg.host_bandwidth,
                cfg.poisson_load,
                rng,
            )
            self.flows = gen.generate(cfg.duration)
        elif cfg.pattern == "rpc":
            from repro.rpc.driver import ClosedLoopDriver

            spec = cfg.rpc
            first_flow_id = 0
            if spec.background_load > 0.0:
                gen = PoissonGenerator(
                    dist,
                    hosts,
                    cfg.host_bandwidth,
                    spec.background_load,
                    rng,
                )
                self.flows = gen.generate(cfg.duration)
                first_flow_id = gen.next_flow_id
            self.rpc_driver = ClosedLoopDriver(
                self, spec, first_flow_id=first_flow_id
            )
            self.rpc_driver.attach()
        elif cfg.pattern in ("incast", "successive"):
            if cfg.pattern == "incast":
                spec = periodic_incast(
                    senders=self.incast_senders(),
                    dst=cfg.incast_dst,
                    host_bandwidth=cfg.host_bandwidth,
                    duration=cfg.duration,
                    rng=rng,
                    load=cfg.incast_load,
                )
            else:
                spec = successive_incast(hosts, cfg.duration, rng)
            for f in spec.flows:
                self.stats.register_incast_flow(f.flow_id)
            self.flows = spec.flows
        elif cfg.pattern == "staggered":
            self.flows = staggered_flows(hosts, cfg.incast_dst, cfg.duration)
        else:
            raise ValueError(f"unknown traffic pattern {cfg.pattern!r}")

    def schedule_flows(self, flows: Optional[List[FlowSpec]] = None) -> None:
        """Register and schedule flow start events (bulk heap load)."""
        topo = self.topology
        topo.start_flows(
            [
                topo.make_flow(
                    spec.flow_id, spec.src, spec.dst, spec.size, spec.start_time
                )
                for spec in (flows if flows is not None else self.flows)
            ]
        )
