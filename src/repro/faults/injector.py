"""Turn a :class:`~repro.faults.plan.FaultPlan` into scheduled events.

The injector resolves each fault's link selector against a built
topology, installs one :class:`LinkFaultState` per faulted link, and
schedules (de)activation through the normal event engine — fault
timing obeys the same integer-ns clock and tie-breaking as everything
else, so runs with a plan are exactly as deterministic as runs
without one.

Zero cost when off: an unfaulted link's ``deliver`` pays a single
``is None`` check; only links a plan actually names carry fault
state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.faults.plan import Corruption, FaultPlan, LinkDown, RandomLoss
from repro.net.packet import PacketKind
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.net.node import Node
    from repro.net.packet import Packet
    from repro.net.topology import Topology
    from repro.stats.collector import StatsHub


def match_links(selector: str, topology: "Topology") -> List["Link"]:
    """Resolve a plan's link selector (see :mod:`repro.faults.plan`)."""
    links = topology.links
    if selector == "*":
        return list(links)
    if selector == "switch-switch":
        from repro.net.switch import Switch

        return [
            l
            for l in links
            if isinstance(l.node_a, Switch) and isinstance(l.node_b, Switch)
        ]
    if selector == "host-switch":
        from repro.net.host import Host

        return [
            l
            for l in links
            if isinstance(l.node_a, Host) or isinstance(l.node_b, Host)
        ]
    if selector.startswith("#"):
        idx = int(selector[1:])
        if not 0 <= idx < len(links):
            raise ValueError(
                f"link index {idx} out of range (topology has {len(links)})"
            )
        return [links[idx]]
    if selector.endswith(":*"):
        name = selector[:-2]
        found = [
            l for l in links if name in (l.node_a.name, l.node_b.name)
        ]
        if not found:
            raise ValueError(f"no links touch a node called {name!r}")
        return found
    if "<->" in selector:
        a, b = selector.split("<->", 1)
        pair = {a, b}
        found = [l for l in links if {l.node_a.name, l.node_b.name} == pair]
        if not found:
            raise ValueError(f"no link between {a!r} and {b!r}")
        return found
    raise ValueError(f"unrecognized link selector {selector!r}")


class LinkFaultState:
    """Live fault state for one link (installed as ``link.fault``).

    Holds the link's current effective loss/corruption rates (the
    composition of every active window) and down/flap state.
    ``transmit`` replaces the tail of ``Link.deliver`` while installed.
    """

    __slots__ = (
        "sim",
        "link",
        "rng",
        "stats",
        "down",
        "guard_arrivals",
        "_data_loss_rates",
        "_ctrl_loss_rates",
        "_corrupt_rates",
        "data_loss",
        "ctrl_loss",
        "corrupt_rate",
        "injected_drops_data",
        "injected_drops_credit",
    )

    def __init__(
        self,
        sim: Simulator,
        link: "Link",
        rng,
        stats: Optional["StatsHub"] = None,
    ) -> None:
        self.sim = sim
        self.link = link
        self.rng = rng
        self.stats = stats
        self.down = False
        #: route arrivals through a guard so a LinkDown can kill
        #: packets already in flight (set once at install time so the
        #: event pattern never depends on fault timing)
        self.guard_arrivals = False
        self._data_loss_rates: List[float] = []
        self._ctrl_loss_rates: List[float] = []
        self._corrupt_rates: List[float] = []
        self.data_loss = 0.0
        self.ctrl_loss = 0.0
        self.corrupt_rate = 0.0
        #: the sanitizer's conservation ledgers: data packets and
        #: Floodgate CREDIT frames this link dropped (the run's fault
        #: counts are the hub's ``fault_drops`` / ``fault_corruptions``)
        self.injected_drops_data = 0
        self.injected_drops_credit = 0

    # -- effective-rate composition -------------------------------------------

    @staticmethod
    def _combine(rates: List[float]) -> float:
        """Independent Bernoulli windows compose as 1 - prod(1 - r)."""
        survive = 1.0
        for r in rates:
            survive *= 1.0 - r
        return 1.0 - survive

    def add_loss(self, data_rate: float, ctrl_rate: float) -> None:
        self._data_loss_rates.append(data_rate)
        self._ctrl_loss_rates.append(ctrl_rate)
        self.data_loss = self._combine(self._data_loss_rates)
        self.ctrl_loss = self._combine(self._ctrl_loss_rates)

    def remove_loss(self, data_rate: float, ctrl_rate: float) -> None:
        self._data_loss_rates.remove(data_rate)
        self._ctrl_loss_rates.remove(ctrl_rate)
        self.data_loss = self._combine(self._data_loss_rates)
        self.ctrl_loss = self._combine(self._ctrl_loss_rates)

    def add_corruption(self, rate: float) -> None:
        self._corrupt_rates.append(rate)
        self.corrupt_rate = self._combine(self._corrupt_rates)

    def remove_corruption(self, rate: float) -> None:
        self._corrupt_rates.remove(rate)
        self.corrupt_rate = self._combine(self._corrupt_rates)

    def set_down(self) -> None:
        # in-flight arrivals are filtered by _arrive; guard_arrivals
        # was latched at install time
        self.down = True

    def set_up(self) -> None:
        self.down = False

    # -- the per-delivery hot path --------------------------------------------

    def transmit(self, pkt: "Packet", peer: "Node", peer_port: int) -> None:
        """Apply active faults to one delivery (called by Link.deliver)."""
        is_data = pkt.kind == PacketKind.DATA
        if self.down:
            self._count_drop(pkt.kind)
            return
        if is_data:
            if self.data_loss > 0.0 and self.rng.random() < self.data_loss:
                self._count_drop(PacketKind.DATA)
                return
            if self.corrupt_rate > 0.0 and self.rng.random() < self.corrupt_rate:
                pkt.corrupted = True
                if self.stats is not None:
                    self.stats.record_fault_corruption()
        elif self.ctrl_loss > 0.0 and self.rng.random() < self.ctrl_loss:
            self._count_drop(pkt.kind)
            return
        delay = self.link.delay
        if self.guard_arrivals:
            self.sim.schedule_call(delay, self._arrive, pkt, peer, peer_port)
        else:
            # fault state replaces the tail of Link.deliver, and only
            # intra-domain links may carry faults (the sharded runner
            # rejects boundary-crossing plans), so peer shares this sim
            self.sim.schedule_call(delay, peer.receive, pkt, peer_port)  # simcheck: ignore[SIM007] -- intra-domain by validation; boundary fault plans are rejected

    def _arrive(self, pkt: "Packet", peer: "Node", peer_port: int) -> None:
        """Arrival guard: an outage kills packets in flight."""
        if self.down:
            self._count_drop(pkt.kind)
            return
        peer.receive(pkt, peer_port)

    def _count_drop(self, kind: PacketKind) -> None:
        if kind == PacketKind.DATA:
            self.injected_drops_data += 1
        elif kind == PacketKind.CREDIT:
            self.injected_drops_credit += 1
        if self.stats is not None:
            self.stats.record_fault_drop(kind == PacketKind.DATA)


class FaultInjector:
    """Installs a plan on a topology and schedules its fault events."""

    def __init__(
        self,
        sim: Simulator,
        topology: "Topology",
        plan: FaultPlan,
        rng: RngRegistry,
        stats: Optional["StatsHub"] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.plan = plan
        self.rng = rng
        self.stats = stats
        #: link -> its fault state (shared by all faults naming it)
        self.states: Dict[int, LinkFaultState] = {}
        self.installed = False

    # -- installation ----------------------------------------------------------

    def _state_for(self, link: "Link") -> LinkFaultState:
        # Topology.connect numbers link i's a->b direction 2i + 1
        idx = (link.lid_ab - 1) // 2
        state = self.states.get(idx)
        if state is None:
            # domain-local application: the state lives on the link's
            # owning simulator and reports into the hub of the link's
            # domain (node_a and node_b share a domain — the sharded
            # runner rejects boundary-crossing plans; serially both
            # expressions resolve to the scenario-wide sim and hub)
            state = LinkFaultState(
                link.sim,
                link,
                self.rng.stream(f"faults:link:{idx}"),
                stats=getattr(link.node_a, "stats", None) or self.stats,
            )
            self.states[idx] = state
            link.fault = state
        return state

    def _at_for(self, link: "Link"):
        """Absolute scheduling on the link's owning domain simulator."""
        return link.sim.schedule_call_at

    def install(self) -> None:
        """Resolve selectors, attach link states, schedule transitions.

        Call once, before the simulation starts (fault times are
        absolute).  A plan with no faults installs nothing.  Every
        transition is scheduled on the faulted link's own simulator, so
        under the sharded engine each domain replays exactly the serial
        subsequence of fault events it owns.
        """
        if self.installed:
            raise RuntimeError("fault plan already installed")
        self.installed = True
        for spec in self.plan.faults:
            links = match_links(spec.link, self.topology)
            if isinstance(spec, LinkDown):
                for link in links:
                    at = self._at_for(link)
                    state = self._state_for(link)
                    state.guard_arrivals = True
                    at(spec.at, state.set_down)
                    if spec.duration > 0:
                        at(spec.at + spec.duration, state.set_up)
            elif isinstance(spec, RandomLoss):
                for link in links:
                    at = self._at_for(link)
                    state = self._state_for(link)
                    at(spec.start, state.add_loss, spec.data_rate, spec.ctrl_rate)
                    if spec.duration > 0:
                        at(
                            spec.start + spec.duration,
                            state.remove_loss,
                            spec.data_rate,
                            spec.ctrl_rate,
                        )
            elif isinstance(spec, Corruption):
                for link in links:
                    at = self._at_for(link)
                    state = self._state_for(link)
                    at(spec.start, state.add_corruption, spec.rate)
                    if spec.duration > 0:
                        at(
                            spec.start + spec.duration,
                            state.remove_corruption,
                            spec.rate,
                        )
            else:  # pragma: no cover - plan validation rejects these
                raise TypeError(f"unhandled fault spec {spec!r}")
