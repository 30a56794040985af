"""Base class for network devices (switches and hosts)."""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.sim.engine import Simulator
from repro.net.packet import Packet, PacketKind
from repro.net.port import EgressPort

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link

_PAUSE = PacketKind.PAUSE


class Node:
    """A device with numbered ports, each attached to one link."""

    #: PFC accounting label ("host", "tor", "core", ...)
    kind: str = "node"
    #: the StatsHub the device reports to, if any (set by subclasses)
    stats = None

    def __init__(self, sim: Simulator, node_id: int, name: str = "") -> None:
        self.sim = sim
        self.node_id = node_id
        self.name = name or f"node{node_id}"
        self.ports: List[EgressPort] = []
        self.links: List["Link"] = []
        #: optional SimSanitizer back-reference (repro.simcheck); None on
        #: unsanitized runs, so pause frames pay one is-None check (an
        #: instance attribute: a class-level default costs a type lookup)
        self.sanitizer = None
        #: pause time already moved to the hub (all ports)
        self._pause_reported = 0

    def attach_link(self, link: "Link") -> int:
        """Create the egress port for ``link`` and return its index."""
        index = len(self.ports)
        port = EgressPort(self.sim, self, index, link)
        # only wire the dequeue hook when the subclass actually has one;
        # hosts inherit the base no-op, and skipping it saves a method
        # call per transmitted packet on every NIC port
        if type(self).on_port_dequeue is not Node.on_port_dequeue:
            port.on_dequeue = self.on_port_dequeue
        self.ports.append(port)
        self.links.append(link)
        if link.node_a is self:
            link.port_a = index
        else:
            link.port_b = index
        return index

    def peer(self, port_index: int) -> "Node":
        """The node on the far side of ``port_index``."""
        return self.links[port_index].peer_of(self)

    def report_to_hub(self) -> None:
        """Move what the device keeps for the stats hub into it: the
        time its egress ports spent PFC-paused (a pause still running
        counts up to now).  Called when a run is collected; only what
        accrued since the last call moves, so a second call adds
        nothing."""
        stats = self.stats
        if stats is None:
            return
        now = self.sim.now
        paused = 0
        for port in self.ports:
            paused += port.total_paused_time
            if port.pause_started >= 0:  # still paused
                paused += now - port.pause_started
        if paused > self._pause_reported:
            stats.record_pfc_pause(self.kind, paused - self._pause_reported)
            self._pause_reported = paused

    # -- pause frames ------------------------------------------------------------------

    def send_pause(self, port: int, target: int, pause: bool) -> None:
        """Send the peer on ``port`` a PAUSE (or RESUME) for ``target``:
        -1 is the peer's whole egress port (PFC), any other value a key
        of the fabric's per-key scheme.  The one place a pause frame is
        built."""
        kind = PacketKind.PAUSE if pause else PacketKind.RESUME
        frame = Packet.control(kind, self.node_id, self.peer(port).node_id)
        frame.target = target
        self.ports[port].enqueue_control(frame)

    def receive_pause(self, pkt: Packet, in_port: int) -> None:
        """Apply a PAUSE / RESUME that arrived on ``in_port``: target -1
        pauses or resumes that egress port, a key goes to
        :meth:`pause_key`.  The one place a pause frame is applied."""
        pause = pkt.kind == _PAUSE
        key = pkt.target
        if key < 0:
            port = self.ports[in_port]
            was_paused = port.paused
            if pause:
                port.pause()
            else:
                port.resume()
        else:
            was_paused = self.pause_key(in_port, key, pause)
        if self.sanitizer is not None:
            self.sanitizer.note_pause(self, in_port, key, pause, was_paused)

    # -- to be provided by subclasses ------------------------------------------------

    def receive(self, pkt: "Packet", ingress_port: int) -> None:
        """Handle a packet delivered by a link."""
        raise NotImplementedError

    def pause_key(self, in_port: int, key: int, pause: bool) -> bool:
        """Pause or resume ``key`` as the peer on ``in_port`` asks;
        return whether it was paused before."""
        raise NotImplementedError

    def on_port_dequeue(
        self, port: EgressPort, pkt: "Packet", queue_idx: int
    ) -> None:
        """Hook fired when a packet leaves one of our egress queues."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
