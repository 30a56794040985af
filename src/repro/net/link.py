"""Point-to-point full-duplex links.

A link only models propagation (serialization lives in the egress
port).  On a healthy link the port schedules the peer's ``receive``
itself, at transmit start; :meth:`Link.deliver` runs — when
serialization ends — only where the delivery is decided then: the
``fault`` slot, and a ``channel`` that asks for it (``at_tx_done``).

The ``fault`` slot is the one loss mechanism: installed per link by
:class:`repro.faults.injector.FaultInjector` when a scenario carries a
:class:`~repro.faults.plan.FaultPlan` — scheduled outages, Bernoulli
and class-split loss (bursts included), and corruption.  Unfaulted
links pay one ``is None`` check per transmission.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Dict, Optional

from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import LinkFaultState
    from repro.net.node import Node
    from repro.net.packet import Packet


class Link:
    """Full-duplex link between two nodes.

    ``bandwidth`` is stored here as the single source of truth for both
    directions; the two egress ports read it at attach time.
    """

    __slots__ = (
        "sim",
        "node_a",
        "node_b",
        "port_a",
        "port_b",
        "bandwidth",
        "delay",
        "fault",
        "lid_ab",
        "lid_ba",
        "delay_table",
        "channel",
    )

    def __init__(
        self,
        sim: Simulator,
        node_a: "Node",
        node_b: "Node",
        bandwidth: float,
        delay: int,
    ) -> None:
        self.sim = sim
        self.node_a = node_a
        self.node_b = node_b
        self.bandwidth = bandwidth
        self.delay = delay
        #: port index of this link on each endpoint (set by Node.attach_link)
        self.port_a: int = -1
        self.port_b: int = -1
        #: scheduled-fault state (see repro.faults); None on healthy links
        self.fault: Optional["LinkFaultState"] = None
        #: per-direction link ids for the engine ordering key.  Assigned
        #: deterministically by ``Topology.connect`` in link-creation
        #: order (a->b odd, b->a even); 0 for raw links built outside a
        #: topology, which keeps plain insertion-order tie-breaks.
        self.lid_ab: int = 0
        self.lid_ba: int = 0
        #: serialization-delay memo (wire size -> ns) the two egress
        #: ports of this link share with every other port of its
        #: bandwidth; set by ``Topology.connect`` from
        #: ``Topology.delay_tables``.  None on a raw link: each port
        #: then keeps its own.
        self.delay_table: Optional[Dict[int, int]] = None
        #: boundary channel (repro.sim.sharded, repro.hybrid); when
        #: set, deliveries cross a domain boundary through
        #: ``channel.send(peer, heap_item)`` instead of the local heap.
        #: Its ``at_tx_done`` attribute says when it must be handed the
        #: item: False = any time (a relay; the port sends at transmit
        #: start), True = when serialization ends (via ``deliver``).
        #: None on every serial and intra-domain link.
        self.channel = None

    def peer_of(self, node: "Node") -> "Node":
        """The endpoint opposite ``node``."""
        if node is self.node_a:
            return self.node_b
        if node is self.node_b:
            return self.node_a
        raise ValueError(f"{node} is not an endpoint of this link")

    def peer_port_of(self, node: "Node") -> int:
        """The peer's port index for this link."""
        return self.port_b if node is self.node_a else self.port_a

    def deliver(self, pkt: "Packet", sender: "Node") -> None:
        """Carry ``pkt`` from ``sender`` to the peer after the prop delay."""
        # inline peer resolution (peer_of + peer_port_of).  Not the
        # per-packet path: only ``EgressPort._tx_done`` calls this, where
        # delivery is decided when serialization ends (module docstring)
        if sender is self.node_a:
            peer = self.node_b
            peer_port = self.port_b
            lid = self.lid_ab
        else:
            peer = self.node_a
            peer_port = self.port_a
            lid = self.lid_ba
        if self.fault is not None:
            self.fault.transmit(pkt, peer, peer_port)
            return
        if self.channel is not None:
            # boundary delivery: the full ordering key is computed on
            # the sending side, so the receiving domain merges it into
            # its heap in exactly the serial position.  (Relay channels
            # normally get the tuple straight from the port at transmit
            # start; this is the hybrid boundary's hand-off point.)
            sim = sender.sim
            sim._seq += 1
            self.channel.send(
                peer,
                (sim.now + self.delay, lid, sim._seq, None, peer.receive,
                 (pkt, peer_port)),
            )
            return
        # handle-free (schedule_call inlined): propagation events are
        # never cancelled
        sim = self.sim
        sim._seq += 1
        heappush(  # simcheck: ignore[SIM010] -- sim._seq is drawn on the line above
            sim._heap,
            (sim.now + self.delay, lid, sim._seq, None, peer.receive,
             (pkt, peer_port)),
        )
