"""Congestion-control algorithm interface.

One algorithm instance serves all flows of a host; per-flow state lives
in ``flow.cc`` (a namespace) so algorithms stay stateless and cheap to
construct.  The host calls the hooks; the algorithm manipulates
``flow.rate`` (pacing, bits/s) and ``flow.cwnd_bytes`` (in-flight cap).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cc.flow import Flow

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet


class CcAlgorithm:
    """Base class, and the ``static`` law: line rate, limited only by the
    per-flow sending window (the testbed's transport, §5.2)."""

    #: switches ECN-mark data packets; a receiver answers a mark with a CNP
    reads_ecn = False
    #: switches stamp an INT record on this law's data packets
    needs_int = False

    def __init__(self, line_rate: float, swnd_bytes: int, base_rtt: int) -> None:
        #: host NIC line rate, bits/s
        self.line_rate = line_rate
        #: the per-flow sending window the paper adds to every protocol
        self.swnd_bytes = swnd_bytes
        #: unloaded RTT, ns
        self.base_rtt = base_rtt

    # -- lifecycle hooks -------------------------------------------------------------

    def on_flow_start(self, flow: Flow, now: int) -> None:
        """Initialize ``flow.rate`` / ``flow.cwnd_bytes`` (line rate start)."""
        flow.rate = self.line_rate
        flow.cwnd_bytes = self.swnd_bytes

    def on_ack(self, flow: Flow, pkt: "Packet", now: int) -> None:
        """An ACK arrived (``pkt.seq`` = cumulative next expected)."""

    def on_cnp(self, flow: Flow, now: int) -> None:
        """A DCQCN congestion notification arrived."""

    def on_timeout(self, flow: Flow, now: int) -> None:
        """Retransmission timeout fired."""

