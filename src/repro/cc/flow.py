"""The flow abstraction shared by senders, receivers, and CC modules.

A flow is a one-way transfer of ``size`` bytes from ``src`` to ``dst``,
segmented into MTU-sized packets (every flow uses the one ``MTU``).
Sequence numbers count packets; reliability is go-back-N (the RoCE
model): the receiver delivers only in-order packets and NACKs on a gap,
the sender rewinds.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

from repro.sim.engine import Event
from repro.sim.process import Timer
from repro.units import MTU


class Flow:
    """State for one transfer, shared between the two endpoint hosts."""

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "size",
        "start_time",
        "n_packets",
        # sender state
        "next_seq",
        "acked_seq",
        "rate",
        "cwnd_bytes",
        "next_send_time",
        "send_event",
        "rto_timer",
        "cc",
        "sender_done",
        "retransmitted_packets",
        "fluid_src",
        # receiver state
        "expected_seq",
        "delivered_bytes",
        "finish_time",
        "last_cnp_time",
        "last_nack_time",
    )

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        size: int,
        start_time: int = 0,
    ) -> None:
        if size <= 0:
            raise ValueError(f"flow size must be positive, got {size}")
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size = size
        self.start_time = start_time
        self.n_packets = -(-size // MTU)  # ceil division
        # -- sender ------------------------------------------------------------
        self.next_seq = 0
        self.acked_seq = 0          # cumulative: packets known delivered
        self.rate: float = 0.0      # pacing rate, bits/s (set by CC)
        self.cwnd_bytes: int = 1 << 60  # in-flight cap (set by CC / swnd)
        self.next_send_time = 0
        #: handle of the pending send tick; None when none is pending
        self.send_event: Optional[Event] = None
        self.rto_timer: Optional[Timer] = None
        #: per-algorithm scratch space (alpha, stages, RTT history, ...)
        self.cc = SimpleNamespace()
        self.sender_done = False
        self.retransmitted_packets = 0
        #: hybrid-fidelity marker: the "sender" is a fluid-tier boundary
        #: injector, not a packet host, so the receiver must not emit
        #: end-to-end control (ACK/NACK/CNP) toward it (repro.hybrid)
        self.fluid_src = False
        # -- receiver -----------------------------------------------------------
        self.expected_seq = 0
        self.delivered_bytes = 0
        self.finish_time = -1
        self.last_cnp_time = -(1 << 60)
        self.last_nack_time = -(1 << 60)

    # -- sequence/geometry helpers -----------------------------------------------

    def packet_size(self, seq: int) -> int:
        """Payload bytes of packet ``seq`` (the tail packet may be short)."""
        if seq < 0 or seq >= self.n_packets:
            raise ValueError(f"seq {seq} out of range for {self.n_packets} packets")
        if seq == self.n_packets - 1:
            return self.size - (self.n_packets - 1) * MTU
        return MTU

    @property
    def inflight_bytes(self) -> int:
        """Bytes sent but not yet cumulatively acknowledged."""
        if self.next_seq <= self.acked_seq:
            return 0
        full = (self.next_seq - self.acked_seq) * MTU
        if self.next_seq == self.n_packets:
            # the tail packet may be short
            full -= MTU - self.packet_size(self.n_packets - 1)
        return full

    @property
    def all_sent(self) -> bool:
        return self.next_seq >= self.n_packets

    @property
    def all_acked(self) -> bool:
        return self.acked_seq >= self.n_packets

    @property
    def receiver_done(self) -> bool:
        return self.delivered_bytes >= self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Flow {self.flow_id} {self.src}->{self.dst} size={self.size} "
            f"sent={self.next_seq}/{self.n_packets} acked={self.acked_seq}>"
        )
