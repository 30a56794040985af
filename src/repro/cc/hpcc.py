"""HPCC (Li et al., SIGCOMM '19).

Window-based congestion control driven by in-band network telemetry.
Every data packet collects an :class:`~repro.net.packet.IntRecord` per
hop; the ACK echoes the stack back.  The sender estimates each hop's
utilization

    U_j = qlen_j / (B_j * T) + txRate_j / B_j

(using consecutive INT samples to differentiate ``txBytes`` into
``txRate``), takes the max across hops, and sets

    W = W_c / (U / eta) + W_ai      if U >= eta or incStage >= maxStage
    W = W_c + W_ai                   otherwise (additive probe)

with the reference window ``W_c`` updated once per RTT.  Pacing rate is
``W / base_rtt``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.cc.base import CcAlgorithm
from repro.cc.flow import Flow
from repro.net.packet import IntRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet


# Parameters per the paper.

#: target utilization
ETA = 0.95
#: additive-increase stages before a multiplicative update
MAX_STAGE = 5
#: additive increment as a fraction of BDP
WAI_FRACTION = 0.01
#: window floor, bytes
MIN_WINDOW_BYTES = 1_000


class Hpcc(CcAlgorithm):
    """HPCC sender."""

    needs_int = True

    def __init__(self, line_rate: float, swnd_bytes: int, base_rtt: int) -> None:
        # base_rtt is the INT normalization period ``T``
        super().__init__(line_rate, swnd_bytes, base_rtt)
        #: one-BDP window: the paper's W_init
        self.w_init = int(line_rate * base_rtt / (8 * 1_000_000_000))
        self.w_init = max(self.w_init, MIN_WINDOW_BYTES)
        self.w_ai = max(1, int(self.w_init * WAI_FRACTION))

    def on_flow_start(self, flow: Flow, now: int) -> None:
        cc = flow.cc
        cc.window = min(self.w_init, self.swnd_bytes)
        cc.w_c = cc.window
        cc.inc_stage = 0
        cc.last_update_seq = 0
        cc.last_int: Optional[List[IntRecord]] = None
        self._apply(flow)

    def on_ack(self, flow: Flow, pkt: "Packet", now: int) -> None:
        records = pkt.int_records
        if not records:
            return
        cc = flow.cc
        u = self._max_utilization(cc.last_int, records)
        cc.last_int = records
        if u is None:
            return
        if u >= ETA or cc.inc_stage >= MAX_STAGE:
            cc.window = max(
                MIN_WINDOW_BYTES,
                int(cc.w_c / (u / ETA)) + self.w_ai,
            )
            if pkt.seq >= cc.last_update_seq:
                # once per RTT: move the reference window
                cc.w_c = cc.window
                cc.inc_stage = 0
                cc.last_update_seq = flow.next_seq
        else:
            cc.window = cc.w_c + self.w_ai
            if pkt.seq >= cc.last_update_seq:
                cc.inc_stage += 1
                cc.w_c = cc.window
                cc.last_update_seq = flow.next_seq
        cc.window = min(cc.window, self.swnd_bytes)
        self._apply(flow)

    def on_timeout(self, flow: Flow, now: int) -> None:
        cc = flow.cc
        cc.window = max(MIN_WINDOW_BYTES, cc.window // 2)
        cc.w_c = cc.window
        self._apply(flow)

    # -- internals ---------------------------------------------------------------

    def _apply(self, flow: Flow) -> None:
        """Project the window onto the host's (rate, cwnd) knobs."""
        cc = flow.cc
        flow.cwnd_bytes = cc.window
        flow.rate = min(
            self.line_rate,
            max(
                self.line_rate * 0.001,
                cc.window * 8 * 1_000_000_000 / self.base_rtt,
            ),
        )

    def _max_utilization(
        self,
        prev: Optional[List[IntRecord]],
        curr: List[IntRecord],
    ) -> Optional[float]:
        """Max per-hop utilization across the INT stack, or None."""
        if prev is None or len(prev) != len(curr):
            return None
        u_max = 0.0
        t = self.base_rtt
        for p, c in zip(prev, curr, strict=True):
            dt = c.timestamp - p.timestamp
            if dt <= 0:
                continue
            tx_rate = (c.tx_bytes - p.tx_bytes) * 8 * 1_000_000_000 / dt
            u = (min(p.qlen, c.qlen) * 8) / (c.bandwidth * t / 1_000_000_000) + (
                tx_rate / c.bandwidth
            )
            if u > u_max:
                u_max = u
        return u_max if u_max > 0 else None
