"""DCQCN (Zhu et al., SIGCOMM '15).

Sender-side reaction point, faithful to the published control law:

* on CNP: ``Rt = Rc``, ``Rc *= (1 - alpha/2)``, ``alpha = (1-g)alpha + g``,
  and the rate-increase state machine resets;
* alpha decays by ``(1-g)`` every ``tau`` without a CNP;
* rate increases are driven by a timer and a byte counter through the
  fast-recovery, additive-increase, and hyper-increase stages.

The notification point (receiver) lives in the host: it emits at most
one CNP per ``CNP_GAP`` (``repro.net.host``) per flow upon ECN-marked
arrivals, as the RoCE NIC does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cc.base import CcAlgorithm
from repro.cc.flow import Flow
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet


# Parameters follow the paper / NS-3 model.

#: alpha EWMA gain
G = 1.0 / 256.0
#: alpha-decay period, ns
ALPHA_TIMER = us(55)
#: rate-increase timer period, ns
INCREASE_TIMER = us(55)
#: byte counter for rate increase, as this many ms of line rate (the
#: classic 10 MB scaled relative to line rate)
BYTE_COUNTER_MS = 2.0
#: fast-recovery stage threshold
F = 5
#: additive increase step as a fraction of line rate
RAI_FRACTION = 0.005
#: hyper increase step as a fraction of line rate
RHAI_FRACTION = 0.05
#: rate floor as a fraction of line rate
MIN_RATE_FRACTION = 0.002


class Dcqcn(CcAlgorithm):
    """DCQCN reaction point."""

    reads_ecn = True

    def __init__(self, line_rate: float, swnd_bytes: int, base_rtt: int) -> None:
        super().__init__(line_rate, swnd_bytes, base_rtt)
        self.rai = line_rate * RAI_FRACTION
        self.rhai = line_rate * RHAI_FRACTION
        self.min_rate = line_rate * MIN_RATE_FRACTION
        # byte counter: bytes the flow must send between byte-triggered
        # increases; expressed as BYTE_COUNTER_MS worth of line rate.
        self.byte_counter = int(line_rate * BYTE_COUNTER_MS / 8_000.0)

    # -- hooks -------------------------------------------------------------------

    def on_flow_start(self, flow: Flow, now: int) -> None:
        flow.rate = self.line_rate
        flow.cwnd_bytes = self.swnd_bytes
        cc = flow.cc
        cc.rt = self.line_rate          # target rate
        cc.alpha = 1.0
        cc.last_alpha_update = now
        cc.last_increase = now
        cc.bytes_since_increase = 0
        cc.t_stage = 0                  # timer-triggered increase events
        cc.b_stage = 0                  # byte-triggered increase events

    def on_cnp(self, flow: Flow, now: int) -> None:
        cc = flow.cc
        self._decay_alpha(flow, now)
        cc.alpha = (1.0 - G) * cc.alpha + G
        cc.last_alpha_update = now
        cc.rt = flow.rate
        flow.rate = max(self.min_rate, flow.rate * (1.0 - cc.alpha / 2.0))
        cc.last_increase = now
        cc.bytes_since_increase = 0
        cc.t_stage = 0
        cc.b_stage = 0

    def on_ack(self, flow: Flow, pkt: "Packet", now: int) -> None:
        # both updates are lazy and owe nothing until a full period has
        # passed: test that here, a period spans dozens of ACKs
        cc = flow.cc
        if now - cc.last_alpha_update >= ALPHA_TIMER:
            self._decay_alpha(flow, now)
        if now - cc.last_increase >= INCREASE_TIMER:
            self._maybe_increase(flow, now)

    def on_data_sent(self, flow: Flow, size: int, now: int) -> None:
        """Drive the byte counter (called by the host on each send)."""
        cc = flow.cc
        cc.bytes_since_increase += size
        if cc.bytes_since_increase >= self.byte_counter:
            cc.bytes_since_increase -= self.byte_counter
            cc.b_stage += 1
            self._increase(flow)

    def on_timeout(self, flow: Flow, now: int) -> None:
        # A timeout implies heavy loss; restart from a conservative rate.
        flow.rate = max(self.min_rate, flow.rate / 2.0)

    # -- internals -----------------------------------------------------------------

    def _decay_alpha(self, flow: Flow, now: int) -> None:
        """Apply pending (1-g) alpha decays lazily instead of per-timer."""
        cc = flow.cc
        periods = (now - cc.last_alpha_update) // ALPHA_TIMER
        if periods > 0:
            cc.alpha *= (1.0 - G) ** periods
            cc.last_alpha_update += periods * ALPHA_TIMER

    def _maybe_increase(self, flow: Flow, now: int) -> None:
        """Apply timer-triggered increase events lazily on ACK arrivals."""
        cc = flow.cc
        periods = (now - cc.last_increase) // INCREASE_TIMER
        for _ in range(min(periods, 8)):  # bound work per ACK
            cc.t_stage += 1
            self._increase(flow)
        if periods > 0:
            cc.last_increase += periods * INCREASE_TIMER

    def _increase(self, flow: Flow) -> None:
        cc = flow.cc
        stage = max(cc.t_stage, cc.b_stage)
        if stage <= F:
            # fast recovery: move halfway back to the target rate
            pass
        elif min(cc.t_stage, cc.b_stage) > F:
            # hyper increase
            cc.rt = min(self.line_rate, cc.rt + self.rhai)
        else:
            # additive increase
            cc.rt = min(self.line_rate, cc.rt + self.rai)
        flow.rate = max(self.min_rate, (cc.rt + flow.rate) / 2.0)
