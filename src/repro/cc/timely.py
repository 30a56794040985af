"""TIMELY (Mittal et al., SIGCOMM '15).

RTT-gradient congestion control.  Each ACK carries an RTT sample; the
algorithm maintains an EWMA of the RTT *difference*, normalizes it by
the minimum RTT, and:

* below ``t_low`` (1.5x base RTT) -> additive increase (delta);
* above ``t_high`` (5x base RTT)  -> multiplicative decrease toward ``t_high``;
* otherwise        -> gradient tracking: negative gradient increases
  additively (with hyper-active increase after five consecutive
  negative samples), positive gradient decreases multiplicatively.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cc.base import CcAlgorithm
from repro.cc.flow import Flow

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet


#: RTT-difference EWMA gain
EWMA_ALPHA = 0.46
#: multiplicative decrease factor
BETA = 0.8
#: additive step as a fraction of line rate
DELTA_FRACTION = 0.01
#: rate floor as a fraction of line rate
MIN_RATE_FRACTION = 0.002
#: consecutive negative-gradient samples before hyper-active increase
HAI_THRESHOLD = 5


class Timely(CcAlgorithm):
    """TIMELY rate controller."""

    def __init__(self, line_rate: float, swnd_bytes: int, base_rtt: int) -> None:
        # base_rtt normalizes the gradient and places the thresholds
        super().__init__(line_rate, swnd_bytes, base_rtt)
        self.delta = line_rate * DELTA_FRACTION
        self.min_rate = line_rate * MIN_RATE_FRACTION
        self.t_low = int(base_rtt * 1.5)
        self.t_high = int(base_rtt * 5)

    def on_flow_start(self, flow: Flow, now: int) -> None:
        flow.rate = self.line_rate
        flow.cwnd_bytes = self.swnd_bytes
        cc = flow.cc
        cc.prev_rtt = 0
        cc.rtt_diff_ewma = 0.0
        cc.neg_gradient_count = 0

    def on_ack(self, flow: Flow, pkt: "Packet", now: int) -> None:
        if pkt.echo_time <= 0:
            return
        rtt = now - pkt.echo_time
        cc = flow.cc
        if cc.prev_rtt == 0:
            cc.prev_rtt = rtt
            return
        rtt_diff = rtt - cc.prev_rtt
        cc.prev_rtt = rtt
        cc.rtt_diff_ewma = (1.0 - EWMA_ALPHA) * cc.rtt_diff_ewma + EWMA_ALPHA * rtt_diff
        gradient = cc.rtt_diff_ewma / self.base_rtt

        if rtt < self.t_low:
            cc.neg_gradient_count = 0
            flow.rate = min(self.line_rate, flow.rate + self.delta)
            return
        if rtt > self.t_high:
            cc.neg_gradient_count = 0
            factor = 1.0 - BETA * (1.0 - self.t_high / rtt)
            flow.rate = max(self.min_rate, flow.rate * factor)
            return
        if gradient <= 0:
            cc.neg_gradient_count += 1
            n = 5 if cc.neg_gradient_count >= HAI_THRESHOLD else 1
            flow.rate = min(self.line_rate, flow.rate + n * self.delta)
        else:
            cc.neg_gradient_count = 0
            factor = 1.0 - BETA * gradient
            flow.rate = max(self.min_rate, flow.rate * max(factor, 0.1))

    def on_timeout(self, flow: Flow, now: int) -> None:
        flow.rate = max(self.min_rate, flow.rate / 2.0)
