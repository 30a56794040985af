"""DCQCN (Zhu et al., SIGCOMM '15).

Sender-side reaction point, faithful to the published control law:

* on CNP: ``Rt = Rc``, ``Rc *= (1 - alpha/2)``, ``alpha = (1-g)alpha + g``,
  and the rate-increase state machine resets;
* alpha decays by ``(1-g)`` every ``tau`` without a CNP;
* rate increases are driven by a timer and a byte counter through the
  fast-recovery, additive-increase, and hyper-increase stages.

The notification point (receiver) lives in the host: it emits at most
one CNP per ``cnp_interval`` per flow upon ECN-marked arrivals, as the
RoCE NIC does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cc.base import CcAlgorithm
from repro.cc.flow import Flow
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet


@dataclass(frozen=True)
class DcqcnConfig:
    """DCQCN parameters (defaults follow the paper / NS-3 model)."""

    g: float = 1.0 / 256.0
    #: alpha-decay period, ns
    alpha_timer: int = us(55)
    #: rate-increase timer period, ns
    increase_timer: int = us(55)
    #: byte counter for rate increase (bytes); the classic 10 MB scaled
    #: relative to line rate is applied in :meth:`Dcqcn.byte_counter`
    byte_counter_ms: float = 2.0
    #: fast-recovery stage threshold
    f: int = 5
    #: additive increase step as a fraction of line rate
    rai_fraction: float = 0.005
    #: hyper increase step as a fraction of line rate
    rhai_fraction: float = 0.05
    #: rate floor as a fraction of line rate
    min_rate_fraction: float = 0.002
    #: minimum gap between CNPs for one flow (receiver side), ns
    cnp_interval: int = us(50)


class Dcqcn(CcAlgorithm):
    """DCQCN reaction point."""

    name = "dcqcn"

    def __init__(
        self,
        line_rate: float,
        swnd_bytes: int,
        config: DcqcnConfig | None = None,
    ) -> None:
        super().__init__(line_rate, swnd_bytes)
        self.config = config or DcqcnConfig()
        self.rai = line_rate * self.config.rai_fraction
        self.rhai = line_rate * self.config.rhai_fraction
        self.min_rate = line_rate * self.config.min_rate_fraction
        # byte counter: bytes the flow must send between byte-triggered
        # increases; expressed as `byte_counter_ms` worth of line rate.
        self.byte_counter = int(line_rate * self.config.byte_counter_ms / 8_000.0)

    # -- hooks -------------------------------------------------------------------

    def on_flow_start(self, flow: Flow, now: int) -> None:
        flow.rate = self.line_rate
        flow.cwnd_bytes = self.swnd_bytes
        cc = flow.cc
        cc.rt = self.line_rate          # target rate
        cc.alpha = 1.0
        cc.last_cnp = -1
        cc.last_alpha_update = now
        cc.last_increase = now
        cc.bytes_since_increase = 0
        cc.t_stage = 0                  # timer-triggered increase events
        cc.b_stage = 0                  # byte-triggered increase events

    def on_cnp(self, flow: Flow, now: int) -> None:
        cc = flow.cc
        self._decay_alpha(flow, now)
        cc.alpha = (1.0 - self.config.g) * cc.alpha + self.config.g
        cc.last_alpha_update = now
        cc.rt = flow.rate
        flow.rate = max(self.min_rate, flow.rate * (1.0 - cc.alpha / 2.0))
        cc.last_cnp = now
        cc.last_increase = now
        cc.bytes_since_increase = 0
        cc.t_stage = 0
        cc.b_stage = 0

    def on_ack(self, flow: Flow, pkt: "Packet", now: int) -> None:
        # both updates are lazy and owe nothing until a full period has
        # passed: test that here, a period spans dozens of ACKs
        cc = flow.cc
        config = self.config
        if now - cc.last_alpha_update >= config.alpha_timer:
            self._decay_alpha(flow, now)
        if now - cc.last_increase >= config.increase_timer:
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
        periods = (now - cc.last_alpha_update) // self.config.alpha_timer
        if periods > 0:
            cc.alpha *= (1.0 - self.config.g) ** periods
            cc.last_alpha_update += periods * self.config.alpha_timer

    def _maybe_increase(self, flow: Flow, now: int) -> None:
        """Apply timer-triggered increase events lazily on ACK arrivals."""
        cc = flow.cc
        periods = (now - cc.last_increase) // self.config.increase_timer
        for _ in range(min(periods, 8)):  # bound work per ACK
            cc.t_stage += 1
            self._increase(flow)
        if periods > 0:
            cc.last_increase += periods * self.config.increase_timer

    def _increase(self, flow: Flow) -> None:
        cc = flow.cc
        stage = max(cc.t_stage, cc.b_stage)
        if stage <= self.config.f:
            # fast recovery: move halfway back to the target rate
            pass
        elif min(cc.t_stage, cc.b_stage) > self.config.f:
            # hyper increase
            cc.rt = min(self.line_rate, cc.rt + self.rhai)
        else:
            # additive increase
            cc.rt = min(self.line_rate, cc.rt + self.rai)
        flow.rate = max(self.min_rate, (cc.rt + flow.rate) / 2.0)
