"""The PR-17 timer and host send/ACK path, kept verbatim as the test oracle.

``repro.sim.process.Timer`` became lazy (a re-arm stores the deadline
and reserves a seq; one carrier entry per timer rides the heap) and
``repro.net.host.Host`` sends and acknowledges in one frame each.  The
contract of both is that nothing simulated moved.  This is what they
replaced — a timer that cancels and reschedules an ``Event`` on every
``start``, a send loop that goes through ``schedule_at`` and the
``Flow`` geometry helpers, ``Dcqcn.on_ack`` calling both lazy updates
unconditionally — and ``tests/test_host_oracle.py`` /
``tests/test_sim_engine.py`` hold the live code ``==`` to it.  Do not
"improve" this file: it is a reference, not code under test.
"""
from __future__ import annotations

from typing import Any, Callable, Optional

import repro.baselines.ndp as ndp_module
import repro.net.host as host_module
from repro.cc.dcqcn import Dcqcn
from repro.cc.flow import Flow
from repro.net.host import Host
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Event, Simulator
from repro.units import SEC


class EagerTimer:
    """A restartable one-shot timer.

    ``start`` (re)arms the timer; ``stop`` disarms it.  The callback
    fires once per arming.  Restarting an armed timer cancels the
    pending expiry first, so at most one expiry is ever outstanding.
    """

    def __init__(self, sim: Simulator, fn: Callable[..., Any], *args: Any) -> None:
        self._sim = sim
        self._fn = fn
        self._args = args
        self._event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        """True while an expiry is pending."""
        return self._event is not None and not self._event.cancelled

    def start(self, delay: int) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` ns from now."""
        self.stop()
        self._event = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        """Disarm the timer if armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._fn(*self._args)


def _kick(self, flow: Flow) -> None:
    """(Re)run the send loop, collapsing any pending send event."""
    if flow.send_event is not None:
        flow.send_event.cancel()
        flow.send_event = None
    self._try_send(flow)


def _try_send(self, flow: Flow) -> None:
    flow.send_event = None
    if flow.sender_done or flow.all_sent:
        return
    if self._flow_blocked(flow):
        return  # resumed when the pause lifts
    cap = min(flow.cwnd_bytes, self._cc.swnd_bytes)
    if flow.inflight_bytes + flow.packet_size(flow.next_seq) > cap:
        return  # ACK-clocked: resumed by _receive_ack
    now = self.sim.now
    if now < flow.next_send_time:
        flow.send_event = self.sim.schedule_at(
            flow.next_send_time, self._try_send, flow
        )
        return
    self._emit_data(flow)
    if not flow.all_sent:
        flow.send_event = self.sim.schedule_at(
            max(flow.next_send_time, now), self._try_send, flow
        )


def _emit_data(self, flow: Flow) -> None:
    now = self.sim.now
    seq = flow.next_seq
    size = flow.packet_size(seq)
    pkt = Packet(
        PacketKind.DATA, self.node_id, flow.dst, size, flow.flow_id, seq
    )
    pkt.sent_time = now
    if self.int_enabled:
        pkt.int_records = []
    self._stamp_packet(pkt, flow)
    flow.next_seq = seq + 1
    self.tx_data_packets += 1
    self.ports[0].enqueue(pkt, 1)
    on_data_sent = self._cc_on_data_sent
    if on_data_sent is not None:
        on_data_sent(flow, size, now)
    # pacing: space packets at flow.rate
    gap = int(size * 8 * SEC / flow.rate) if flow.rate > 0 else 0
    flow.next_send_time = max(now, flow.next_send_time) + gap
    if flow.rto_timer is not None and not flow.rto_timer.armed:
        flow.rto_timer.start(self.rto)


def _receive_ack(self, pkt: Packet) -> None:
    flow = self.flow_table.get(pkt.flow_id)
    if flow is None:
        return
    now = self.sim.now
    if pkt.seq > flow.acked_seq:
        flow.acked_seq = pkt.seq
        if flow.rto_timer is not None:
            if flow.all_acked:
                flow.rto_timer.stop()
            else:
                flow.rto_timer.start(self.rto)
    if flow.all_acked and flow.all_sent:
        flow.sender_done = True
        self.active_flows.discard(flow.flow_id)
    self._cc.on_ack(flow, pkt, now)
    if not flow.sender_done:
        self._kick(flow)


def _dcqcn_on_ack(self, flow: Flow, pkt: Packet, now: int) -> None:
    self._decay_alpha(flow, now)
    self._maybe_increase(flow, now)


def install(patch) -> None:
    """Graft the old timer and host path onto the live classes.

    ``patch`` is a ``pytest.MonkeyPatch`` (or its ``context()``): the
    methods go onto :class:`Host` itself, so ``BfcHost``'s hook
    overrides and ``NdpHost``'s own RTO path run over them exactly as
    they run over the live ones.
    """
    patch.setattr(host_module, "Timer", EagerTimer)
    patch.setattr(ndp_module, "Timer", EagerTimer)
    patch.setattr(Host, "_kick", _kick)
    patch.setattr(Host, "_try_send", _try_send)
    patch.setattr(Host, "_emit_data", _emit_data, raising=False)
    patch.setattr(Host, "_receive_ack", _receive_ack)
    patch.setattr(Dcqcn, "on_ack", _dcqcn_on_ack)
