"""End hosts: RoCE-like transport with pluggable congestion control.

Sender side
    Per-flow pacing at ``flow.rate`` capped by ``flow.cwnd_bytes`` (the
    CC window) and the per-flow sending window.  Reliability is
    go-back-N: NACKs and a retransmission timeout rewind ``next_seq``.

Receiver side
    In-order delivery with cumulative ACKs, NACK on gap (rate-limited),
    DCQCN CNP generation on ECN-marked arrivals, INT echo for HPCC,
    and FCT recording at last-byte arrival.

Pause frames from the ToR arrive through :meth:`Node.receive_pause`:
a PFC pause stops the NIC port; a keyed one goes into ``paused_keys``
and stops the flows whose :meth:`Host._pause_key_of` it names — the
destination here, for Floodgate's optional per-dst pause (§4.3 "Hosts'
support"), or a BFC host's virtual NIC queue.
"""

from __future__ import annotations

from heapq import heappush
from typing import AbstractSet, Callable, Dict, Optional

from repro.cc.base import CcAlgorithm
from repro.cc.flow import Flow
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.net.port import EMPTY_SET
from repro.sim.engine import Event, Simulator
from repro.sim.process import Timer
from repro.stats.collector import StatsHub
from repro.stats.fct import FctRecord
from repro.units import CTRL_PKT_SIZE, MTU, SEC, us

#: hoisted enum members for the per-packet receive dispatch
_DATA = PacketKind.DATA
_ACK = PacketKind.ACK
_NACK = PacketKind.NACK
_CNP = PacketKind.CNP
_PAUSE = PacketKind.PAUSE
_RESUME = PacketKind.RESUME

#: least gap between two NACKs for one flow, ns
NACK_GAP = us(10)
#: least gap between two CNPs for one flow, ns (DCQCN's notification point)
CNP_GAP = us(50)


class Host(Node):
    """A server with one NIC port."""

    kind = "host"

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        name: str,
        cc: CcAlgorithm,
        flow_table: Dict[int, Flow],
        stats: Optional[StatsHub],
    ) -> None:
        super().__init__(sim, node_id, name)
        self.cc = cc  # property: also caches the optional send hook
        self.flow_table = flow_table
        self.stats = stats
        #: retransmission timeout, ns (the scenario sets its config's)
        self.rto = us(500)
        #: both EMPTY_SET until their first add
        self.paused_keys: AbstractSet[int] = EMPTY_SET
        self.active_flows: AbstractSet[int] = EMPTY_SET
        self.rx_data_bytes = 0
        self.rx_data_packets = 0
        self.tx_data_packets = 0
        #: fired once per flow when the last byte arrives; the topology
        #: wires this to its completion counter so runners can check
        #: "all flows done" in O(1) instead of scanning the flow table
        self.on_flow_done: Optional[Callable[[Flow], None]] = None

    @property
    def cc(self):
        """The congestion-control module driving this host's flows."""
        return self._cc

    @cc.setter
    def cc(self, value) -> None:
        self._cc = value
        #: resolved at assignment: the optional CC send hook would
        #: otherwise cost a getattr per emitted data packet
        self._cc_on_data_sent = getattr(value, "on_data_sent", None)
        #: attach an INT stack to every data packet, which each switch
        #: on the path stamps (a host may be built before its law)
        self.int_enabled = getattr(value, "needs_int", False)

    # -- sending -------------------------------------------------------------------

    def start_flow(self, flow: Flow) -> None:
        """Begin transmitting ``flow`` (must already be in the table)."""
        if flow.src != self.node_id:
            raise ValueError(
                f"flow {flow.flow_id} has src {flow.src}, host is {self.node_id}"
            )
        self.flow_table[flow.flow_id] = flow
        self._activate(flow.flow_id)
        self._cc.on_flow_start(flow, self.sim.now)
        flow.next_send_time = self.sim.now
        flow.rto_timer = Timer(self.sim, self._on_rto, flow)
        self._try_send(flow)

    def _activate(self, flow_id: int) -> None:
        """Note a flow this host sends until its last byte is ACKed."""
        if self.active_flows is EMPTY_SET:
            self.active_flows = set()
        self.active_flows.add(flow_id)

    def _kick(self, flow: Flow) -> None:
        """(Re)run the send loop, collapsing any pending send event."""
        tick = flow.send_event
        if tick is not None:
            tick.cancelled = True
            flow.send_event = None
        self._try_send(flow)

    def _pause_key_of(self, flow: Flow) -> int:
        """The key a keyed PAUSE names to stop ``flow``: its dst."""
        return flow.dst

    def _flow_blocked(self, flow: Flow) -> bool:
        """NIC-level pause check: is ``flow``'s key paused?"""
        paused = self.paused_keys
        if not paused:
            return False
        return self._pause_key_of(flow) in paused

    def _try_send(self, flow: Flow) -> None:
        """The send loop: emit one packet if the windows, the NIC pause
        state and the pacing clock allow, and schedule the next look.

        One frame per data packet: the flow geometry (``packet_size``,
        ``inflight_bytes``, ``all_sent``) is read inline, and the next
        tick goes onto the heap directly.  Every seq is still drawn
        where the cancel-and-reschedule loop drew it (``enqueue``, then
        the RTO arming, then the tick): a line-rate flow's tick lands
        on the instant its NIC wire frees at every packet, so seq order
        decides real outcomes (tests/host_pr17.py is that loop; runs
        must be equal).
        """
        # Off the heap, ``send_event`` is the tick that just fired: its
        # entry is popped, so the handle is free to carry the next one
        # (its order lives in the heap tuple; ``time``/``seq`` on the
        # handle go stale and nothing reads them).  Direct callers find
        # it None (a flow being started) or cancelled and cleared (_kick).
        tick = flow.send_event
        flow.send_event = None
        seq = flow.next_seq
        n_packets = flow.n_packets
        if flow.sender_done or seq >= n_packets:
            return
        if self._flow_blocked(flow):
            return  # resumed when the pause lifts
        size = MTU if seq != n_packets - 1 else flow.size - seq * MTU
        acked = flow.acked_seq
        inflight = (seq - acked) * MTU if seq > acked else 0
        if inflight + size > min(flow.cwnd_bytes, self._cc.swnd_bytes):
            return  # ACK-clocked: resumed by _receive_ack
        sim = self.sim
        now = sim.now
        send_time = flow.next_send_time
        if now >= send_time:
            pkt = Packet(_DATA, self.node_id, flow.dst, size, flow.flow_id, seq)
            pkt.sent_time = now
            if self.int_enabled:
                pkt.int_records = []
            self._stamp_packet(pkt, flow)
            flow.next_seq = seq = seq + 1
            self.tx_data_packets += 1
            self.ports[0].enqueue(pkt, 1)
            on_data_sent = self._cc_on_data_sent
            if on_data_sent is not None:
                on_data_sent(flow, size, now)
            # pacing: space packets at flow.rate
            rate = flow.rate
            send_time = now + (int(size * 8 * SEC / rate) if rate > 0 else 0)
            flow.next_send_time = send_time
            timer = flow.rto_timer
            if timer is not None and not timer.armed:
                timer.start(self.rto)
            if seq >= n_packets:
                return
        sim._seq = key_seq = sim._seq + 1
        if tick is None:
            tick = Event(send_time, key_seq, self._try_send, (flow,))
        flow.send_event = tick
        heappush(  # simcheck: ignore[SIM010] -- key_seq is drawn from sim._seq just above
            sim._heap, (send_time, 0, key_seq, tick, tick.fn, tick.args)
        )

    def _stamp_packet(self, pkt: Packet, flow: Flow) -> None:
        """Hook for subclasses to tag outgoing data (e.g. BFC queues)."""

    def _on_rto(self, flow: Flow) -> None:
        if flow.all_acked:
            return
        # go-back-N: rewind to the last cumulative ACK
        flow.retransmitted_packets += flow.next_seq - flow.acked_seq
        flow.next_seq = flow.acked_seq
        flow.next_send_time = self.sim.now
        self._cc.on_timeout(flow, self.sim.now)
        if flow.rto_timer is not None:
            flow.rto_timer.start(self.rto)
        self._kick(flow)

    # -- receiving -----------------------------------------------------------------

    def receive(self, pkt: Packet, ingress_port: int) -> None:
        kind = pkt.kind
        if kind == _DATA:
            self._receive_data(pkt)
        elif kind == _ACK:
            self._receive_ack(pkt)
        elif kind == _NACK:
            self._receive_nack(pkt)
        elif kind == _CNP:
            flow = self.flow_table.get(pkt.flow_id)
            if flow is not None and not flow.sender_done:
                self._cc.on_cnp(flow, self.sim.now)
        elif kind == _PAUSE or kind == _RESUME:
            self.receive_pause(pkt, ingress_port)

    def pause_key(self, in_port: int, key: int, pause: bool) -> bool:
        paused = self.paused_keys
        was_paused = key in paused
        if pause:
            if paused is EMPTY_SET:
                self.paused_keys = paused = set()
            paused.add(key)
            return was_paused
        if paused:
            paused.discard(key)
        for flow_id in sorted(self.active_flows):
            flow = self.flow_table[flow_id]
            if self._pause_key_of(flow) == key and not flow.sender_done:
                self._kick(flow)
        return was_paused

    def _receive_data(self, pkt: Packet) -> None:
        self.rx_data_packets += 1
        flow = self.flow_table.get(pkt.flow_id)
        if flow is None:
            return  # stale packet from a flow we never learned about
        now = self.sim.now
        if pkt.corrupted:
            # delivered but failed the integrity check: never delivered
            # to the application; NACK like a sequence gap so go-back-N
            # rewinds to it (fault injection's delivered-but-NACKed class)
            if self.stats is not None:
                self.stats.record_corrupt_rx()
            self._send_nack(flow, now)
            return
        self.rx_data_bytes += pkt.size
        if self.stats is not None:
            self.stats.record_rx(pkt.flow_id, pkt.size)
        if pkt.seq == flow.expected_seq:
            flow.expected_seq += 1
            flow.delivered_bytes += pkt.size
            if flow.delivered_bytes >= flow.size and flow.finish_time < 0:
                self.finish_flow(flow, now)
            # hybrid boundary flows have no packet-level sender to
            # ACK-clock; the injector paces off fluid allocations
            if not flow.fluid_src:
                self._send_ack(flow, pkt)
        elif pkt.seq > flow.expected_seq:
            # gap: go-back-N NACK
            if not flow.fluid_src:
                self._send_nack(flow, now)
        else:
            # duplicate after a rewind: re-ACK so the sender advances
            if not flow.fluid_src:
                self._send_ack(flow, pkt)
        # switches mark only under a law that reads the marks
        if (
            not flow.fluid_src
            and pkt.ecn_marked
            and now - flow.last_cnp_time >= CNP_GAP
        ):
            flow.last_cnp_time = now
            cnp = Packet(PacketKind.CNP, self.node_id, flow.src, CTRL_PKT_SIZE)
            cnp.flow_id = flow.flow_id
            self.ports[0].enqueue_control(cnp)

    def finish_flow(self, flow: Flow, now: int) -> None:
        """``flow`` finished arriving here at ``now``: stamp it, record
        its FCT and fire the completion hook.  Every tier ends a flow
        here (the packet and NDP receivers, the fluid model)."""
        flow.finish_time = now
        if self.stats is not None:
            self.stats.record_fct(
                FctRecord(
                    flow.flow_id,
                    flow.src,
                    flow.dst,
                    flow.size,
                    flow.start_time,
                    now,
                )
            )
        if self.on_flow_done is not None:
            self.on_flow_done(flow)

    def _send_nack(self, flow: Flow, now: int) -> None:
        """Go-back-N NACK to ``flow.expected_seq``, at most one per
        ``NACK_GAP``."""
        if now - flow.last_nack_time < NACK_GAP:
            return
        flow.last_nack_time = now
        nack = Packet(PacketKind.NACK, self.node_id, flow.src, CTRL_PKT_SIZE)
        nack.flow_id = flow.flow_id
        nack.seq = flow.expected_seq
        self.ports[0].enqueue_control(nack)

    def _send_ack(self, flow: Flow, data_pkt: Packet) -> None:
        ack = Packet(PacketKind.ACK, self.node_id, flow.src, CTRL_PKT_SIZE)
        ack.flow_id = flow.flow_id
        ack.seq = flow.expected_seq
        ack.echo_time = data_pkt.sent_time
        ack.int_records = data_pkt.int_records
        self.ports[0].enqueue_control(ack)

    def _receive_ack(self, pkt: Packet) -> None:
        flow = self.flow_table.get(pkt.flow_id)
        if flow is None:
            return
        n_packets = flow.n_packets
        acked = pkt.seq
        if acked > flow.acked_seq:
            flow.acked_seq = acked
            timer = flow.rto_timer
            if timer is not None:
                if acked >= n_packets:
                    timer.stop()
                else:
                    timer.start(self.rto)
        if flow.acked_seq >= n_packets and flow.next_seq >= n_packets:
            flow.sender_done = True
            self.active_flows.discard(flow.flow_id)
        self._cc.on_ack(flow, pkt, self.sim.now)
        if not flow.sender_done:
            self._kick(flow)

    def _receive_nack(self, pkt: Packet) -> None:
        flow = self.flow_table.get(pkt.flow_id)
        if flow is None or flow.sender_done:
            return
        if pkt.seq > flow.acked_seq:
            flow.acked_seq = pkt.seq
        if pkt.seq < flow.next_seq:
            flow.retransmitted_packets += flow.next_seq - pkt.seq
            flow.next_seq = pkt.seq
            flow.next_send_time = self.sim.now
            self._kick(flow)
