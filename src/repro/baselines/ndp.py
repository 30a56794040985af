"""NDP: packet trimming plus a receiver-driven transport (SIGCOMM '17).

Switch side
    When an egress data queue exceeds the (shallow) trim threshold the
    arriving packet's payload is cut and the header forwarded at high
    priority.  Headers tell the receiver exactly what was lost.

Host side
    A new flow blasts one BDP of *unscheduled* packets at line rate;
    everything after that is *pulled* by the receiver, which paces
    pull tokens at its NIC's line rate (round-robin across flows).
    Trimmed headers trigger NACKs; the affected packets are
    retransmitted when pulls arrive.  The receiver assembles data out
    of order, so — unlike the go-back-N RoCE model — a trim costs one
    RTT, not a window rewind.

Appendix B's observations fall out of this model: every flow
(incast or not) pays the trimming penalty once queues are hot, and
header/control traffic consumes a significant share of the
bottleneck's bandwidth.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Sequence, Set

from repro.net.host import Host
from repro.net.packet import Packet, PacketKind
from repro.net.port import EMPTY_QUEUE
from repro.net.switch import SwitchExtension
from repro.sim.process import PeriodicTask, Timer
from repro.units import CTRL_PKT_SIZE, MTU, bdp_packets, serialization_delay


#: the shallow trim threshold, bytes
TRIM_THRESHOLD = 8 * MTU


class NdpSwitchExtension(SwitchExtension):
    """Cut-payload trimming at the egress queue."""

    def __init__(self) -> None:
        #: egress data bytes above which an arriving packet is trimmed
        self.trim_threshold = TRIM_THRESHOLD
        self.trimmed_packets = 0

    def telemetry_counters(self) -> Dict[str, int]:
        """End-of-run counter values for :mod:`repro.telemetry`."""
        return {"ndp.trimmed_packets": self.trimmed_packets}

    def on_data(self, pkt: Packet, in_port: int, out_port: int) -> bool:
        port = self.switch.ports[out_port]
        if pkt.kind == PacketKind.NDP_HEADER:
            # already trimmed upstream: ride the priority queue
            port.enqueue_control(pkt)
            return True
        if port.data_bytes_queued > self.trim_threshold:
            pkt.trim()
            self.trimmed_packets += 1
            port.enqueue_control(pkt)
            return True
        return False


class NdpHost(Host):
    """Receiver-driven NDP endpoint (replaces the RoCE transport)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: unscheduled window in packets (:func:`install` sets it)
        self.ndp_unscheduled = 12
        #: pull pacing interval, ns (one MTU at line rate)
        self.pull_interval = 800
        #: flows owed a pull, in order; both appear with the first pull
        self._pull_queue: Sequence[int] = EMPTY_QUEUE
        self._pull_task: Optional[PeriodicTask] = None

    # -- sender ---------------------------------------------------------------------

    def start_flow(self, flow) -> None:
        if flow.src != self.node_id:
            raise ValueError(f"flow {flow.flow_id} does not start at this host")
        self.flow_table[flow.flow_id] = flow
        self._activate(flow.flow_id)
        cc = flow.cc
        cc.retx = deque()
        cc.acked: Set[int] = set()
        cc.next_new = 0
        flow.rto_timer = Timer(self.sim, self._ndp_rto, flow)
        unscheduled = min(self.ndp_unscheduled, flow.n_packets)
        self._burst(flow, unscheduled)

    def _burst(self, flow, remaining: int) -> None:
        """Emit the unscheduled window paced at line rate."""
        if remaining <= 0 or flow.cc.next_new >= flow.n_packets:
            return
        seq = flow.cc.next_new
        flow.cc.next_new = seq + 1
        self._ndp_send(flow, seq)
        gap = serialization_delay(flow.packet_size(seq), self.cc.line_rate)
        self.sim.schedule(gap, self._burst, flow, remaining - 1)

    def _ndp_send(self, flow, seq: int) -> None:
        pkt = Packet(
            PacketKind.DATA,
            self.node_id,
            flow.dst,
            flow.packet_size(seq),
            flow.flow_id,
            seq,
        )
        pkt.sent_time = self.sim.now
        self.tx_data_packets += 1
        self.ports[0].enqueue(pkt, 1)
        if flow.rto_timer is not None and not flow.rto_timer.armed:
            flow.rto_timer.start(self.rto)

    def _send_one(self, flow) -> None:
        """A pull arrived: retransmissions first, then new data."""
        cc = flow.cc
        while cc.retx:
            seq = cc.retx.popleft()
            if seq not in cc.acked:
                self._ndp_send(flow, seq)
                return
        if cc.next_new < flow.n_packets:
            seq = cc.next_new
            cc.next_new = seq + 1
            self._ndp_send(flow, seq)

    def _ndp_rto(self, flow) -> None:
        """Backstop for lost tails: resend the oldest unacked packet."""
        cc = flow.cc
        if len(cc.acked) >= flow.n_packets:
            return
        for seq in range(cc.next_new):
            if seq not in cc.acked:
                flow.retransmitted_packets += 1
                self._ndp_send(flow, seq)
                break
        if flow.rto_timer is not None:
            flow.rto_timer.start(self.rto)

    # -- receiver ----------------------------------------------------------------------

    def _ndp_rx_state(self, flow):
        cc = flow.cc
        if not hasattr(cc, "rx_received"):
            cc.rx_received = set()
            unscheduled = min(self.ndp_unscheduled, flow.n_packets)
            cc.rx_pulls_needed = flow.n_packets - unscheduled
            cc.rx_pulls_sent = 0
        return cc

    def _maybe_pull(self, flow) -> None:
        cc = flow.cc
        if flow.receiver_done:
            return
        if cc.rx_pulls_sent < cc.rx_pulls_needed:
            cc.rx_pulls_sent += 1
            if self._pull_task is None:
                self._pull_queue = deque()
                self._pull_task = PeriodicTask(
                    self.sim, self.pull_interval, self._emit_pull
                )
            self._pull_queue.append(flow.flow_id)
            if not self._pull_task.running:
                self._pull_task.start()

    def _emit_pull(self) -> None:
        while self._pull_queue:
            flow_id = self._pull_queue.popleft()
            flow = self.flow_table.get(flow_id)
            if flow is None or flow.receiver_done:
                continue
            pull = Packet(
                PacketKind.NDP_PULL, self.node_id, flow.src, CTRL_PKT_SIZE
            )
            pull.flow_id = flow_id
            self.ports[0].enqueue_control(pull)
            return
        if self._pull_task is not None:
            self._pull_task.stop()

    # -- dispatch -------------------------------------------------------------------------

    def receive(self, pkt: Packet, ingress_port: int) -> None:
        kind = pkt.kind
        if kind == PacketKind.DATA:
            self._rx_data(pkt)
        elif kind == PacketKind.NDP_HEADER:
            self._rx_header(pkt)
        elif kind == PacketKind.NDP_PULL:
            flow = self.flow_table.get(pkt.flow_id)
            if flow is not None and hasattr(flow.cc, "retx"):
                self._send_one(flow)
        elif kind == PacketKind.NDP_NACK:
            flow = self.flow_table.get(pkt.flow_id)
            if flow is not None and hasattr(flow.cc, "retx"):
                if pkt.seq not in flow.cc.acked:
                    flow.retransmitted_packets += 1
                    flow.cc.retx.append(pkt.seq)
        elif kind == PacketKind.ACK:
            self._rx_ack(pkt)
        elif kind == PacketKind.PAUSE or kind == PacketKind.RESUME:
            self.receive_pause(pkt, ingress_port)

    def _rx_data(self, pkt: Packet) -> None:
        self.rx_data_packets += 1
        flow = self.flow_table.get(pkt.flow_id)
        if flow is None:
            return
        if pkt.corrupted:
            # failed integrity check: same recovery as a trimmed packet
            # (NACK the sequence, budget a pull for the retransmission)
            if self.stats is not None:
                self.stats.record_corrupt_rx()
            self._rx_header(pkt)
            return
        cc = self._ndp_rx_state(flow)
        self.rx_data_bytes += pkt.size
        if self.stats is not None:
            self.stats.record_rx(pkt.flow_id, pkt.size)
        if pkt.seq not in cc.rx_received:
            cc.rx_received.add(pkt.seq)
            flow.delivered_bytes += pkt.size
            if flow.receiver_done and flow.finish_time < 0:
                self.finish_flow(flow, self.sim.now)
        ack = Packet(PacketKind.ACK, self.node_id, flow.src, CTRL_PKT_SIZE)
        ack.flow_id = flow.flow_id
        ack.seq = pkt.seq
        self.ports[0].enqueue_control(ack)
        self._maybe_pull(flow)

    def _rx_header(self, pkt: Packet) -> None:
        """A trimmed packet: NACK it and budget a pull for the retx."""
        flow = self.flow_table.get(pkt.flow_id)
        if flow is None:
            return
        cc = self._ndp_rx_state(flow)
        nack = Packet(PacketKind.NDP_NACK, self.node_id, flow.src, CTRL_PKT_SIZE)
        nack.flow_id = flow.flow_id
        nack.seq = pkt.seq
        self.ports[0].enqueue_control(nack)
        cc.rx_pulls_needed += 1
        self._maybe_pull(flow)

    def _rx_ack(self, pkt: Packet) -> None:
        flow = self.flow_table.get(pkt.flow_id)
        if flow is None or not hasattr(flow.cc, "acked"):
            return
        cc = flow.cc
        cc.acked.add(pkt.seq)
        flow.acked_seq = len(cc.acked)
        if len(cc.acked) >= flow.n_packets:
            flow.sender_done = True
            self.active_flows.discard(flow.flow_id)
            if flow.rto_timer is not None:
                flow.rto_timer.stop()
        elif flow.rto_timer is not None:
            flow.rto_timer.start(self.rto)


def install(scenario) -> None:
    """Install trimming on every switch, then size every host's (an
    :class:`NdpHost`) unscheduled window and pull pacing from the
    fabric."""
    for sw in scenario.topology.switches:
        ext = NdpSwitchExtension()
        sw.install_extension(ext)
        scenario.extensions.append(ext)
    for host in scenario.topology.hosts:
        line_rate = host.ports[0].bandwidth
        host.ndp_unscheduled = bdp_packets(line_rate, scenario.base_rtt)
        host.pull_interval = serialization_delay(MTU, line_rate)
