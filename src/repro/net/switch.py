"""Output-queued switch with shared buffer, ECN, PFC, and extensions.

The base switch implements what the paper calls "today's commodity
switch": per-destination ECMP forwarding, RED/ECN marking at
egress, a shared buffer with dynamic-threshold PFC, and in-band
telemetry for HPCC.

Flow-control schemes — Floodgate, BFC, NDP trimming, PFC-w/-tag — plug
in as a :class:`SwitchExtension`.  The extension sees each data packet
*before* the default enqueue and may claim it (hold it in a VOQ, trim
it, re-queue it); it also observes dequeues for credit accounting.
This keeps the combinatorics of (congestion control x flow control)
out of the class hierarchy.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.net.buffer import SharedBuffer
from repro.net.ecn import EcnMarker
from repro.net.node import Node
from repro.net.packet import (
    IS_ACK_LIKE,
    IS_CONTROL,
    IntRecord,
    Packet,
    PacketKind,
)
from repro.net.port import EgressPort
from repro.sim.engine import Simulator
from repro.stats.collector import BW_CREDIT, BW_CTRL, BW_DATA, StatsHub

#: hoisted enum members: the receive dispatcher compares against these
#: once per packet, and a module global beats an Enum class attribute
_DATA = PacketKind.DATA
_PAUSE = PacketKind.PAUSE
_RESUME = PacketKind.RESUME
_CREDIT_LIKE = (PacketKind.CREDIT, PacketKind.SWITCH_SYN)

def _ecmp_hash(value: int) -> int:
    """Cheap deterministic integer hash (Knuth multiplicative)."""
    return (value * 2654435761) & 0xFFFFFFFF


def _ecmp_pick(dst: int, entry: Union[int, Tuple[int, ...]]) -> int:
    """The port a route entry gives ``dst``: per-destination ECMP."""
    if isinstance(entry, int):
        return entry
    return entry[_ecmp_hash(dst) % len(entry)]


class SwitchExtension:
    """Hook interface for switch-resident flow-control schemes."""

    switch: "Switch"

    def attach(self, switch: "Switch") -> None:
        """Called once when installed on ``switch``."""
        self.switch = switch

    def handle_control(self, pkt: Packet, in_port: int) -> bool:
        """Consume a control frame; return True if handled."""
        return False

    def pause_key(self, in_port: int, key: int, pause: bool) -> bool:
        """Apply a keyed PAUSE / RESUME from the peer on ``in_port``
        (BFC: an egress queue; PFC w/ tag: a destination); return
        whether ``key`` was paused before."""
        raise NotImplementedError(f"{type(self).__name__} keeps no pause keys")

    def on_data(self, pkt: Packet, in_port: int, out_port: int) -> bool:
        """See a data packet before default forwarding.

        Return True if the extension took ownership (buffered it in a
        VOQ, trimmed it, dropped it, enqueued it itself).
        """
        return False

    def on_dequeue(self, port: EgressPort, pkt: Packet, queue_idx: int) -> None:
        """Observe a DATA packet leaving an egress queue (control and
        ACK-like frames are not reported)."""

    def adjusted_qlen(self, pkt: Packet, port: EgressPort) -> Optional[int]:
        """Override the INT queue length for ``pkt`` (None = default)."""
        return None


class Switch(Node):
    """An output-queued datacenter switch."""

    #: node kind used in PFC accounting ("tor", "core", "agg", ...)
    kind: str = "switch"

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        name: str,
        buffer_capacity: int,
        kind: str = "switch",
        pfc_enabled: bool = True,
        ecn: Optional[EcnMarker] = None,
        stats: Optional[StatsHub] = None,
    ) -> None:
        super().__init__(sim, node_id, name)
        self.kind = kind
        #: topology layer: 0 = ToR/edge, 1 = agg/spine, 2 = core.
        #: Set by the topology factory; used by Floodgate's VOQ grouping.
        self.level = 0
        self.buffer_capacity = buffer_capacity
        self.pfc_enabled = pfc_enabled
        self.ecn = ecn
        self.stats = stats
        #: the route table, indexed by dst host id (host ids are dense
        #: from 0): the egress port, or -1 for no entry yet.  The
        #: per-dst ECMP choice is made once, at set_route time, so the
        #: hot path is a single list index
        self._route_flat: List[int] = []
        #: installs a missing entry on first lookup (set by
        #: ``Topology.compute_routes``, which routes only a ToR's own
        #: hosts at build time); None on a hand-wired switch, whose
        #: entries all come from ``set_route``
        self.resolve_route: Optional[Callable[["Switch", int], None]] = None
        #: hosts attached directly: host id -> port index
        self.connected_hosts: Dict[int, int] = {}
        #: per-port role labels for stats ("tor-up", "core", ...)
        self.port_roles: List[str] = []
        self.extension: Optional[SwitchExtension] = None
        # buffer is created on finalize() once the port count is known
        self.buffer: Optional[SharedBuffer] = None
        self.dropped_packets = 0
        #: control frames no extension claimed (e.g. Floodgate credits
        #: arriving after teardown, or frames meant for an extension
        #: this switch doesn't run).  Counted so fault experiments can
        #: tell injected control loss from unclaimed-frame discard.
        self.unclaimed_control_frames = 0
        #: subset of the above that were Floodgate CREDIT frames, so the
        #: sanitizer can balance the credit conservation ledger
        self.unclaimed_credit_frames = 0
        #: per-port occupancy (egress queues + extension VOQ bytes)
        self._port_bytes: List[int] = []
        self.port_max_bytes: List[int] = []
        #: per-port queueing delay of departed data packets since the
        #: last report_to_hub(): [normal_sum_ns, normal_n, incast_sum_ns,
        #: incast_n], classified when the packet leaves
        self._port_queuing: List[List[int]] = []

    # -- construction -----------------------------------------------------------

    def attach_link(self, link) -> int:
        index = super().attach_link(link)
        self.port_roles.append("unknown")
        self._port_bytes.append(0)
        self.port_max_bytes.append(0)
        self._port_queuing.append([0, 0, 0, 0])
        return index

    def finalize(self) -> None:
        """Create the shared buffer once all links are attached."""
        self.buffer = SharedBuffer(
            self.buffer_capacity,
            n_ports=len(self.ports),
            pfc_enabled=self.pfc_enabled,
        )
        self.buffer.on_pause = self._send_pfc_pause
        self.buffer.on_resume = partial(self.send_pause, target=-1, pause=False)

    def install_extension(self, ext: SwitchExtension) -> None:
        self.extension = ext
        ext.attach(self)

    def reserve_routes(self, n_dsts: int) -> None:
        """Size the table for every dst below ``n_dsts`` (unset entries
        read -1), so a lookup of an entry not resolved yet misses on the
        sign check instead of an IndexError."""
        grow = n_dsts - len(self._route_flat)
        if grow > 0:
            self._route_flat.extend([-1] * grow)

    def set_route(self, dst: int, ports: Union[int, Tuple[int, ...]]) -> None:
        """Route ``dst`` out of ``ports``: a port, or ECMP candidates of
        which the table keeps ``dst``'s pick."""
        flat = self._route_flat
        if dst >= len(flat):
            self.reserve_routes(dst + 1)
        flat[dst] = _ecmp_pick(dst, ports)

    # -- routing ------------------------------------------------------------------

    def route_for_dst(self, dst: int) -> int:
        """Egress port toward host ``dst``: the one routing decision.

        Per-destination ECMP: every packet to ``dst`` leaves on the same
        port, hashed from ``dst`` over the entry's candidates.  A dst not
        resolved yet is resolved here; an unknown one raises KeyError.
        """
        flat = self._route_flat
        try:
            port = flat[dst]
        except IndexError:
            port = -1
        if port < 0 and self.resolve_route is not None:
            self.resolve_route(self, dst)
            port = flat[dst] if dst < len(flat) else -1
        if port < 0:
            raise KeyError(dst)
        return port

    def is_last_hop_for(self, dst: int) -> bool:
        """True when ``dst`` is a host directly attached to this switch."""
        return dst in self.connected_hosts

    # -- receive path -----------------------------------------------------------------

    def receive(self, pkt: Packet, ingress_port: int) -> None:
        pkt.ingress_port = ingress_port
        kind = pkt.kind
        is_data = kind == _DATA
        if is_data or IS_ACK_LIKE[kind]:
            # data and end-to-end control are nearly every arrival:
            # dispatch before the link-control ladder, with
            # route_for_dst()'s flat-table hit inlined
            try:
                out_port = self._route_flat[pkt.dst]
            except IndexError:
                out_port = -1
            if out_port < 0:
                out_port = self.route_for_dst(pkt.dst)
            if not is_data:
                # End-to-end control: strictly prioritized, not
                # buffer-accounted (negligible size, never the
                # congestion bottleneck).
                self.ports[out_port].enqueue_control(pkt)
                return
            ext = self.extension
            if ext is not None and ext.on_data(pkt, ingress_port, out_port):
                return
            # enqueue_data(pkt, out_port) for a packet not yet charged,
            # on the default queue, without its frame
            buffer = self.buffer
            if buffer is None:
                raise RuntimeError(f"{self.name}: finalize() was not called")
            size = pkt.size
            if not buffer.admit(size, ingress_port):
                self._drop(pkt)
                return
            port = self.ports[out_port]
            ecn = self.ecn
            if ecn is not None and pkt.ecn_capable and not pkt.ecn_marked:
                # should_mark() draws nothing at or below kmin
                queued = port._data_bytes
                if queued > ecn.config.kmin and ecn.should_mark(queued):
                    pkt.ecn_marked = True
            used = self._port_bytes[out_port] + size
            self._port_bytes[out_port] = used
            if used > self.port_max_bytes[out_port]:
                self.port_max_bytes[out_port] = used
            port.enqueue(pkt, 1)
            return
        if kind == _PAUSE or kind == _RESUME:
            self.receive_pause(pkt, ingress_port)
            return
        if IS_CONTROL[kind]:
            if self.extension is not None and self.extension.handle_control(
                pkt, ingress_port
            ):
                return  # the extension consumed the frame
            # unclaimed: no extension owns this frame — count the
            # discard instead of losing it silently
            self.unclaimed_control_frames += 1
            if kind == PacketKind.CREDIT:
                self.unclaimed_credit_frames += 1
            if self.stats is not None:
                self.stats.record_unclaimed_control()
            return
        out_port = self.route_for_dst(pkt.dst)
        if self.extension is not None and self.extension.on_data(
            pkt, ingress_port, out_port
        ):
            return
        self.enqueue_data(pkt, out_port)

    def enqueue_data(
        self,
        pkt: Packet,
        out_port: int,
        queue_idx: int = 1,
        already_charged: bool = False,
    ) -> None:
        """Admission control + ECN + enqueue to an egress data queue.

        ``already_charged`` skips buffer admission and port-occupancy
        accounting for packets moving out of an extension's VOQ (they
        were charged when first buffered).  :meth:`receive` inlines the
        uncharged default-queue case.
        """
        buffer = self.buffer
        if buffer is None:
            raise RuntimeError(f"{self.name}: finalize() was not called")
        if not already_charged:
            if not buffer.admit(pkt.size, pkt.ingress_port):
                self._drop(pkt)
                return
        port = self.ports[out_port]
        ecn = self.ecn
        if (
            ecn is not None
            and pkt.ecn_capable
            and not pkt.ecn_marked
            and ecn.should_mark(port._data_bytes)
        ):
            pkt.ecn_marked = True
        if not already_charged:
            self._note_port_bytes(out_port, pkt.size)
        port.enqueue(pkt, queue_idx)

    def _drop(self, pkt: Packet) -> None:
        """The pool refused ``pkt``."""
        self.dropped_packets += 1
        if self.stats is not None:
            self.stats.record_drop()

    # -- occupancy tracking ----------------------------------------------------------

    def _note_port_bytes(self, port_index: int, delta: int) -> None:
        """Track per-port occupancy (egress + VOQ) and its maximum."""
        used = self._port_bytes[port_index] + delta
        self._port_bytes[port_index] = used
        if used > self.port_max_bytes[port_index]:
            self.port_max_bytes[port_index] = used

    # -- dequeue hook -------------------------------------------------------------------

    def on_port_dequeue(self, port: EgressPort, pkt: Packet, queue_idx: int) -> None:
        stats = self.stats
        if pkt.ecn_capable:  # DATA packets only
            if self.buffer is not None:
                self.buffer.release(pkt.size, pkt.ingress_port)
            self._port_bytes[port.index] -= pkt.size
            if stats is not None:
                delay = self.sim.now - pkt.enqueue_time
                histogram = stats.queuing_histogram
                if histogram is not None:
                    histogram.observe(delay)
                # classified now: a closed-loop driver registers incast
                # flows while the run is under way
                cell = self._port_queuing[port.index]
                i = 2 if pkt.flow_id in stats._incast_flows else 0
                cell[i] += delay
                cell[i + 1] += 1
            # only a law that needs INT attaches a stack
            if pkt.int_records is not None:
                qlen = None
                if self.extension is not None:
                    qlen = self.extension.adjusted_qlen(pkt, port)
                if qlen is None:
                    qlen = port.data_bytes_queued
                pkt.int_records.append(
                    IntRecord(qlen, port.tx_bytes, self.sim.now, port.bandwidth)
                )
            if self.extension is not None:
                self.extension.on_dequeue(port, pkt, queue_idx)
        if stats is not None and stats.track_bandwidth:
            kind = pkt.kind
            if kind == _DATA:
                stats.record_tx(BW_DATA, pkt.size)
            elif kind in _CREDIT_LIKE:
                stats.record_tx(BW_CREDIT, pkt.size)
            else:
                stats.record_tx(BW_CTRL, pkt.size)

    # -- pause frames ----------------------------------------------------------------------

    def _send_pfc_pause(self, ingress_port: int) -> None:
        """Our ingress crossed the threshold: pause the upstream peer."""
        self.send_pause(ingress_port, -1, True)
        if self.stats is not None:
            self.stats.record_pfc_event()

    def pause_key(self, in_port: int, key: int, pause: bool) -> bool:
        return self.extension.pause_key(in_port, key, pause)

    def report_to_hub(self) -> None:
        """Move what the switch keeps for the hub — buffer and port
        maxima, queueing sums — into it, after the pause time
        (:meth:`Node.report_to_hub`).  A second call adds nothing."""
        super().report_to_hub()
        stats = self.stats
        if stats is None:
            return
        if self.buffer is not None:
            stats.record_switch_buffer(self.name, self.buffer.max_used)
        for role, peak, cell in zip(
            self.port_roles, self.port_max_bytes, self._port_queuing
        ):
            stats.record_port_buffer(self.name, role, peak)
            if cell[1]:
                stats.record_queuing(role, False, cell[0], cell[1])
            if cell[3]:
                stats.record_queuing(role, True, cell[2], cell[3])
            cell[:] = (0, 0, 0, 0)
