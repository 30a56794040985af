"""The PR-22 switch data path, kept verbatim as the test oracle.

``repro.net.switch.Switch`` now keeps its buffer maximum, its per-port
maxima and its per-port queueing sums where they change and moves them
to the stats hub when the run is collected (``report_to_hub``);
``receive`` admits, marks and enqueues a data packet in its own frame;
and Floodgate's open-window case leaves the enqueue to the switch.  The
contract is that nothing simulated or measured moved.  This is what
they replaced — a hop that pushes ``record_switch_buffer``,
``record_port_buffer`` and ``record_queuing`` into the hub per packet,
through ``enqueue_data`` and ``_note_port_bytes``, and an extension
that calls ``sw.enqueue_data`` itself — and
``tests/test_switch_oracle.py`` holds the live code ``==`` to it on the
full summary, event counts included.  Do not "improve" this file: it is
a reference, not code under test.  One edit since: its PFC branches
hand PAUSE / RESUME to ``Node.receive_pause``, the one pause handler
that replaced the per-protocol frame kinds.
"""
from __future__ import annotations

from repro.floodgate.extension import FloodgateExtension
from repro.floodgate.voq import group_of
from repro.net.packet import IS_ACK_LIKE, IS_CONTROL, IntRecord, Packet, PacketKind
from repro.net.port import EgressPort
from repro.net.switch import Switch
from repro.stats.collector import BW_CREDIT, BW_CTRL, BW_DATA, StatsHub

_DATA = PacketKind.DATA
_PAUSE = PacketKind.PAUSE
_RESUME = PacketKind.RESUME
_CREDIT_LIKE = (PacketKind.CREDIT, PacketKind.SWITCH_SYN)


def receive(self, pkt: Packet, ingress_port: int) -> None:
    pkt.ingress_port = ingress_port
    kind = pkt.kind
    is_data = kind == _DATA
    if is_data or IS_ACK_LIKE[kind]:
        # data and end-to-end control are nearly every arrival:
        # dispatch before the link-control ladder, with route()'s
        # per-dst table hit inlined
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
        self.enqueue_data(pkt, out_port)
        return
    if kind == _PAUSE or kind == _RESUME:
        self.receive_pause(pkt, ingress_port)
        return
    if IS_CONTROL[kind]:
        if self.extension is not None and self.extension.handle_control(
            pkt, ingress_port
        ):
            return  # the extension consumed the frame
        # unclaimed: no extension owns this frame — count and trace
        # the discard instead of losing it silently
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
    were charged when first buffered).
    """
    buffer = self.buffer
    if buffer is None:
        raise RuntimeError(f"{self.name}: finalize() was not called")
    stats = self.stats
    size = pkt.size
    if not already_charged:
        if not buffer.admit(size, pkt.ingress_port):
            self.dropped_packets += 1
            if stats is not None:
                stats.record_drop()
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
        self._note_port_bytes(out_port, size)
        if stats is not None:
            stats.record_switch_buffer(self.name, buffer.used)
    port.enqueue(pkt, queue_idx)


def _note_port_bytes(self, port_index: int, delta: int) -> None:
    """Track per-port occupancy (egress + VOQ) and report maxima."""
    self._port_bytes[port_index] += delta
    used = self._port_bytes[port_index]
    if used > self.port_max_bytes[port_index]:
        self.port_max_bytes[port_index] = used
        if self.stats is not None:
            self.stats.record_port_buffer(
                self.name, self.port_roles[port_index], used
            )


def on_port_dequeue(self, port: EgressPort, pkt: Packet, queue_idx: int) -> None:
    stats = self.stats
    if pkt.ecn_capable:  # DATA packets only
        if self.buffer is not None:
            self.buffer.release(pkt.size, pkt.ingress_port)
        self._port_bytes[port.index] -= pkt.size
        if stats is not None:
            stats.record_queuing(
                self.port_roles[port.index],
                pkt.flow_id,
                self.sim.now - pkt.enqueue_time,
            )
        if self.int_enabled and pkt.int_records is not None:
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


def floodgate_on_data(self, pkt: Packet, in_port: int, out_port: int) -> bool:
    sw = self.switch
    dst = pkt.dst
    # Remember the upstream's PSN before we stamp our own: the
    # credit we eventually return must echo *their* sequence.
    pkt.upstream_psn = pkt.psn
    if dst in sw.connected_hosts:
        return False  # no window at the last hop (§3.2)
    voq = self.pool.voq_of_dst.get(dst)
    if voq is not None:
        self._park(pkt, out_port, voq)
        return True
    windows = self.windows
    win = windows.window.get(dst)
    if win is None:
        win = windows.ensure(dst, self._initial_window(dst))
    if win >= 1:
        # The common case — no VOQ, window open — is dict hits and
        # an add: consume the window, stamp the next PSN, note the
        # first send of this (port, dst) for the switchSYN scan.
        windows.window[dst] = win - 1
        self._stamp_psn(pkt, out_port, dst)
        sw.enqueue_data(pkt, out_port)
        return True
    voq = self.pool.allocate(dst, group_of(sw, out_port))
    if voq is None:
        # pool exhausted, no same-group VOQ: forced bypass (rare),
        # forwarded without consuming the window
        self._stamp_psn(pkt, out_port, dst)
        sw.enqueue_data(pkt, out_port)
        return True
    self._park(pkt, out_port, voq)
    return True


def record_queuing(self, role: str, flow_id: int, delay: int) -> None:
    if self.queuing_histogram is not None:
        self.queuing_histogram.observe(delay)
    table = (
        self.queuing_incast
        if flow_id in self._incast_flows
        else self.queuing_normal
    )
    cell = table.get(role)
    if cell is None:
        table[role] = [delay, 1]
    else:
        cell[0] += delay
        cell[1] += 1


# the one grafted function that is an event callback: the engine
# profile and the event-stream digest name a callback by its qualname
receive.__qualname__ = "Switch.receive"


def install(patch) -> None:
    """Graft the push-style hop onto the live classes.

    ``patch`` is a ``pytest.MonkeyPatch`` (or its ``context()``).  The
    live ``report_to_hub`` still runs when the run is collected: the
    maxima it moves are the ones the hop already pushed (a maximum
    moves idempotently), and the queueing cells it would move stay
    empty, because the old ``on_port_dequeue`` never fills them.
    """
    patch.setattr(Switch, "receive", receive)
    patch.setattr(Switch, "enqueue_data", enqueue_data)
    patch.setattr(Switch, "_note_port_bytes", _note_port_bytes)
    patch.setattr(Switch, "on_port_dequeue", on_port_dequeue)
    # the old hop reads a switch INT flag the switch no longer has:
    # a packet carries an INT stack exactly when its sender's law
    # needs INT, so an always-on flag stamps the same packets
    patch.setattr(Switch, "int_enabled", True, raising=False)
    patch.setattr(FloodgateExtension, "on_data", floodgate_on_data)
    patch.setattr(StatsHub, "record_queuing", record_queuing)
