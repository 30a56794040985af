"""PFC w/ tag: the reactive per-dst derivative of Floodgate (App. B).

Behaviour per the paper:

* the last-hop ToR watches each host-facing egress queue; when it
  exceeds the pause threshold, a PAUSE keyed by the congested
  destination goes to the upstream switch the triggering packet came
  from (:meth:`~repro.net.node.Node.send_pause`);
* an upstream switch that holds a pause for a destination (its
  ``paused_dsts``, which :meth:`PfcTagExtension.pause_key` keeps) parks
  that destination's packets in a VOQ; if the VOQ itself exceeds the
  threshold, the pause propagates another hop upstream;
* when the congested queue (or VOQ) drains below the resume
  threshold, keyed RESUME frames release the recorded upstream
  entities and the VOQs drain.

Unlike Floodgate this is *reactive* — nothing is tamed until the
last-hop queue has already built up — which is exactly the contrast
Appendix B draws (longer control loop, more VOQs, worse behaviour in
oversubscribed fabrics).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.floodgate.voq import VoqPool, group_of
from repro.net.packet import Packet, PacketKind
from repro.net.port import EgressPort
from repro.net.switch import Switch, SwitchExtension


#: VOQs per switch
MAX_VOQS = 1000


class PfcTagExtension(SwitchExtension):
    """Per-switch PFC-w/-tag state."""

    def __init__(self, base_bdp: int) -> None:
        #: queue (or VOQ) bytes that pause the upstream: two base BDPs;
        #: it resumes below one
        self.pause_threshold = 2 * base_bdp
        self.resume_threshold = base_bdp
        self.pool = VoqPool(MAX_VOQS)
        #: destinations this switch is currently told to pause
        self.paused_dsts: Set[int] = set()
        #: dst -> upstream ingress ports we have paused
        self.paused_upstreams: Dict[int, Set[int]] = {}
        self.incast_queue: List[int] = []
        self.pauses_sent = 0

    def attach(self, switch: Switch) -> None:
        super().attach(switch)
        for port in switch.ports:
            self.incast_queue.append(port.add_rr_queues(1))

    # -- data path ---------------------------------------------------------------

    def on_data(self, pkt: Packet, in_port: int, out_port: int) -> bool:
        sw = self.switch
        dst = pkt.dst
        voq = self.pool.lookup(dst)
        if dst in self.paused_dsts or voq is not None:
            if voq is None:
                voq = self.pool.allocate(dst, group_of(sw, out_port))
            if voq is None:
                sw.enqueue_data(pkt, out_port)
                return True
            self._park(pkt, out_port, voq)
            # VOQ overflowing: push the pause another hop upstream
            if self.pool.dst_backlog(dst) > self.pause_threshold:
                self._pause_upstream(dst, in_port)
            return True
        sw.enqueue_data(pkt, out_port)
        if (
            sw.is_last_hop_for(dst)
            and sw.ports[out_port].data_bytes_queued > self.pause_threshold
        ):
            self._pause_upstream(dst, in_port)
        return True

    def _park(self, pkt: Packet, out_port: int, voq) -> None:
        sw = self.switch
        buffer = sw.buffer
        assert buffer is not None
        if not buffer.admit(pkt.size, pkt.ingress_port):
            sw._drop(pkt)
            return
        sw._note_port_bytes(out_port, pkt.size)
        self.pool.push(voq, pkt)

    # -- pause / resume ---------------------------------------------------------------

    def _pause_upstream(self, dst: int, in_port: int) -> None:
        peer = self.switch.peer(in_port)
        if not isinstance(peer, Switch):
            return  # hosts are not paused by this scheme
        paused = self.paused_upstreams.setdefault(dst, set())
        if in_port in paused:
            return
        paused.add(in_port)
        self.switch.send_pause(in_port, dst, True)
        self.pauses_sent += 1

    def _maybe_resume(self, dst: int, backlog: int) -> None:
        paused = self.paused_upstreams.get(dst)
        if not paused or backlog > self.resume_threshold:
            return
        for in_port in sorted(paused):
            self.switch.send_pause(in_port, dst, False)
        paused.clear()

    def on_dequeue(self, port: EgressPort, pkt: Packet, queue_idx: int) -> None:
        if pkt.kind != PacketKind.DATA:
            return
        sw = self.switch
        dst = pkt.dst
        if sw.is_last_hop_for(dst):
            self._maybe_resume(dst, port.data_bytes_queued)
        else:
            self._maybe_resume(dst, self.pool.dst_backlog(dst))
        # room opened on this port: trickle resumed VOQ traffic into it
        self._drain_into(port)

    def _drain_into(self, port: EgressPort) -> None:
        """Move resumed VOQ packets to ``port`` while it has room.

        Draining is throttled by the pause threshold so a re-pause can
        still take effect — dumping a whole VOQ at once would defeat
        the scheme (everything would already sit in the egress queue).
        """
        sw = self.switch
        for dst in list(self.pool.voq_of_dst):
            if dst in self.paused_dsts:
                continue
            if sw.route_for_dst(dst) != port.index:
                continue
            voq = self.pool.lookup(dst)
            while (
                voq is not None
                and voq.packets
                and voq.packets[0].dst not in self.paused_dsts
                and port.data_bytes_queued < self.pause_threshold
            ):
                head = self.pool.pop(voq)
                out = sw.route_for_dst(head.dst)
                sw.enqueue_data(
                    head,
                    out,
                    queue_idx=self.incast_queue[out],
                    already_charged=True,
                )
                self._maybe_resume(head.dst, self.pool.dst_backlog(head.dst))
                voq = self.pool.lookup(dst)

    # -- control -----------------------------------------------------------------------

    def pause_key(self, in_port: int, key: int, pause: bool) -> bool:
        """The downstream switch pauses or resumes destination ``key``."""
        was_paused = key in self.paused_dsts
        if pause:
            self.paused_dsts.add(key)
        else:
            self.paused_dsts.discard(key)
            self._drain(key)
        return was_paused

    def _drain(self, dst: int) -> None:
        """Start releasing a destination's VOQ after a resume.

        Moves packets only while the egress has room below the pause
        threshold; the rest trickles out from :meth:`_drain_into` as
        the port dequeues.
        """
        voq = self.pool.lookup(dst)
        if voq is None:
            return
        sw = self.switch
        while voq is not None and voq.packets:
            head = voq.packets[0]
            if head.dst in self.paused_dsts:
                break  # shared VOQ: a still-paused dst blocks the head
            out = sw.route_for_dst(head.dst)
            if sw.ports[out].data_bytes_queued >= self.pause_threshold:
                break
            pkt = self.pool.pop(voq)
            sw.enqueue_data(
                pkt, out, queue_idx=self.incast_queue[out], already_charged=True
            )
            self._maybe_resume(pkt.dst, self.pool.dst_backlog(pkt.dst))
            voq = self.pool.lookup(dst)


def install(scenario) -> None:
    """Install PFC w/ tag on every switch."""
    for sw in scenario.topology.switches:
        ext = PfcTagExtension(scenario.base_bdp)
        sw.install_extension(ext)
        scenario.extensions.append(ext)
