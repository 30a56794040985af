"""The Floodgate switch extension: where windows, VOQs, credits meet.

Install on every switch *after* the topology is built (ports must
exist): :func:`install` does it for a scenario, deriving from it what
the deployment's :class:`~repro.floodgate.config.FloodgateConfig`
does not carry.

Data path (§4.2):

1.  Packets for directly-attached hosts bypass Floodgate — the last
    hop maintains no window (§3.2) — but still earn credits for the
    upstream switch when they depart.
2.  If the destination already owns a VOQ, the packet joins it
    (ordering).
3.  Otherwise, if the per-dst window has room, the packet is forwarded
    to the egress queue, the window is consumed, and a PSN assigned.
4.  Otherwise a VOQ is allocated (bitmap, then same-group CRC-hash
    fallback) and the packet parked there.

Credits arriving from downstream refill the window (absolute PSN
reconciliation when loss recovery is on) and trigger VOQ drains.
Drained packets enter a dedicated lowest-priority egress queue so
non-incast traffic is never blocked behind them (§7.2's strict
priority + RR scheduler).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.models import hop_bdp_bytes
from repro.floodgate.config import FloodgateConfig
from repro.floodgate.credit import CreditScheduler
from repro.floodgate.voq import VoqPool, group_of
from repro.floodgate.window import WindowTable
from repro.net.packet import Packet, PacketKind
from repro.net.port import EgressPort
from repro.net.switch import Switch, SwitchExtension
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicTask
from repro.units import CTRL_PKT_SIZE, MTU, SEC, us

#: the ideal design's window, in next-hop BDPs (§6: ``m = 1.5``)
M = 1.5
#: VOQ pool size per switch (§6)
MAX_VOQS = 100


class FloodgateExtension(SwitchExtension):
    """Per-switch Floodgate state machine.

    ``ideal=True`` selects the strawman design of §3.2: per-packet
    credits (no aggregation timer, no delayCredit) and a sending window
    of ``M * BDP_nextHop``.  The practical design (§4) aggregates
    credits every ``config.credit_timer``, withholds them while a
    destination's VOQ backlog exceeds ``credit_bytes`` (delayCredit),
    and initializes the window to ``BDP_nextHop + C_out * T``.  With
    ``per_dst_pause`` a ToR pauses a source above ``base_bdp`` bytes
    of backlog and resumes it below half that (§4.3).
    """

    def __init__(
        self,
        sim: Simulator,
        config: FloodgateConfig,
        ideal: bool,
        per_dst_pause: bool,
        base_bdp: int,
        credit_bytes: int,
    ) -> None:
        self.sim = sim
        self.config = config
        self.ideal = ideal
        self.per_dst_pause = per_dst_pause
        #: dstPause off/on thresholds on a dst's VOQ backlog, bytes
        self.thre_off = base_bdp
        self.thre_on = max(base_bdp // 2, 1)
        self.windows = WindowTable()
        self.pool = VoqPool(MAX_VOQS)
        self.credits = CreditScheduler(
            sim,
            0 if ideal else config.credit_timer,
            credit_bytes,
            self._send_credit,
            self.pool.dst_backlog,
        )
        #: egress queue index for VOQ-drained (incast) traffic, per port
        self.incast_queue: List[int] = []
        #: per-dst pause bookkeeping: dst -> paused source host ids
        self.paused_sources: Dict[int, Set[int]] = {}
        self._syn_task: Optional[PeriodicTask] = None
        self.syn_sent = 0
        self.dst_pauses_sent = 0
        #: CREDIT frames this switch consumed (sanitizer credit ledger)
        self.credit_frames_rx = 0

    def telemetry_counters(self) -> Dict[str, int]:
        """Credit + VOQ counters, summed over switches into the hub's
        ``extension_counters`` at collect time."""
        counters = dict(self.credits.telemetry_counters())
        counters.update(self.pool.telemetry_counters())
        counters["syn_sent"] = self.syn_sent
        counters["dst_pauses_sent"] = self.dst_pauses_sent
        return counters

    # -- installation -----------------------------------------------------------------

    def attach(self, switch: Switch) -> None:
        super().attach(switch)
        for port in switch.ports:
            self.incast_queue.append(port.add_rr_queues(1))
            peer = switch.peer(port.index)
            if isinstance(peer, Switch):
                self.credits.watch_port(port.index)
        if self.config.loss_recovery:
            # Runs lazily: armed whenever data is outstanding, stops
            # once every (port, dst) pair has been fully credited.
            self._syn_task = PeriodicTask(
                self.sim, self.config.syn_timeout, self._syn_scan
            )

    # -- window sizing ------------------------------------------------------------------

    def _initial_window(self, dst: int) -> int:
        """Initial per-dst window in packets (§3.2 ideal / §4.2 practical)."""
        sw = self.switch
        out = sw.route_for_dst(dst)
        link = sw.links[out]
        bw = link.bandwidth
        bdp_pkts = -(-hop_bdp_bytes(bw, link.delay) // MTU)
        if self.ideal:
            return max(1, int(M * bdp_pkts + 0.5))
        timer_pkts = -(-int(bw * self.config.credit_timer / (8 * SEC)) // MTU)
        return bdp_pkts + timer_pkts

    # -- data path ------------------------------------------------------------------------

    def on_data(self, pkt: Packet, in_port: int, out_port: int) -> bool:
        """True when the packet was parked (or dropped at the pool);
        False leaves it to the switch's own enqueue."""
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
            return False
        voq = self.pool.allocate(dst, group_of(sw, out_port))
        if voq is None:
            # pool exhausted, no same-group VOQ: forced bypass (rare),
            # forwarded without consuming the window
            self._stamp_psn(pkt, out_port, dst)
            return False
        self._park(pkt, out_port, voq)
        return True

    def _stamp_psn(self, pkt: Packet, out_port: int, dst: int) -> None:
        """Assign the next PSN of ``(out_port, dst)`` to a departing packet."""
        windows = self.windows
        psns = windows.next_psn[out_port]
        pkt.psn = psn = psns.get(dst, 0)
        psns[dst] = psn + 1
        if psn == 0:
            key = (out_port, dst)
            windows.sent_pairs.append(key)
            windows.last_credit_time.setdefault(key, self.sim.now)
        syn = self._syn_task
        if syn is not None and not syn.running:
            syn.start()

    def _park(self, pkt: Packet, out_port: int, voq) -> None:
        """Buffer an incast packet in its VOQ (charged to the pool)."""
        sw = self.switch
        buffer = sw.buffer
        assert buffer is not None
        if not buffer.admit(pkt.size, pkt.ingress_port):
            sw._drop(pkt)
            return
        pkt.no_win = True
        sw._note_port_bytes(out_port, pkt.size)
        self.pool.push(voq, pkt)
        self._maybe_pause_source(pkt)

    # -- VOQ drain ----------------------------------------------------------------------------

    def _drain_dst(self, dst: int) -> None:
        voq = self.pool.voq_of_dst.get(dst)
        if voq is None:
            return
        sw = self.switch
        windows = self.windows
        window = windows.window
        while voq.packets:
            d = voq.packets[0].dst
            win = window.get(d)
            if win is None:
                win = windows.ensure(d, self._initial_window(d))
            if win < 1:
                break
            out = sw.route_for_dst(d)
            pkt = self.pool.pop(voq)
            window[d] = win - 1
            self._stamp_psn(pkt, out, d)
            queue = self.incast_queue[out] if self.config.isolate_incast else 1
            sw.enqueue_data(pkt, out, queue_idx=queue, already_charged=True)
            self._maybe_resume_sources(d)

    # -- control path -------------------------------------------------------------------------

    def handle_control(self, pkt: Packet, in_port: int) -> bool:
        if pkt.kind == PacketKind.CREDIT:
            self.credit_frames_rx += 1
            for dst, count in pkt.credits or ():
                if self.config.loss_recovery and pkt.last_psn >= 0:
                    self.windows.reconcile(in_port, dst, pkt.last_psn, self.sim.now)
                else:
                    self.windows.add_credits(dst, count)
                self._drain_dst(dst)
            return True
        if pkt.kind == PacketKind.SWITCH_SYN:
            self.credits.answer_syn(in_port, pkt.target)
            return True
        return False

    def on_dequeue(self, port: EgressPort, pkt: Packet, queue_idx: int) -> None:
        """The credit a departed packet earns its upstream (§4.1).

        The scheduler's per-port tables say which design runs: the
        ideal one has no timer and returns the credit now; the
        practical one owes it until the port's timer fires.
        """
        # hosts keep no window (§3.2): only switch-facing ingress ports
        # are watched, and only they are owed credits
        credits = self.credits
        in_port = pkt.ingress_port
        owed = credits.owed.get(in_port)
        if owed is None:
            if in_port not in credits.watched:
                return
            owed = credits.open_port(in_port)
        dst = pkt.dst
        forwarded = credits.last_fwd_psn[in_port]
        psn = forwarded.get(dst, -1)
        if pkt.upstream_psn > psn:
            forwarded[dst] = psn = pkt.upstream_psn
        timer = credits._timers.get(in_port)
        if timer is None:  # the ideal design: one credit per packet, now
            credits.send_fn(in_port, dst, 1, psn)
            credits.credits_sent += 1
            return
        owed[dst] = owed.get(dst, 0) + 1
        if not timer.running:
            # Stagger the phase by port index so a switch's ports do
            # not all emit credit bursts in the same instant.
            timer.start(phase=(in_port * 97) % self.config.credit_timer)

    def adjusted_qlen(self, pkt: Packet, port: EgressPort) -> Optional[int]:
        """HPCC co-existence (§8): incast packets report VOQ backlog."""
        if pkt.no_win:
            return port.data_bytes_queued + self.pool.total_bytes()
        return None

    # -- credit emission ---------------------------------------------------------------------------

    def _send_credit(self, port: int, dst: int, count: int, psn: int) -> None:
        sw = self.switch
        peer = sw.peer(port)
        credit = Packet(PacketKind.CREDIT, sw.node_id, peer.node_id, CTRL_PKT_SIZE)
        credit.credits = [(dst, count)]
        credit.last_psn = psn
        sw.ports[port].enqueue_control(credit)

    # -- switchSYN loss recovery -----------------------------------------------------------------------

    def _syn_scan(self) -> None:
        now = self.sim.now
        timeout = self.config.syn_timeout
        pairs = self.windows.exhausted_pairs()
        if not pairs and self._syn_task is not None:
            self._syn_task.stop()
            return
        for (port, dst) in pairs:
            last = self.windows.last_credit_time.get((port, dst), now)
            if now - last >= timeout:
                peer = self.switch.peer(port)
                if not isinstance(peer, Switch):
                    continue  # the last hop is a host: nothing to probe
                syn = Packet.control(
                    PacketKind.SWITCH_SYN, self.switch.node_id, peer.node_id
                )
                syn.target = dst
                self.switch.ports[port].enqueue_control(syn)
                self.windows.last_credit_time[(port, dst)] = now
                self.syn_sent += 1

    # -- per-dst PAUSE (§4.3, optional host support) ----------------------------------------------------

    def _maybe_pause_source(self, pkt: Packet) -> None:
        if not self.per_dst_pause or self.switch.level != 0:
            return
        dst = pkt.dst
        if self.pool.dst_backlog(dst) <= self.thre_off:
            return
        src_port = self.switch.connected_hosts.get(pkt.src)
        if src_port is None:
            return
        paused = self.paused_sources.setdefault(dst, set())
        if pkt.src in paused:
            return
        paused.add(pkt.src)
        self.dst_pauses_sent += 1
        self.switch.send_pause(src_port, dst, True)

    def _maybe_resume_sources(self, dst: int) -> None:
        if not self.per_dst_pause:
            return
        paused = self.paused_sources.get(dst)
        if not paused:
            return
        if self.pool.dst_backlog(dst) >= self.thre_on:
            return
        for src in sorted(paused):
            src_port = self.switch.connected_hosts.get(src)
            if src_port is None:
                continue
            self.switch.send_pause(src_port, dst, False)
        paused.clear()

    # -- teardown / stats --------------------------------------------------------------------------------

    def stop(self) -> None:
        """Cancel periodic tasks (end of experiment)."""
        self.credits.stop()
        if self._syn_task is not None:
            self._syn_task.stop()


def install(scenario) -> None:
    """Install Floodgate on every switch: the ideal design (§3.2) for
    ``flow_control="floodgate-ideal"``, else the practical one (§4).

    The config is ``ScenarioConfig.floodgate`` or the scale's default;
    the delayCredit threshold is ``delay_credit_bdp`` (or the scale's
    multiple) base BDPs.
    """
    cfg = scenario.config
    ci = cfg.scale == "ci"  # a str enum: no import of repro.experiments
    config = cfg.floodgate
    if config is None:
        # Preserve the window-to-buffer ratio at CI scale: the
        # paper's T=10us at 400 Gbps adds ~500 KB to each window
        # against a 20 MB buffer (2.5%); 2us at 40 Gbps adds 10 KB
        # against 0.5 MB (2%).
        config = FloodgateConfig(credit_timer=us(2)) if ci else FloodgateConfig()
    # Scaled-down (CI) runs use a smaller multiple to preserve the
    # threshold's ratio to the (also scaled-down) switch buffer; the
    # paper uses 10 and shows robustness across 1-38 (Fig. 17d).
    multiple = cfg.delay_credit_bdp or (2.0 if ci else 10.0)
    base_bdp = scenario.base_bdp
    ideal = cfg.flow_control == "floodgate-ideal"
    for sw in scenario.topology.switches:
        ext = FloodgateExtension(
            scenario.sim,
            config,
            ideal,
            cfg.per_dst_pause,
            base_bdp,
            int(multiple * base_bdp),
        )
        sw.install_extension(ext)
        scenario.extensions.append(ext)
