"""BFC: Backpressure Flow Control (Goyal et al., NSDI '22).

Per-hop, per-flow flow control on a limited pool of physical egress
queues:

* each switch hashes a flow's identifier into a *FID* and assigns the
  FID to an egress queue — an empty queue when one is free, otherwise
  an occupied one (collision -> HOL blocking, the behaviour §8 and
  Appendix B analyze);
* assignments are *sticky*: a queue stays bound to its FID for a
  grace period after it drains, so periodic incast flows land back in
  the same (pausable) queue;
* when a queue crosses the pause threshold, the switch pauses the
  *upstream queue* conveyed in the arriving packet's metadata; it
  resumes the upstream once its own queue drains below the resume
  threshold;
* hosts cooperate: the NIC hashes flows onto the same number of
  virtual queues and pauses them when the ToR says so.

``n_queues=0`` selects **BFC-ideal**: unbounded queues, FID == flow id
(no collisions), one dedicated queue per flow.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Set, Tuple

from repro.net.host import Host
from repro.net.packet import Packet, PacketKind
from repro.net.port import EgressPort
from repro.net.switch import Switch, SwitchExtension
from repro.sim.engine import Simulator
from repro.units import us


def _fid_hash(value: int) -> int:
    """The switch's FID hash (collisions are part of the model)."""
    value = (value ^ (value >> 15)) * 0x2C1B3C6D & 0xFFFFFFFF
    value = (value ^ (value >> 12)) * 0x297A2D39 & 0xFFFFFFFF
    return value ^ (value >> 21)


#: FID table size; smaller -> more flow-id collisions
FID_SPACE = 4096
#: sticky assignment grace period after a queue drains, ns
STICKY_TIME = us(20)


class _QueueState:
    """Book-keeping for one egress queue at one port."""

    __slots__ = ("fids", "last_enqueue", "paused_upstreams")

    def __init__(self) -> None:
        self.fids: Set[int] = set()
        self.last_enqueue = -(1 << 60)
        #: (ingress_port, upstream_queue) pairs we paused
        self.paused_upstreams: Set[Tuple[int, int]] = set()


class BfcExtension(SwitchExtension):
    """BFC logic for one switch."""

    def __init__(self, sim: Simulator, n_queues: int, base_bdp: int) -> None:
        self.sim = sim
        #: physical queues per egress port; 0 = ideal (per-flow, unbounded)
        self.n_queues = n_queues
        self.ideal = n_queues == 0
        #: queue occupancy (bytes) that pauses the upstream queue: one
        #: base BDP; paused upstreams resume below half of that
        self.pause_threshold = base_bdp
        self.resume_threshold = max(base_bdp // 2, 1)
        #: per port: FID -> queue index (a port's table appears with
        #: its first packet, as do the two below)
        self.assignment: Dict[int, Dict[int, int]] = defaultdict(dict)
        #: per port: queue index -> state
        self.queue_state: Dict[int, Dict[int, _QueueState]] = defaultdict(dict)
        #: per port: first RR queue index
        self.first_queue: List[int] = []
        #: ideal mode: per port, drained queues ready for reuse
        self.free_queues: Dict[int, List[int]] = defaultdict(list)
        self.pauses_sent = 0
        self.collisions = 0

    def attach(self, switch: Switch) -> None:
        super().attach(switch)
        n = self.n_queues
        for port in switch.ports:
            first = port.add_rr_queues(n) if n else len(port.queues)
            self.first_queue.append(first)

    # -- queue assignment -------------------------------------------------------

    def _fid_of(self, flow_id: int) -> int:
        if self.ideal:
            return flow_id
        return _fid_hash(flow_id) % FID_SPACE

    def _queue_for(self, out_port: int, fid: int) -> int:
        """Current or fresh queue assignment for ``fid`` at ``out_port``."""
        port = self.switch.ports[out_port]
        table = self.assignment[out_port]
        states = self.queue_state[out_port]
        now = self.sim.now
        qidx = table.get(fid)
        if qidx is not None:
            state = states[qidx]
            # sticky: keep while occupied or within the grace period
            if port.queue_bytes[qidx] > 0 or (
                now - state.last_enqueue <= STICKY_TIME
            ):
                return qidx
            state.fids.discard(fid)
            del table[fid]
        if self.ideal:
            # dedicate a queue per flow, reusing drained ones (O(1))
            free = self.free_queues[out_port]
            idx = free.pop() if free else port.add_rr_queues(1)
            return self._bind(out_port, fid, idx)
        first = self.first_queue[out_port]
        n = self.n_queues
        # prefer an empty, unbound queue
        for idx in range(first, first + n):
            state = states.get(idx)
            if port.queue_bytes[idx] == 0 and (
                state is None
                or (
                    not state.fids
                    and now - state.last_enqueue > STICKY_TIME
                )
            ):
                return self._bind(out_port, fid, idx)
        # all queues busy: hash onto one (flows share -> HOL risk)
        self.collisions += 1
        idx = first + _fid_hash(fid ^ 0x5BF0) % n
        return self._bind(out_port, fid, idx)

    def _bind(self, out_port: int, fid: int, qidx: int) -> int:
        state = self.queue_state[out_port].setdefault(qidx, _QueueState())
        state.fids.add(fid)
        self.assignment[out_port][fid] = qidx
        return qidx

    # -- data path -----------------------------------------------------------------

    def on_data(self, pkt: Packet, in_port: int, out_port: int) -> bool:
        upstream_q = pkt.upstream_queue
        fid = self._fid_of(pkt.flow_id)
        qidx = self._queue_for(out_port, fid)
        state = self.queue_state[out_port][qidx]
        state.last_enqueue = self.sim.now
        pkt.upstream_queue = qidx  # conveyed to the next hop
        port = self.switch.ports[out_port]
        self.switch.enqueue_data(pkt, out_port, queue_idx=qidx)
        if (
            port.queue_bytes[qidx] > self.pause_threshold
            and upstream_q >= 0
        ):
            key = (in_port, upstream_q)
            if key not in state.paused_upstreams:
                state.paused_upstreams.add(key)
                self.switch.send_pause(in_port, upstream_q, True)
                self.pauses_sent += 1
        return True

    def on_dequeue(self, port: EgressPort, pkt: Packet, queue_idx: int) -> None:
        if pkt.kind != PacketKind.DATA:
            return
        states = self.queue_state[port.index]
        state = states.get(queue_idx)
        if state is None:
            return
        if (
            state.paused_upstreams
            and port.queue_bytes[queue_idx] <= self.resume_threshold
        ):
            for in_port, up_q in sorted(state.paused_upstreams):
                self.switch.send_pause(in_port, up_q, False)
            state.paused_upstreams.clear()
        if self.ideal and port.queue_bytes[queue_idx] == 0:
            # BFC-ideal: immediately recycle the drained per-flow queue
            table = self.assignment[port.index]
            for fid in sorted(state.fids):
                table.pop(fid, None)
            state.fids.clear()
            self.free_queues[port.index].append(queue_idx)

    # -- control -----------------------------------------------------------------------

    def pause_key(self, in_port: int, key: int, pause: bool) -> bool:
        """The downstream switch on ``in_port`` pauses or resumes our
        egress queue ``key``."""
        port = self.switch.ports[in_port]
        was_paused = key in port.paused_queues
        if pause:
            port.pause_queue(key)
        else:
            port.resume_queue(key)
        return was_paused


class BfcHost(Host):
    """Host-side BFC: virtual NIC queues that honour pause frames.

    The host hashes each flow onto ``n_queues`` virtual queues, stamps
    the queue index into outgoing packets (so the ToR knows what to
    pause), and keys its pauses by that queue: a paused queue suspends
    its flows.  The queues are virtual — the NIC port has one data
    queue, so they never reach ``EgressPort.paused_queues``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: the fabric's queues per port (:func:`install` sets it)
        self.n_queues = 32

    def _pause_key_of(self, flow) -> int:
        """``flow``'s virtual NIC queue."""
        return _fid_hash(flow.flow_id) % (self.n_queues or 128)

    def _stamp_packet(self, pkt: Packet, flow) -> None:
        # the ToR conveys this queue index back in pause frames
        pkt.upstream_queue = self._pause_key_of(flow)


def install(scenario) -> None:
    """Install BFC on every switch, then give every host (a
    :class:`BfcHost`) the fabric's queue count."""
    n_queues = scenario.config.bfc_queues
    for sw in scenario.topology.switches:
        ext = BfcExtension(scenario.sim, n_queues, scenario.base_bdp)
        sw.install_extension(ext)
        scenario.extensions.append(ext)
    for host in scenario.topology.hosts:
        host.n_queues = n_queues
