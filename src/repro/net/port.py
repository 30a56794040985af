"""Egress ports: serialization, multi-queue scheduling, pausing.

Each attached link direction gets one :class:`EgressPort`.  The port
owns a fixed layout of FIFO queues:

* queue 0 is the *control* queue — link-level control (PFC frames,
  Floodgate credits) and host ACK/CNP traffic.  It has strict highest
  priority and is never paused, mirroring how control rides a separate
  priority class on real fabrics.
* queue 1 is the data queue, served before the round-robin group (so
  Floodgate's non-incast traffic goes ahead of its drained VOQs).
* queues ``2 ..`` form a round-robin group at the lowest priority,
  which :meth:`EgressPort.add_rr_queues` grows — used for BFC's
  per-flow physical queues and for Floodgate's drained VOQs.

Pausing is supported at two granularities: the whole port (PFC) or a
single queue (BFC); both exempt the control queue.

A port holds only the state its traffic uses (DESIGN.md "A run pays for
what it touches"): a queue is the shared :data:`EMPTY_QUEUE` until one
of the two enqueues appends to it, the per-queue pause set is the
shared :data:`EMPTY_SET` until :meth:`EgressPort.pause_queue`, and the
serialization-delay memo is shared by every port of one bandwidth in a
topology.

The wire is *busy-until*: starting a transmission records when it ends
(``_free_at``) and, on a healthy link, schedules the peer's ``receive``
right away at ``now + serialization + propagation`` — one heap event
per hop.  The end of serialization is an event of its own
(:meth:`EgressPort._wake`) only when a packet is waiting for the wire,
and on links where delivery is decided at that moment (faults, the
hybrid boundary: :meth:`EgressPort._tx_done`).  DESIGN.md "Engine
fast path" has the ordering argument.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
)

from repro.sim.engine import Simulator
from repro.units import SEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.net.node import Node
    from repro.net.packet import Packet

#: Index of the always-on control queue.
CONTROL_QUEUE = 0

#: An egress queue that has never held a packet.  Immutable and shared
#: by every such queue: :meth:`EgressPort.enqueue` and
#: :meth:`EgressPort.enqueue_control` swap in a ``deque`` on the first
#: append (an identity check), and every other reader only tests
#: truthiness or iterates, which an empty tuple answers at C level.
EMPTY_QUEUE: tuple = ()

#: A pause or active-flow set nothing has been added to yet, shared
#: the same way: the site that adds the first member swaps in a
#: ``set`` (an identity check); membership tests, ``len`` and
#: iteration work on either.  A non-empty one is always a ``set``, so
#: a pause-set remover, which a resume frame may reach before any
#: pause, tests truthiness before it discards.  ``active_flows`` needs
#: no test: only the last ACK of a flow its host activated discards.
EMPTY_SET: frozenset = frozenset()


class EgressPort:
    """One transmit direction of a node onto a link."""

    #: first index of the round-robin group (after control and data)
    rr_start = 2

    __slots__ = (
        "sim",
        "node",
        "index",
        "link",
        "_bandwidth",
        "_delay_table",
        "queues",
        "queue_bytes",
        "_rr_next",
        "_free_at",
        "_wake_seq",
        "_waking",
        "_queued",
        "_data_bytes",
        "_peer",
        "_peer_port",
        "_lid",
        "paused",
        "paused_queues",
        "tx_bytes",
        "on_dequeue",
        "pause_started",
        "total_paused_time",
    )

    def __init__(
        self,
        sim: Simulator,
        node: "Node",
        index: int,
        link: "Link",
    ) -> None:
        self.sim = sim
        self.node = node
        self.index = index
        self.link = link
        self._bandwidth = link.bandwidth
        #: wire size -> serialization delay (ns), filled lazily.  Real
        #: traffic uses only a handful of distinct sizes (data MTU, the
        #: flow-tail remainder, ACK/credit/PFC frames), so the division
        #: and round in ``size * 8 * SEC / bandwidth`` run once per
        #: (bandwidth, size) instead of once per packet.  A topology
        #: hands every port of one bandwidth the same table through
        #: ``link.delay_table``; a port on a raw link keeps its own.
        self._delay_table: Dict[int, int] = (
            {} if link.delay_table is None else link.delay_table
        )
        #: a queue is EMPTY_QUEUE until its first packet
        self.queues: List[Sequence["Packet"]] = [EMPTY_QUEUE] * 2
        self.queue_bytes: List[int] = [0] * 2
        self._rr_next = self.rr_start
        #: busy-until state.  ``_free_at`` is when the packet on the wire
        #: finishes serializing; the port holds no "transmit done" event
        #: for it.  ``_wake_seq`` is the sequence number reserved at
        #: transmit start for the instant the wire frees — the key
        #: ``(_free_at, 0, _wake_seq)`` is where that event would sit in
        #: the heap, and it is only pushed (as :meth:`_wake`) when a
        #: packet is waiting for the wire.  ``_waking`` latches the port
        #: busy while a dequeue hook runs and while a ``_wake`` /
        #: ``_tx_done`` event is in the heap.
        self._free_at = -1
        self._wake_seq = 0
        self._waking = False
        #: total packets across all queues — O(1) idle check, so the
        #: post-transmit re-kick on an empty port costs one comparison
        #: instead of a queue scan
        self._queued = 0
        #: bytes across the data queues (everything but control),
        #: maintained on enqueue/dequeue so the ECN marking decision
        #: reads a counter instead of summing a list slice per packet
        self._data_bytes = 0
        #: cached peer node + peer port index for the healthy-link
        #: delivery fast path; resolved lazily on the first transmit
        #: (the far end attaches after this port exists).  The peer's
        #: ``receive`` is looked up per delivery, not cached, so tests
        #: that stub it still intercept traffic.
        self._peer: Optional["Node"] = None
        self._peer_port = -1
        #: cached per-direction link id for the ordering key, resolved
        #: together with ``_peer``
        self._lid = 0
        self.paused = False
        self.paused_queues: AbstractSet[int] = EMPTY_SET
        self.tx_bytes = 0        # everything, for INT and overhead stats
        #: callback fired when a packet leaves a queue for the wire:
        #: ``on_dequeue(port, pkt, queue_idx)``.  Owners use it for
        #: buffer uncharging and Floodgate credit accounting.
        self.on_dequeue: Optional[Callable[["EgressPort", "Packet", int], None]] = None
        self.pause_started: int = -1
        self.total_paused_time: int = 0

    # -- bandwidth / serialization-delay table ----------------------------------

    @property
    def bandwidth(self) -> float:
        """Egress rate, bits/s (the link's, fixed for the port's life)."""
        return self._bandwidth

    def serialization_delay_of(self, size: int) -> int:
        """Memoized wire time for ``size`` bytes."""
        delay = self._delay_table.get(size)
        if delay is None:
            delay = int(round(size * 8 * SEC / self._bandwidth))
            self._delay_table[size] = delay
        return delay

    # -- introspection ----------------------------------------------------------

    @property
    def data_bytes_queued(self) -> int:
        """Bytes waiting in all data queues (excludes control)."""
        return self._data_bytes

    def add_rr_queues(self, count: int) -> int:
        """Append ``count`` round-robin queues; returns first new index."""
        first = len(self.queues)
        self.queues.extend([EMPTY_QUEUE] * count)
        self.queue_bytes.extend([0] * count)
        return first

    # -- enqueue ----------------------------------------------------------------

    def enqueue(self, pkt: "Packet", queue_idx: int = 1) -> None:
        """Append ``pkt`` to the given queue and kick the transmitter."""
        sim = self.sim
        now = sim.now
        pkt.enqueue_time = now
        if self._waking:
            idle = False
        else:
            free_at = self._free_at
            idle = now > free_at or (
                now == free_at
                and (sim._cur_lid or sim._cur_seq >= self._wake_seq)
            )
            if (
                idle
                and not self._queued
                and not self.paused
                and not self.paused_queues
                and queue_idx < self.rr_start
            ):
                # idle wire, empty port, nothing paused: the scheduler
                # could only pick this packet, so it skips the queue
                self._try_transmit(pkt, queue_idx)
                return
        queue = self.queues[queue_idx]
        if queue is EMPTY_QUEUE:
            queue = self.queues[queue_idx] = deque()
        queue.append(pkt)
        self.queue_bytes[queue_idx] += pkt.size
        self._queued += 1
        if queue_idx != CONTROL_QUEUE:
            self._data_bytes += pkt.size
        if idle:
            self._try_transmit()
        elif not self._waking:
            # first packet to wait behind the one on the wire
            self._waking = True
            heappush(  # simcheck: ignore[SIM010] -- _wake_seq was reserved at transmit start
                sim._heap, (free_at, 0, self._wake_seq, None, self._wake, ())
            )

    def enqueue_control(self, pkt: "Packet") -> None:
        """:meth:`enqueue` specialised to the control queue, which is
        never paused (one call frame per ACK/credit/PFC frame)."""
        sim = self.sim
        now = sim.now
        pkt.enqueue_time = now
        if self._waking:
            idle = False
        else:
            free_at = self._free_at
            idle = now > free_at or (
                now == free_at
                and (sim._cur_lid or sim._cur_seq >= self._wake_seq)
            )
            if idle and not self._queued:
                self._try_transmit(pkt, CONTROL_QUEUE)
                return
        queue = self.queues[CONTROL_QUEUE]
        if queue is EMPTY_QUEUE:
            queue = self.queues[CONTROL_QUEUE] = deque()
        queue.append(pkt)
        self.queue_bytes[CONTROL_QUEUE] += pkt.size
        self._queued += 1
        if idle:
            self._try_transmit()
        elif not self._waking:
            self._waking = True
            heappush(  # simcheck: ignore[SIM010] -- _wake_seq was reserved at transmit start
                sim._heap, (free_at, 0, self._wake_seq, None, self._wake, ())
            )

    # -- pause / resume ------------------------------------------------------------

    def pause(self) -> None:
        """PFC: stop serving data queues (control still flows)."""
        if not self.paused:
            self.paused = True
            self.pause_started = self.sim.now

    def resume(self) -> None:
        """PFC: resume data queues."""
        if self.paused:
            self.paused = False
            if self.pause_started >= 0:
                self.total_paused_time += self.sim.now - self.pause_started
                self.pause_started = -1
            self._try_transmit()

    def pause_queue(self, queue_idx: int) -> None:
        """BFC: stop serving one data queue."""
        if queue_idx == CONTROL_QUEUE:
            raise ValueError("the control queue cannot be paused")
        if self.paused_queues is EMPTY_SET:
            self.paused_queues = set()
        self.paused_queues.add(queue_idx)

    def resume_queue(self, queue_idx: int) -> None:
        """BFC: resume one data queue."""
        if self.paused_queues:
            self.paused_queues.discard(queue_idx)
        self._try_transmit()

    # -- transmit machinery ---------------------------------------------------------

    def _pick_queue(self) -> int:
        """The scheduler's last step, once control, a port pause and the
        data queue have had their turn: the RR group's next eligible
        queue, or -1 if none is (empty or paused)."""
        queues = self.queues
        paused_queues = self.paused_queues
        rr_start = self.rr_start
        span = len(queues) - rr_start
        start = self._rr_next
        for off in range(span):
            idx = rr_start + (start - rr_start + off) % span
            if queues[idx] and idx not in paused_queues:
                self._rr_next = rr_start + (idx - rr_start + 1) % span
                return idx
        return -1

    def _try_transmit(self, pkt: Optional["Packet"] = None, idx: int = 0) -> None:
        """Start serializing the next eligible packet, if the wire is free.

        With ``pkt`` given the caller (an enqueue) has already
        established that the wire is idle and ``pkt`` is the only
        candidate; it goes out of queue ``idx`` without passing through
        it.  Otherwise the scheduler picks.  Callers other than the two
        enqueues need no clock comparison: a packet waiting behind a
        busy wire always has its wake in the heap, so ``_waking`` alone
        says "busy" whenever ``_queued`` is non-zero.
        """
        if pkt is None:
            if self._waking or not self._queued:
                return
            # the scheduler: control, then (unless the port is paused)
            # the data queue, then the RR group
            queues = self.queues
            if queues[CONTROL_QUEUE]:
                idx = CONTROL_QUEUE
            elif self.paused:
                return
            elif queues[1] and 1 not in self.paused_queues:
                idx = 1
            else:
                idx = self._pick_queue()
                if idx < 0:
                    return
            pkt = queues[idx].popleft()
            size = pkt.size
            self.queue_bytes[idx] -= size
            self._queued -= 1
            if idx != CONTROL_QUEUE:
                self._data_bytes -= size
        else:
            size = pkt.size
        # latch busy *before* the dequeue hook: hooks may enqueue more
        # packets (VOQ drains), which must not re-enter the transmitter
        self._waking = True
        on_dequeue = self.on_dequeue
        if on_dequeue is not None:
            on_dequeue(self, pkt, idx)
        self.tx_bytes += size
        # memoized serialization delay (same arithmetic as
        # serialization_delay_of, without its call frame)
        delay = self._delay_table.get(size)
        if delay is None:
            delay = int(round(size * 8 * SEC / self._bandwidth))
            self._delay_table[size] = delay
        sim = self.sim
        self._free_at = free_at = sim.now + delay
        link = self.link
        channel = link.channel
        if (
            delay
            and link.fault is None
            and (channel is None or not channel.at_tx_done)
        ):
            # Busy-until fast path: the delivery is already decided, so
            # the peer's receive goes on the heap now, serialization and
            # propagation in one event.  Deliveries order by the unique
            # (time, lid), so the seq they carry is never compared.  The
            # seq before it is reserved for the instant the wire frees:
            # taken here, after the dequeue hook, whether or not a wake
            # is ever pushed, so every lid-0 event draws the same seq as
            # it would if each transmission ended in an event of its own
            # (tests/port_pr15.py is that design; runs must be equal).
            peer = self._peer
            if peer is None:
                peer = self._peer = link.peer_of(self.node)
                self._peer_port = link.peer_port_of(self.node)
                self._lid = (
                    link.lid_ab if self.node is link.node_a else link.lid_ba
                )
            seq = sim._seq = sim._seq + 2
            self._wake_seq = seq - 1
            item = (
                free_at + link.delay,
                self._lid,
                seq,
                None,
                peer.receive,
                (pkt, self._peer_port),
            )
            if channel is None:
                heappush(sim._heap, item)  # simcheck: ignore[SIM010] -- seq drawn above
            else:
                channel.send(peer, item)
            if self._queued:
                heappush(  # simcheck: ignore[SIM010] -- seq - 1 is the wake seq reserved above
                    sim._heap, (free_at, 0, seq - 1, None, self._wake, ())
                )
            else:
                self._waking = False
        else:
            # Delivery is decided when serialization *ends* — a loss or
            # fault draw, a link that may go down meanwhile, the hybrid
            # boundary reading fluid state — so schedule a transmit-done
            # event and let Link.deliver run there.  (A zero wire time
            # would free the wire at the current instant, where key
            # order no longer says whether that has happened yet.)
            sim._seq += 1
            self._wake_seq = sim._seq
            heappush(  # simcheck: ignore[SIM010] -- sim._seq is drawn two lines above
                sim._heap, (free_at, 0, sim._seq, None, self._tx_done, (pkt,))
            )

    def _wake(self) -> None:
        """The wire freed with packets waiting (fused path)."""
        self._waking = False
        self._try_transmit()

    def _tx_done(self, pkt: "Packet") -> None:
        """Serialization ended on a link that decides delivery now."""
        self._waking = False
        self.link.deliver(pkt, self.node)
        self._try_transmit()

    def kick(self) -> None:
        """Re-evaluate the scheduler (after external state changed)."""
        self._try_transmit()
