"""The PR-15 egress port's transmit path, kept verbatim as the test oracle.

``repro.net.port.EgressPort`` became a busy-until port: an idle hop is
one heap event (the peer's ``receive``, pushed at transmit start), and
the instant the wire frees is an event only when a packet is waiting
for it.  Its contract is that nothing simulated moved.  This is the
transmit path it replaced — a ``_busy`` flag, a ``_tx_done`` event per
packet that then schedules the delivery — grafted onto the live class
so queues, pausing and the scheduler are shared, and
``tests/test_port_oracle.py`` holds whole runs on the new port ``==``
to runs on this one.  Do not "improve" this file: it is a reference,
not code under test.
"""
from __future__ import annotations

from collections import deque
from heapq import heappush

from repro.net.port import CONTROL_QUEUE, EMPTY_QUEUE, EgressPort
from repro.units import SEC


class _Deques(list):
    """The queue list of a :class:`TwoEventPort`.

    The live port keeps a queue as the shared ``EMPTY_QUEUE`` until its
    own enqueue swaps in a deque; this transmit path appends to
    ``queues[i]`` directly, so an index read here hands out a deque in
    the placeholder's place (queues the live ``add_rr_queues`` appends
    later included).
    """

    def __getitem__(self, idx):
        queue = list.__getitem__(self, idx)
        if queue is EMPTY_QUEUE:
            queue = deque()
            list.__setitem__(self, idx, queue)
        return queue


class TwoEventPort(EgressPort):
    """``EgressPort`` with two scheduled events per hop (tx-done, receive)."""

    __slots__ = ("_busy",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._busy = False
        self.queues = _Deques(self.queues)

    def enqueue(self, pkt, queue_idx: int = 1) -> None:
        pkt.enqueue_time = self.sim.now
        self.queues[queue_idx].append(pkt)
        self.queue_bytes[queue_idx] += pkt.size
        self._queued += 1
        if queue_idx != CONTROL_QUEUE:
            self._data_bytes += pkt.size
        if not self._busy:
            self._try_transmit()

    def enqueue_control(self, pkt) -> None:
        pkt.enqueue_time = self.sim.now
        self.queues[CONTROL_QUEUE].append(pkt)
        self.queue_bytes[CONTROL_QUEUE] += pkt.size
        self._queued += 1
        if not self._busy:
            self._try_transmit()

    def _try_transmit(self) -> None:
        if self._busy or not self._queued:
            return
        queues = self.queues
        if queues[CONTROL_QUEUE]:
            idx = CONTROL_QUEUE
        elif self.paused:
            return
        elif self.rr_start > 1 and queues[1] and 1 not in self.paused_queues:
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
        # mark busy *before* the dequeue hook: hooks may enqueue more
        # packets (VOQ drains), which must not re-enter the transmitter
        self._busy = True
        on_dequeue = self.on_dequeue
        if on_dequeue is not None:
            on_dequeue(self, pkt, idx)
        self.tx_bytes += size
        delay = self._delay_table.get(size)
        if delay is None:
            delay = int(round(size * 8 * SEC / self._bandwidth))
            self._delay_table[size] = delay
        sim = self.sim
        sim._seq += 1
        heappush(
            sim._heap,
            (sim.now + delay, 0, sim._seq, None, self._tx_done, (pkt,)),
        )

    def _tx_done(self, pkt) -> None:
        self._busy = False
        link = self.link
        if link.fault is None and link.channel is None:
            peer = self._peer
            if peer is None:
                peer = self._peer = link.peer_of(self.node)
                self._peer_port = link.peer_port_of(self.node)
                self._lid = (
                    link.lid_ab if self.node is link.node_a else link.lid_ba
                )
            sim = self.sim
            sim._seq += 1
            heappush(
                sim._heap,
                (
                    sim.now + link.delay,
                    self._lid,
                    sim._seq,
                    None,
                    peer.receive,
                    (pkt, self._peer_port),
                ),
            )
        else:
            link.deliver(pkt, self.node)
        if self._queued:
            self._try_transmit()
