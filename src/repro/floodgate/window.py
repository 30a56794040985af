"""Per-destination sending windows with PSN loss recovery.

The window is the incast *probe* (§3.2): destinations whose credits
return promptly always show a full window; a destination behind a
bottleneck drains its window and is thereby identified as incast.

Windows count packets ("decreased by one", §3.2).  With loss recovery
enabled (§4.3), each (egress-port, destination) pair carries a PSN
sequence; credits echo the highest PSN the downstream switch has
forwarded, letting the upstream reconstruct the remaining window as
``init - (next_send - echoed)`` — self-healing after data *or* credit
loss.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple


class WindowTable:
    """Sending-window state for one Floodgate switch.

    The tables are plain dicts on purpose (``next_psn`` a
    ``defaultdict``, so a port's table appears with its first packet
    at no per-packet cost): the extension's per-packet
    path (``FloodgateExtension.on_data`` / ``_stamp_psn``) reads and
    writes ``window`` and ``next_psn`` directly — the open-window case
    is dict hits and an add, no call frames — with exactly the effect
    of :meth:`consume` and :meth:`assign_psn`.  The PSN tables are
    keyed egress port, then destination, so a packet's path builds no
    key tuple.
    """

    def __init__(self) -> None:
        #: remaining window per destination, packets
        self.window: Dict[int, int] = {}
        #: the initial window per destination (fixed per route)
        self.initial: Dict[int, int] = {}
        #: PSN of the next data packet: egress port -> {dst: psn}; a
        #: port's table appears with its first stamped packet
        self.next_psn: Dict[int, Dict[int, int]] = defaultdict(dict)
        #: highest PSN echoed back by downstream: egress port -> {dst: psn}
        self.echoed_psn: Dict[int, Dict[int, int]] = {}
        #: (egress port, dst) pairs in first-send order, the order the
        #: switchSYN scan visits them in
        self.sent_pairs: List[Tuple[int, int]] = []
        #: last time a credit arrived per (egress port, dst), ns
        self.last_credit_time: Dict[Tuple[int, int], int] = {}

    def ensure(self, dst: int, initial: int) -> int:
        """Install the initial window for ``dst`` on first sight."""
        if dst not in self.window:
            self.window[dst] = initial
            self.initial[dst] = initial
        return self.window[dst]

    def consume(self, dst: int) -> None:
        """One packet forwarded toward ``dst``."""
        self.window[dst] -= 1

    def add_credits(self, dst: int, n: int) -> None:
        """Incremental credit return (no PSN information)."""
        if dst in self.window:
            self.window[dst] = min(self.window[dst] + n, self.initial[dst])

    def assign_psn(self, port: int, dst: int) -> int:
        """Next PSN for a data packet leaving ``port`` toward ``dst``."""
        psns = self.next_psn[port]
        psn = psns.get(dst, 0)
        psns[dst] = psn + 1
        if psn == 0:
            self.sent_pairs.append((port, dst))
        return psn

    def reconcile(self, port: int, dst: int, echoed_psn: int, now: int) -> None:
        """Absolute window reconstruction from a PSN-bearing credit."""
        echoed = self.echoed_psn.get(port)
        if echoed is None:
            echoed = self.echoed_psn[port] = {}
        if echoed_psn < echoed.get(dst, -1):
            return  # stale / reordered credit
        echoed[dst] = echoed_psn
        self.last_credit_time[(port, dst)] = now
        if dst in self.initial:
            sent = self.next_psn.get(port)
            inflight = (sent.get(dst, 0) if sent else 0) - (echoed_psn + 1)
            self.window[dst] = self.initial[dst] - max(inflight, 0)

    def exhausted_pairs(self) -> list[Tuple[int, int]]:
        """(port, dst) pairs with packets outstanding (switchSYN scan)."""
        next_psn = self.next_psn
        echoed_psn = self.echoed_psn
        pairs = []
        for port, dst in self.sent_pairs:
            echoed = echoed_psn.get(port)
            acked = echoed.get(dst, -1) + 1 if echoed else 0
            if next_psn[port][dst] - acked > 0:
                pairs.append((port, dst))
        return pairs

    def active_destinations(self) -> int:
        """Destinations with a less-than-full window (memory footprint)."""
        return sum(
            1 for d, w in self.window.items() if w < self.initial.get(d, w)
        )
