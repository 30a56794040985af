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

from typing import Dict, Tuple


class WindowTable:
    """Sending-window state for one Floodgate switch.

    The tables are plain dicts on purpose: the extension's per-packet
    path (``FloodgateExtension.on_data`` / ``_stamp_psn``) reads and
    writes ``window`` and ``next_psn`` directly — the open-window case
    is dict hits and an add, no call frames — with exactly the effect
    of :meth:`consume` and :meth:`assign_psn`.
    """

    def __init__(self) -> None:
        #: remaining window per destination, packets
        self.window: Dict[int, int] = {}
        #: the initial window per destination (fixed per route)
        self.initial: Dict[int, int] = {}
        #: PSN of the next data packet per (egress port, dst)
        self.next_psn: Dict[Tuple[int, int], int] = {}
        #: highest PSN echoed back by downstream per (egress port, dst)
        self.echoed_psn: Dict[Tuple[int, int], int] = {}
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
        key = (port, dst)
        psn = self.next_psn.get(key, 0)
        self.next_psn[key] = psn + 1
        return psn

    def reconcile(self, port: int, dst: int, echoed_psn: int, now: int) -> None:
        """Absolute window reconstruction from a PSN-bearing credit."""
        key = (port, dst)
        prev = self.echoed_psn.get(key, -1)
        if echoed_psn < prev:
            return  # stale / reordered credit
        self.echoed_psn[key] = echoed_psn
        self.last_credit_time[key] = now
        if dst in self.initial:
            inflight = self.next_psn.get(key, 0) - (echoed_psn + 1)
            self.window[dst] = self.initial[dst] - max(inflight, 0)

    def exhausted_pairs(self) -> list[Tuple[int, int]]:
        """(port, dst) pairs with packets outstanding (switchSYN scan)."""
        pairs = []
        for key, sent in self.next_psn.items():
            if sent - (self.echoed_psn.get(key, -1) + 1) > 0:
                pairs.append(key)
        return pairs

    def active_destinations(self) -> int:
        """Destinations with a less-than-full window (memory footprint)."""
        return sum(
            1 for d, w in self.window.items() if w < self.initial.get(d, w)
        )
