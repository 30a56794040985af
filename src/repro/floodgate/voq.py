"""Virtual Output Queues with bitmap allocation and hash fallback.

VOQ semantics (§4.2, §7.2):

* a free VOQ is dedicated to one destination on demand (bitmap scan);
  the pool creates a slot only when every existing one is in use, up
  to ``max_voqs``, so a switch that never parks a packet holds none;
* when the pool is exhausted, the destination is CRC-hashed onto an
  *occupied* VOQ of the same direction group, so packets of different
  destinations may share a VOQ (the corner case the paper tolerates);
* VOQs are grouped into *down* (destination below this switch) and
  *up* (destination reached via a higher layer) to break the
  hold-and-wait cycle of Fig. 4;
* an emptied VOQ returns to the pool.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set

from repro.net.host import Host
from repro.net.packet import Packet
from repro.net.switch import Switch

#: direction groups (deadlock avoidance)
GROUP_DOWN = 0
GROUP_UP = 1


def group_of(switch: Switch, out_port: int) -> int:
    """VOQ direction group: is the next hop below or above ``switch``?"""
    peer = switch.peer(out_port)
    if isinstance(peer, Host):
        return GROUP_DOWN
    if isinstance(peer, Switch) and peer.level < switch.level:
        return GROUP_DOWN
    return GROUP_UP


def _crc_hash(value: int) -> int:
    """Deterministic stand-in for the CRC the paper suggests (§4.2)."""
    value = (value ^ (value >> 16)) * 0x45D9F3B & 0xFFFFFFFF
    value = (value ^ (value >> 16)) * 0x45D9F3B & 0xFFFFFFFF
    return value ^ (value >> 16)


class Voq:
    """One virtual output queue."""

    __slots__ = ("index", "packets", "dsts", "group", "in_use")

    def __init__(self, index: int) -> None:
        self.index = index
        self.packets: Deque[Packet] = deque()
        self.dsts: Set[int] = set()
        self.group = GROUP_DOWN
        self.in_use = False

    def push(self, pkt: Packet) -> None:
        self.packets.append(pkt)
        self.dsts.add(pkt.dst)

    def head(self) -> Optional[Packet]:
        return self.packets[0] if self.packets else None

    def pop(self) -> Packet:
        return self.packets.popleft()

    def reset(self) -> None:
        self.packets.clear()
        self.dsts.clear()
        self.in_use = False


class VoqPool:
    """The switch's VOQ resources.

    Tracks which destination maps to which VOQ, per-destination backlog
    (for delayCredit and dstPause thresholds), and usage statistics.
    """

    def __init__(self, max_voqs: int) -> None:
        if max_voqs < 1:
            raise ValueError(f"need at least one VOQ, got {max_voqs}")
        self.max_voqs = max_voqs
        #: the slots created so far, by index.  A slot is created only
        #: when every existing one is in use, which is exactly when the
        #: lowest free index of a pool built with all ``max_voqs`` slots
        #: would be a slot it never used before
        self.voqs: List[Voq] = []
        #: called with each new slot (the shard-isolation sanitizer's
        #: domain tags)
        self.on_new_voq: List[Callable[[Voq], None]] = []
        self.voq_of_dst: Dict[int, Voq] = {}
        self.bytes_by_dst: Dict[int, int] = {}
        #: VOQs currently dedicated / bytes held across them, kept as
        #: counters (allocate, push, pop) so neither the per-allocation
        #: high-water check nor the per-INT-record backlog read scans
        #: every slot
        self._in_use = 0
        self._bytes = 0
        self.max_in_use = 0
        self.hash_fallbacks = 0
        self.overflow_bypasses = 0

    # -- queries --------------------------------------------------------------------

    def lookup(self, dst: int) -> Optional[Voq]:
        """The VOQ currently holding ``dst``'s packets, if any."""
        return self.voq_of_dst.get(dst)

    def dst_backlog(self, dst: int) -> int:
        """Bytes queued in VOQs for destination ``dst``."""
        return self.bytes_by_dst.get(dst, 0)

    def total_bytes(self) -> int:
        return self._bytes

    def telemetry_counters(self) -> Dict[str, int]:
        """End-of-run counter values, summed over switches (the pool's
        ``max_in_use`` is a maximum: ``collect_scope`` reads it apart)."""
        return {
            "voq_hash_fallbacks": self.hash_fallbacks,
            "voq_overflow_bypasses": self.overflow_bypasses,
        }

    # -- allocation -------------------------------------------------------------------

    def allocate(self, dst: int, group: int) -> Optional[Voq]:
        """Find a VOQ for ``dst``: free slot first, hash fallback second.

        Returns None only when the pool is exhausted *and* no occupied
        VOQ of the same group exists (caller falls back to the default
        egress queue — counted as an overflow bypass).
        """
        if self._in_use < self.max_voqs:
            for voq in self.voqs:
                if not voq.in_use:
                    break
            else:
                voq = Voq(len(self.voqs))
                self.voqs.append(voq)
                for stamp in self.on_new_voq:
                    stamp(voq)
            voq.in_use = True
            voq.group = group
            self.voq_of_dst[dst] = voq
            self._in_use += 1
            if self._in_use > self.max_in_use:
                self.max_in_use = self._in_use
            return voq
        same_group = [v for v in self.voqs if v.in_use and v.group == group]
        if not same_group:
            self.overflow_bypasses += 1
            return None
        self.hash_fallbacks += 1
        voq = same_group[_crc_hash(dst) % len(same_group)]
        self.voq_of_dst[dst] = voq
        return voq

    def push(self, voq: Voq, pkt: Packet) -> None:
        voq.push(pkt)
        self._bytes += pkt.size
        self.bytes_by_dst[pkt.dst] = self.bytes_by_dst.get(pkt.dst, 0) + pkt.size

    def pop(self, voq: Voq) -> Packet:
        pkt = voq.pop()
        self._bytes -= pkt.size
        remaining = self.bytes_by_dst.get(pkt.dst, 0) - pkt.size
        if remaining > 0:
            self.bytes_by_dst[pkt.dst] = remaining
        else:
            self.bytes_by_dst.pop(pkt.dst, None)
        if not voq.packets:
            for dst in sorted(voq.dsts):
                self.voq_of_dst.pop(dst, None)
            voq.reset()
            self._in_use -= 1
        return pkt
