"""Eager build-time routing and a prebuilt VOQ pool, kept verbatim as the test oracle.

``Topology.compute_routes`` now installs only each ToR's own hosts and
resolves every other (switch, host) entry the first time the switch
looks it up, and ``VoqPool`` creates a slot only when every existing one
is in use.  The contract is that no entry, no slot index and no counter
moved.  These are the bodies they replaced — every single-homed route
entry installed at build time, one BFS per rack, and a pool built with
all ``max_voqs`` slots up front — and ``tests/test_lazy_build.py`` holds
the live code ``==`` to them.  A switch keeps one route table, the
per-destination pick (``Switch._route_flat``): the eager body fills it
through ``set_route``, and ``install_eager_routes`` clears it first.
Do not "improve" this file: it is a reference, not code under test.
"""
from __future__ import annotations

import types
from collections import deque
from typing import Dict, List, Optional, Tuple, Union

from repro.floodgate.voq import Voq, VoqPool, _crc_hash
from repro.net.switch import Switch


def compute_routes(self) -> None:
    """The single-homed branch of the eager ``compute_routes``."""
    n_hosts = len(self.hosts)
    index_of: Dict[int, int] = {}
    for i, host in enumerate(self.hosts):
        index_of[host.node_id] = i
    for j, switch in enumerate(self.switches):
        index_of[switch.node_id] = n_hosts + j
    adj: List[List[Tuple[int, bool]]] = [
        [] for _ in range(n_hosts + len(self.switches))
    ]
    for node in (*self.hosts, *self.switches):
        entries = adj[index_of[node.node_id]]
        for link in node.links:
            peer = link.peer_of(node)
            entries.append(
                (index_of[peer.node_id], isinstance(peer, Switch))
            )
    switch_neighbors = [
        [peer_idx for peer_idx, _ in adj[n_hosts + j]]
        for j in range(len(self.switches))
    ]
    assert not any(len(host.links) != 1 for host in self.hosts)
    # single-homed hosts (every built topology): all hosts behind
    # one ToR share every route except the ToR's own last hop, so
    # one BFS per rack replaces one BFS per host
    racks: Dict[int, List] = {}
    for host in self.hosts:
        tor_idx = index_of[host.links[0].peer_of(host).node_id] - n_hosts
        racks.setdefault(tor_idx, []).append(host)
    for tor_idx in sorted(racks):
        _routes_via_tor(
            self, tor_idx, racks[tor_idx], adj, switch_neighbors, n_hosts
        )


def _routes_via_tor(
    self,
    tor_idx: int,
    rack_hosts: List,
    adj: List[List[Tuple[int, bool]]],
    switch_neighbors: List[List[int]],
    n_hosts: int,
) -> None:
    """Install routes for every (single-homed) host behind one ToR.

    BFS over the switch graph rooted at the ToR; a host's distance
    is its ToR's plus one, so the shortest-path port sets at every
    other switch are identical for all hosts on the rack and are
    computed once.  Produces exactly the entries :meth:`_routes_to`
    would.
    """
    n_switches = len(switch_neighbors)
    dist = [-1] * n_switches
    dist[tor_idx] = 0
    frontier: deque[int] = deque([tor_idx])
    while frontier:
        node_idx = frontier.popleft()
        d = dist[node_idx] + 1
        for peer_idx, is_switch in adj[n_hosts + node_idx]:
            if is_switch and dist[peer_idx - n_hosts] < 0:
                dist[peer_idx - n_hosts] = d
                frontier.append(peer_idx - n_hosts)
    # shared candidate sets: ports toward the rack, per switch
    shared: List[Optional[Union[int, Tuple[int, ...]]]] = [None] * n_switches
    for j, neighbor_ids in enumerate(switch_neighbors):
        if j == tor_idx or dist[j] < 0:
            continue
        want = dist[j] - 1
        candidates = [
            idx
            for idx, peer_idx in enumerate(neighbor_ids)
            if peer_idx >= n_hosts and dist[peer_idx - n_hosts] == want
        ]
        if candidates:
            shared[j] = (
                candidates[0]
                if len(candidates) == 1
                else tuple(candidates)
            )
    tor = self.switches[tor_idx]
    tor_neighbors = switch_neighbors[tor_idx]
    switches = self.switches
    for host in rack_hosts:
        dst_id = host.node_id
        host_idx = 0  # hosts are indexed by contiguous node id
        for idx, peer_idx in enumerate(tor_neighbors):
            if peer_idx == dst_id:
                host_idx = idx
                break
        tor.set_route(dst_id, host_idx)
        tor.connected_hosts[dst_id] = host_idx
        for j in range(n_switches):
            entry = shared[j]
            if entry is not None:
                switches[j].set_route(dst_id, entry)


def install_eager_routes(topo) -> None:
    """Replace ``topo``'s routing tables with the eager ones."""
    for sw in topo.switches:
        sw._route_flat = []
        sw.connected_hosts = {}
        sw.resolve_route = None
    compute_routes(topo)


def allocate(self, dst: int, group: int) -> Optional[Voq]:
    """Find a VOQ for ``dst``: free slot first, hash fallback second.

    Returns None only when the pool is exhausted *and* no occupied
    VOQ of the same group exists (caller falls back to the default
    egress queue — counted as an overflow bypass).
    """
    if self._in_use < len(self.voqs):
        for voq in self.voqs:
            if not voq.in_use:
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


def pop(self, voq: Voq):
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


def eager_pool(max_voqs: int) -> VoqPool:
    """A pool with all ``max_voqs`` slots built, run by the bodies above."""
    pool = VoqPool(max_voqs)
    pool.voqs = [Voq(i) for i in range(max_voqs)]
    pool.allocate = types.MethodType(allocate, pool)
    pool.pop = types.MethodType(pop, pool)
    return pool
