"""Topology construction and shortest-path ECMP routing.

Builders cover every topology in the paper:

* :func:`build_leaf_spine` — the main 2-level evaluation fabric
  (4 spines x 10 ToRs x 16 hosts at paper scale);
* :func:`build_fat_tree` — the 8-ary, 3-tier robustness topology;
* :func:`build_testbed` — the 1-core / 3-ToR / 6-host testbed (§5.2);
* :func:`build_dumbbell` — a 2-ToR micro-topology for unit tests.

A builder's keyword parameters carry the names of the
``ScenarioConfig`` fields they size it from: a ``FABRICS`` row
(:mod:`repro.experiments.choices`) lists them as its ``reads``, and
``Scenario`` passes exactly those.

Every host is single-homed.  A switch's route entry for a host lists
all its ports on shortest paths to the host's ToR (hop-count BFS), and
the switch picks one of them per destination (ECMP).  An entry is
resolved the first time a switch looks it up (:class:`_RackRoutes`).
Port *roles* label each egress for the paper's per-hop buffer
accounting (ToR-Up, Core, ToR-Down, Edge-Up, Agg-Down, ...).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.cc.flow import Flow
from repro.net.host import Host
from repro.net.link import Link
from repro.net.node import Node
from repro.net.switch import Switch
from repro.sim.engine import Simulator


class PortRole:
    """Egress-port role labels used in the paper's figures."""

    HOST_UP = "host-up"      # host NIC toward its ToR
    TOR_UP = "tor-up"        # ToR toward spine/core (first packet hop)
    TOR_DOWN = "tor-down"    # ToR toward hosts (last packet hop)
    CORE = "core"            # spine/core toward ToRs/aggs
    EDGE_UP = "edge-up"      # fat tree: edge toward agg
    EDGE_DOWN = "edge-down"  # fat tree: edge toward hosts
    AGG_UP = "agg-up"        # fat tree: agg toward core
    AGG_DOWN = "agg-down"    # fat tree: agg toward edge


#: factory signature: (sim, node_id, name) -> Host
HostFactory = Callable[[Simulator, int, str], Host]
#: factory signature: (sim, node_id, name, kind, level) -> Switch
SwitchFactory = Callable[[Simulator, int, str, str, int], Switch]

#: switch node ids start here so host ids stay small and contiguous
SWITCH_ID_BASE = 1_000_000


class Topology:
    """A built network: nodes, links, and shared flow state."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.hosts: List[Host] = []
        self.switches: List[Switch] = []
        self.links: List[Link] = []
        self.flow_table: Dict[int, Flow] = {}
        #: unloaded round-trip time between the two most distant hosts, ns
        self.base_rtt = 0
        #: the rack map, built by :meth:`finalize`: the ToRs (switches
        #: with attached hosts) in switch order — a rack's number is its
        #: index here — and host id -> rack number, rack by rack in each
        #: ToR's ``connected_hosts`` order.  The one place that decides
        #: which hosts share a rack.
        self.racks: List[Switch] = []
        self.rack_of: Dict[int, int] = {}
        #: flows fully delivered so far (kept by the hosts' ``on_flow_done``
        #: callbacks, wired in :meth:`finalize`) — runners read this instead
        #: of scanning the flow table
        self.completed_flows = 0
        #: link bandwidth -> the serialization-delay memo every egress port
        #: of that bandwidth shares (wire size -> ns; a pure function of
        #: the two, so one table per bandwidth serves the whole fabric)
        self.delay_tables: Dict[float, Dict[int, int]] = {}

    def switches_of_kind(self, kind: str) -> List[Switch]:
        return [s for s in self.switches if s.kind == kind]

    def connect(
        self,
        a: Node,
        b: Node,
        bandwidth: float,
        delay: int,
        role_a: str = "unknown",
        role_b: str = "unknown",
        ) -> Link:
        """Create a link and both endpoints' egress ports."""
        link = Link(self.sim, a, b, bandwidth, delay)
        # per-direction ordering-key ids, assigned in link-creation
        # order: the topology build sequence is deterministic, so two
        # builds of the same config agree on every lid — the property
        # sharded-vs-serial equivalence rests on
        link.lid_ab = 2 * len(self.links) + 1
        link.lid_ba = 2 * len(self.links) + 2
        link.delay_table = self.delay_tables.setdefault(bandwidth, {})
        idx_a = a.attach_link(link)
        idx_b = b.attach_link(link)
        if isinstance(a, Switch):
            a.port_roles[idx_a] = role_a
        if isinstance(b, Switch):
            b.port_roles[idx_b] = role_b
        self.links.append(link)
        return link

    # -- routing --------------------------------------------------------------------

    def compute_routes(self) -> None:
        """Give every switch its BFS/ECMP route entries.

        Every host is single-homed: each ToR gets its own hosts now, and
        every other (switch, host) entry is resolved the first time the
        switch looks it up (:class:`_RackRoutes`), so the build costs
        O(hosts) and a run pays for the racks it reaches.  The same pass
        builds the rack map (:attr:`racks`, :attr:`rack_of`).
        """
        resolver = _RackRoutes(self)
        n_dsts = max((host.node_id for host in self.hosts), default=-1) + 1
        for switch in self.switches:
            switch.reserve_routes(n_dsts)
            switch.resolve_route = resolver.install
        for host in self.hosts:
            link = host.links[0]
            tor = link.peer_of(host)
            port = link.peer_port_of(host)
            tor.set_route(host.node_id, port)
            tor.connected_hosts[host.node_id] = port  # simcheck: ignore[SIM005] -- build time, before any domain exists
        self.racks = [sw for sw in self.switches if sw.connected_hosts]
        self.rack_of = {
            host_id: rack
            for rack, tor in enumerate(self.racks)
            for host_id in tor.connected_hosts
        }

    def finalize(self) -> None:
        """Compute routes, create switch buffers, wire completion; call once.

        Raises ``ValueError`` for a host that does not have exactly one
        link: routing is per-destination ECMP on single-homed racks.
        """
        for host in self.hosts:
            if len(host.links) != 1:
                raise ValueError(
                    f"host {host.name} has {len(host.links)} links; every "
                    f"host must attach to exactly one ToR"
                )
        self.compute_routes()
        for switch in self.switches:
            switch.finalize()
        for host in self.hosts:
            if host.on_flow_done is None:
                host.on_flow_done = self._on_flow_done

    def _on_flow_done(self, flow: Flow) -> None:
        self.completed_flows += 1

    # -- flows --------------------------------------------------------------------------

    def make_flow(
        self, flow_id: int, src: int, dst: int, size: int, start_time: int
    ) -> Flow:
        """Register a flow in the shared table (not yet started)."""
        flow = Flow(flow_id, src, dst, size, start_time)
        self.flow_table[flow_id] = flow
        return flow

    def make_flows(self, specs) -> List[Flow]:
        """:meth:`make_flow` for each of ``specs`` (``FlowSpec``s), in order."""
        return [
            self.make_flow(s.flow_id, s.src, s.dst, s.size, s.start_time)
            for s in specs
        ]

    def start_flow(self, flow: Flow) -> None:
        """Schedule the flow's first packet at its start time."""
        self.sim.schedule_call_at(
            max(flow.start_time, self.sim.now),
            self.hosts[flow.src].start_flow,
            flow,
        )

    def start_flows(self, flows: List[Flow]) -> None:
        """Bulk :meth:`start_flow`: one heapify instead of n pushes."""
        now = self.sim.now
        hosts = self.hosts
        self.sim.schedule_many(
            (max(f.start_time, now), hosts[f.src].start_flow, (f,))
            for f in flows
        )

    def report_to_hub(self) -> None:
        """Close the devices' books: every node moves what it keeps
        for the stats hub (pause time, buffer maxima, queueing sums)
        into its hub.  Idempotent, so each scope of a sharded run may
        call it: a node reports to its own domain's hub."""
        for node in (*self.switches, *self.hosts):
            node.report_to_hub()


class _RackRoutes:
    """Single-homed routing, resolved on first lookup.

    Every host behind one ToR has the same route at every other switch
    (its distance is its ToR's plus one), so a miss at a switch installs
    that switch's entry for the whole rack: ``set_route`` per host, with
    the candidates (and so each host's ECMP pick) the eager build gave.
    The rack, its ToR and its hosts come from the topology's rack map
    (``racks[rack_of[dst]]`` and that ToR's ``connected_hosts``).  The
    candidates are the switch's ports toward a peer one hop nearer the
    rack's ToR; the hop distances come from one BFS over the switch
    graph rooted at the ToR, run the first time any switch asks for the
    rack and kept here.

    Shard safety (SIM005-008): a miss writes the asking switch's own
    table and this cache.  The cache is a pure function of the
    build-time graph, so whichever domain asks first stores what any
    other would have stored, and a forked domain fills its own copy.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.switches = topology.switches
        self._index = {sw.node_id: j for j, sw in enumerate(self.switches)}
        #: per switch, per port: the peer's switch index, -1 for a host;
        #: and per switch, its switch peers (both built on the first miss)
        self._ports: List[List[int]] = []
        self._adj: List[List[int]] = []
        #: rack number -> every switch's hop distance from its ToR
        self._dist: Dict[int, List[int]] = {}

    def install(self, switch: Switch, dst: int) -> None:
        """``switch``'s entries for every host of ``dst``'s rack (none
        for an unknown or unreachable ``dst``)."""
        rack = self.topology.rack_of.get(dst)
        if rack is None:
            return
        tor = self.topology.racks[rack]
        dist = self._dist.get(rack)
        if dist is None:
            dist = self._dist[rack] = self._bfs(self._index[tor.node_id])
        j = self._index[switch.node_id]
        want = dist[j] - 1
        if want < 0:
            return  # the rack's own ToR, or a switch cut off from it
        candidates = [
            port for port, peer in enumerate(self._ports[j]) if dist[peer] == want
        ]
        if candidates:
            entry = candidates[0] if len(candidates) == 1 else tuple(candidates)
            for host_id in tor.connected_hosts:
                switch.set_route(host_id, entry)

    def _bfs(self, tor_idx: int) -> List[int]:
        """Hop distance of every switch from switch ``tor_idx`` (-1: none)."""
        if not self._adj:
            index = self._index
            self._ports = [
                [
                    index[peer.node_id] if isinstance(peer, Switch) else -1
                    for peer in (link.peer_of(sw) for link in sw.links)
                ]
                for sw in self.switches
            ]
            self._adj = [[p for p in peers if p >= 0] for peers in self._ports]
        adj = self._adj
        # one slot past the switches: a host port's -1 reads it, and no
        # distance a lookup wants is -1
        dist = [-1] * (len(adj) + 1)
        dist[tor_idx] = 0
        frontier = [tor_idx]
        d = 0
        while frontier:
            d += 1
            reached = []
            for j in frontier:
                for peer in adj[j]:
                    if dist[peer] < 0:
                        dist[peer] = d
                        reached.append(peer)
            frontier = reached
        return dist


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_leaf_spine(
    sim: Simulator,
    host_factory: HostFactory,
    switch_factory: SwitchFactory,
    n_spines: int,
    n_tors: int,
    hosts_per_tor: int,
    host_bandwidth: float,
    fabric_bandwidth: float,
    link_delay: int,
    host_link_delay: int,
) -> Topology:
    """The paper's 2-level leaf-spine fabric (§6, default topology:
    4 spines x 10 ToRs x 16 hosts at paper scale).

    ``host_link_delay`` apart from ``link_delay`` lets scaled-down
    configurations keep the end-to-end BDP large while the per-hop
    switch-to-switch BDP stays small — see EXPERIMENTS.md.
    """
    topo = Topology(sim)
    next_switch = SWITCH_ID_BASE
    spines: List[Switch] = []
    for i in range(n_spines):
        sw = switch_factory(sim, next_switch, f"spine{i}", "core", 1)
        next_switch += 1
        spines.append(sw)
        topo.switches.append(sw)
    for t in range(n_tors):
        tor = switch_factory(sim, next_switch, f"tor{t}", "tor", 0)
        next_switch += 1
        topo.switches.append(tor)
        for h in range(hosts_per_tor):
            hid = t * hosts_per_tor + h
            host = host_factory(sim, hid, f"h{hid}")
            topo.hosts.append(host)
            topo.connect(
                tor,
                host,
                host_bandwidth,
                host_link_delay,
                role_a=PortRole.TOR_DOWN,
                role_b=PortRole.HOST_UP,
            )
        for spine in spines:
            topo.connect(
                tor,
                spine,
                fabric_bandwidth,
                link_delay,
                role_a=PortRole.TOR_UP,
                role_b=PortRole.CORE,
            )
    topo.finalize()
    # host -> ToR -> spine -> ToR -> host: 4 links each way
    topo.base_rtt = _path_rtt(
        [
            (host_bandwidth, host_link_delay),
            (fabric_bandwidth, link_delay),
            (fabric_bandwidth, link_delay),
            (host_bandwidth, host_link_delay),
        ]
    )
    return topo


def build_fat_tree(
    sim: Simulator,
    host_factory: HostFactory,
    switch_factory: SwitchFactory,
    fat_tree_k: int,
    hosts_per_edge: int,
    host_bandwidth: float,
    fabric_bandwidth: float,
    link_delay: int,
    host_link_delay: int,
) -> Topology:
    """k-ary fat tree (k pods, k/2 edge + k/2 agg per pod, (k/2)^2 cores).

    With ``fat_tree_k=8`` and 4 hosts per edge this is the paper's
    3-tier robustness topology: 32 edges, 32 aggs, 16 cores, 128 hosts.
    """
    k = fat_tree_k
    if k % 2:
        raise ValueError(f"fat tree arity must be even, got {k}")
    half = k // 2
    topo = Topology(sim)
    next_switch = SWITCH_ID_BASE
    cores: List[Switch] = []
    for i in range(half * half):
        sw = switch_factory(sim, next_switch, f"core{i}", "core", 2)
        next_switch += 1
        cores.append(sw)
        topo.switches.append(sw)
    hid = 0
    for pod in range(k):
        aggs: List[Switch] = []
        for a in range(half):
            sw = switch_factory(sim, next_switch, f"agg{pod}.{a}", "agg", 1)
            next_switch += 1
            aggs.append(sw)
            topo.switches.append(sw)
        for e in range(half):
            edge = switch_factory(sim, next_switch, f"edge{pod}.{e}", "tor", 0)
            next_switch += 1
            topo.switches.append(edge)
            for _ in range(hosts_per_edge):
                host = host_factory(sim, hid, f"h{hid}")
                hid += 1
                topo.hosts.append(host)
                topo.connect(
                    edge,
                    host,
                    host_bandwidth,
                    host_link_delay,
                    role_a=PortRole.EDGE_DOWN,
                    role_b=PortRole.HOST_UP,
                    )
            for agg in aggs:
                topo.connect(
                    edge,
                    agg,
                    fabric_bandwidth,
                    link_delay,
                    role_a=PortRole.EDGE_UP,
                    role_b=PortRole.AGG_DOWN,
                    )
        for a, agg in enumerate(aggs):
            for c in range(half):
                core = cores[a * half + c]
                topo.connect(
                    agg,
                    core,
                    fabric_bandwidth,
                    link_delay,
                    role_a=PortRole.AGG_UP,
                    role_b=PortRole.CORE,
                    )
    topo.finalize()
    topo.base_rtt = _path_rtt(
        [(host_bandwidth, host_link_delay)]
        + [(fabric_bandwidth, link_delay)] * 4
        + [(host_bandwidth, host_link_delay)]
    )
    return topo


def build_testbed(
    sim: Simulator,
    host_factory: HostFactory,
    switch_factory: SwitchFactory,
    host_bandwidth: float,
    fabric_bandwidth: float,
    link_delay: int,
    host_link_delay: int,
) -> Topology:
    """The §5.2 testbed: one core, three ToRs, two hosts per ToR
    (``fabric_bandwidth`` is the core links')."""
    return build_leaf_spine(
        sim,
        host_factory,
        switch_factory,
        n_spines=1,
        n_tors=3,
        hosts_per_tor=2,
        host_bandwidth=host_bandwidth,
        fabric_bandwidth=fabric_bandwidth,
        link_delay=link_delay,
        host_link_delay=host_link_delay,
    )


def build_dumbbell(
    sim: Simulator,
    host_factory: HostFactory,
    switch_factory: SwitchFactory,
    hosts_per_tor: int,
    host_bandwidth: float,
    fabric_bandwidth: float,
    link_delay: int,
) -> Topology:
    """Two ToRs of ``hosts_per_tor`` hosts each, joined by one trunk
    link of ``fabric_bandwidth`` — the unit-test micro-fabric."""
    topo = Topology(sim)
    left = switch_factory(sim, SWITCH_ID_BASE, "torL", "tor", 0)
    right = switch_factory(sim, SWITCH_ID_BASE + 1, "torR", "tor", 0)
    topo.switches.extend([left, right])
    for i in range(hosts_per_tor * 2):
        tor = left if i < hosts_per_tor else right
        host = host_factory(sim, i, f"h{i}")
        topo.hosts.append(host)
        topo.connect(
            tor,
            host,
            host_bandwidth,
            link_delay,
            role_a=PortRole.TOR_DOWN,
            role_b=PortRole.HOST_UP,
            )
    topo.connect(
        left,
        right,
        fabric_bandwidth,
        link_delay,
        role_a=PortRole.TOR_UP,
        role_b=PortRole.TOR_UP,
    )
    topo.finalize()
    topo.base_rtt = _path_rtt(
        [
            (host_bandwidth, link_delay),
            (fabric_bandwidth, link_delay),
            (host_bandwidth, link_delay),
        ]
    )
    return topo


def _path_rtt(hops: List[Tuple[float, int]]) -> int:
    """Unloaded RTT along a path of ``(bandwidth, delay)`` hops."""
    from repro.units import MTU, serialization_delay

    one_way = sum(d + serialization_delay(MTU, bw) for bw, d in hops)
    ack_way = sum(d + serialization_delay(64, bw) for bw, d in hops)
    return one_way + ack_way
