"""The fluid flow-level simulation driven by the existing event engine.

``FluidSimulation`` wraps a built :class:`~repro.experiments.scenario.
Scenario` and evolves per-flow *rates* instead of per-packet events:

* each flow follows the same ECMP path the packet engine would give its
  packets (read straight from the switches' route tables);
* active flows share every directed link by max-min fairness
  (:func:`repro.flowsim.maxmin.max_min_rates`), recomputed only when a
  flow arrives or departs;
* with Floodgate installed, each (switch, per-dst VOQ) contributes an
  extra shared resource capping the aggregate rate toward that dst at
  what the credit window can sustain over the next hop's RTT —
  ``window / hop_rtt`` — mirroring §3.2/§4.2 window sizing (the last
  hop keeps no window, exactly as in the packet extension);
* a flow's own rate is ceilinged by its sending window over the base
  RTT (the ACK-clocking bound), so ``swnd_bdp`` keeps its meaning.

A finished transfer's FCT adds the path's unloaded tail latency —
propagation plus per-hop store-and-forward serialization of the last
packet — so unloaded small-flow FCTs agree with the packet engine.

Events run on the scenario's :class:`~repro.sim.engine.Simulator`
(arrival batches plus one cancellable next-completion event), so the
runner loop, telemetry samplers, the engine profiler, and simcheck's
:class:`EventStreamDigest` all work unchanged.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.analysis.models import hop_rtt_ns
from repro.cc.flow import Flow
from repro.flowsim.maxmin import max_min_rates
from repro.net.switch import Switch
from repro.sim.engine import Event
from repro.units import MTU, SEC, serialization_delay

#: projected-finish sentinel for starved flows (rate 0: a zero-capacity
#: resource on the path); far beyond any runner hard stop
_NEVER = 1 << 62

#: utilization clamp for the queueing-delay correction: ``rho/(1-rho)``
#: diverges as a link saturates, but real queues are bounded by buffers
#: and flow control — cap the modeled backlog at 19 MTUs per hop
_RHO_CAP = 0.95


class FluidFlow:
    """Runtime state of one flow in the fluid model."""

    __slots__ = (
        "flow",
        "path",
        "links",
        "ceiling",
        "tail_latency",
        "remaining_bits",
        "rate",
        "proj_finish",
        "admit_time",
        "admit_bits",
    )

    def __init__(
        self,
        flow: Flow,
        path: Tuple[int, ...],
        ceiling: float,
        tail_latency: int,
        n_link: int,
    ) -> None:
        self.flow = flow
        self.path = path
        #: the path's directed-link resources, in path order (the
        #: resources below ``n_link``; the rest are Floodgate VOQs)
        self.links = tuple(r for r in path if r < n_link)
        self.ceiling = ceiling
        self.tail_latency = tail_latency
        self.remaining_bits = float(flow.size * 8)
        self.rate = 0.0
        self.proj_finish = _NEVER
        #: set at admission: the instant, and a snapshot of each link
        #: resource's cumulative fluid and packet bits — the queueing-
        #: delay correction reads lifetime utilization from the deltas
        #: at completion
        self.admit_time = 0
        self.admit_bits: Tuple[Tuple[int, float, float], ...] = ()


class FluidSimulation:
    """Flow-level execution of one built scenario."""

    def __init__(self, scenario) -> None:
        self.scenario = scenario
        self.sim = scenario.sim
        self.topology = scenario.topology
        self.stats = scenario.stats
        cfg = scenario.config
        self.config = cfg
        #: directed link r: capacity of topology.links[r // 2] in the
        #: a->b (even) or b->a (odd) direction; VOQ resources follow
        self.capacities: List[float] = []
        for link in self.topology.links:
            self.capacities.append(link.bandwidth)
            self.capacities.append(link.bandwidth)
        #: Floodgate per-(switch, dst) VOQ resources, created lazily
        self._voq_resource: Dict[Tuple[int, int], int] = {}
        #: every switch runs Floodgate (``sw.extension``): the fluid
        #: tiers admit no other extension (ScenarioConfig checks it)
        self._floodgate = bool(scenario.extensions)
        #: per-flow ceiling: the sending window over the base RTT
        base_rtt = max(scenario.base_rtt, 1)
        self._flow_ceiling = scenario.cc.swnd_bytes * 8.0 * SEC / base_rtt
        #: cumulative bits carried per *directed link* resource (VOQ
        #: resources are excluded: they model windows, not queues).
        #: Deltas over a flow's lifetime give the mean utilization its
        #: packets competed against — the input to the queueing-delay
        #: correction applied to its FCT at completion.
        self._n_link_resources = 2 * len(self.topology.links)
        self._resource_bits: List[float] = [0.0] * self._n_link_resources
        #: cumulative bits the *packet* tier carried on each directed
        #: link without a fluid flow representing them (hybrid boundary
        #: traffic: see repro.hybrid).  Counted as cross traffic by the
        #: queueing-delay correction; bytes whose flow is fluid-managed
        #: must never be booked here — they already accumulate in
        #: ``_resource_bits`` — or utilization would be counted twice.
        self._packet_bits: List[float] = [0.0] * self._n_link_resources
        #: (first-switch, dst) -> path tail from that switch onward.
        #: Every host in a rack shares its ToR's tail, so boundary
        #: crossings and whole-rack workloads stop rebuilding hop tuples
        #: per flow.
        self._tail_cache: Dict[
            Tuple[int, int], Tuple[Tuple[int, ...], Tuple]
        ] = {}
        self._active: List[FluidFlow] = []
        #: resource index -> insertion-ordered dict of active flows
        #: touching it (a dict used as a deterministic set); the
        #: incremental reallocator walks connected components over it
        self._res_flows: Dict[int, Dict[FluidFlow, None]] = {}
        self._last_advance = 0
        self._arrivals: List[FluidFlow] = []
        self._arrival_cursor = 0
        #: closed-loop injections (repro.rpc) land here, not in the
        #: pre-sorted arrival schedule: they are created *at* their
        #: start instant, so _admit can drain this list unconditionally
        self._injected: List[FluidFlow] = []
        self._completion_ev: Optional[Event] = None
        #: rate recomputations performed (reported via telemetry)
        self.reallocations = 0
        # the sanitizer's rate-conservation sweep finds us here
        scenario.fluid = self

    # -- path construction -------------------------------------------------

    def _voq_cap(self, sw: Switch, dst: int) -> float:
        """Sustainable rate of a Floodgate per-dst window (bits/s)."""
        window_bits = sw.extension._initial_window(dst) * MTU * 8
        out = sw.route_for_dst(dst)
        link = sw.links[out]
        return window_bits * SEC / max(hop_rtt_ns(link.bandwidth, link.delay), 1)

    def _directed_resource(self, link, node) -> int:
        """Directed-link resource index for ``link`` leaving ``node``:
        its ordering-key id less one (``Topology.connect`` numbers link
        ``i``'s directions ``2i + 1`` and ``2i + 2``)."""
        return (link.lid_ab if link.node_a is node else link.lid_ba) - 1

    def _build_tail(self, node: Switch, dst: int) -> Tuple[Tuple[int, ...], Tuple]:
        """Resources + hops from switch ``node`` to host ``dst``."""
        resources: List[int] = []
        hops: List[Tuple[float, int]] = []
        while True:
            if self._floodgate and not node.is_last_hop_for(dst):
                key = (node.node_id, dst)
                voq = self._voq_resource.get(key)
                if voq is None:
                    voq = len(self.capacities)
                    self.capacities.append(self._voq_cap(node, dst))
                    self._voq_resource[key] = voq
                resources.append(voq)
            # the port the packet engine picks: the switch decides
            link = node.links[node.route_for_dst(dst)]
            resources.append(self._directed_resource(link, node))
            hops.append((link.bandwidth, link.delay))
            peer = link.peer_of(node)
            if not isinstance(peer, Switch):
                if peer.node_id != dst:  # pragma: no cover - defensive
                    raise RuntimeError(
                        f"route walk to {dst} reached host {peer.node_id}"
                    )
                return tuple(resources), tuple(hops)
            node = peer

    def _tail_from(self, node: Switch, dst: int) -> Tuple[Tuple[int, ...], Tuple]:
        """Cached :meth:`_build_tail`, keyed (switch, dst).

        The route from a switch depends only on the destination, so
        every host behind one ToR shares a single cached tail.
        """
        key = (node.node_id, dst)
        cached = self._tail_cache.get(key)
        if cached is None:
            cached = self._build_tail(node, dst)
            self._tail_cache[key] = cached
        return cached

    def _build_path(self, src: int, dst: int) -> Tuple[Tuple[int, ...], Tuple]:
        """Resource indices plus (bandwidth, delay) hops from src to dst."""
        node = self.topology.hosts[src]
        link = node.links[0]
        head_resource = self._directed_resource(link, node)
        head_hop = (link.bandwidth, link.delay)
        peer = link.peer_of(node)
        if not isinstance(peer, Switch):
            if peer.node_id != dst:  # pragma: no cover - defensive
                raise RuntimeError(
                    f"route walk from {src} to {dst} reached host "
                    f"{peer.node_id}"
                )
            return (head_resource,), (head_hop,)
        tail_resources, tail_hops = self._tail_from(peer, dst)
        return (head_resource,) + tail_resources, (head_hop,) + tail_hops

    def _fluid_flow(self, flow: Flow) -> Tuple[FluidFlow, Tuple]:
        """``flow`` as a fluid flow on its routed path, with the path's
        ``(bandwidth, delay)`` hops."""
        path, hops = self._build_path(flow.src, flow.dst)
        ff = FluidFlow(
            flow,
            path,
            self._flow_ceiling,
            self._tail_latency(flow.size, hops),
            self._n_link_resources,
        )
        return ff, hops

    def _tail_latency(self, size: int, hops: Tuple) -> int:
        """Unloaded delivery lag of the flow's final packet.

        Propagation on every hop plus store-and-forward serialization
        on every hop after the first: the fluid transfer time already
        covers clocking the bytes through the source NIC.
        """
        last_pkt = min(size, MTU)
        total = 0
        for i, (bandwidth, delay) in enumerate(hops):
            total += delay
            if i:
                total += serialization_delay(last_pkt, bandwidth)
        return total

    # -- scheduling --------------------------------------------------------

    def schedule(self, specs=None) -> None:
        """Register every flow and schedule its arrival event."""
        flows = self.topology.make_flows(
            specs if specs is not None else self.scenario.flows
        )
        flows.sort(key=lambda f: (f.start_time, f.flow_id))
        now = self.sim.now
        for flow in flows:
            self._arrivals.append(self._fluid_flow(flow)[0])
        # one event per distinct arrival instant, batch-loaded
        times = sorted(
            {max(ff.flow.start_time, now) for ff in self._arrivals}
        )
        self.sim.schedule_many((t, self._process, ()) for t in times)

    def inject_flows(self, flows: List[Flow]) -> None:
        """Admit flows created *now* by a closed-loop driver.

        The pre-generated arrival list is sorted and consumed by a
        cursor, so reactively created flows cannot be appended to it
        (they would land behind later-scheduled arrivals and the
        cursor would never reach them).  They go through a side queue
        instead and are admitted in the same fluid step.  Callers must
        invoke this from a simulator event, never from inside a fluid
        callback (``on_flow_done``) — schedule a follow-up event.
        """
        for flow in flows:
            self._injected.append(self._fluid_flow(flow)[0])
        self._process()

    # -- the fluid step ----------------------------------------------------

    def _sweep(self, now: int, dirty: Optional[List[int]]) -> int:
        """Bring every active flow up to ``now`` in one pass over ``_active``.

        Drains each flow at its installed rate, retires the flows that
        are due (their resources land on ``dirty``; ``None`` retires
        nothing — a re-share between steps, as the hybrid tier does on a
        capacity change, leaves due flows to the step already queued
        for them), and returns the earliest
        projected finish among the flows that stay.
        """
        dt = now - self._last_advance
        self._last_advance = now
        factor = dt / SEC if dt > 0 else 0.0
        bits = self._resource_bits
        nxt = _NEVER
        done: List[FluidFlow] = []
        for ff in self._active:
            if factor and ff.rate > 0.0:
                moved = ff.rate * factor
                ff.remaining_bits -= moved
                for r in ff.links:
                    bits[r] += moved
            finish = ff.proj_finish
            if dirty is not None and (finish <= now or ff.remaining_bits <= 0.0):
                done.append(ff)
            elif finish < nxt:
                nxt = finish
        if done:
            # every flow is advanced before the first one retires:
            # _retire_flow reads the cumulative resource bits
            gone = set(done)
            self._active = [ff for ff in self._active if ff not in gone]
            for ff in done:
                self._unlink(ff)
                dirty.extend(ff.path)
                ff.remaining_bits = 0.0
                self._retire_flow(ff, now)
        return nxt

    def note_packet_bits(self, resource: int, bits: float) -> None:
        """Book packet-tier bits on a directed link (hybrid boundary).

        Only for traffic with *no* fluid flow representing it: fluid-
        managed flows already accumulate ``_resource_bits`` through
        :meth:`_sweep`, so booking their materialized packets here
        too would double-count utilization in :meth:`_queueing_wait`.
        """
        self._packet_bits[resource] += bits

    def _queueing_wait(self, ff: FluidFlow, now: int) -> int:
        """Estimated queueing delay the flow's packets saw, in ns.

        The base fluid model shares *bandwidth* but keeps no queues, so
        it systematically undershoots tail FCTs on loaded fabrics
        (Poisson-heavy runs showed ~20% p99 underestimates vs the
        packet engine).  Correction: for each directed link on the
        path, the cross traffic carried during the flow's lifetime
        (cumulative resource bits minus the flow's own, plus any
        packet-tier bits the hybrid boundary booked for traffic no
        fluid flow represents) gives the mean utilization ``rho`` its
        packets competed against; an M/M/1-shaped wait of
        ``rho / (1 - rho)`` MTU service times per hop is added to the
        FCT.  A lone flow sees ``rho == 0`` everywhere, so unloaded
        FCTs keep their exact closed-form values.
        """
        lifetime = now - ff.admit_time
        if lifetime <= 0 or not ff.admit_bits:
            return 0
        own = ff.flow.size * 8.0
        bits = self._resource_bits
        pbits = self._packet_bits
        caps = self.capacities
        per_sec = SEC / lifetime
        wait = 0.0
        for r, b0, p0 in ff.admit_bits:
            cross = (bits[r] - b0 - own) + (pbits[r] - p0)
            if cross <= 0.0:
                continue
            cap = caps[r]
            rho = cross * per_sec / cap
            if rho > _RHO_CAP:
                rho = _RHO_CAP
            wait += rho / (1.0 - rho) * serialization_delay(MTU, cap)
        return int(wait)

    def _retire_flow(self, ff: FluidFlow, now: int) -> None:
        """Record one finished transfer (FCT, stats, completion hook).

        Overridden by the hybrid tier for boundary flows whose FCT is
        measured from real packet delivery instead.
        """
        flow = ff.flow
        flow.delivered_bytes = flow.size
        flow.sender_done = True
        flow.expected_seq = flow.n_packets
        flow.acked_seq = flow.n_packets
        dst_host = self.topology.hosts[flow.dst]
        dst_host.rx_data_bytes += flow.size
        if self.stats is not None:
            self.stats.record_rx(flow.flow_id, flow.size)
        dst_host.finish_flow(
            flow, now + ff.tail_latency + self._queueing_wait(ff, now)
        )

    def _unlink(self, ff: FluidFlow) -> None:
        """Drop a flow from the resource-incidence index."""
        res_flows = self._res_flows
        for r in ff.path:
            bucket = res_flows.get(r)
            if bucket is not None:
                bucket.pop(ff, None)
                if not bucket:
                    del res_flows[r]

    def _on_admit(self, ff: FluidFlow, now: int) -> None:
        ff.admit_time = now
        bits = self._resource_bits
        pbits = self._packet_bits
        ff.admit_bits = tuple((r, bits[r], pbits[r]) for r in ff.links)
        res_flows = self._res_flows
        for r in ff.path:
            bucket = res_flows.get(r)
            if bucket is None:
                res_flows[r] = {ff: None}
            else:
                bucket[ff] = None

    def _admit(self, now: int, dirty: List[int]) -> None:
        if self._injected:
            for ff in self._injected:
                self._on_admit(ff, now)
                dirty.extend(ff.path)
            self._active.extend(self._injected)
            self._injected.clear()
        arrivals = self._arrivals
        cursor = self._arrival_cursor
        while cursor < len(arrivals) and arrivals[cursor].flow.start_time <= now:
            ff = arrivals[cursor]
            self._on_admit(ff, now)
            dirty.extend(ff.path)
            self._active.append(ff)
            cursor += 1
        self._arrival_cursor = cursor

    def _apply_rates(
        self, now: int, flows: List[FluidFlow], rates: List[float]
    ) -> None:
        """Install freshly allocated rates (hybrid re-paces here)."""
        for ff, rate in zip(flows, rates, strict=True):
            ff.rate = rate
            if rate > 0.0 and ff.remaining_bits > 0.0:
                ff.proj_finish = now + int(
                    math.ceil(ff.remaining_bits * SEC / rate)
                )
            else:
                ff.proj_finish = _NEVER

    def _reallocate(self, now: int, dirty: List[int], nxt: int) -> int:
        """Re-share the component of ``dirty``; return the next finish.

        Only the connected component containing ``dirty`` (the
        directed-link/VOQ resources touched by the arrivals,
        departures, or capacity changes that triggered the call) is
        recomputed.  Max-min fairness decomposes exactly over connected
        components of the flow/resource bipartite graph: a
        progressive-filling round in one component never reads a rate
        or capacity from another.  Flows outside the component
        therefore keep both their rate and their projected finish
        (which stays valid because :meth:`_sweep` drained bits at
        exactly that rate); :meth:`allocation_errors` is the
        full-recompute reference the tests hold this against.

        One walk over the incidence index finds the component and is
        the allocator's input: ``members`` maps each resource the
        component crosses to its bucket in ``_res_flows`` (inside a
        component the bucket *is* the resource's member list), in
        first-crossing order over the discovered flows.

        ``nxt`` is the earliest projected finish :meth:`_sweep` saw
        (finishes as they stood before this call); the return value is
        the earliest one now.
        """
        self.reallocations += 1
        res_flows = self._res_flows
        start = dict.fromkeys(dirty)
        stack = list(start)
        members: Dict[int, Dict[FluidFlow, None]] = {}
        paths: Dict[FluidFlow, Tuple[int, ...]] = {}
        ceilings: Dict[FluidFlow, float] = {}
        stale = _NEVER
        while stack:
            bucket = res_flows.get(stack.pop())
            if not bucket:
                continue
            for ff in bucket:
                if ff not in paths:
                    path = paths[ff] = ff.path
                    ceilings[ff] = ff.ceiling
                    if ff.proj_finish < stale:
                        stale = ff.proj_finish
                    for r in path:
                        if r not in members:
                            members[r] = crossed = res_flows[r]
                            # a resource ff has to itself leads nowhere
                            if len(crossed) > 1 and r not in start:
                                stack.append(r)
        if not paths:
            return nxt
        flows = list(paths)
        self._apply_rates(
            now, flows, max_min_rates(paths, ceilings, self.capacities, members)
        )
        if stale <= nxt:
            # the earliest finish may have been one this call moved
            return min([ff.proj_finish for ff in self._active])
        return min(nxt, min([ff.proj_finish for ff in flows]))

    def _arm_completion(self, nxt: int) -> None:
        """Keep one pending ``_process`` event at the earliest finish."""
        ev = self._completion_ev
        if nxt >= _NEVER:
            if ev is not None:
                ev.cancel()
                self._completion_ev = None
            return
        if ev is not None and not ev.cancelled and ev.time == nxt:
            return
        if ev is not None:
            ev.cancel()
        self._completion_ev = self.sim.schedule_at(nxt, self._process)

    def _process(self) -> None:
        """One fluid step: advance and retire, admit, re-share, re-arm."""
        now = self.sim.now
        dirty: List[int] = []
        nxt = self._sweep(now, dirty)
        self._admit(now, dirty)
        if dirty:
            nxt = self._reallocate(now, dirty, nxt)
        self._arm_completion(nxt)

    # -- invariants (consumed by repro.simcheck.sanitizer) -----------------

    def conservation_errors(self) -> List[str]:
        """Rate-conservation violations: per-resource load vs capacity.

        The max-min allocation must never oversubscribe a directed link
        (or a Floodgate VOQ cap); a violation here means the allocator
        produced physically impossible rates.
        """
        load: Dict[int, float] = {}
        for ff in self._active:
            for r in ff.path:
                load[r] = load.get(r, 0.0) + ff.rate
        errors: List[str] = []
        n_links = 2 * len(self.topology.links)
        for r in sorted(load):
            cap = self.capacities[r]
            if load[r] > cap * (1.0 + 1e-6):
                kind = "link" if r < n_links else "floodgate-voq"
                errors.append(
                    f"rate conservation broken on {kind} resource {r}: "
                    f"allocated {load[r]:.0f} bps > capacity {cap:.0f} bps"
                )
        return errors

    # -- the allocator's reference (consumed by tests) ----------------------

    def allocation_errors(self) -> List[str]:
        """Installed rates vs a full max-min recompute of every flow.

        The reference the incremental allocator is tested against (not
        part of the sanitizer sweep: it costs a whole-fabric recompute
        per call).  Compared with ``isclose`` rather than ``==``: the
        full pass interleaves components, so float reassociation can
        shift the shared fair-share sums by ulps.
        """
        full = max_min_rates(
            [ff.path for ff in self._active],
            [ff.ceiling for ff in self._active],
            self.capacities,
        )
        return [
            f"incremental max-min diverged for flow {ff.flow.flow_id}: "
            f"installed {ff.rate!r}, full recompute gave {rate!r}"
            for ff, rate in zip(self._active, full, strict=True)
            if not math.isclose(ff.rate, rate, rel_tol=1e-9, abs_tol=1e-3)
        ]
