"""Hybrid fidelity: packet-level hot racks riding on a fluid background.

``HybridSimulation`` partitions one built topology into **hot** racks —
named in ``ScenarioConfig.hot_racks`` or auto-selected from the
workload's per-destination expected arrival rates — and everything
else.  Hot racks (their ToR, hosts, and every switch a hot-to-hot path
crosses) run the real packet engine: switch buffers, ECN, PFC,
Floodgate credit tables.  All other traffic runs on
the inherited :class:`~repro.flowsim.model.FluidSimulation` max-min
rate model.  Both tiers share one int-ns :class:`Simulator`, so event
ordering, telemetry samplers, and simcheck digests work unchanged.

The boundary sits on each hot ToR's uplinks, using the same
``Link.channel`` hook the sharded engine uses for cross-domain
delivery:

* **cold -> hot** (fluid entering a hot domain): the flow stays fluid
  over its *full* path (so the allocator sees the hot-rack bottleneck),
  but is marked ``fluid_src`` and materialized as paced packet
  injections at the hot ToR's uplink ingress port — rate = the flow's
  current max-min allocation, re-paced whenever ``_reallocate`` changes
  it, gated on the ToR's PFC ingress-pause state, and lagged by the
  path's cold-segment latency plus an M/M/1 queueing estimate.  The
  receiver host suppresses end-to-end control toward the fluid sender
  (``Flow.fluid_src``); delivery, FCT, and completion are all real.
* **hot -> cold** (packets leaving a hot domain): DATA packets for cold
  destinations are absorbed at the boundary after their real egress
  serialization.  Each absorbed flow drives a *ghost* fluid flow over
  the cold path tail whose ceiling tracks the measured offered rate
  (short EWMA window); absorbed packets transit a virtual server at the
  ghost's allocated rate plus the tail's store-and-forward latency and
  are delivered to the real destination host, whose ACKs ride the real
  reverse path (preserving the sender's ACK clocking).  The credit the
  absorbed downstream switch would have returned is synthesized so the
  hot ToR's Floodgate window keeps cycling (PSN-absolute reconcile,
  so synthesized and real credits can never over-fill a window).
* **hot <-> hot across racks** stays packet end-to-end; the bytes it
  carries over boundary uplinks are measured per direction and
  presented to the fluid allocator as reduced link capacity
  (headroom), and booked as packet-side cross traffic for the
  queueing-delay correction — so the two tiers agree on shared
  bottlenecks without double-counting either tier's load.
"""

from __future__ import annotations

from heapq import heappush
from typing import Dict, List, Optional, Tuple

from repro.flowsim.model import _RHO_CAP, FluidFlow, FluidSimulation
from repro.net.packet import Packet, PacketKind
from repro.net.switch import Switch
from repro.sim.engine import Event
from repro.sim.process import PeriodicTask
from repro.units import CTRL_PKT_SIZE, MTU, SEC, serialization_delay, us

_DATA = PacketKind.DATA

#: floor for tunnel/pacing rates so a starved allocation cannot stall
#: the virtual clock forever (1 Mbps)
_MIN_RATE = 1e6

#: EWMA smoothing for boundary offered-rate / passthrough measurements
_EWMA_ALPHA = 0.3

#: auto-selection: a destination is hot when its expected arrival
#: rate — with each source's contribution capped at line rate, since
#: one NIC cannot deliver faster than that no matter how large the
#: flow — exceeds this multiple of the destination's drain rate.
#: Above 1.0 requires *concurrent fan-in*: the incast-victim
#: signature, as opposed to one elephant that merely keeps the link
#: busy and never builds a standing queue of competing senders
_HOT_OVERSUB = 1.5

#: drift budget between fluid admission and packet injection before the
#: boundary sweep flags a conservation error, bits
_DRIFT_SLACK_BITS = 16 * MTU * 8

#: DCQCN achieved-rate fraction on a saturated cold link.  Max-min is
#: the converged fair share; a DCQCN sender under Poisson arrivals
#: spends much of its life *re-converging* — every new flow starts at
#: line rate, spikes the bottleneck queue, and knocks incumbents into
#: a multiplicative cut followed by a slow timer-driven recovery.  The
#: fluid validator pins the resulting p99 residual at ~22 % on
#: fattree-a2a; this factor folds the same deficit into inbound pacing
#: when (and only when) the flow's binding bottleneck is a cold link,
#: so a packet-level hot rack — where the real control loop runs — is
#: never double-penalised.  The factor is deeper than the ~0.8
#: end-to-end deficit the fluid validator measures because it only
#: applies *while* the bottleneck is saturated, whereas the real
#: sender keeps under-shooting through its recovery timers after the
#: queue drains.  Calibrated against the packet engine
#: (validate-hybrid holds it to 10 %)
_DCQCN_COLD_UTILIZATION = 0.75

#: a link counts as a candidate max-min bottleneck above this
#: utilization of its (headroom-adjusted) capacity
_SATURATED = 0.98


def select_hot_racks(scenario) -> Tuple[int, ...]:
    """Racks hot by expected per-destination oversubscription.

    A rack is hot when one of its hosts carries the incast-victim
    signature: aggregate expected arrivals — each source's
    contribution capped at what its NIC can land within the scheduled
    window — of at least ``_HOT_OVERSUB`` times the destination's
    drain rate.  When nothing qualifies (a uniform load has no
    victims) the single busiest destination's rack is chosen, so a
    hybrid run always has a packet-level domain.
    """
    cfg = scenario.config
    rack_of = scenario.rack_of()
    duration = max(cfg.duration, 1)
    src_cap_bits = cfg.host_bandwidth * duration / SEC
    per_src: Dict[int, Dict[int, float]] = {}
    for spec in scenario.flows:
        srcs = per_src.setdefault(spec.dst, {})
        srcs[spec.src] = srcs.get(spec.src, 0.0) + spec.size * 8.0
    if not per_src:
        return ()
    arrival_bits: Dict[int, float] = {
        dst: sum(min(bits, src_cap_bits) for bits in srcs.values())
        for dst, srcs in per_src.items()
    }
    threshold_bits = _HOT_OVERSUB * src_cap_bits
    hot: Dict[int, None] = {}
    for dst, bits in arrival_bits.items():
        if bits >= threshold_bits:
            hot[rack_of[dst]] = None
    if not hot:
        busiest, busiest_bits = -1, -1.0
        for dst, bits in arrival_bits.items():
            if bits > busiest_bits:
                busiest, busiest_bits = dst, bits
        hot[rack_of[busiest]] = None
    return tuple(sorted(hot))


class _BoundaryChannel:
    """Per-uplink interceptor installed on ``Link.channel``.

    ``Link.deliver`` hands it the fully ordered event tuple; everything
    except hot-to-cold DATA is pushed onto the shared heap verbatim (the
    serial delivery path), so pass-through traffic keeps byte-identical
    event ordering.
    """

    __slots__ = (
        "hybrid",
        "link",
        "tor",
        "tor_port",
        "peer",
        "outward_r",
        "inward_r",
        "tick_bits",
        "ewma",
    )
    #: absorption reads fluid state and allocates sequence numbers at
    #: hand-off, so the port must call in when serialization ends, not
    #: when it starts (see ``EgressPort._try_transmit``)
    at_tx_done = True

    def __init__(self, hybrid, link, tor, tor_port, peer) -> None:
        self.hybrid = hybrid
        self.link = link
        self.tor = tor
        self.tor_port = tor_port
        self.peer = peer
        self.outward_r = hybrid._directed_resource(link, tor)
        self.inward_r = hybrid._directed_resource(link, peer)
        #: passthrough DATA bits since the last headroom tick, [out, in]
        self.tick_bits = [0.0, 0.0]
        #: EWMA passthrough rate per direction, bits/s, [out, in]
        self.ewma = [0.0, 0.0]

    def send(self, peer, ev) -> None:
        pkt = ev[5][0]
        hybrid = self.hybrid
        if peer is self.peer:
            # outward: hot ToR -> fabric
            if pkt.kind == _DATA:
                if pkt.dst not in hybrid._hot_hosts:
                    hybrid._absorb(self, pkt, ev[0])
                    return
                hybrid._note_passthrough(self, 0, pkt.size)
        elif pkt.kind == _DATA:
            # inward: fabric -> hot ToR (hot-to-hot cross traffic)
            hybrid._note_passthrough(self, 1, pkt.size)
        # the sending port's own tuple, verbatim
        heappush(hybrid.sim._heap, ev)  # simcheck: ignore[SIM010] -- seq drawn at its transmit start


class _InboundState:
    """Paced packet injection for one cold-src -> hot-dst fluid flow."""

    __slots__ = (
        "ff",
        "flow",
        "tor",
        "port",
        "rate",
        "extra",
        "next_time",
        "seq",
        "seq_high",
        "event",
        "watchdog",
        "pause_retry",
    )

    def __init__(self, ff: FluidFlow, tor, port: int, lead: int, pause_retry: int) -> None:
        self.ff = ff
        self.flow = ff.flow
        self.tor = tor
        self.port = port
        self.rate = 0.0
        #: current cold-queueing extra delay folded into the pacing
        self.extra = 0
        # ``lead`` is the cold-segment latency: offset between fluid
        # departure at the source and packet arrival at the hot ToR
        self.next_time = ff.flow.start_time + lead
        self.seq = 0
        #: highest seq ever injected (unique-progress cursor; ``seq``
        #: rewinds on go-back-N redelivery, this does not)
        self.seq_high = 0
        self.event: Optional[Event] = None
        self.watchdog: Optional[Event] = None
        self.pause_retry = pause_retry

    def unique_bytes(self) -> int:
        """Distinct payload bytes injected at least once."""
        flow = self.flow
        if self.seq_high >= flow.n_packets:
            return flow.size
        return self.seq_high * MTU


class _OutboundState:
    """Absorption + fluid tunnel for one hot-src -> cold-dst flow."""

    __slots__ = (
        "flow",
        "ghost",
        "clock",
        "residual",
        "ewma_rate",
        "last_arrival",
        "last_delivery",
        "tick_bytes",
        "absorbed_packets",
        "absorbed_bytes",
        "delivered_bytes",
    )

    def __init__(self, flow, ghost: FluidFlow, residual: int, line_rate: float) -> None:
        self.flow = flow
        self.ghost: Optional[FluidFlow] = ghost
        #: virtual-server clock: when the cold tail finished serving the
        #: last absorbed packet at the ghost's allocated rate
        self.clock = 0
        #: unloaded store-and-forward latency of the cold tail, ns
        self.residual = residual
        #: measured offered rate (EWMA over arrival gaps), bits/s
        self.ewma_rate = line_rate
        self.last_arrival = -1
        #: latest scheduled delivery, ns (keeps per-flow delivery
        #: monotone under a time-varying queueing estimate)
        self.last_delivery = 0
        #: absorbed bytes since the last headroom tick (idle detection)
        self.tick_bytes = 0
        self.absorbed_packets = 0
        self.absorbed_bytes = 0
        self.delivered_bytes = 0


class HybridSimulation(FluidSimulation):
    """Packet-level hot racks over the inherited fluid background."""

    def __init__(self, scenario) -> None:
        super().__init__(scenario)
        cfg = scenario.config
        # an explicit hot_racks entry was range-checked by the scenario
        racks = cfg.hot_racks or select_hot_racks(scenario)
        self.hot_racks: Tuple[int, ...] = tuple(sorted(dict.fromkeys(racks)))
        #: hot host ids (deterministic set: insertion-ordered dict)
        self._hot_hosts: Dict[int, None] = {
            host_id: None
            for host_id, rack in self.topology.rack_of.items()
            if rack in self.hot_racks
        }
        self._hot_tors: List[Switch] = [
            self.topology.racks[rack] for rack in self.hot_racks
        ]
        #: boundary interceptors, one per hot-ToR uplink
        self._channels: List[_BoundaryChannel] = []
        for tor in self._hot_tors:
            for port, link in enumerate(tor.links):
                peer = link.peer_of(tor)
                if isinstance(peer, Switch):
                    chan = _BoundaryChannel(self, link, tor, port, peer)
                    link.channel = chan
                    self._channels.append(chan)
        #: per-resource allocated fluid load, maintained incrementally
        #: by ``_apply_rates``/``_unlink`` for the O(1) cold-queueing
        #: estimate the injector folds into its pacing
        self._res_load: Dict[int, float] = {}
        #: pace cold-bottlenecked inbound flows below their max-min
        #: allocation when the packet twin's law cuts its rate on ECN
        #: marks, as DCQCN does (see ``_DCQCN_COLD_UTILIZATION``)
        self._dcqcn_cold = scenario.cc.reads_ecn
        self._in_states: Dict[FluidFlow, _InboundState] = {}
        self._out_states: Dict[int, _OutboundState] = {}
        self._ghost_flows: Dict[FluidFlow, None] = {}
        # -- boundary counters (sanitizer + telemetry) ---------------------
        self.injected_packets = 0
        self.injected_bytes = 0
        self.absorbed_packets = 0
        self.absorbed_bytes = 0
        self.tunnel_delivered_packets = 0
        self.tunnel_delivered_bytes = 0
        self.synthesized_credit_frames = 0
        base_rtt = max(scenario.base_rtt, 1)
        self._redeliver_timeout = 4 * base_rtt + us(50)
        self._headroom_interval = max(base_rtt, us(10))
        self._headroom_task = PeriodicTask(
            self.sim, self._headroom_interval, self._headroom_tick
        )
        # the sanitizer's boundary sweep and the telemetry export find
        # the hybrid tier here (``scenario.fluid`` is set by the base)
        scenario.hybrid = self

    def stop(self) -> None:
        """Stop the headroom sampler (runner teardown)."""
        self._headroom_task.stop()

    # -- scheduling --------------------------------------------------------

    def schedule(self, specs=None) -> None:
        """Classify every flow into a tier and arm both engines."""
        flows = self.topology.make_flows(
            specs if specs is not None else self.scenario.flows
        )
        flows.sort(key=lambda f: (f.start_time, f.flow_id))
        hot = self._hot_hosts
        packet_flows = []
        now = self.sim.now
        for flow in flows:
            if flow.src in hot:
                # hot source: real packet flow end to end; absorbed at
                # the boundary only if the destination is cold
                packet_flows.append(flow)
                continue
            ff, hops = self._fluid_flow(flow)
            self._arrivals.append(ff)
            if flow.dst in hot:
                # cold source, hot destination: fluid over the full
                # path, materialized by a paced injector at the ToR
                flow.fluid_src = True
                self._in_states[ff] = self._make_inbound(ff, hops)
        times = sorted({max(ff.flow.start_time, now) for ff in self._arrivals})
        self.sim.schedule_many((t, self._process, ()) for t in times)
        self.topology.start_flows(packet_flows)
        self._headroom_task.start()

    def _make_inbound(self, ff: FluidFlow, hops) -> _InboundState:
        """Locate the boundary entry port and build the injector state."""
        if len(ff.links) < 2:  # pragma: no cover - defensive
            raise RuntimeError(
                f"inbound flow {ff.flow.flow_id} has no boundary hop"
            )
        entry_r = ff.links[-2]
        link = self.topology.links[entry_r // 2]
        if entry_r % 2 == 0:
            tor, port = link.node_b, link.port_b
        else:
            tor, port = link.node_a, link.port_a
        lead = 0
        for bandwidth, delay in hops[:-1]:
            lead += delay + serialization_delay(MTU, bandwidth)
        pause_retry = 2 * serialization_delay(MTU, link.bandwidth)
        return _InboundState(ff, tor, port, lead, max(pause_retry, 100))

    # -- rate installation hooks -------------------------------------------

    def _apply_rates(self, now: int, flows, rates) -> None:
        res_load = self._res_load
        for ff, rate in zip(flows, rates, strict=True):
            delta = rate - ff.rate
            if delta:
                for r in ff.path:
                    res_load[r] = res_load.get(r, 0.0) + delta
        super()._apply_rates(now, flows, rates)
        in_states = self._in_states
        for ff in flows:
            st = in_states.get(ff)
            if st is not None:
                self._repace(st, now)

    def _unlink(self, ff: FluidFlow) -> None:
        if ff.rate:
            res_load = self._res_load
            for r in ff.path:
                res_load[r] = res_load.get(r, 0.0) - ff.rate
        super()._unlink(ff)

    def _retire_flow(self, ff: FluidFlow, now: int) -> None:
        if ff in self._in_states or ff in self._ghost_flows:
            # boundary flows: FCT, delivery, and completion come from
            # real packet arrival at the destination host; the injector
            # drains its residual at the last allocation
            return
        super()._retire_flow(ff, now)

    # -- cold -> hot: paced injection --------------------------------------

    def _mm1_wait(self, links, own: float) -> int:
        """Instantaneous M/M/1 queueing estimate over cold links, ns.

        For each directed-link resource in ``links``, the allocated
        fluid load minus the flow's ``own`` rate is the cross traffic
        its packets compete against; each contributes
        ``rho / (1 - rho)`` MTU service times.  An unloaded path
        returns 0, preserving exact closed-form FCTs.
        """
        load = self._res_load
        caps = self.capacities
        wait = 0.0
        for r in links:
            cap = caps[r]
            cross = load.get(r, 0.0) - own
            if cross <= 0.0:
                continue
            rho = cross / cap
            if rho > _RHO_CAP:
                rho = _RHO_CAP
            wait += rho / (1.0 - rho) * serialization_delay(MTU, cap)
        return int(wait)

    def _cold_wait_ns(self, ff: FluidFlow) -> int:
        """Cold-segment queueing for an inbound flow.

        The last path hop (ToR -> host) queues for real at the hot ToR,
        so only the upstream link resources contribute.
        """
        return self._mm1_wait(ff.links[:-1], ff.rate)

    def _cold_bottlenecked(self, ff: FluidFlow) -> bool:
        """True when the flow's binding max-min bottleneck is cold.

        Max-min only holds a flow below its ceiling where some link on
        its path is saturated.  If the *final* hop — the hot ToR ->
        host link, simulated at packet level — is saturated, the real
        congestion-control loop governs the flow and the fluid
        allocation is just its feed; the DCQCN deficit must not be
        applied on top.  Only when the last hop has slack and an
        upstream (cold) link is saturated is the allocation itself the
        optimistic bound that DCQCN undershoots.
        """
        load = self._res_load
        caps = self.capacities
        links = ff.links
        if len(links) < 2:
            return False
        hot_r = links[-1]
        if load.get(hot_r, 0.0) >= _SATURATED * caps[hot_r]:
            return False
        for r in links[:-1]:
            if load.get(r, 0.0) >= _SATURATED * caps[r]:
                return True
        return False

    def _repace(self, st: _InboundState, now: int) -> None:
        """Re-arm the injector after a reallocation changed its rate."""
        flow = st.flow
        if st.seq >= flow.n_packets or flow.receiver_done:
            return
        ff = st.ff
        rate = ff.rate
        if rate > 0.0 and self._dcqcn_cold and self._cold_bottlenecked(ff):
            rate *= _DCQCN_COLD_UTILIZATION
        st.rate = rate
        if rate <= 0.0:
            # starved: hold injection until the allocator unblocks it
            if st.event is not None:
                st.event.cancel()
                st.event = None
            return
        extra = self._cold_wait_ns(ff)
        if extra > st.extra:
            st.next_time += extra - st.extra
        st.extra = extra
        # keep injection within one packet of the fluid admission: the
        # boundary conservation sweep holds the two tiers to this
        moved = flow.size * 8.0 - ff.remaining_bits
        ahead = st.unique_bytes() * 8.0 - moved
        if ahead > MTU * 8.0:
            defer = now + int(ahead * SEC / rate)
            if defer > st.next_time:
                st.next_time = defer
        when = max(now, st.next_time)
        ev = st.event
        if ev is not None and not ev.cancelled and ev.time == when:
            return
        if ev is not None:
            ev.cancel()
        st.event = self.sim.schedule_at(when, self._inject_step, st)

    def _inject_step(self, st: _InboundState) -> None:
        st.event = None
        flow = st.flow
        if flow.receiver_done:
            return
        if st.seq >= flow.n_packets:
            self._arm_watchdog(st)
            return
        now = self.sim.now
        tor = st.tor
        if tor.buffer.ingress_paused[st.port]:
            # the fabric ingress is PFC-paused: a real upstream switch
            # would hold the packet too
            st.next_time = now + st.pause_retry
            st.event = self.sim.schedule_at(st.next_time, self._inject_step, st)
            return
        seq = st.seq
        size = flow.packet_size(seq)
        pkt = Packet(_DATA, flow.src, flow.dst, size, flow.flow_id, seq)
        pkt.sent_time = now
        st.seq = seq + 1
        if st.seq > st.seq_high:
            st.seq_high = st.seq
        self.injected_packets += 1
        self.injected_bytes += size
        # the cold source host "sent" this packet: its counters keep the
        # sanitizer's data-conservation ledger balanced
        src_host = self.topology.hosts[flow.src]
        src_host.tx_data_packets += 1
        tor.receive(pkt, st.port)
        if st.seq >= flow.n_packets:
            self._arm_watchdog(st)
            return
        rate = st.rate
        if rate <= 0.0:
            return  # starved mid-flow; _repace re-arms on recovery
        st.next_time = when = max(now, st.next_time) + int(size * 8 * SEC / rate)
        # ``schedule_at(when, _inject_step, st)`` as one push: the seq is
        # drawn here, where schedule_at draws it
        sim = self.sim
        sim._seq = heap_seq = sim._seq + 1
        fn = self._inject_step
        args = (st,)
        st.event = ev = Event(when, heap_seq, fn, args)
        heappush(sim._heap, (when, 0, heap_seq, ev, fn, args))  # simcheck: ignore[SIM010] -- seq drawn from sim._seq just above, where schedule_at draws it

    def _arm_watchdog(self, st: _InboundState) -> None:
        if st.flow.receiver_done or st.watchdog is not None:
            return
        st.watchdog = self.sim.schedule_at(
            self.sim.now + self._redeliver_timeout, self._watchdog_fire, st
        )

    def _watchdog_fire(self, st: _InboundState) -> None:
        """Go-back-N recovery for injected packets dropped at the ToR.

        The receiver suppresses NACKs toward fluid sources, so the
        injector supervises delivery itself: if the flow has not
        completed a redelivery timeout after its last injection, rewind
        to the receiver's cursor and re-inject.
        """
        st.watchdog = None
        flow = st.flow
        if flow.receiver_done:
            return
        if st.seq >= flow.n_packets and flow.expected_seq < st.seq:
            flow.retransmitted_packets += st.seq - flow.expected_seq
            st.seq = flow.expected_seq
            st.next_time = self.sim.now
            if st.event is None:
                st.event = self.sim.schedule_at(
                    self.sim.now, self._inject_step, st
                )
        else:
            self._arm_watchdog(st)

    # -- hot -> cold: absorption + fluid tunnel ----------------------------

    def _note_passthrough(self, chan: _BoundaryChannel, direction: int, size: int) -> None:
        """Book hot-to-hot DATA crossing a boundary uplink.

        Feeds both halves of the shared-bottleneck contract: the
        headroom sampler (capacity seen by the allocator) and the
        packet-side cross-traffic column of the queueing correction.
        """
        bits = size * 8
        chan.tick_bits[direction] += bits
        r = chan.outward_r if direction == 0 else chan.inward_r
        self.note_packet_bits(r, float(bits))

    def _absorb(self, chan: _BoundaryChannel, pkt, arrival: int) -> None:
        """Swallow one hot->cold DATA packet into the fluid tunnel."""
        self.absorbed_packets += 1
        self.absorbed_bytes += pkt.size
        st = self._out_states.get(pkt.flow_id)
        if st is None:
            st = self._make_outbound(chan, pkt)
            self._out_states[pkt.flow_id] = st
        bits = pkt.size * 8
        if st.last_arrival >= 0:
            dt = arrival - st.last_arrival
            if dt > 0:
                inst = bits * SEC / dt
                st.ewma_rate += _EWMA_ALPHA * (inst - st.ewma_rate)
        st.last_arrival = arrival
        st.tick_bytes += pkt.size
        st.absorbed_packets += 1
        st.absorbed_bytes += pkt.size
        ghost = st.ghost
        rate = ghost.rate if ghost is not None else 0.0
        if rate < _MIN_RATE:
            rate = _MIN_RATE
        st.clock = max(st.clock, arrival) + int(bits * SEC / rate)
        # delivery = virtual-server finish + unloaded tail latency + the
        # queueing its packets see behind cold cross traffic; clamped
        # monotone so a dropping load estimate cannot reorder a flow
        when = st.clock + st.residual + self._mm1_wait(
            ghost.links if ghost is not None else (), rate
        )
        if when < st.last_delivery:
            when = st.last_delivery
        st.last_delivery = when
        self.sim.schedule_at(when, self._tunnel_deliver, st, pkt)
        # return the credit the absorbed fabric would have generated so
        # the hot ToR's Floodgate window keeps cycling toward cold dsts
        if self._floodgate:
            credit = Packet(
                PacketKind.CREDIT, chan.peer.node_id, chan.tor.node_id, CTRL_PKT_SIZE
            )
            credit.credits = [(pkt.dst, 1)]
            credit.last_psn = pkt.psn
            back = chan.link.delay + serialization_delay(
                CTRL_PKT_SIZE, chan.link.bandwidth
            )
            self.sim.schedule_at(
                self.sim.now + back, chan.tor.receive, credit, chan.tor_port
            )
            self.synthesized_credit_frames += 1

    def _make_outbound(self, chan: _BoundaryChannel, pkt) -> _OutboundState:
        flow = self.topology.flow_table[pkt.flow_id]
        tail_res, tail_hops = self._tail_from(chan.peer, flow.dst)
        ghost = FluidFlow(flow, tail_res, self._flow_ceiling, 0, self._n_link_resources)
        # a standing flow: it never completes through the fluid clock —
        # it is dropped when the real receiver reports the flow done
        ghost.remaining_bits = float(1 << 80)
        residual = 0
        for bandwidth, delay in tail_hops:
            residual += delay + serialization_delay(MTU, bandwidth)
        self._ghost_flows[ghost] = None
        self._injected.append(ghost)
        self._process()
        # seed the offered-rate EWMA from the sender's NIC rate
        return _OutboundState(flow, ghost, residual, self.config.host_bandwidth)

    def _tunnel_deliver(self, st: _OutboundState, pkt) -> None:
        st.delivered_bytes += pkt.size
        self.tunnel_delivered_packets += 1
        self.tunnel_delivered_bytes += pkt.size
        self.topology.hosts[pkt.dst].receive(pkt, 0)
        if st.flow.receiver_done and st.ghost is not None:
            ghost = st.ghost
            st.ghost = None
            self._drop_ghost(ghost)

    def _drop_ghost(self, ghost: FluidFlow) -> None:
        now = self.sim.now
        # the ghost drains up to now with everyone else, then leaves; a
        # standing flow's projected finish is never the earliest one
        nxt = self._sweep(now, None)
        self._active.remove(ghost)
        self._unlink(ghost)
        del self._ghost_flows[ghost]
        self._arm_completion(self._reallocate(now, list(ghost.path), nxt))

    # -- shared-bottleneck headroom ----------------------------------------

    def _headroom_tick(self) -> None:
        """Fold measured packet-tier load into the fluid capacities."""
        now = self.sim.now
        interval = self._headroom_interval
        caps = self.capacities
        dirty: List[int] = []
        for chan in self._channels:
            base = chan.link.bandwidth
            for direction, r in ((0, chan.outward_r), (1, chan.inward_r)):
                rate = chan.tick_bits[direction] * SEC / interval
                chan.tick_bits[direction] = 0.0
                ewma = chan.ewma[direction]
                ewma += _EWMA_ALPHA * (rate - ewma)
                chan.ewma[direction] = ewma
                newcap = base - ewma
                floor = 0.01 * base
                if newcap < floor:
                    newcap = floor
                if abs(newcap - caps[r]) > 1e-3 * base:
                    caps[r] = newcap
                    dirty.append(r)
        for st in self._out_states.values():
            ghost = st.ghost
            if ghost is None:
                continue
            if st.tick_bytes == 0:
                # idle window: decay toward quiescence so a stalled
                # sender stops claiming fluid bandwidth
                st.ewma_rate *= 0.5
            st.tick_bytes = 0
            target = max(st.ewma_rate, _MIN_RATE)
            if abs(target - ghost.ceiling) > 0.02 * max(ghost.ceiling, _MIN_RATE):
                ghost.ceiling = target
                dirty.append(ghost.path[0])
        if dirty:
            nxt = self._sweep(now, None)
            self._arm_completion(self._reallocate(now, dirty, nxt))

    # -- invariants (consumed by repro.simcheck.sanitizer) -----------------

    def boundary_errors(self, final: bool = False) -> List[str]:
        """Per-direction byte-conservation checks at the boundary.

        Inbound (cold -> hot): delivered bytes at the host can never
        exceed the unique bytes injected, and injection can never run
        more than the drift budget ahead of the fluid admission.
        Outbound (hot -> cold): tunnel deliveries can never exceed
        absorbed bytes, and on ``final`` a completed flow must have had
        every delivered byte absorbed first.
        """
        errors: List[str] = []
        now = self.sim.now
        # fluid progress accrues lazily at fluid steps; project each
        # flow's position forward to ``now`` before comparing tiers
        lag = (now - self._last_advance) / SEC
        for ff, st in self._in_states.items():
            flow = st.flow
            unique = st.unique_bytes()
            if flow.delivered_bytes > unique:
                errors.append(
                    f"hybrid boundary (in) flow {flow.flow_id}: host "
                    f"delivered {flow.delivered_bytes} B > injected "
                    f"{unique} B"
                )
            if unique > flow.size:
                errors.append(
                    f"hybrid boundary (in) flow {flow.flow_id}: injected "
                    f"{unique} B > flow size {flow.size} B"
                )
            moved = flow.size * 8.0 - ff.remaining_bits
            if ff.rate > 0.0 and lag > 0.0:
                moved = min(moved + ff.rate * lag, flow.size * 8.0)
            if unique * 8.0 > moved + _DRIFT_SLACK_BITS:
                errors.append(
                    f"hybrid boundary (in) flow {flow.flow_id}: injected "
                    f"{unique * 8.0:.0f} bits ahead of fluid admission "
                    f"{moved:.0f} bits beyond the drift budget"
                )
        for flow_id, st in self._out_states.items():
            if st.delivered_bytes > st.absorbed_bytes:
                errors.append(
                    f"hybrid boundary (out) flow {flow_id}: tunnel "
                    f"delivered {st.delivered_bytes} B > absorbed "
                    f"{st.absorbed_bytes} B"
                )
            if (
                final
                and st.flow.receiver_done
                and st.flow.delivered_bytes > st.absorbed_bytes
            ):
                errors.append(
                    f"hybrid boundary (out) flow {flow_id}: completed "
                    f"with {st.flow.delivered_bytes} B delivered but "
                    f"only {st.absorbed_bytes} B absorbed"
                )
        if self.tunnel_delivered_bytes > self.absorbed_bytes:
            errors.append(
                f"hybrid boundary (out): aggregate tunnel delivery "
                f"{self.tunnel_delivered_bytes} B > absorbed "
                f"{self.absorbed_bytes} B"
            )
        return errors

    def telemetry_counters(self) -> Dict[str, int]:
        """End-of-run counter values for :mod:`repro.telemetry`."""
        return {
            "hybrid.hot_racks": len(self.hot_racks),
            "hybrid.injected_packets": self.injected_packets,
            "hybrid.injected_bytes": self.injected_bytes,
            "hybrid.absorbed_packets": self.absorbed_packets,
            "hybrid.absorbed_bytes": self.absorbed_bytes,
            "hybrid.tunnel_delivered_packets": self.tunnel_delivered_packets,
            "hybrid.synthesized_credit_frames": self.synthesized_credit_frames,
            "hybrid.reallocations": self.reallocations,
        }
