"""Conservative-parallel sharded execution of one big topology.

The serial engine runs one heap over the whole fabric.  This module
partitions a built ``Scenario`` (the experiments layer's) into
``shards`` simulation *domains* — per-pod on fat trees, per-ToR-group
on leaf-spine fabrics — each with its own :class:`Simulator` heap,
node set and stats hub, synchronized by classic
conservative lookahead: the minimum propagation delay over the links
that cross a domain boundary.  Domains advance independently inside a
window no wider than that lookahead, then exchange boundary deliveries.

Why the result is *identical* to serial, not merely statistically
equivalent: the engine's heap key is ``(time, lid, seq)`` where every
link delivery carries the per-direction link id it crossed and local
events carry ``lid=0`` (see :mod:`repro.sim.engine`).  Two events in
different domains can only interact through a link delivery, and a
boundary delivery's full key is computed on the *sending* side.
Within a domain, events execute in the serial order restricted to that
domain (induction on the event sequence: identical state implies
identical scheduling actions implies identical keys); across domains,
keys at the same instant are ordered by ``lid``, which names the
sending domain for boundary traffic.  So per-domain execution order —
and therefore every measured quantity — is independent of how the
domains interleave in wall time.

The machinery is three pieces, each written once:

* a **domain runtime** (:class:`DomainRuntime`) owns everything one
  domain needs — its engine, hub, telemetry recorder, sanitizer
  slice, isolation probe and event digest — and answers two calls:
  ``step(h_next, incoming, sweep)`` advances the domain to ``h_next``
  and says what it saw, ``finish(now)`` collects the domain with the
  same :func:`~repro.stats.scope.collect_scope` a serial run collects
  its whole fabric with, into a picklable
  :class:`~repro.stats.scope.ScopeReport`;
* the **window loop** (:func:`_window_loop`) picks each window's end
  from the domains' next-event times and the lookahead, routes
  boundary deliveries between domains, judges the whole-fabric
  conservation equations at every ``CHECK_INTERVAL`` boundary,
  decides when the run is over, and collects the reports;
* a **transport** carries the loop's calls to the runtimes:
  ``barrier`` calls them in this process, ``process`` forks one worker
  per domain and ships the same calls over pipes, and ``lockstep`` —
  the equivalence oracle — advances all domains together by always
  running the globally smallest key (one shared sequence counter, so
  the interleaved stream replays the serial order *exactly*; the
  harness hashes it against a serial run).

This module stops at :func:`run_domains`: what it returns — the
reports, in domain order — is folded into the :class:`ScenarioResult`
a serial run would have built by the one merge every run ends in,
the experiment runner's ``merge_reports``.

Fault plans, telemetry, and the sanitizer all run under shards, each
installed *after* domain binding so its state is domain-local: fault
transitions are scheduled on the faulted link's own simulator (plans
touching boundary links are rejected up front), telemetry samples
per-domain hubs (:mod:`repro.telemetry.recorder`), and the sanitizer
keeps per-domain conservation ledgers the window loop sums
(:class:`~repro.simcheck.sanitizer.SimSanitizer` scoped to a domain).  The optional
isolation sanitizer (``check --sharded --isolate``) tags hot objects
with their owning domain and asserts every executed callback ran under
that domain (:mod:`repro.simcheck.isolation`).

Remaining restrictions (enforced by ``ScenarioConfig.__post_init__``
and this module): packet fidelity only; the rpc closed loop and the
stall watchdog need one address space, so they cannot run under the
forked transport.
"""

from __future__ import annotations

import traceback
from heapq import heappop, heappush
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.experiments.choices import FABRICS, PATTERNS
from repro.sim.engine import Simulator
from repro.stats.scope import CHECK_INTERVAL, ScopeReport, collect_scope

__all__ = [
    "partition_nodes",
    "boundary_lookahead",
    "ShardedRun",
    "run_domains",
]


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------


def partition_nodes(scenario, shards: int) -> Dict[int, int]:
    """Map every node id (hosts and switches) to a domain index.

    Fat trees partition per pod (``pod * shards // k``) with core
    switches block-distributed across domains; every other built
    topology partitions its ToRs into contiguous groups
    (``rack * shards // n_racks``) and block-distributes the other
    switches.  On every topology a host lives in its rack's ToR's
    domain.  The rules are pure functions of the build, so every worker
    process computes the same map.
    """
    cfg = scenario.config
    topo = scenario.topology
    domain: Dict[int, int] = {}
    if FABRICS[cfg.topology].pods:
        k = cfg.fat_tree_k
        half = k // 2
        n_cores = half * half
        for i, sw in enumerate(topo.switches):
            if i < n_cores:
                domain[sw.node_id] = i * shards // n_cores
            else:
                # per pod: half aggs then half edges, k switches total
                pod = (i - n_cores) // k
                domain[sw.node_id] = pod * shards // k
    else:
        n_racks = len(topo.racks)
        for rack, sw in enumerate(topo.racks):
            domain[sw.node_id] = rack * shards // n_racks
        spines = [s for s in topo.switches if s.node_id not in domain]
        for s, sw in enumerate(spines):
            domain[sw.node_id] = s * shards // len(spines)
    for host_id, rack in topo.rack_of.items():
        domain[host_id] = domain[topo.racks[rack].node_id]
    populated = set(domain.values())
    if populated != set(range(shards)):
        empty = sorted(set(range(shards)) - populated)
        raise ValueError(
            f"shards={shards} leaves domain(s) {empty} empty on this "
            f"topology; use fewer shards"
        )
    return domain


def boundary_lookahead(topology, domain_of: Dict[int, int]) -> int:
    """Conservative lookahead: min propagation delay crossing domains."""
    lookahead: Optional[int] = None
    for link in topology.links:
        if domain_of[link.node_a.node_id] != domain_of[link.node_b.node_id]:
            if lookahead is None or link.delay < lookahead:
                lookahead = link.delay
    if lookahead is None:
        raise ValueError(
            "no links cross a domain boundary; a connected topology "
            "partitioned into 2+ non-empty domains always has some"
        )
    if lookahead <= 0:
        raise ValueError("boundary links must have positive delay")
    return lookahead


# ---------------------------------------------------------------------------
# domain binding
# ---------------------------------------------------------------------------


class _SharedSeqSimulator(Simulator):
    """A domain simulator drawing sequence numbers from a shared cell.

    The lockstep transport interleaves domain heaps in global key
    order; sharing one counter across the domains makes every tie at
    ``(time, lid=0)`` break in the same global scheduling order a
    serial run would produce, so the merged stream replays serial
    execution exactly.
    """

    def __init__(self, cell: List[int]) -> None:
        # the property below routes _seq through the cell, so the cell
        # must exist before Simulator.__init__ assigns _seq = 0
        self._seq_cell = cell
        super().__init__()

    @property
    def _seq(self) -> int:
        return self._seq_cell[0]

    @_seq.setter
    def _seq(self, value: int) -> None:
        self._seq_cell[0] = value


class _DirectChannel:
    """Lockstep boundary channel: push straight into the target heap.

    Safe because the merged loop always executes the globally smallest
    key and a delivery's time is strictly in the future.
    """

    __slots__ = ("sims", "domain_of")
    #: only relays the ordered tuple, so a port may hand it over at
    #: transmit start (see ``EgressPort._try_transmit``)
    at_tx_done = False

    def __init__(self, sims: List[Simulator], domain_of: Dict[int, int]):
        self.sims = sims
        self.domain_of = domain_of

    def send(self, peer, item: tuple) -> None:
        heappush(self.sims[self.domain_of[peer.node_id]]._heap, item)


class _OutboxChannel:
    """Window-loop boundary channel: hold deliveries until the window ends.

    Holds the heap items themselves, keyed by target domain; the window
    loop hands them to the target runtime with its next ``step``.
    """

    __slots__ = ("outbox", "domain_of")
    at_tx_done = False  # a relay, like _DirectChannel

    def __init__(self, outbox: List[list], domain_of: Dict[int, int]):
        self.outbox = outbox
        self.domain_of = domain_of

    def send(self, peer, item: tuple) -> None:
        self.outbox[self.domain_of[peer.node_id]].append(item)


def _rebind_extension(ext, sim: Simulator) -> None:
    """Point a switch extension's timer machinery at its domain sim."""
    if hasattr(ext, "sim"):
        ext.sim = sim
    credits = getattr(ext, "credits", None)
    if credits is not None:
        # its per-port timers appear with the first owed credit, on
        # this sim: a build creates none
        credits.sim = sim
    syn = getattr(ext, "_syn_task", None)
    if syn is not None:
        syn._sim = sim


def _bind_domains(
    scenario,
    domain_of: Dict[int, int],
    sims: List[Simulator],
    hubs: list,
    channel,
) -> None:
    """Rebind every node, port, link, and extension to its domain.

    The scenario is built against one throwaway simulator; the build
    leaves its heap empty (every protocol timer is created lazily), so
    rebinding is pure pointer surgery — no scheduled event moves.
    Boundary links get the channel instead of a domain sim; their
    ``deliver`` computes the ordering key on the sending side.

    Every node's stats sink becomes its domain's hub, so hot-path
    records and sampler reads stay domain-local (a shared hub
    mid-window would mix domains at different times); every ``.stats``
    access in the data path goes through the node attribute, so this
    one rebind covers hosts, switches, extensions, and link fault
    states alike.
    """
    topo = scenario.topology
    for node in topo.hosts + topo.switches:
        d = domain_of[node.node_id]
        node.sim = sims[d]
        node.stats = hubs[d]
        for port in node.ports:
            port.sim = sims[d]
    for link in topo.links:
        da = domain_of[link.node_a.node_id]
        db = domain_of[link.node_b.node_id]
        if da == db:
            link.sim = sims[da]
        else:
            link.channel = channel
    for sw in topo.switches:
        if sw.extension is not None:
            _rebind_extension(sw.extension, sims[domain_of[sw.node_id]])


def _schedule_flows(scenario) -> None:
    """Schedule every open-loop flow start on its source host's sim.

    Iterates the flow list in the exact order the serial
    ``schedule_flows`` bulk-load does, so per-domain sequence numbers
    preserve the serial relative order (and the lockstep transport's
    shared counter reproduces the serial numbers outright).
    """
    topo = scenario.topology
    hosts = topo.hosts
    for flow in topo.make_flows(scenario.flows):
        host = hosts[flow.src]
        sim = host.sim
        sim.schedule_call_at(
            max(flow.start_time, sim.now), host.start_flow, flow
        )


def _validate_fault_plan(scenario, domain_of: Dict[int, int]) -> None:
    """Reject fault plans that touch a boundary link.

    A boundary link's delivery is split across two domains (send-side
    key computation, receive-side execution), so a fault state on it
    would be mutated from both — the exact cross-domain aliasing the
    shard-safety lints forbid.  Domain-local application is the only
    sound semantics, so boundary-crossing plans fail fast here rather
    than silently diverging from serial.
    """
    plan = scenario.config.fault_plan
    if plan is None or not plan.faults:
        return
    from repro.faults.injector import match_links

    for fault in plan.faults:
        for link in match_links(fault.link, scenario.topology):
            da = domain_of[link.node_a.node_id]
            db = domain_of[link.node_b.node_id]
            if da != db:
                raise ValueError(
                    f"fault plan selector {fault.link!r} matches boundary "
                    f"link {link.node_a.name}<->{link.node_b.name} "
                    f"(domains {da} and {db}); sharded fault application "
                    "is domain-local — target intra-domain links (e.g. "
                    "'host-switch') or use shards=1"
                )


# ---------------------------------------------------------------------------
# the per-domain runtime
# ---------------------------------------------------------------------------


class DomainState(NamedTuple):
    """What the window loop learns from one domain after a step."""

    #: timestamp of the domain's next live event, None when drained
    next_time: Optional[int]
    #: flows fully delivered to this domain's hosts so far
    completed: int
    #: size of the flow table (identical in every domain's view)
    total_flows: int
    #: boundary deliveries sent this step, ``[(target domain, heap
    #: items)]``; every item is ``(time, lid, seq, None, receive,
    #: (packet, port))``
    outgoing: List[Tuple[int, list]]
    #: the sanitizer slice's conservation ledger when the step swept
    ledger: Optional[Dict[str, int]]


class DomainOutcome(NamedTuple):
    """What ``finish`` sends back: the domain's report for the merge,
    and what only the equivalence harness asks for."""

    report: ScopeReport
    #: hex event-stream digest, None unless the harness asked
    digest: Optional[str]
    #: isolation-probe findings, None when isolation was off
    isolation: Optional[List[str]]


class DomainRuntime:
    """One domain's engine plus everything that observes it.

    Built after domain binding and fault install, before flows are
    scheduled — the order the serial ``Scenario`` installs its layers
    in, so sampler ticks keep their serial position among same-instant
    events.  Only reads and writes state its domain owns.  Carries the
    attributes of a :class:`~repro.stats.scope.Scope`, so ``finish``
    hands the collector the runtime itself.
    """

    def __init__(
        self,
        scenario,
        domain_of: Dict[int, int],
        domain: int,
        sim: Simulator,
        hub,
        outbox: List[list],
        collect_digest: bool,
        isolate: bool,
    ) -> None:
        cfg = scenario.config
        topo = scenario.topology
        self.scenario = scenario
        self.domain = domain
        self.sim = sim
        self.hub = hub
        self.outbox = outbox
        self._flow_table = topo.flow_table
        self.hosts = [h for h in topo.hosts if domain_of[h.node_id] == domain]
        self.switches = [
            s for s in topo.switches if domain_of[s.node_id] == domain
        ]
        self.extensions = [
            ext for ext in scenario.extensions
            if domain_of[ext.switch.node_id] == domain
        ]
        #: node id -> receive, for every node the domain owns
        self.receivers = {
            n.node_id: n.receive for n in (*self.hosts, *self.switches)
        }
        self.recorder = None
        if cfg.telemetry is not None:
            from repro.telemetry.recorder import DomainRecorder

            self.recorder = DomainRecorder(
                sim, cfg.telemetry, hub, self.hosts, self.switches
            )
            self.recorder.start()
        self.sanitizer = None
        if cfg.sanitize is not None:
            from repro.simcheck.sanitizer import SimSanitizer

            self.sanitizer = SimSanitizer(
                scenario, sim=sim,
                owns=lambda node: domain_of[node.node_id] == domain,
            )
        self.iso = None
        probe = None
        if isolate:
            from repro.simcheck.isolation import ShardIsolationSanitizer

            # after fault install, so link fault states carry owner tags
            self.iso = ShardIsolationSanitizer()
            self.iso.tag_scenario(scenario, domain_of)
            probe = self.iso.probe(domain, sim)
        self.digest = None
        if collect_digest:
            from repro.simcheck.determinism import EventStreamDigest

            self.digest = EventStreamDigest(sim, include_depth=False)
        for observer in (self.digest, probe):
            if observer is not None:
                sim.add_observer(observer)

    def step(self, h_next: int, incoming: list, sweep: bool) -> DomainState:
        """Merge ``incoming`` boundary deliveries, run to ``h_next``."""
        heap = self.sim._heap
        for item in incoming:
            heappush(heap, item)
        self.sim.run(until=h_next)
        return self.state(sweep)

    def state(self, sweep: bool) -> DomainState:
        """Observe the domain; ``sweep`` also runs the sanitizer slice.

        The loop sweeps only where a window lands on a
        ``CHECK_INTERVAL`` boundary: the domain has then executed
        exactly the serial prefix of its events, so the slice reads the
        serial cut.
        """
        ledger = None
        if sweep and self.sanitizer is not None:
            ledger = self.sanitizer.sweep()
        outgoing = []
        outbox = self.outbox
        for d, box in enumerate(outbox):
            if box:
                outgoing.append((d, box))
                outbox[d] = []
        return DomainState(
            self.sim.peek_next_time(),
            len(self.hub.fct_records),
            len(self._flow_table),
            outgoing,
            ledger,
        )

    def finish(self, now: int) -> DomainOutcome:
        """Collect this domain: the scope is the runtime itself."""
        return DomainOutcome(
            collect_scope(self.scenario, self, now),
            self.digest.hexdigest() if self.digest is not None else None,
            list(self.iso.violations) if self.iso is not None else None,
        )


def _build_runtimes(
    scenario,
    domain_of: Dict[int, int],
    domains,
    lockstep: bool,
    collect_digests: bool,
    isolate: bool,
) -> List[DomainRuntime]:
    """The setup every transport shares, once per address space.

    Binds *every* domain (a forked worker must not leave foreign nodes
    on a sim it runs), arms faults, builds a runtime for each of
    ``domains`` — all of them in-process, one in a forked worker —
    and only then schedules the flows and starts the rpc driver.
    """
    cfg = scenario.config
    shards = cfg.shards
    outbox: List[list] = []
    if lockstep:
        cell = [0]
        sims: List[Simulator] = [_SharedSeqSimulator(cell) for _ in range(shards)]
        channel = _DirectChannel(sims, domain_of)
    else:
        sims = [Simulator() for _ in range(shards)]
        outbox = [[] for _ in range(shards)]
        channel = _OutboxChannel(outbox, domain_of)
    # per-domain hubs; runtime flow registrations (the rpc driver's
    # incast responses) fan out from the scenario hub
    hubs = [scenario.stats.shard_clone() for _ in range(shards)]
    scenario.stats.bind_shards(hubs)
    _bind_domains(scenario, domain_of, sims, hubs, channel)
    # after binding, so every fault transition lands on its link's own
    # domain sim and counts into that domain's hub.  A forked worker
    # installs the full plan on its private copy: foreign links schedule
    # onto sims that never run there, own-domain links replay exactly
    # the serial subsequence (per-link name-derived rng streams).  The
    # stall watchdog has no per-domain state; it rides the first
    # domain's engine (exact under lockstep, at most one window behind
    # under barrier; the forked transport rejects stall_window).
    scenario.install_faults(watchdog_sim=sims[0])
    if cfg.telemetry is not None:
        from repro.telemetry.recorder import wire_rpc_histogram

        wire_rpc_histogram(scenario)
    runtimes = [
        DomainRuntime(
            scenario, domain_of, d, sims[d], hubs[d], outbox,
            collect_digests, isolate,
        )
        for d in domains
    ]
    _schedule_flows(scenario)
    if scenario.rpc_driver is not None:
        scenario.rpc_driver.start(None)
    return runtimes


# ---------------------------------------------------------------------------
# transports: how the window loop reaches the runtimes
# ---------------------------------------------------------------------------


class _LocalTransport:
    """``barrier``: every runtime lives in this process; call it directly."""

    #: hex digest of the merged global event stream (lockstep only)
    global_digest: Optional[str] = None

    def __init__(self, scenario, domain_of, collect_digests, isolate,
                 lockstep: bool = False) -> None:
        self.runtimes = _build_runtimes(
            scenario, domain_of, range(scenario.config.shards), lockstep,
            collect_digests, isolate,
        )

    def start(self) -> List[DomainState]:
        return [rt.state(False) for rt in self.runtimes]

    def step(self, h_next: int, incoming: List[list], sweep: bool) -> List[DomainState]:
        return [
            rt.step(h_next, incoming[d], sweep)
            for d, rt in enumerate(self.runtimes)
        ]

    def finish(self, now: int) -> List[DomainOutcome]:
        return [rt.finish(now) for rt in self.runtimes]

    def close(self) -> None:
        pass


class _LockstepTransport(_LocalTransport):
    """``lockstep``: the equivalence oracle.

    Shares the runtimes (setup, sweeps, epilogue) but none of the
    window machinery: domains never run on their own, the merged loop
    below executes the globally smallest key across all heaps, and
    boundary deliveries go straight into the target heap.  The caller
    gives the window loop a lookahead of one ``CHECK_INTERVAL``, so
    each step spans a whole one.
    """

    def __init__(self, scenario, domain_of, collect_digests, isolate) -> None:
        super().__init__(
            scenario, domain_of, collect_digests, isolate, lockstep=True
        )
        #: time of the event the merged loop last ran: the global
        #: digest's clock (there is no one engine to read it off)
        self.now = 0
        self._digest = None
        if collect_digests:
            from repro.simcheck.determinism import EventStreamDigest

            self._digest = EventStreamDigest(self, include_depth=False)

    def step(self, h_next: int, incoming: List[list], sweep: bool) -> List[DomainState]:
        self._advance([rt.sim for rt in self.runtimes], h_next)
        return [rt.state(sweep) for rt in self.runtimes]

    def finish(self, now: int) -> List[DomainOutcome]:
        if self._digest is not None:
            self.global_digest = self._digest.hexdigest()
        return super().finish(now)

    def _advance(self, sims: List[Simulator], until: int) -> None:
        """Execute the globally smallest key until every head passes ``until``."""
        heaps = [s._heap for s in sims]
        digest = self._digest
        while True:
            best_d = -1
            best_key: Optional[Tuple[int, int, int]] = None
            for d, heap in enumerate(heaps):
                while heap:
                    head = heap[0]
                    ev = head[3]
                    if ev is not None and ev.cancelled:
                        heappop(heap)
                        continue
                    break
                if not heap:
                    continue
                head = heap[0]
                if head[0] > until:
                    continue
                key = (head[0], head[1], head[2])
                if best_key is None or key < best_key:
                    best_key = key
                    best_d = d
            if best_d < 0:
                break
            sim = sims[best_d]
            time_, lid, seq, _ev, fn, args = heappop(heaps[best_d])
            sim.now = time_
            sim._cur_lid = lid
            sim._cur_seq = seq
            sim._events_executed += 1
            fn(*args)
            # the merged loop bypasses Simulator.run(), so the domain's
            # event counts and observers (digest, isolation probe) get
            # fed here
            sim.note_executed(fn, len(heaps[best_d]))
            if digest is not None:
                self.now = time_
                digest.note(fn, 0.0, 0)
        for s in sims:
            s._cur_lid = 1  # between steps, as Simulator.run leaves it
            if s.now < until:
                s.now = until


def _serve_domain(
    scenario, domain_of: Dict[int, int], domain: int, conn, parent_ends,
    collect_digest: bool, isolate: bool,
) -> None:
    """One forked worker: build one runtime, answer the loop's calls.

    The worker inherits the fully built scenario through fork, so the
    setup below produces the same object graph the local transport
    sees; only its own domain's simulator ever runs here.  Any
    exception goes back as ``("error", domain, traceback)``; EOF on the
    pipe means the coordinator gave up (another domain failed), so the
    worker just exits.
    """
    # fork copied the coordinator's ends of this and every earlier pipe;
    # while a copy stays open, closing the original never reads as EOF
    for end in parent_ends:
        end.close()
    try:
        (runtime,) = _build_runtimes(
            scenario, domain_of, (domain,), False, collect_digest, isolate
        )
        receivers = runtime.receivers
        conn.send(("ok", runtime.state(False)))
        while True:
            msg = conn.recv()
            if msg[0] == "finish":
                conn.send(("ok", runtime.finish(msg[1])))
                return
            # a boundary delivery is a heap item, and its callback — a
            # bound ``receive`` — cannot cross a pipe: the wire carries
            # the owning node's id in that slot instead
            _op, h_next, incoming, sweep = msg
            state = runtime.step(
                h_next,
                [
                    (t, lid, seq, None, receivers[node_id], args)
                    for t, lid, seq, _ev, node_id, args in incoming
                ],
                sweep,
            )
            wire = [
                (
                    target,
                    [
                        (t, lid, seq, None, fn.__self__.node_id, args)
                        for t, lid, seq, _ev, fn, args in items
                    ],
                )
                for target, items in state.outgoing
            ]
            conn.send(("ok", state._replace(outgoing=wire)))
    except EOFError:
        pass
    except Exception:
        conn.send(("error", domain, traceback.format_exc()))
    finally:
        conn.close()


class _ForkedTransport:
    """``process``: one forked worker per domain, the same calls over pipes."""

    global_digest: Optional[str] = None

    def __init__(self, scenario, domain_of, collect_digests, isolate) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.pipes: list = []
        self.procs: list = []
        for d in range(scenario.config.shards):
            parent_conn, child_conn = ctx.Pipe()
            self.pipes.append(parent_conn)
            proc = ctx.Process(
                target=_serve_domain,
                args=(scenario, domain_of, d, child_conn, tuple(self.pipes),
                      collect_digests, isolate),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self.procs.append(proc)

    def _gather(self) -> list:
        replies = []
        for d, conn in enumerate(self.pipes):
            try:
                msg = conn.recv()
            except EOFError:
                raise RuntimeError(
                    f"shard worker for domain {d} exited without replying"
                ) from None
            if msg[0] == "error":
                raise RuntimeError(
                    f"shard worker for domain {msg[1]} failed:\n{msg[2]}"
                )
            replies.append(msg[1])
        return replies

    def start(self) -> List[DomainState]:
        return self._gather()

    def step(self, h_next: int, incoming: List[list], sweep: bool) -> List[DomainState]:
        for d, conn in enumerate(self.pipes):
            conn.send(("step", h_next, incoming[d], sweep))
        return self._gather()

    def finish(self, now: int) -> List[DomainOutcome]:
        for conn in self.pipes:
            conn.send(("finish", now))
        return self._gather()

    def close(self) -> None:
        # pipes first: a worker still blocked in recv() reads EOF and
        # exits, so the joins below return at once even after a failure
        for conn in self.pipes:
            conn.close()
        for proc in self.procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()


# ---------------------------------------------------------------------------
# the window loop
# ---------------------------------------------------------------------------


def _window_loop(
    transport, scenario, lookahead: int
) -> Tuple[int, List[DomainOutcome], List[str]]:
    """Advance every domain to the end of the run and collect them.

    Returns ``(sim time, one outcome per domain, whole-fabric
    conservation violations)``.  Stop semantics are the serial
    runner's: the run advances in ``CHECK_INTERVAL`` steps and ends at
    the first step boundary where every flow has completed (and any
    rpc driver is finished), the hard end is reached, or every domain
    has drained.

    Window safety: events executed in ``(H, h_next]`` can only send
    boundary deliveries at ``t_e + delay >= t_e + lookahead``, and
    ``h_next <= max(H, min_next - 1) + lookahead`` with ``t_e > H``
    and ``t_e >= min_next``, so every delivery lands strictly after
    ``h_next`` — always in a future window.  Jumping a full lookahead
    past the instant before ``min_next`` keeps idle stretches (and the
    drain tail) from costing one window per lookahead.
    """
    cfg = scenario.config
    shards = cfg.shards
    driver = scenario.rpc_driver
    hard_end = int(cfg.duration * cfg.max_runtime_factor)
    #: boundary deliveries awaiting their target domain, per domain
    pending: List[list] = [[] for _ in range(shards)]
    violations: List[str] = []

    def judge_conservation(ledgers) -> None:
        # no domain sees the whole fabric: the equations are judged
        # here, over the summed ledgers plus the packets in transit
        if cfg.sanitize is not None:
            from repro.simcheck.sanitizer import judge_shard_sweep

            transit = (item[5][0] for box in pending for item in box)
            judge_shard_sweep(now, ledgers, transit, violations)

    states = transport.start()
    now = 0
    while True:
        next_stop = min(now + CHECK_INTERVAL, hard_end)
        H = now
        while H < next_stop:
            min_next: Optional[int] = None
            for st in states:
                t = st.next_time
                if t is not None and (min_next is None or t < min_next):
                    min_next = t
            for box in pending:
                for item in box:
                    if min_next is None or item[0] < min_next:
                        min_next = item[0]
            if min_next is None or min_next > next_stop:
                h_next = next_stop
            else:
                h_next = min(
                    next_stop, max(H + lookahead, min_next - 1 + lookahead)
                )
            incoming, pending = pending, [[] for _ in range(shards)]
            # the last window of each step lands exactly on the
            # CHECK_INTERVAL boundary: the domains sweep there
            states = transport.step(h_next, incoming, h_next == next_stop)
            for st in states:
                for target, items in st.outgoing:
                    pending[target].extend(items)
            H = h_next
        now = next_stop
        judge_conservation([st.ledger for st in states])
        if sum(st.completed for st in states) >= states[0].total_flows and (
            driver is None or driver.finished
        ):
            break
        if now >= hard_end:
            break
        if all(st.next_time is None for st in states) and not any(pending):
            break
    outcomes = transport.finish(now)
    judge_conservation([out.report.ledger for out in outcomes])
    return now, outcomes, violations


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def resolve_mode(config) -> str:
    """Concrete transport for a config (``auto`` is ``barrier``)."""
    mode = "barrier" if config.shard_mode == "auto" else config.shard_mode
    if mode == "process" and PATTERNS[config.pattern].closed_loop:
        raise ValueError(
            "rpc workloads cannot run under shard_mode='process': the "
            "closed-loop driver grows one shared flow table across "
            "domains; use 'barrier' (or 'auto')"
        )
    return mode


class ShardedRun(NamedTuple):
    """What :func:`run_domains` hands back, identical whichever
    transport carried the run: the inputs of the run merge
    (the experiment runner's ``merge_reports``), then the
    equivalence harness's own outputs."""

    #: simulated time the run ended at
    now: int
    #: one report per domain, in domain order
    reports: List[ScopeReport]
    #: whole-fabric conservation violations (the window loop's verdicts)
    violations: List[str]
    #: hex event-stream digest per domain; None unless ``collect_digests``
    domain_digests: Optional[List[str]]
    #: lockstep only: digest of the merged global stream, byte-comparable
    #: to a serial run's depth-free ``EventStreamDigest``
    global_digest: Optional[str]
    #: cross-domain mutations the isolation sanitizer caught; None
    #: unless ``isolate``
    isolation_violations: Optional[List[str]]


def run_domains(
    scenario,
    collect_digests: bool = False,
    isolate: bool = False,
) -> ShardedRun:
    """Partition a built scenario and run every domain to the end.

    Stop semantics are the serial runner's (see :func:`_window_loop`).
    ``collect_digests`` hashes every domain's event stream for the
    equivalence harness; ``isolate`` arms the
    :class:`ShardIsolationSanitizer`: hot objects are tagged with their
    owning domain at partition time and every executed callback is
    checked against the domain it ran under (``check --sharded
    --isolate``).
    """
    cfg = scenario.config
    mode = resolve_mode(cfg)
    if scenario.sim.pending_events:
        raise RuntimeError(
            "sharded execution requires an empty build-time heap; "
            "something scheduled events during Scenario construction"
        )
    domain_of = partition_nodes(scenario, cfg.shards)
    lookahead = boundary_lookahead(scenario.topology, domain_of)
    _validate_fault_plan(scenario, domain_of)
    if mode == "process":
        plan = cfg.fault_plan
        if plan is not None and plan.stall_window > 0:
            raise ValueError(
                "stall_window under shard_mode='process' is unsupported: "
                "the watchdog needs whole-fabric progress visibility in "
                "one address space; use shard_mode='barrier' or "
                "'lockstep' (or stall_window=0)"
            )
        transport_cls = _ForkedTransport
    elif mode == "lockstep":
        transport_cls = _LockstepTransport
        lookahead = CHECK_INTERVAL  # one step per CHECK_INTERVAL
    else:
        transport_cls = _LocalTransport
    transport = transport_cls(scenario, domain_of, collect_digests, isolate)
    try:
        now, outcomes, violations = _window_loop(
            transport, scenario, lookahead
        )
    finally:
        transport.close()
    return ShardedRun(
        now,
        [out.report for out in outcomes],
        violations,
        [out.digest for out in outcomes] if collect_digests else None,
        transport.global_digest,
        [v for out in outcomes for v in out.isolation] if isolate else None,
    )
