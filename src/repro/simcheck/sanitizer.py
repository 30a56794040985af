"""Runtime invariant sanitizer: conservation checks for live runs.

``SimSanitizer`` is the opt-in runtime half of :mod:`repro.simcheck`.
It follows the faults/telemetry discipline — hot paths pay nothing
when it is off (the counters it reads are unconditional integer
increments that exist anyway; the rare control branches pay one
``sanitizer is None`` check) — and verifies, periodically during a
run and again at the end:

1. **Packet conservation** — DATA packets injected by hosts equal
   packets delivered + dropped (switch admission, injected faults)
   + trimmed (NDP) + still in flight (egress queues, VOQs, the event
   heap).
2. **Buffer consistency** — each switch's shared-buffer occupancy
   equals the sum of its per-ingress charges *and* the sum of its
   per-port occupancy, never negative, never above capacity.
3. **Pause/resume pairing** — PAUSE and RESUME frames strictly
   alternate per port (PFC) and per (node, key): Floodgate's per-dst
   pause at a host, PFC w/ tag's per-dst pause at a switch.  (BFC's
   queue keys are exempt: two switch queues may legitimately pause the
   same upstream queue.)
4. **Theorem-1 bound** — no Floodgate per-dst window goes negative
   (in-flight beyond the VOQ window) or above its initial value,
   except after a forced overflow bypass, which the paper's bound
   explicitly excludes.
5. **Credit conservation** — Floodgate credit frames sent equal
   frames applied upstream + unclaimed + dropped + in flight.
6. **Rate conservation** (fluid tier only) — the max-min allocation
   never oversubscribes a directed link or Floodgate VOQ cap: the sum
   of allocated flow rates on each resource stays within its capacity.

Violations are collected (with sim timestamps), never raised; sweeps
run at the run's one cadence, ``repro.stats.scope.CHECK_INTERVAL``.
Enable per run via ``ScenarioConfig(sanitize=SanitizerConfig())`` or
the CLI's ``check --sanitize``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.choices import FLOW_CONTROLS
from repro.net.packet import Packet, PacketKind
from repro.sim.process import PeriodicTask
from repro.stats.scope import CHECK_INTERVAL

#: cap on collected messages, per sanitizer (a broken invariant
#: re-detected every sweep would otherwise flood the report)
MAX_VIOLATIONS = 100


@dataclass(frozen=True)
class SanitizerConfig:
    """The on switch for :class:`SimSanitizer`: a run sanitizes when its
    config carries one (frozen: hashes into cache keys)."""


def count_kinds(packets) -> Tuple[int, int]:
    """``(DATA, CREDIT)`` packets in an iterable of packets."""
    data = credit = 0
    for pkt in packets:
        if pkt.kind == PacketKind.DATA:
            data += 1
        elif pkt.kind == PacketKind.CREDIT:
            credit += 1
    return data, credit


def conservation_violations(
    ledgers: List[Dict[str, int]],
    extra_data: int = 0,
    extra_credit: int = 0,
) -> List[str]:
    """Sum conservation ledgers and evaluate the two equations.

    A serial run passes its one fabric-wide ledger; a sharded run one
    ledger per domain — disjoint partial sums of the fabric-wide walk,
    so the summed ledger feeds the very same arithmetic — plus
    ``extra_data`` / ``extra_credit``, the packets at rest in
    inter-domain transit that no domain's heap can see.
    """

    def total(key: str) -> int:
        return sum(ledger[key] for ledger in ledgers)

    messages: List[str] = []
    injected = total("injected")
    delivered = total("delivered")
    dropped = total("switch_dropped")
    fault_dropped = total("fault_dropped")
    trimmed = total("trimmed")
    inflight = total("inflight_data") + extra_data
    accounted = delivered + dropped + fault_dropped + trimmed
    if injected != accounted + inflight:
        messages.append(
            "DATA packet conservation broken: "
            f"injected={injected} != delivered={delivered} "
            f"+ switch-dropped={dropped} "
            f"+ fault-dropped={fault_dropped} + trimmed={trimmed} "
            f"+ in-flight={inflight} (= {accounted + inflight}, "
            f"off by {injected - accounted - inflight})"
        )
    if any(ledger["have_floodgate"] for ledger in ledgers):
        sent = total("credit_sent")
        applied = total("credit_applied")
        unclaimed = total("credit_unclaimed")
        credit_dropped = total("credit_dropped")
        credit_inflight = total("inflight_credit") + extra_credit
        credit_accounted = applied + unclaimed + credit_dropped + credit_inflight
        if sent != credit_accounted:
            messages.append(
                "credit conservation broken: "
                f"generated={sent} != applied={applied} "
                f"+ unclaimed={unclaimed} + dropped={credit_dropped} "
                f"+ in-flight={credit_inflight} (= {credit_accounted}, "
                f"off by {sent - credit_accounted})"
            )
    return messages


def judge_shard_sweep(
    now: int,
    ledgers: List[Dict[str, int]],
    transit,
    violations: List[str],
) -> None:
    """Coordinator half of a sharded sweep (:mod:`repro.sim.sharded`).

    Every domain swept its own slice and returned its ledger; only the
    coordinator sees them all, plus the ``transit`` packets waiting in
    inter-domain boxes, so the whole-fabric equations are judged here
    and what does not balance is appended to ``violations``.
    """
    for message in conservation_violations(ledgers, *count_kinds(transit)):
        if len(violations) < MAX_VIOLATIONS:
            violations.append(f"t={now}ns: {message}")


class SimSanitizer:
    """Invariant checker wired onto one built :class:`Scenario`.

    Every sweep walks the checker's *scope* — the hosts, switches,
    extensions and links it owns, the engine whose heap holds their
    pending work.  By default the scope is the whole fabric, swept by
    a periodic heap task and judged here.

    ``sim``/``owns`` narrow it to one domain of a sharded run
    (:mod:`repro.sim.sharded`) — a fabric-wide walk would read other
    domains' state mid-window, exactly the aliasing SIM005 and the
    isolation sanitizer forbid.  A link belongs to the domain of its
    ``node_a`` (boundary links carry no faults — the sharded runner
    rejects such plans — so their drop counters stay zero on either
    side).  A slice has no heap task: its runtime calls
    :meth:`sweep` when a window lands on a ``CHECK_INTERVAL`` boundary,
    so sweeps never appear in event streams and the state read is the
    serial cut; and it judges no conservation equation — ``sweep``
    returns the domain's ledger and the coordinator sums them
    (:func:`judge_shard_sweep`).
    """

    def __init__(self, scenario, *, sim=None, owns=None) -> None:
        """``sim``/``owns``: one domain's engine and node predicate
        (both or neither)."""
        self.scenario = scenario
        self.topology = topo = scenario.topology
        self.sim = scenario.sim if sim is None else sim
        if owns is None:
            self.hosts, self.switches = topo.hosts, topo.switches
            self.extensions, self.links = scenario.extensions, topo.links
        else:
            self.hosts = [h for h in topo.hosts if owns(h)]
            self.switches = [sw for sw in topo.switches if owns(sw)]
            self.extensions = [e for e in scenario.extensions if owns(e.switch)]
            self.links = [link for link in topo.links if owns(link.node_a)]
        self.violations: List[str] = []
        #: messages dropped once ``MAX_VIOLATIONS`` was reached
        self.truncated = 0
        self.checks_run = 0
        #: pairing needs every PAUSE / RESUME delivered: off when the
        #: plan can drop a control frame (LinkDown, RandomLoss.ctrl_rate)
        plan = scenario.config.fault_plan
        self._pairing = plan is None or not any(
            spec.kind == "link-down" or getattr(spec, "ctrl_rate", 0.0) > 0.0
            for spec in plan.faults
        )
        #: the scheme's row says whether its keys pair (BFC's are
        #: exempt: see the module docstring)
        self._pair_keys = FLOW_CONTROLS[scenario.config.flow_control].paired_keys
        #: periodic sweep driver, None for a domain slice (swept from
        #: window boundaries instead).  Observer-tagged: sweeps read
        #: state, so the determinism digests exclude their ticks.
        self._task: Optional[PeriodicTask] = None
        if owns is None:
            self._task = PeriodicTask(
                self.sim, CHECK_INTERVAL, self.check_now,
                observer=True,
            )
        # rare-path hooks: pause/resume pairing is event-driven, so the
        # nodes get a back-reference (None on unsanitized runs)
        for node in (*self.hosts, *self.switches):
            node.sanitizer = self

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._task is not None:
            self._task.start()

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()

    # -- violation plumbing ------------------------------------------------

    def record(self, message: str) -> None:
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(f"t={self.sim.now}ns: {message}")
        else:
            self.truncated += 1

    # -- event-driven pairing hook (called from Node.receive_pause) --------

    def note_pause(
        self, node, port_index: int, key: int, pause: bool, was_paused: bool
    ) -> None:
        """A PAUSE / RESUME for ``key`` (-1: the whole port) reached
        ``node`` on ``port_index``; ``was_paused`` is the state before."""
        if not self._pairing or (key >= 0 and not self._pair_keys):
            return
        scope = f"port {port_index}" if key < 0 else f"key {key}"
        if pause and was_paused:
            self.record(
                f"double PAUSE at {node.name} {scope} "
                "(already paused; pauses must strictly alternate with resumes)"
            )
        elif not pause and not was_paused:
            self.record(f"RESUME without matching PAUSE at {node.name} {scope}")

    # -- conservation ledger -----------------------------------------------

    def _packets_at_rest(self):
        """Every packet at rest in scope (pure read-only walk): egress
        queues, extension VOQs, and live heap entries whose args carry
        a packet (propagation and serialization events)."""
        for node in (*self.hosts, *self.switches):
            for port in node.ports:
                for queue in port.queues:
                    yield from queue
        for ext in self.extensions:
            pool = getattr(ext, "pool", None)
            if pool is not None:
                for voq in pool.voqs:
                    yield from voq.packets
        for _time, _fn, args in self.sim.pending_items():
            for arg in args:
                if isinstance(arg, Packet):
                    yield arg

    def ledger(self) -> Dict[str, int]:
        """Conservation counters held by the objects in scope.

        Ledgers of disjoint scopes add up to the fabric-wide ledger
        (:func:`conservation_violations` sums them), which is what lets
        a sharded run keep one per domain.
        """
        inflight_data, inflight_credit = count_kinds(self._packets_at_rest())
        fault_dropped = credit_dropped = 0
        for link in self.links:
            if link.fault is not None:
                fault_dropped += link.fault.injected_drops_data
                credit_dropped += link.fault.injected_drops_credit
        credit_sent = credit_applied = 0
        have_floodgate = False
        for ext in self.extensions:
            credits = getattr(ext, "credits", None)
            if credits is None:
                continue
            have_floodgate = True
            credit_sent += credits.credits_sent
            credit_applied += ext.credit_frames_rx
        hybrid = getattr(self.scenario, "hybrid", None)
        if hybrid is not None:
            # boundary absorption synthesizes the credit the absorbed
            # fabric would have generated; it is applied at the hot ToR
            # like any other, so it joins the sent side of the ledger
            credit_sent += hybrid.synthesized_credit_frames
        return {
            "injected": sum(h.tx_data_packets for h in self.hosts),
            "delivered": sum(h.rx_data_packets for h in self.hosts),
            "switch_dropped": sum(sw.dropped_packets for sw in self.switches),
            "fault_dropped": fault_dropped,
            "trimmed": sum(
                getattr(ext, "trimmed_packets", 0) for ext in self.extensions
            ),
            "inflight_data": inflight_data,
            "credit_sent": credit_sent,
            "credit_applied": credit_applied,
            "credit_unclaimed": sum(
                sw.unclaimed_credit_frames for sw in self.switches
            ),
            "credit_dropped": credit_dropped,
            "inflight_credit": inflight_credit,
            "have_floodgate": have_floodgate,
        }

    # -- the invariant sweeps ----------------------------------------------

    def sweep(self, final: bool = False) -> Dict[str, int]:
        """Run every scope-local invariant; return the scope's ledger.

        ``final`` marks the end-of-run sweep: the hybrid boundary adds
        equalities there that mid-run inflight would fail.
        """
        self.checks_run += 1
        self._check_buffers()
        self._check_windows()
        self._check_flow_rates()
        self._check_hybrid_boundary(final)
        return self.ledger()

    def check_now(self) -> None:
        """Run every pull-based invariant against current state."""
        for message in conservation_violations([self.sweep()]):
            self.record(message)

    def final_check(self) -> Dict[str, int]:
        """End-of-run sweep (stops the periodic task first); returns the
        scope's ledger.  A whole-fabric scope judges the conservation
        equations on it right here; a domain slice cannot (no domain
        sees the whole fabric), so its coordinator sums the ledgers
        (:func:`judge_shard_sweep`)."""
        self.stop()
        ledger = self.sweep(final=True)
        if self._task is not None:
            for message in conservation_violations([ledger]):
                self.record(message)
        return ledger

    def _check_buffers(self) -> None:
        for sw in self.switches:
            buf = sw.buffer
            if buf is None:
                continue
            name = sw.name
            if buf.used < 0:
                self.record(f"{name}: shared-buffer occupancy negative ({buf.used})")
            if buf.used > buf.capacity:
                self.record(
                    f"{name}: shared-buffer occupancy {buf.used} exceeds "
                    f"capacity {buf.capacity}"
                )
            negative = [i for i, b in enumerate(buf.ingress_bytes) if b < 0]
            if negative:
                self.record(
                    f"{name}: negative per-ingress buffer charge on "
                    f"port(s) {negative}"
                )
            ingress_total = sum(buf.ingress_bytes)
            if buf.used != ingress_total:
                self.record(
                    f"{name}: shared-buffer occupancy {buf.used} != "
                    f"sum of per-ingress charges {ingress_total}"
                )
            port_total = sum(sw._port_bytes)
            if buf.used != port_total:
                self.record(
                    f"{name}: shared-buffer occupancy {buf.used} != "
                    f"sum of per-port occupancy {port_total}"
                )

    def _check_windows(self) -> None:
        for ext in self.extensions:
            windows = getattr(ext, "windows", None)
            if windows is None:
                continue
            pool = getattr(ext, "pool", None)
            if pool is not None and pool.overflow_bypasses:
                # forced bypasses send without consuming window; the
                # Theorem-1 bound explicitly excludes them
                continue
            name = ext.switch.name
            for dst in sorted(windows.window):
                win = windows.window[dst]
                init = windows.initial.get(dst, win)
                if win < 0:
                    self.record(
                        f"{name}: per-dst in-flight exceeds the VOQ window "
                        f"for dst {dst} (window={win} < 0, initial={init}; "
                        "Theorem-1 bound violated)"
                    )
                elif win > init:
                    self.record(
                        f"{name}: window overshoot for dst {dst} "
                        f"(window={win} > initial={init}: more credits "
                        "returned than packets sent)"
                    )

    def _check_flow_rates(self) -> None:
        """Fluid-tier rate conservation (no-op on packet-level runs).

        The packet sweeps above all pass vacuously in flow mode (zero
        packets anywhere); this is the invariant that actually bites
        there — allocated rates must fit inside every link and VOQ cap.
        """
        fluid = getattr(self.scenario, "fluid", None)
        if fluid is None:
            return
        for message in fluid.conservation_errors():
            self.record(message)

    def _check_hybrid_boundary(self, final: bool) -> None:
        """Hybrid-tier byte conservation at the fluid/packet boundary."""
        hybrid = getattr(self.scenario, "hybrid", None)
        if hybrid is None:
            return
        for message in hybrid.boundary_errors(final=final):
            self.record(message)
