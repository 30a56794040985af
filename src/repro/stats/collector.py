"""Central measurement hub.

One :class:`StatsHub` instance is shared by every device in an
experiment.  Devices push raw events (packet dequeued, PFC pause
started, flow finished); the hub keeps exactly the aggregates the
paper's figures need, so hot-path cost stays O(1) per event.

Flow classification follows §6.1: *incast* flows, *victims of incast*
(Poisson flows whose destination shares the incast destination's ToR),
and *victims of PFC* (all other Poisson flows).
"""

from __future__ import annotations

import operator
from enum import Enum
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.stats.fct import FctRecord
from repro.stats.rpc import RpcRecord


class FlowClass(str, Enum):
    """The paper's three traffic classes (§6.1, Fig. 9) plus OTHER.

    ``OTHER`` is the explicit home for flows nothing classified
    (pure-Poisson runs, hand-built test traffic).  It used to be
    spelled ``None``, which collided with the *other* ``None`` — the
    "all non-incast flows" aggregate query — and let figure code
    silently conflate the two.  Use :data:`NON_INCAST` for the
    aggregate; ``None`` is rejected everywhere a class is expected.
    """

    INCAST = "incast"
    VICTIM_INCAST = "victim_incast"
    VICTIM_PFC = "victim_pfc"
    OTHER = "other"


class FlowSelector(str, Enum):
    """Aggregate selectors for queries spanning several flow classes."""

    #: every flow that is not incast (victims + unclassified): the
    #: population the paper's Fig. 8 "Poisson flows" metric covers
    NON_INCAST = "non_incast"


#: convenience alias: ``stats.fct_of_class(NON_INCAST)``
NON_INCAST = FlowSelector.NON_INCAST

_NONE_IS_AMBIGUOUS = (
    "cls=None is ambiguous: pass NON_INCAST for the all-non-incast "
    "aggregate or FlowClass.OTHER for unclassified flows"
)


#: Bandwidth-overhead categories for Fig. 18.
BW_DATA = "data"
BW_CTRL = "ctrl"      # host ACK / NACK / CNP / pulls
BW_CREDIT = "credit"  # Floodgate credits + switchSYN


class StatsHub:
    """Aggregated run statistics.

    Attributes are plain dictionaries/lists so result formatting code
    can consume them directly; convenience accessors cover the common
    queries.
    """

    def __init__(self) -> None:
        # --- flow completion -------------------------------------------------
        self.fct_records: List[FctRecord] = []
        self.flow_class: Dict[int, FlowClass] = {}
        # --- request completion (repro.rpc closed-loop workloads) -----------
        self.rpc_records: List[RpcRecord] = []
        # --- buffers ----------------------------------------------------------
        #: per-switch max total occupancy: name -> bytes
        self.switch_max_buffer: Dict[str, int] = {}
        #: per (switch, port-role) max single-port occupancy
        self.port_max_buffer: Dict[Tuple[str, str], int] = {}
        #: network-wide max over per-switch totals
        self.max_switch_buffer: int = 0
        # --- queuing time (role -> [sum_ns, count]), split by incast ---------
        self.queuing_incast: Dict[str, List[int]] = {}
        self.queuing_normal: Dict[str, List[int]] = {}
        # --- PFC ------------------------------------------------------------------
        #: node-kind ("host"/"tor"/"core"/...) -> total paused ns
        self.pfc_paused_time: Dict[str, int] = {}
        self.pfc_pause_events: int = 0
        # --- drops ------------------------------------------------------------------
        self.packets_dropped: int = 0
        # --- fault injection (repro.faults) -----------------------------------
        #: injected drops by packet class ("data" / "ctrl")
        self.fault_drops: Dict[str, int] = {"data": 0, "ctrl": 0}
        #: packets delivered with a failed integrity check (injected)
        self.fault_corruptions: int = 0
        #: corrupt arrivals observed by receivers (NACKed, not delivered)
        self.corrupt_rx: int = 0
        #: control frames discarded because no extension claimed them
        self.unclaimed_control_frames: int = 0
        #: stall episodes: (sim time, flows completed at detection)
        self.stalls: List[Tuple[int, int]] = []
        # --- transport and switch extensions (collected at the end) ------
        #: go-back-N / NDP retransmissions, summed over every flow
        self.retransmitted_packets: int = 0
        #: most VOQs in use at once on any one switch's pool (Floodgate,
        #: PFC w/ tag)
        self.max_voqs_used: int = 0
        #: the switch extensions' ``telemetry_counters()``, summed per
        #: name over switches (export names: ``floodgate.credits_sent``)
        self.extension_counters: Dict[str, int] = {}
        # --- bandwidth breakdown (Fig. 18) ------------------------------------
        self.track_bandwidth: bool = False
        self.tx_bytes_by_category: Dict[str, int] = {
            BW_DATA: 0,
            BW_CTRL: 0,
            BW_CREDIT: 0,
        }
        # --- per-class receive bytes (realtime throughput, Fig. 2/12) -------
        #: unclassified flows land under FlowClass.OTHER, never None
        self.rx_bytes_by_class: Dict[FlowClass, int] = {}
        # --- telemetry hooks (repro.telemetry) --------------------------------
        #: streaming histograms fed behind is-None checks; installed by
        #: TelemetryRecorder, absent cost is one check per event
        self.fct_histogram = None
        self.queuing_histogram = None
        self.rpc_histogram = None
        # --- sharded execution (repro.sim.sharded) ---------------------------
        #: per-domain child hubs; runtime flow registrations fan out so
        #: every domain classifies packets the way a serial run would
        self._shard_children: List["StatsHub"] = []

    # -- flow classes ---------------------------------------------------------------

    def bind_shards(self, hubs: List["StatsHub"]) -> None:
        """Attach per-domain child hubs (the SIM008 merge path).

        A sharded run records into one hub per domain, but runtime flow
        classification (the RPC driver registering incast responses as
        they are issued) arrives at the parent hub.  Binding the
        children makes ``register_flow_class`` propagate, so a switch in
        any domain classifies queueing samples exactly as the serial hub
        would.  Merge stays correct because propagation only writes
        identical values into every child.
        """
        self._shard_children = list(hubs)

    def register_flow_class(self, flow_id: int, cls: FlowClass) -> None:
        """Label ``flow_id``: the one sink for a flow's class, called by
        the pattern's traffic function and the rpc driver."""
        self.flow_class[flow_id] = cls
        for child in self._shard_children:
            child.register_flow_class(flow_id, cls)

    # -- event sinks (hot path) --------------------------------------------------------

    def record_fct(self, record: FctRecord) -> None:
        self.fct_records.append(record)
        if self.fct_histogram is not None:
            self.fct_histogram.observe(record.fct)

    def record_rpc(self, record: RpcRecord) -> None:
        self.rpc_records.append(record)
        if self.rpc_histogram is not None:
            self.rpc_histogram.observe(record.latency)

    def record_queuing(
        self, role: str, incast: bool, delay: int, count: int = 1
    ) -> None:
        """``count`` packets queued ``delay`` ns in total at ports of
        ``role``.  A switch reports per-port sums at collect time; its
        per-packet ``queuing_histogram.observe`` it does itself."""
        table = self.queuing_incast if incast else self.queuing_normal
        cell = table.get(role)
        if cell is None:
            table[role] = [delay, count]
        else:
            cell[0] += delay
            cell[1] += count

    def record_switch_buffer(self, name: str, used: int) -> None:
        if used > self.switch_max_buffer.get(name, 0):
            self.switch_max_buffer[name] = used
            if used > self.max_switch_buffer:
                self.max_switch_buffer = used

    def record_port_buffer(self, switch: str, role: str, used: int) -> None:
        key = (switch, role)
        if used > self.port_max_buffer.get(key, 0):
            self.port_max_buffer[key] = used

    def record_pfc_pause(self, node_kind: str, duration: int) -> None:
        self.pfc_paused_time[node_kind] = (
            self.pfc_paused_time.get(node_kind, 0) + duration
        )

    def record_pfc_event(self) -> None:
        self.pfc_pause_events += 1

    def record_drop(self) -> None:
        self.packets_dropped += 1

    def record_fault_drop(self, data: bool) -> None:
        self.fault_drops["data" if data else "ctrl"] += 1

    def record_fault_corruption(self) -> None:
        self.fault_corruptions += 1

    def record_corrupt_rx(self) -> None:
        self.corrupt_rx += 1

    def record_unclaimed_control(self) -> None:
        self.unclaimed_control_frames += 1

    def record_stall(self, now: int, completed_flows: int) -> None:
        self.stalls.append((now, completed_flows))

    def record_retransmissions(self, count: int) -> None:
        self.retransmitted_packets += count

    def record_voqs_used(self, in_use: int) -> None:
        if in_use > self.max_voqs_used:
            self.max_voqs_used = in_use

    def record_extension_counters(self, counters: Dict[str, int]) -> None:
        add_by_key(self.extension_counters, counters)

    def record_tx(self, category: str, size: int) -> None:
        if self.track_bandwidth:
            self.tx_bytes_by_category[category] += size

    def record_rx(self, flow_id: int, size: int) -> None:
        cls = self.flow_class.get(flow_id, FlowClass.OTHER)
        self.rx_bytes_by_class[cls] = self.rx_bytes_by_class.get(cls, 0) + size

    def rx_bytes_of_class(self, cls: FlowClass) -> int:
        """Monotone rx-byte counter for one class (throughput source)."""
        if cls is None:
            raise ValueError(_NONE_IS_AMBIGUOUS)
        return self.rx_bytes_by_class.get(cls, 0)

    # -- queries --------------------------------------------------------------------

    def fct_of_class(
        self, cls: Union[FlowClass, FlowSelector]
    ) -> List[FctRecord]:
        """Finished flows of one class, or of a :class:`FlowSelector`.

        Pass :data:`NON_INCAST` for the "every flow that is not
        incast" aggregate (Fig. 8's Poisson-flow population) and
        ``FlowClass.OTHER`` for flows nothing ever classified.
        """
        if cls is None:
            raise ValueError(_NONE_IS_AMBIGUOUS)
        if cls is FlowSelector.NON_INCAST:
            return [
                r
                for r in self.fct_records
                if self.flow_class.get(r.flow_id) is not FlowClass.INCAST
            ]
        return [
            r
            for r in self.fct_records
            if self.flow_class.get(r.flow_id, FlowClass.OTHER) is cls
        ]

    def max_port_buffer_by_role(self, role: str) -> int:
        """Largest single-port occupancy seen on ports with ``role``."""
        return max(
            (v for (_, r), v in self.port_max_buffer.items() if r == role),
            default=0,
        )

    def avg_queuing_by_role(self, role: str, incast: bool = False) -> float:
        """Mean per-packet queueing delay (ns) at ports with ``role``."""
        table = self.queuing_incast if incast else self.queuing_normal
        cell = table.get(role)
        if not cell or cell[1] == 0:
            return 0.0
        return cell[0] / cell[1]

    def total_pfc_paused_us(self, node_kind: str) -> float:
        """Total PFC paused time for a node class, in microseconds."""
        return self.pfc_paused_time.get(node_kind, 0) / 1_000.0

    # -- canonicalization / merging / export: driven by MEASURES, below -------------

    def canonicalize(self) -> None:
        """Rewrite every container into a content-determined layout.

        Append order of the record lists and insertion order of the
        dicts reflect *execution* order, which differs between a
        serial run and a sharded run (domains interleave differently)
        even when the contents are identical.  Re-sorting each by its
        declared ``order`` makes every row — and therefore
        ``ResultSummary.canonical_bytes()`` — a function of *what* was
        measured, not the order it was measured in.  Idempotent;
        applied to every run's hub by the run merge.
        """
        for m in MEASURES:
            value = getattr(self, m.attr)
            if m.combine is fold_histogram:
                if value is not None:  # bins fill in observation order
                    value.counts = dict(sorted(value.counts.items()))
            elif m.order is None:
                continue
            elif isinstance(value, list):
                value.sort(key=m.order)
            else:
                setattr(self, m.attr, dict(sorted(value.items(), key=m.order)))
        # shard children are runtime plumbing: a summary pickled to the
        # pool or the cache carries none, as a serial run's never had any
        self._shard_children = []

    def shard_clone(self) -> "StatsHub":
        """A fresh hub carrying only build-time registrations.

        The sharded executors give every domain its own hub so the hot
        recording path never touches state another domain also writes;
        the clone copies what was registered at *build* time — flow
        classes (a flow's packets can terminate in any domain) and
        config-derived flags — and none of the measurements.
        """
        clone = StatsHub()
        clone.flow_class = dict(self.flow_class)
        clone.track_bandwidth = self.track_bandwidth
        return clone

    def merge_from(self, other: "StatsHub") -> None:
        """Fold another hub's measurements into this one, each by its
        declared combine rule: domains observe disjoint devices, so
        per-switch/per-port maxima never collide, record lists
        concatenate, and counters add.  Call :meth:`canonicalize`
        afterwards to restore a canonical layout.
        """
        for m in MEASURES:
            merged = m.combine(getattr(self, m.attr), getattr(other, m.attr))
            setattr(self, m.attr, merged)

    def counter_rows(self) -> Iterator[Tuple[str, str, int]]:
        """``(name, unit, value)`` per end-of-run telemetry counter: a
        scalar under its declared name, a record list as its length, a
        keyed table as one row per key (the name is the prefix), a
        histogram as its observation count when one was wired."""
        for m in MEASURES:
            if m.counter is None:
                continue
            value = getattr(self, m.attr)
            if isinstance(value, dict):
                for key, cell in value.items():
                    yield f"{m.counter}{key}", m.unit, cell
            elif isinstance(value, list):
                yield m.counter, m.unit, len(value)
            elif m.combine is fold_histogram:
                if value is not None:
                    yield m.counter, m.unit, value.total
            else:
                yield m.counter, m.unit, value

    @property
    def fault_drops_total(self) -> int:
        """All injected drops, both packet classes."""
        return self.fault_drops["data"] + self.fault_drops["ctrl"]

    @property
    def stall_events(self) -> int:
        """Stall episodes detected by the watchdog (and drain reports)."""
        return len(self.stalls)


# ---------------------------------------------------------------------------
# the measurement declaration
# ---------------------------------------------------------------------------
# Every hub attribute is declared exactly once below: how two hubs'
# values combine (``merge_from``), the canonical order of its container
# (``canonicalize``), and the end-of-run telemetry counter it is
# exported as, if any (``counter_rows``).  A new measurement is an
# attribute in ``StatsHub.__init__``, its ``record_*`` sink, and one
# row here.  Combine rules return the merged value; containers fold in
# place.  ``add``/``max`` serve scalars (``max`` of a flag: on anywhere
# is on); the in-place operators serve lists and registrations:

concatenate = operator.iadd  # record lists
union = operator.ior         # dicts every hub agrees on key by key


def add_by_key(mine: dict, theirs: dict) -> dict:
    """Per-key sum; a cell is an int or a list of ints summed element-wise."""
    for key, cell in theirs.items():
        have = mine.get(key)
        if have is None:
            mine[key] = list(cell) if isinstance(cell, list) else cell
        elif isinstance(cell, list):
            for i, part in enumerate(cell):
                have[i] += part
        else:
            mine[key] = have + cell
    return mine


def max_by_key(mine: dict, theirs: dict) -> dict:
    for key, cell in theirs.items():
        if cell > mine.get(key, 0):
            mine[key] = cell
    return mine


def fold_histogram(mine, theirs):
    """Optional streaming histogram: adopt theirs, or add bin counts
    (power-of-two bins make the merge exact)."""
    if mine is None or theirs is None:
        return mine if theirs is None else theirs
    mine.merge_from(theirs)
    return mine


class Measure(NamedTuple):
    attr: str
    combine: Callable
    #: canonical sort key — over a list's records or a dict's ``(key,
    #: value)`` items; None leaves the layout alone
    #: (scalars, tables pre-seeded with a fixed key set)
    order: Optional[Callable] = None
    #: telemetry counter name (the name prefix, for keyed tables)
    counter: Optional[str] = None
    unit: str = ""


_by_key = operator.itemgetter(0)


def _natural(item):
    return item


MEASURES: Tuple[Measure, ...] = (
    Measure(
        "fct_records",
        concatenate,
        lambda r: (r.finish_time, r.flow_id),
        "flows.completed",
    ),
    Measure("flow_class", union, _by_key),
    Measure("rpc_records", concatenate, lambda r: (r.finish_time, r.request_id)),
    Measure("switch_max_buffer", max_by_key, _by_key),
    Measure("port_max_buffer", max_by_key, _by_key),
    Measure("max_switch_buffer", max),
    Measure("queuing_incast", add_by_key, _by_key),
    Measure("queuing_normal", add_by_key, _by_key),
    Measure("pfc_paused_time", add_by_key, _by_key, "pfc.paused_ns.", "ns"),
    Measure("pfc_pause_events", operator.add, counter="pfc.pause_events"),
    Measure("packets_dropped", operator.add, counter="drops.congestion"),
    Measure("fault_drops", add_by_key, counter="drops.fault_"),
    Measure("fault_corruptions", operator.add),
    Measure("corrupt_rx", operator.add, counter="rx.corrupt"),
    Measure("unclaimed_control_frames", operator.add, counter="control.unclaimed"),
    Measure("stalls", concatenate, _natural, "stalls"),
    Measure("retransmitted_packets", operator.add, counter="retransmissions"),
    Measure("max_voqs_used", max, counter="floodgate.voq_max_in_use"),
    Measure("extension_counters", add_by_key, _by_key, ""),
    Measure("track_bandwidth", max),
    Measure("tx_bytes_by_category", add_by_key),
    Measure("rx_bytes_by_class", add_by_key, lambda kv: kv[0].value),
    Measure("fct_histogram", fold_histogram),
    Measure("queuing_histogram", fold_histogram),
    # wired only on a recorded closed-loop run; its count is the
    # completed requests
    Measure("rpc_histogram", fold_histogram, counter="rpc.requests_completed"),
)
