"""Declarative fault schedules.

A :class:`FaultPlan` is a picklable list of fault specs plus the
stall-watchdog window.  Plans are pure data: they name *what* goes
wrong, *where* (a link selector), and *when* (absolute sim time in
ns); the :mod:`repro.faults.injector` turns a plan into scheduled
events on a built topology.

Determinism contract
--------------------
* A plan carries no randomness of its own — every stochastic fault
  (Bernoulli loss, corruption) draws from a dedicated child stream of
  the experiment's :class:`~repro.sim.rng.RngRegistry`, one stream per
  faulted link, so the same ``(seed, plan)`` pair replays the exact
  same loss pattern in serial, pooled, and cache-served runs.
* Plans are frozen dataclasses of plain values; a plan embedded in a
  :class:`~repro.experiments.scenario.ScenarioConfig` enters the run's
  digest and the parallel runner's disk-cache key with the rest of the
  config, each fault as ``(kind, (field, value), ...)``
  (``parallel.config_items``).

Link selectors
--------------
Faults name their target links with a selector string:

* ``"*"`` — every link;
* ``"switch-switch"`` — links whose both endpoints are switches;
* ``"host-switch"`` — host NIC links;
* ``"name:*"`` — every link touching the node called ``name``;
* ``"a<->b"`` — the link between nodes ``a`` and ``b`` (either order);
* ``"#3"`` — the topology's link index 3 (build order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple, Union, get_args

#: packet classes a loss fault can target independently
CLASS_DATA = "data"
CLASS_CTRL = "ctrl"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _check_rate(name: str, rate: float) -> None:
    _require(0.0 <= rate <= 1.0, f"{name} must be in [0, 1], got {rate}")


@dataclass(frozen=True)
class LinkDown:
    """Take a link down at ``at``; back up after ``duration`` (0 = forever).

    Packets in flight when the link dies die with it, at their would-be
    arrival time (deterministic — no RNG draw is involved).
    """

    kind: str = field(default="link-down", init=False)
    at: int = 0
    link: str = "*"
    duration: int = 0

    def __post_init__(self) -> None:
        _require(self.at >= 0, f"at must be >= 0, got {self.at}")
        _require(self.duration >= 0, f"duration must be >= 0, got {self.duration}")


@dataclass(frozen=True)
class RandomLoss:
    """Bernoulli loss over ``[start, start+duration)`` (0 = until the end).

    Data packets and control frames (credits, PAUSE/RESUME, ACKs, ...)
    are independent classes: ``ctrl_rate`` can starve Floodgate credits
    or PFC frames while payload flows untouched, and vice versa.  A
    rate of 1.0 over a short window is a loss burst (an optical
    glitch).
    """

    kind: str = field(default="random-loss", init=False)
    start: int = 0
    link: str = "switch-switch"
    duration: int = 0
    data_rate: float = 0.0
    ctrl_rate: float = 0.0

    def __post_init__(self) -> None:
        _require(self.start >= 0, f"start must be >= 0, got {self.start}")
        _require(self.duration >= 0, f"duration must be >= 0, got {self.duration}")
        _check_rate("data_rate", self.data_rate)
        _check_rate("ctrl_rate", self.ctrl_rate)


@dataclass(frozen=True)
class Corruption:
    """Deliver data packets but flip their integrity bit.

    A corrupted packet reaches the receiver and is NACKed (go-back-N)
    or treated like a trimmed header (NDP) — the delivered-but-useless
    failure mode, distinct from silent loss.  Control frames are never
    corrupted (real NICs drop bad control frames, which ``RandomLoss``
    with ``ctrl_rate`` already models).
    """

    kind: str = field(default="corruption", init=False)
    start: int = 0
    link: str = "switch-switch"
    duration: int = 0
    rate: float = 0.01

    def __post_init__(self) -> None:
        _require(self.start >= 0, f"start must be >= 0, got {self.start}")
        _require(self.duration >= 0, f"duration must be >= 0, got {self.duration}")
        _check_rate("rate", self.rate)


FaultSpec = Union[LinkDown, RandomLoss, Corruption]


@dataclass(frozen=True)
class FaultPlan:
    """A schedule of faults plus the stall-watchdog window.

    ``stall_window`` > 0 arms the
    :class:`~repro.faults.watchdog.StallWatchdog`: the run is declared
    stalled if no delivery progress happens for that many ns while
    flows remain.  0 leaves the watchdog off (and a ``FaultPlan()``
    with no faults installs nothing at all — runs are bit-identical to
    a plan-free run).
    """

    faults: Tuple[FaultSpec, ...] = ()
    stall_window: int = 0

    def __post_init__(self) -> None:
        _require(
            self.stall_window >= 0,
            f"stall_window must be >= 0, got {self.stall_window}",
        )
        # tolerate a list literal at construction time
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))
        for spec in self.faults:
            _require(type(spec) in get_args(FaultSpec), f"not a fault spec: {spec!r}")

    def __bool__(self) -> bool:
        """True when installing the plan changes anything."""
        return bool(self.faults) or self.stall_window > 0


def plan_of(*specs: FaultSpec) -> FaultPlan:
    """Convenience constructor: ``plan_of(LinkDown(...), RandomLoss(...))``."""
    return FaultPlan(tuple(specs))
