"""Shared switch buffer with dynamic-threshold PFC accounting.

Models the shared-memory buffer of a commodity switch the way the
DCQCN/HPCC NS-3 models do:

* every buffered data packet is charged against the total pool and
  against the *ingress* port it arrived on;
* an ingress port whose occupancy exceeds the dynamic threshold
  ``alpha * (capacity - total_used)`` triggers a PFC PAUSE to its
  upstream peer; it resumes once occupancy falls below the threshold
  minus a hysteresis margin (two MTUs here);
* a packet that cannot be admitted at all (pool exhausted) is dropped.

The paper runs with the dynamic threshold and ``alpha = 2`` (``ALPHA``).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.units import MTU

#: dynamic-threshold factor: the paper runs with ``alpha = 2``
ALPHA = 2.0
#: a paused ingress resumes this far below the threshold, bytes
HYSTERESIS = 2 * MTU


class SharedBuffer:
    """Per-switch buffer pool with per-ingress PFC state."""

    __slots__ = (
        "capacity",
        "alpha",
        "pfc_enabled",
        "used",
        "ingress_bytes",
        "ingress_paused",
        "n_ports",
        "n_paused",
        "max_used",
        "on_pause",
        "on_resume",
        "headroom",
    )

    def __init__(
        self,
        capacity: int,
        n_ports: int,
        pfc_enabled: bool = True,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"buffer capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: dynamic-threshold factor (a test may lower it to pause early)
        self.alpha = ALPHA
        self.pfc_enabled = pfc_enabled
        self.used = 0
        self.ingress_bytes: List[int] = [0] * n_ports
        self.ingress_paused: List[bool] = [False] * n_ports
        self.n_ports = n_ports
        #: count of True entries in ingress_paused — lets release() skip
        #: its every-port resume scan in the common nothing-paused case
        self.n_paused = 0
        self.max_used = 0
        #: callbacks installed by the switch: ``on_pause(ingress_port)``
        self.on_pause: Optional[Callable[[int], None]] = None
        self.on_resume: Optional[Callable[[int], None]] = None
        # Reserve a little headroom per port so packets in flight during
        # the pause round-trip do not overflow the pool (as real
        # deployments do).  Admission uses capacity directly; headroom
        # only shifts the pause threshold earlier.
        self.headroom = 2 * MTU

    # -- admission ----------------------------------------------------------------

    def threshold(self) -> float:
        """Current dynamic PFC threshold for any one ingress port."""
        free = self.capacity - self.used
        return self.alpha * max(free, 0)

    def admit(self, size: int, ingress_port: int) -> bool:
        """Charge ``size`` bytes to the pool; False (and drop) if full.

        An admitted packet that pushes its ingress port past the dynamic
        threshold (minus headroom) pauses that port's upstream peer.
        """
        used = self.used + size
        if used > self.capacity:
            return False
        self.used = used
        if used > self.max_used:
            self.max_used = used
        if 0 <= ingress_port < self.n_ports:
            ingress_bytes = self.ingress_bytes
            held = ingress_bytes[ingress_port] + size
            ingress_bytes[ingress_port] = held
            # threshold() with free >= 0 known (one frame per packet)
            if (
                self.pfc_enabled
                and not self.ingress_paused[ingress_port]
                and held + self.headroom > self.alpha * (self.capacity - used)
            ):
                self.ingress_paused[ingress_port] = True
                self.n_paused += 1
                if self.on_pause is not None:
                    self.on_pause(ingress_port)
        return True

    def release(self, size: int, ingress_port: int) -> None:
        """Return ``size`` bytes to the pool (packet left the switch)."""
        self.used -= size
        if self.used < 0:
            raise RuntimeError("buffer accounting underflow (double release?)")
        if 0 <= ingress_port < self.n_ports:
            self.ingress_bytes[ingress_port] -= size
            if self.ingress_bytes[ingress_port] < 0:
                raise RuntimeError(
                    f"ingress accounting underflow on port {ingress_port}"
                )
            if self.n_paused:
                self._check_resume(ingress_port)
        # A release frees pool space, which raises every port's dynamic
        # threshold; ports paused near the boundary may resume.
        if self.n_paused and self.pfc_enabled:
            for port, paused in enumerate(self.ingress_paused):
                if paused and port != ingress_port:
                    self._check_resume(port)

    # -- PFC state machine ------------------------------------------------------------

    def _check_resume(self, port: int) -> None:
        if not self.pfc_enabled or not self.ingress_paused[port]:
            return
        if self.ingress_bytes[port] + self.headroom + HYSTERESIS < self.threshold():
            self.ingress_paused[port] = False
            self.n_paused -= 1
            if self.on_resume is not None:
                self.on_resume(port)
