"""RED/ECN marking.

Implements the marking curve DCQCN assumes at switch egress
queues: below ``kmin`` never mark, above ``kmax`` always mark, and
between the two mark with probability rising linearly to ``pmax``.
The paper's convergence study (Fig. 16) sweeps ``(kmin, kmax)``, so the
thresholds are per-instance configuration rather than globals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    import random

    from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class EcnConfig:
    """RED-style marking thresholds (bytes)."""

    kmin: int
    kmax: int
    pmax: float = 1.0

    def __post_init__(self) -> None:
        if self.kmin < 0 or self.kmax < self.kmin:
            raise ValueError(f"need 0 <= kmin <= kmax, got {self.kmin}, {self.kmax}")
        if not 0.0 <= self.pmax <= 1.0:
            raise ValueError(f"pmax must be in [0, 1], got {self.pmax}")


class EcnMarker:
    """Stateless marking decision with a dedicated RNG stream.

    The stream is ``rngs.stream(stream)``, fetched at the first
    probabilistic draw: a marker whose queues never sit between
    ``kmin`` and ``kmax`` never holds one.  The registry derives a
    stream from its name alone, so the draws are the ones a stream
    fetched at build time would give.
    """

    __slots__ = ("config", "_rngs", "_stream", "_rng")

    def __init__(self, config: EcnConfig, rngs: "RngRegistry", stream: str) -> None:
        self.config = config
        self._rngs = rngs
        self._stream = stream
        self._rng: Optional["random.Random"] = None

    def should_mark(self, queue_bytes: int) -> bool:
        """Marking decision for a packet arriving to a queue of this depth."""
        cfg = self.config
        if queue_bytes <= cfg.kmin:
            return False
        if queue_bytes >= cfg.kmax:
            return True
        span = cfg.kmax - cfg.kmin
        p = cfg.pmax * (queue_bytes - cfg.kmin) / span if span else cfg.pmax
        rng = self._rng
        if rng is None:
            rng = self._rng = self._rngs.stream(self._stream)
        return rng.random() < p
