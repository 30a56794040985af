"""Periodic samplers: turn registry gauges into time series.

Two shapes cover every time-series figure in the paper:

* :class:`GaugeSampler` records a gauge's level at each tick (buffer
  occupancy, VOQs in use);
* :class:`RateSampler` differentiates a monotone counter into a rate
  (receive throughput), dividing by the *actual* elapsed window since
  the previous sample — not the nominal interval — so a sampler
  started at ``sim.now > 0``, mid-interval, or restarted after a
  ``stop()`` never reports a rate over bytes the window didn't cover.

Both read their sources only at tick time; nothing here touches the
per-packet hot path.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.sim.engine import Simulator
from repro.sim.process import PeriodicTask


class PeriodicSampler:
    """Shared machinery: a tick task plus per-source sample storage.

    ``sources`` maps a series name to a zero-argument callable; attach
    registry gauges with ``{g.name: g.read for g in ...}``.
    """

    def __init__(
        self,
        sim: Simulator,
        sources: Dict[str, Callable[[], int]],
        interval: int,
        unit: str = "",
    ) -> None:
        self.sim = sim
        self.sources = sources
        self.interval = interval
        self.unit = unit
        self.samples: Dict[str, List[Tuple[int, float]]] = {
            name: [] for name in sources
        }
        self._task = PeriodicTask(sim, interval, self._sample, observer=True)

    def start(self) -> None:
        self._task.start()

    def stop(self) -> None:
        self._task.stop()

    def _sample(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    # -- queries ------------------------------------------------------------

    def series(self, name: str) -> List[Tuple[int, float]]:
        """Raw ``(time_ns, value)`` samples for one series."""
        return self.samples[name]

    def max_value(self, name: str) -> float:
        return max((v for _, v in self.samples[name]), default=0)


class GaugeSampler(PeriodicSampler):
    """Samples each source's level directly."""

    def _sample(self) -> None:
        now = self.sim.now
        for name, fn in self.sources.items():
            self.samples[name].append((now, fn()))


class RateSampler(PeriodicSampler):
    """Differentiates monotone counters into rates.

    A sample's value is ``scale * delta / elapsed_ns`` where ``delta``
    is the counter increase since the previous sample (or since
    :meth:`start`) and ``elapsed_ns`` the actual time that increase
    accumulated over.  With ``scale=8`` a bytes counter reads in Gbps
    (bytes/ns * 8 == Gbps).
    """

    def __init__(
        self,
        sim: Simulator,
        sources: Dict[str, Callable[[], int]],
        interval: int,
        scale: float = 1.0,
        unit: str = "",
    ) -> None:
        super().__init__(sim, sources, interval, unit)
        self.scale = scale
        self._last: Dict[str, int] = {name: 0 for name in sources}
        self._last_time = 0

    def start(self) -> None:
        # baseline: counted bytes before this instant belong to no window
        for name, fn in self.sources.items():
            self._last[name] = fn()
        self._last_time = self.sim.now
        super().start()

    def _sample(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_time
        if elapsed <= 0:
            return  # same-instant tick (restart artifact): no window yet
        self._last_time = now
        for name, fn in self.sources.items():
            current = fn()
            delta = current - self._last[name]
            self._last[name] = current
            self.samples[name].append((now, delta * self.scale / elapsed))
