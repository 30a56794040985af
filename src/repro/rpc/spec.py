"""Declarative closed-loop workload description.

An :class:`RpcWorkloadSpec` is plain frozen data, like
:class:`repro.faults.plan.FaultPlan`: it lives inside a
``ScenarioConfig`` and survives ``dataclasses.asdict``, which is how
it enters the sweep cache key (``parallel.config_fingerprint``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import MTU


@dataclass(frozen=True)
class RpcWorkloadSpec:
    """One closed-loop request/response workload.

    Each client keeps exactly one request outstanding: it thinks for an
    exponentially distributed delay, sprays ``fan_out`` shard queries
    over Zipf-skewed racks, waits for every response to land (the
    fan-in completion *is* the incast), records the request latency,
    and thinks again.  Offered load is therefore a function of network
    latency — the defining closed-loop property.
    """

    #: number of client hosts (0 -> every host is a client); clients
    #: are spread evenly across the host id space, hence across racks
    n_clients: int = 0
    #: shard queries per request; the burst degree of the fan-in incast
    fan_out: int = 8
    #: mean think time between a request's completion and the next, ns
    think_time: int = 50_000
    #: query size, bytes (small — the response carries the data)
    request_size: int = 300
    #: per-shard response size, uniform in [min, max] bytes.  Default
    #: is the paper's incast response shape: 30-40 MTU, around one
    #: end-to-end BDP.
    response_size_min: int = 30 * MTU
    response_size_max: int = 40 * MTU
    #: Zipf exponent over rack popularity ranks (rank k weight
    #: 1/(k+1)^alpha; the ranks are a seed-determined permutation)
    zipf_alpha: float = 1.2

    def __post_init__(self) -> None:
        if self.n_clients < 0:
            raise ValueError(
                f"n_clients must be >= 0 (0 means every host), "
                f"got {self.n_clients}"
            )
        if self.fan_out < 1:
            raise ValueError(
                f"fan_out must be >= 1 (shard queries per request), "
                f"got {self.fan_out}"
            )
        if self.think_time < 0:
            raise ValueError(
                f"think_time must be >= 0 ns, got {self.think_time}"
            )
        if self.request_size < 1:
            raise ValueError(
                f"request_size must be >= 1 byte, got {self.request_size}"
            )
        if not 1 <= self.response_size_min <= self.response_size_max:
            raise ValueError(
                "response sizes must satisfy 1 <= response_size_min <= "
                f"response_size_max, got [{self.response_size_min}, "
                f"{self.response_size_max}]"
            )
        if self.zipf_alpha <= 0.0:
            raise ValueError(
                f"zipf_alpha must be > 0, got {self.zipf_alpha}"
            )
