"""Declarative closed-loop workload description.

An :class:`RpcWorkloadSpec` is plain frozen data, like
:class:`repro.faults.plan.FaultPlan`: it lives inside a
``ScenarioConfig`` and survives ``dataclasses.asdict``, which is how
it enters the sweep cache key (``parallel.config_fingerprint``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import MTU
from repro.workloads.distributions import WORKLOADS

_VALID_THINK_DISTRIBUTIONS = ("exponential", "constant")
_VALID_SERVER_SELECTION = ("uniform", "zipf")


@dataclass(frozen=True)
class RpcWorkloadSpec:
    """One closed-loop request/response workload.

    Each client keeps exactly one request outstanding: it thinks for a
    sampled delay, sprays ``fan_out`` shard queries, waits for every
    response to land (the fan-in completion *is* the incast), records
    the request latency, and thinks again.  Offered load is therefore
    a function of network latency — the defining closed-loop property.
    """

    #: number of client hosts (0 -> every host is a client); clients
    #: are spread evenly across the host id space, hence across racks
    n_clients: int = 0
    #: shard queries per request; the burst degree of the fan-in incast
    fan_out: int = 8
    #: mean think time between a request's completion and the next, ns
    think_time: int = 50_000
    think_distribution: str = "exponential"  # exponential | constant
    #: query size, bytes (small — the response carries the data)
    request_size: int = 300
    #: per-shard response size, uniform in [min, max] bytes unless a
    #: ``response_workload`` CDF overrides it.  Default is the paper's
    #: incast response shape: 30-40 MTU, around one end-to-end BDP.
    response_size_min: int = 30 * MTU
    response_size_max: int = 40 * MTU
    #: draw response sizes from a named workload CDF ("" -> uniform)
    response_workload: str = ""
    #: fixed server service time between query arrival and response, ns
    server_time: int = 0
    #: shard placement: "uniform" over hosts, or "zipf" over racks
    #: (rack popularity ranks are a seed-determined permutation)
    server_selection: str = "zipf"
    #: Zipf exponent over rack popularity ranks (rank k weight
    #: 1/(k+1)^alpha); only used when server_selection == "zipf"
    zipf_alpha: float = 1.2
    #: probability a shard lives in the client's own rack
    locality: float = 0.0
    #: stop each client after this many requests (0 -> until duration)
    requests_per_client: int = 0
    #: open-loop Poisson background riding alongside, as a load
    #: fraction of aggregate host bandwidth (0 -> no background)
    background_load: float = 0.0

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
        if self.server_time < 0:
            raise ValueError(
                f"server_time must be >= 0 ns, got {self.server_time}"
            )
        if self.think_distribution not in _VALID_THINK_DISTRIBUTIONS:
            raise ValueError(
                f"unknown think_distribution {self.think_distribution!r}; "
                f"valid values: {', '.join(_VALID_THINK_DISTRIBUTIONS)}"
            )
        if self.server_selection not in _VALID_SERVER_SELECTION:
            raise ValueError(
                f"unknown server_selection {self.server_selection!r}; "
                f"valid values: {', '.join(_VALID_SERVER_SELECTION)}"
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
        if self.response_workload and self.response_workload not in WORKLOADS:
            raise ValueError(
                f"unknown response_workload {self.response_workload!r}; "
                f"valid values: {', '.join(WORKLOADS)} (or '' for the "
                f"uniform [response_size_min, response_size_max] range)"
            )
        if self.zipf_alpha <= 0.0:
            raise ValueError(
                f"zipf_alpha must be > 0, got {self.zipf_alpha}"
            )
        if not 0.0 <= self.locality <= 1.0:
            raise ValueError(
                f"locality must be a probability in [0, 1], "
                f"got {self.locality}"
            )
        if self.requests_per_client < 0:
            raise ValueError(
                f"requests_per_client must be >= 0 (0 means until the "
                f"scenario duration), got {self.requests_per_client}"
            )
        if self.background_load < 0.0:
            raise ValueError(
                f"background_load must be >= 0, got {self.background_load}"
            )
