"""Closed-loop RPC workloads (request/response fan-out traffic).

The paper's incasts are *produced* by application behavior: a
front-end query sprays N shard requests and the near-simultaneous
responses are the incast.  This package models that loop directly:

* :class:`RpcWorkloadSpec` — declarative, serializable description of
  the client population, think times, fan-out, sizes, and the skewed
  destination matrix (Zipf over racks);
* :class:`DestinationMatrix` — deterministic server sampling;
* :class:`ClosedLoopDriver` — injects flows reactively off flow
  completion callbacks on either fidelity tier, so offered load
  emerges from latency feedback instead of a fixed arrival schedule.
"""

from repro.lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "spec": ("RpcWorkloadSpec",),
        "matrix": ("DestinationMatrix",),
        "driver": ("ClosedLoopDriver",),
    },
)
