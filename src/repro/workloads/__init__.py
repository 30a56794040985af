"""Traffic generation: the paper's four workloads and traffic patterns.

Flow-size distributions (Fig. 7) for Memcached, Web Server, Hadoop,
and Web Search; Poisson arrival background traffic; periodic,
successive, and staggered incast patterns; and the *incastmix* composer
used by most of the evaluation (§6.1).
"""

from repro.workloads.distributions import (
    FlowSizeDistribution,
    HADOOP,
    MEMCACHED,
    WEB_SEARCH,
    WEB_SERVER,
    WORKLOADS,
)
from repro.workloads.poisson import PoissonGenerator, FlowSpec
from repro.workloads.incast import (
    IncastSpec,
    periodic_incast,
    staggered_flows,
    successive_incast,
)
from repro.workloads.mix import IncastMix, build_incastmix, classify_flows

__all__ = [
    "FlowSizeDistribution",
    "MEMCACHED",
    "WEB_SERVER",
    "HADOOP",
    "WEB_SEARCH",
    "WORKLOADS",
    "PoissonGenerator",
    "FlowSpec",
    "IncastSpec",
    "periodic_incast",
    "successive_incast",
    "staggered_flows",
    "IncastMix",
    "build_incastmix",
    "classify_flows",
]
