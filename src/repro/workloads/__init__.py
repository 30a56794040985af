"""Traffic generation: the paper's four workloads and traffic patterns.

Flow-size distributions (Fig. 7) for Memcached, Web Server, Hadoop,
and Web Search; Poisson arrival background traffic; periodic,
successive, and staggered incast patterns; and the *incastmix* composer
used by most of the evaluation (§6.1).  Each ``pattern`` row of
:mod:`repro.experiments.choices` names the function here that builds a
scenario's traffic, and a run loads only that pattern's module.
"""

from repro.lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "distributions": (
            "FlowSizeDistribution", "MEMCACHED", "WEB_SERVER", "HADOOP", "WEB_SEARCH",
            "WORKLOADS",
        ),
        "poisson": ("PoissonGenerator", "FlowSpec"),
        "incast": ("IncastSpec", "periodic_incast", "successive_incast", "staggered_flows"),
        "mix": ("IncastMix", "build_incastmix", "classify_flows"),
    },
)
