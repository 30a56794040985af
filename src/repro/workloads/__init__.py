"""Traffic generation: the paper's four workloads and traffic patterns.

Flow-size distributions (Fig. 7) for Memcached, Web Server, Hadoop,
and Web Search; Poisson arrival background traffic; periodic,
successive, and staggered incast patterns; and the *incastmix* composer
used by most of the evaluation (§6.1).  Each ``pattern`` row of
:mod:`repro.experiments.choices` names the function here that builds a
scenario's traffic: it draws the flows, labels each one's class on the
scenario's stats hub, and returns them.  A run loads only that
pattern's module.
"""

from repro.lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "distributions": (
            "FlowSizeDistribution", "MEMCACHED", "WEB_SERVER", "HADOOP", "WEB_SEARCH",
            "WORKLOADS",
        ),
        "poisson": ("poisson_flows", "FlowSpec"),
        "incast": ("periodic_incast", "successive_incast", "staggered_flows"),
    },
)
