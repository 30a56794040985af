"""Host congestion control: DCQCN, TIMELY, HPCC, and the flow model.

Each algorithm reimplements the control law from its paper.  Following
Floodgate's methodology (§6), every host also enforces a per-flow
sending window (one BDP by default) that models the first-RTT behaviour
of production RoCE stacks.
"""

from repro.lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "flow": ("Flow",),
        "base": ("CcAlgorithm", "StaticWindowCc"),
        "dcqcn": ("Dcqcn", "DcqcnConfig"),
        "dctcp": ("Dctcp", "DctcpConfig"),
        "timely": ("Timely", "TimelyConfig"),
        "hpcc": ("Hpcc", "HpccConfig"),
    },
)
