"""Comparison baselines: BFC, NDP, and PFC w/ tag.

Reimplementations of the schemes the paper compares against in §8 and
Appendix B:

* **BFC** (Goyal et al., NSDI '22) — per-hop, per-flow pause/resume on
  a limited set of physical queues, with sticky queue assignment and
  hash-collision FIDs (the paper evaluates 32Q, 128Q, and an ideal
  infinite-queue variant);
* **NDP** (Handley et al., SIGCOMM '17) — packet trimming at switches
  plus a receiver-driven pull-based transport;
* **PFC w/ tag** (Appendix B) — a reactive derivative of Floodgate
  that pauses per-destination based on egress queue length instead of
  tracking in-flight packets proactively.
"""

from repro.lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "bfc": ("BfcExtension", "BfcHost"),
        "ndp": ("NdpHost", "NdpSwitchExtension"),
        "pfc_tag": ("PfcTagExtension",),
    },
)
