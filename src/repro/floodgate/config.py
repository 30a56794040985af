"""Floodgate configuration: the parameters a deployment sets.

Defaults follow §6 ("Parameters"): credit timer ``T = 10 µs``.  What
follows from the fabric — the design, the delayCredit and dstPause
thresholds, ``m`` and the VOQ pool size — is derived by
:func:`repro.floodgate.extension.install`, not carried here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import us


@dataclass(frozen=True)
class FloodgateConfig:
    """Parameters for one Floodgate deployment."""

    #: credit aggregation interval T (practical design), ns
    credit_timer: int = us(10)
    #: enable PSN tracking + switchSYN loss recovery (§4.3)
    loss_recovery: bool = True
    #: switchSYN probe timeout, ns ("a relatively large timeout")
    syn_timeout: int = us(100)
    #: ablation: when False, VOQ-drained (incast) packets re-enter the
    #: normal egress queue instead of the dedicated lowest-priority
    #: queue — removing the isolation that protects non-incast traffic
    #: from HOL blocking (§3.2 "incast isolation")
    isolate_incast: bool = True

    def __post_init__(self) -> None:
        """Reject values the extension would only trip over mid-build."""
        for name in ("credit_timer", "syn_timeout"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(
                    f"floodgate.{name} must be positive, got {value!r}"
                )
