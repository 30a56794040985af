"""Floodgate configuration.

Defaults follow §6 ("Parameters"): credit timer ``T = 10 µs``,
delayCredit threshold ``10 BDP``, ``m = 1.5`` for the ideal design, and
up to 100 VOQs per switch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.units import us


@dataclass(frozen=True)
class FloodgateConfig:
    """Parameters for one Floodgate deployment.

    ``ideal=True`` selects the strawman design of §3.2: per-packet
    credits (no aggregation timer, no delayCredit) and a sending window
    of ``m * BDP_nextHop``.  The practical design (§4) aggregates
    credits every ``credit_timer`` and initializes the window to
    ``BDP_nextHop + C_out * T``.
    """

    ideal: bool = False
    #: credit aggregation interval T (practical design), ns
    credit_timer: int = us(10)
    #: delayCredit threshold on the per-dst VOQ backlog, bytes
    #: (the paper's default is 10 BDP; set from the topology's base BDP)
    thre_credit_bytes: int = 640_000
    #: window aggressiveness for the ideal design (m * BDP_nextHop)
    m: float = 1.5
    #: VOQ pool size per switch
    max_voqs: int = 100
    #: enable the optional per-dst PAUSE host support (§4.3)
    per_dst_pause: bool = False
    #: dstPause on/off thresholds on per-dst VOQ backlog, bytes
    #: (paper: "a relatively small value, e.g., one-hop BDP")
    thre_off_bytes: int = 64_000
    thre_on_bytes: int = 32_000
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
        for name in ("credit_timer", "syn_timeout", "m", "max_voqs"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(
                    f"floodgate.{name} must be positive, got {value!r}"
                )
        for name in ("thre_credit_bytes", "thre_off_bytes", "thre_on_bytes"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(
                    f"floodgate.{name} must not be negative, got {value!r}"
                )

    def with_base_bdp(
        self, bdp_bytes: int, credit_multiple: float = 10.0
    ) -> "FloodgateConfig":
        """Derive BDP-relative thresholds from the fabric's base BDP.

        ``credit_multiple`` is the delayCredit threshold in BDP units;
        the paper uses 10 and shows robustness across 1-38 (Fig. 17d).
        Scaled-down (CI) runs use a smaller multiple to preserve the
        threshold's ratio to the (also scaled-down) switch buffer.
        """
        return replace(
            self,
            thre_credit_bytes=int(credit_multiple * bdp_bytes),
            thre_off_bytes=bdp_bytes,
            thre_on_bytes=max(bdp_bytes // 2, 1),
        )
