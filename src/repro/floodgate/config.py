"""Floodgate configuration.

Defaults follow §6 ("Parameters"): credit timer ``T = 10 µs``,
delayCredit threshold ``10 BDP``, ``m = 1.5`` for the ideal design, and
up to 100 VOQs per switch.  :func:`scenario_config` derives a run's
config from its scenario; :data:`DERIVED` names the fields it sets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.units import us

#: fields :func:`scenario_config` derives from the scenario; a value
#: handed in through ``ScenarioConfig.floodgate`` would be overwritten,
#: so :func:`reject_derived` rejects it, naming what does own the value
DERIVED = (
    ("ideal", "select the strawman design with flow_control='floodgate-ideal'"),
    ("thre_credit_bytes", "set delay_credit_bdp (the threshold in base-BDP units)"),
    ("thre_off_bytes", "the dstPause off threshold is one base BDP (§4.3)"),
    ("thre_on_bytes", "the dstPause on threshold is half a base BDP (§4.3)"),
    ("per_dst_pause", "set ScenarioConfig.per_dst_pause"),
)


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


def reject_derived(config: FloodgateConfig) -> None:
    """Raise if ``config`` sets a field :func:`scenario_config` derives."""
    defaults = FloodgateConfig()
    for name, owner in DERIVED:
        if getattr(config, name) != getattr(defaults, name):
            raise ValueError(
                f"floodgate.{name} is derived from the scenario and "
                f"would be overwritten: {owner}"
            )


def scenario_config(scenario, ideal: bool) -> FloodgateConfig:
    """The config every switch of ``scenario`` runs: its ``floodgate``
    (or the scale's defaults) with the :data:`DERIVED` fields set."""
    cfg = scenario.config
    ci = cfg.scale == "ci"  # a str enum: no import of repro.experiments
    if cfg.floodgate is not None:
        base = cfg.floodgate
    elif ci:
        # Preserve the window-to-buffer ratio at CI scale: the
        # paper's T=10us at 400 Gbps adds ~500 KB to each window
        # against a 20 MB buffer (2.5%); 2us at 40 Gbps adds 10 KB
        # against 0.5 MB (2%).
        base = FloodgateConfig(credit_timer=us(2))
    else:
        base = FloodgateConfig()
    multiple = cfg.delay_credit_bdp or (2.0 if ci else 10.0)
    base = base.with_base_bdp(scenario.base_bdp, multiple)
    return replace(base, ideal=ideal, per_dst_pause=cfg.per_dst_pause)
