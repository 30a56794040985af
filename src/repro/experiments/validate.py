"""Cross-tier validation: an approximate tier vs the packet engine.

The paper's whole evaluation is "same traffic, two systems, compare
FCTs"; the approximate tiers are judged the same way.  ``compare``
runs one config on a tier and on its reference twin
(``scenario.reference_config``: the packet engine) and compares FCT
percentiles over the **matched** flow set — flows completed in *both*
runs.  Matching matters: a straggler that beats the hard stop in one
run but not the other would shift nearest-rank percentiles and report
divergence where the per-flow agreement is actually tight.  The hybrid
tier narrows the set further to the **hot-rack** population — flows
whose source or destination sits in a rack the run simulated at packet
level, the population it promises packet fidelity for; its cold-to-cold
flows ride the fluid model and carry that tier's looser tolerance.

``cross_validate`` runs a tier over named scenarios and asserts the
per-tier envelope in :data:`TIERS`.  Both tiers run the same configs —
the registry entry's ``validation_configs`` (incast256 is validated in
the drop-free regime, see ``registry.py``) or its ``configs`` — with
only the fidelity flipped, so the two CLIs bracket one scenario set
from both sides.

Thresholds (DESIGN.md "Fidelity tiers"):

* fluid: p50/p99 within 15 %.  fattree-a2a has its own wider budget:
  the utilization-based queueing correction closes the mean-FCT gap,
  but the p99 residual on a Poisson-loaded 3-tier fabric is
  congestion-control convergence (DCQCN rate ramping), which a fluid
  rate model cannot represent — measured 22.5 % at seed 1, pinned at
  25 % so it cannot silently grow.
* hybrid: hot-rack p50/p99 within 10 % (tighter: the hot domain runs
  the real engine).
  ``quick`` can be requested explicitly but is *outside the hybrid
  tier's operating envelope*: a uniformly loaded 0.8-utilization
  fabric has no incast victim, so auto-selection falls back to the
  busiest destination and nearly half the traffic crosses the fluid
  boundary — the regime where the tier's approximations stack instead
  of cancel (measured ~35 % p50 there).

Accuracy only: how much faster a tier runs is ``benchmarks.e2e``'s
``flowsim.speedup_vs_packet`` / ``hybrid.speedup_vs_packet``.  The
per-config ``speedup`` in the printed lines and the ``--json`` artifact
is the wall-time ratio of that one pair of runs — information,
asserted nowhere.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.experiments.scenario import ScenarioConfig

# the tables below are the CLI parser's choice lists; the runs import
# the simulator in the functions that make them

#: registry scenarios a tier can be validated on: open-loop packet
#: scenarios whose flow ids exist before the run on every tier
SCENARIOS = ("quick", "incast256", "fattree-a2a")


@dataclass(frozen=True)
class TierRule:
    """How one approximate tier is judged (a row of :data:`TIERS`)."""

    #: the CLI subcommand serving this row, and the tier's prose name
    command: str
    label: str
    #: scenarios run (and asserted) by default
    scenarios: Tuple[str, ...]
    #: p50/p99 divergence budget (fraction of the packet value)
    tolerance: float
    #: per-scenario budgets that replace ``tolerance``
    scenario_tolerance: Mapping[str, float] = field(default_factory=dict)


#: fidelity -> its validation envelope (defaults of the validate-* CLIs)
TIERS: Dict[str, TierRule] = {
    "flow": TierRule(
        command="validate-flowsim",
        label="fluid",
        scenarios=SCENARIOS,
        tolerance=0.15,
        scenario_tolerance={"fattree-a2a": 0.25},
    ),
    "hybrid": TierRule(
        command="validate-hybrid",
        label="hybrid",
        scenarios=("incast256", "fattree-a2a"),
        tolerance=0.10,
    ),
}


@dataclass(frozen=True)
class Comparison:
    """One config run on a tier and on its reference twin."""

    tier: str
    scenario: str
    config_index: int
    #: racks the tier ran at packet level (hybrid); the compared
    #: population is narrowed to their flows.  Empty: every flow
    hot_racks: Tuple[int, ...]
    matched_flows: int
    reference_only_flows: int
    tier_only_flows: int
    reference_wall: float
    tier_wall: float
    p50_reference_ns: int
    p50_tier_ns: int
    p99_reference_ns: int
    p99_tier_ns: int

    @property
    def p50_divergence(self) -> float:
        return _divergence(self.p50_tier_ns, self.p50_reference_ns)

    @property
    def p99_divergence(self) -> float:
        return _divergence(self.p99_tier_ns, self.p99_reference_ns)

    @property
    def speedup(self) -> float:
        if self.tier_wall <= 0.0:
            return float("inf")
        return self.reference_wall / self.tier_wall

    def as_dict(self) -> Dict:
        out = asdict(self)
        out["hot_racks"] = list(self.hot_racks)
        out["reference_wall"] = round(self.reference_wall, 4)
        out["tier_wall"] = round(self.tier_wall, 4)
        out["speedup"] = round(self.speedup, 2)
        out["p50_divergence"] = round(self.p50_divergence, 4)
        out["p99_divergence"] = round(self.p99_divergence, 4)
        return out


def _divergence(value: int, reference: int) -> float:
    if reference <= 0:
        return 0.0
    return abs(value - reference) / reference


def compare(
    config: ScenarioConfig, tier: str, scenario: str = "", index: int = 0
) -> Comparison:
    """Run ``config`` at fidelity ``tier`` and on its reference twin.

    The hot-rack set comes from the tier's run itself (explicit
    ``hot_racks`` or its auto-selection), so a hybrid comparison always
    covers exactly the domain that ran at packet level.
    """
    from repro.experiments.runner import run_scenario
    from repro.experiments.scenario import reference_config
    from repro.stats.fct import summarize_fct

    approx_config = replace(config, fidelity=tier)
    _, twin = reference_config(approx_config)
    approx = run_scenario(approx_config)
    reference = run_scenario(twin)
    hybrid = approx.scenario.hybrid
    hot_racks = hybrid.hot_racks if hybrid is not None else ()
    rack_of = approx.scenario.rack_of()
    population = {
        spec.flow_id
        for spec in approx.scenario.flows
        if not hot_racks
        or rack_of[spec.src] in hot_racks
        or rack_of[spec.dst] in hot_racks
    }
    by_id_ref = {
        r.flow_id: r
        for r in reference.stats.fct_records
        if r.flow_id in population
    }
    by_id_tier = {
        r.flow_id: r
        for r in approx.stats.fct_records
        if r.flow_id in population
    }
    matched = [f for f in by_id_ref if f in by_id_tier]
    ref_fct = summarize_fct([by_id_ref[f] for f in matched])
    tier_fct = summarize_fct([by_id_tier[f] for f in matched])
    return Comparison(
        tier=tier,
        scenario=scenario,
        config_index=index,
        hot_racks=hot_racks,
        matched_flows=len(matched),
        reference_only_flows=len(by_id_ref) - len(matched),
        tier_only_flows=len(by_id_tier) - len(matched),
        reference_wall=reference.wall_seconds,
        tier_wall=approx.wall_seconds,
        p50_reference_ns=ref_fct.p50_ns,
        p50_tier_ns=tier_fct.p50_ns,
        p99_reference_ns=ref_fct.p99_ns,
        p99_tier_ns=tier_fct.p99_ns,
    )


def validation_configs(scenario: str) -> Tuple[ScenarioConfig, ...]:
    """The packet-tier configs ``scenario`` is cross-validated on."""
    from repro.experiments import registry

    if scenario not in SCENARIOS:
        raise ValueError(
            f"unknown validation scenario {scenario!r}; "
            f"choose from {', '.join(SCENARIOS)}"
        )
    entry = registry.get(scenario)
    return entry.validation_configs or entry.configs


def cross_validate(
    tier: str,
    scenarios: Optional[Sequence[str]] = None,
    tolerance: Optional[float] = None,
) -> Tuple[bool, List[Comparison], List[str]]:
    """Validate ``tier`` against the packet engine.

    ``scenarios`` / ``tolerance`` default to the tier's row of
    :data:`TIERS`.  Returns ``(ok, comparisons, messages)``; ``ok`` is
    False when a config has no matched flows or when its p50 or p99
    divergence exceeds the scenario's budget.
    """
    rule = TIERS[tier]
    names = list(scenarios) if scenarios else list(rule.scenarios)
    if tolerance is None:
        tolerance = rule.tolerance
    # resolve every name before the first run
    configs = {name: validation_configs(name) for name in names}
    ok = True
    comparisons: List[Comparison] = []
    messages: List[str] = []
    for name in names:
        budget = rule.scenario_tolerance.get(name, tolerance)
        for index, cfg in enumerate(configs[name]):
            cmp = compare(cfg, tier, name, index)
            comparisons.append(cmp)
            if cmp.matched_flows == 0:
                ok = False
                messages.append(
                    f"FAIL {name}[{index}]: no matched flows "
                    f"(packet-only={cmp.reference_only_flows}, "
                    f"{tier}-only={cmp.tier_only_flows})"
                )
                continue
            hot = f"hot={list(cmp.hot_racks)} " if cmp.hot_racks else ""
            line = (
                f"{name}[{index}]: {hot}n={cmp.matched_flows} "
                f"p50 {cmp.p50_reference_ns}ns vs {cmp.p50_tier_ns}ns "
                f"({cmp.p50_divergence:.1%}), "
                f"p99 {cmp.p99_reference_ns}ns vs {cmp.p99_tier_ns}ns "
                f"({cmp.p99_divergence:.1%}), speedup {cmp.speedup:.1f}x"
            )
            if cmp.p50_divergence > budget or cmp.p99_divergence > budget:
                ok = False
                messages.append(f"FAIL {line} — divergence above {budget:.0%}")
            else:
                messages.append(f"ok   {line}")
    return ok, comparisons, messages
