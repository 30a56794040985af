"""The cross-tier validator: one compare(), one cross_validate()."""

from __future__ import annotations

import pytest

from repro.experiments import registry, validate
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.units import us


def tiny_cfg(**overrides) -> ScenarioConfig:
    """2 racks x 4 hosts, one incast into rack 0 over light Poisson."""
    base = dict(
        flow_control="floodgate",
        workload="webserver",
        n_tors=2,
        hosts_per_tor=4,
        pattern="incastmix",
        poisson_load=0.4,
        incast_load=0.8,
        duration=us(300),
        max_runtime_factor=16.0,
        seed=3,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.fixture
def tiny_scenario(monkeypatch):
    """Register the tiny config as a validatable scenario."""
    entry = registry.ScenarioEntry("tiny", "2x4 incastmix", (tiny_cfg(),))
    monkeypatch.setitem(registry._REGISTRY, "tiny", entry)
    monkeypatch.setattr(validate, "SCENARIOS", validate.SCENARIOS + ("tiny",))
    return entry


# -- compare ------------------------------------------------------------------


def test_compare_flow_tier_counts_matched_and_one_sided_flows():
    # a hard stop at the end of traffic generation strands stragglers
    # on the packet side only: the fluid twin finishes them earlier
    cfg = tiny_cfg(max_runtime_factor=1.0)
    cmp = validate.compare(cfg, "flow", "tiny", 2)
    assert (cmp.tier, cmp.scenario, cmp.config_index) == ("flow", "tiny", 2)
    assert cmp.hot_racks == ()
    total = len(Scenario(cfg).flows)
    assert cmp.matched_flows > 0
    assert cmp.tier_only_flows > 0 and cmp.reference_only_flows == 0
    assert cmp.matched_flows + cmp.tier_only_flows <= total
    assert cmp.p50_reference_ns > 0 and cmp.p99_tier_ns > 0
    assert cmp.as_dict()["matched_flows"] == cmp.matched_flows


def test_compare_hybrid_tier_narrows_to_the_hot_rack_population():
    cfg = tiny_cfg()
    flow = validate.compare(cfg, "flow")
    hybrid = validate.compare(cfg, "hybrid")
    sc = Scenario(cfg)
    rack_of = sc.rack_of()
    assert hybrid.hot_racks == (rack_of[sc.config.incast_dst],)
    hot_flows = [
        s
        for s in sc.flows
        if rack_of[s.src] in hybrid.hot_racks
        or rack_of[s.dst] in hybrid.hot_racks
    ]
    compared = (
        hybrid.matched_flows
        + hybrid.reference_only_flows
        + hybrid.tier_only_flows
    )
    assert 0 < compared <= len(hot_flows) < len(sc.flows)
    assert hybrid.matched_flows < flow.matched_flows
    # both tiers are measured against the same packet twin
    assert hybrid.reference_wall > 0 and flow.reference_wall > 0


# -- cross_validate -----------------------------------------------------------


@pytest.mark.parametrize("tier", sorted(validate.TIERS))
def test_cross_validate_passes_and_fails_on_the_budget(tier, tiny_scenario):
    ok, comparisons, messages = validate.cross_validate(
        tier, ["tiny"], tolerance=10.0
    )
    assert ok and len(comparisons) == 1
    assert messages == [m for m in messages if m.startswith("ok   tiny[0]: ")]
    ok, comparisons, messages = validate.cross_validate(
        tier, ["tiny"], tolerance=0.0
    )
    assert not ok
    (line,) = messages
    assert line.startswith("FAIL tiny[0]: ")
    assert line.endswith("divergence above 0%")
    assert ("hot=[0] " in line) == (tier == "hybrid")


def test_unknown_scenarios_fail_before_anything_runs(monkeypatch):
    def no_runs(*args, **kwargs):
        raise AssertionError("a scenario ran before the names were checked")

    monkeypatch.setattr(validate, "compare", no_runs)
    # shard-incast256 is in the bench matrix but cannot be flipped to
    # another tier; the old default walked into it after minutes of work
    for name in ("shard-incast256", "flowsim-quick", "nosuch"):
        with pytest.raises(ValueError, match="quick, incast256, fattree-a2a"):
            validate.cross_validate("flow", ["quick", name])


def test_defaults_come_from_the_tier_table(monkeypatch):
    seen = []

    def canned(config, tier, scenario, index):
        seen.append((tier, scenario))
        assert config.fidelity == "packet"
        return validate.Comparison(
            tier, scenario, index, (), 1, 0, 0, 30.0, 1.0, 100, 112, 100, 112
        )

    monkeypatch.setattr(validate, "compare", canned)
    for tier, rule in validate.TIERS.items():
        seen.clear()
        ok, comparisons, messages = validate.cross_validate(tier)
        # every default scenario ran, on the registry's validation configs
        assert tuple(dict.fromkeys(name for _, name in seen)) == rule.scenarios
        assert {t for t, _ in seen} == {tier}
        assert len(comparisons) == sum(
            len(validate.validation_configs(name)) for name in rule.scenarios
        )
        # 12 % off: inside the fluid budget, outside the hybrid one
        assert ok == (tier == "flow")
        verdict = "ok   " if ok else "FAIL "
        assert all(m.startswith(verdict) for m in messages)
        assert set(rule.scenarios) <= set(validate.SCENARIOS)
        assert set(rule.scenario_tolerance) <= set(rule.scenarios)


def test_cli_defaults_are_the_tier_table(monkeypatch, capsys):
    from repro import cli

    calls = []

    def fake(tier, names, tolerance):
        calls.append((tier, tuple(names), tolerance))
        return True, [], ["ok   stub"]

    monkeypatch.setattr(validate, "cross_validate", fake)
    for tier, rule in validate.TIERS.items():
        assert cli.main([rule.command]) == 0
        assert calls[-1] == (tier, rule.scenarios, rule.tolerance)
    captured = capsys.readouterr()
    assert "validate-flowsim: PASS" in captured.err
    assert "validate-hybrid: PASS" in captured.err
    with pytest.raises(SystemExit):
        cli.main(["validate-hybrid", "--paranoid"])
