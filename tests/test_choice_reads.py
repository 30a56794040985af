"""Every choice row names the ``ScenarioConfig`` fields it reads.

One rule in ``ScenarioConfig.__post_init__`` rejects a field that some
row of a table reads but the selected row does not, so a knob set under
a fabric, pattern, tier, CC law or scheme that never reads it fails at
construction instead of being dropped.  These tests hold the rows to
the code: the builder's keywords, the traffic functions' reads, and
each (field, row) pair of every table.
"""

from dataclasses import replace
import inspect

import pytest

from repro.experiments import Scenario, ScenarioConfig, registry
from repro.experiments.choices import FABRICS, FIDELITIES, FLOW_CONTROLS, PATTERNS, load
from repro.experiments.scenario import _CC_LAWS, _ECN
from repro.floodgate.config import FloodgateConfig
from repro.rpc.spec import RpcWorkloadSpec
from repro.units import gbps, us

#: a legal value for every field a row reads, neither the field's
#: default nor what ``resolved()`` fills in at CI scale
VALUES = dict(
    hot_racks=(0,),
    n_spines=3,
    n_tors=7,
    hosts_per_tor=3,
    fat_tree_k=6,
    hosts_per_edge=3,
    host_bandwidth=gbps(25),
    fabric_bandwidth=gbps(50),
    link_delay=700,
    host_link_delay=7_000,
    ecn_kmin=20_000,
    ecn_kmax=90_000,
    per_dst_pause=True,
    delay_credit_bdp=3.0,
    floodgate=FloodgateConfig(credit_timer=us(5)),
    bfc_queues=4,
    workload="webserver",
    poisson_load=0.5,
    incast_load=0.9,
    incast_fan_in=5,
    incast_dst=1,
    rpc=RpcWorkloadSpec(),
)

#: choice field -> {value: the fields its row reads}
TABLES = {
    "fidelity": {v: row.reads for v, row in FIDELITIES.items()},
    "topology": {v: row.reads for v, row in FABRICS.items()},
    "cc": {v: _ECN if law().reads_ecn else () for v, law in _CC_LAWS.items()},
    "flow_control": {v: row.reads for v, row in FLOW_CONTROLS.items()},
    "pattern": {v: row.reads for v, row in PATTERNS.items()},
}

#: what a row cannot be built without
REQUIRED = {("pattern", "rpc"): dict(rpc=RpcWorkloadSpec())}


def _pairs():
    for choice, rows in TABLES.items():
        fields = dict.fromkeys(f for reads in rows.values() for f in reads)
        for field in fields:
            for value, reads in rows.items():
                yield pytest.param(
                    choice, value, field, field in reads, id=f"{choice}={value}-{field}"
                )


def test_every_read_field_has_a_probe_value():
    read = {f for rows in TABLES.values() for reads in rows.values() for f in reads}
    assert read == set(VALUES)
    for field, value in VALUES.items():
        assert value != ScenarioConfig.__dataclass_fields__[field].default
        assert value != getattr(ScenarioConfig().resolved(), field)


@pytest.mark.parametrize("choice, value, field, reads", _pairs())
def test_a_field_constructs_exactly_under_a_row_that_reads_it(choice, value, field, reads):
    kwargs = {choice: value, **REQUIRED.get((choice, value), {}), field: VALUES[field]}
    if reads:
        assert getattr(ScenarioConfig(**kwargs), field) == VALUES[field]
    else:
        with pytest.raises(
            ValueError, match=f"^{field} is set, but {choice}={value!r} does not read it$"
        ):
            ScenarioConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(topology="testbed", n_tors=7), "n_tors is set, but topology='testbed'"),
        (dict(topology="fat-tree", n_tors=8), "n_tors is set, but topology='fat-tree'"),
        (dict(topology="dumbbell", host_link_delay=9_000), "host_link_delay is set, but topology='dumbbell'"),
        (dict(pattern="poisson", incast_load=0.9), "incast_load is set, but pattern='poisson'"),
        (dict(pattern="incast", workload="webserver"), "workload is set, but pattern='incast'"),
        (dict(hot_racks=(0,)), "hot_racks is set, but fidelity='packet'"),
        (dict(rpc=RpcWorkloadSpec()), "rpc is set, but pattern='incastmix'"),
    ],
)
def test_a_field_the_chosen_rows_ignore_fails_at_construction(kwargs, message):
    # each of these used to build and drop the field without a word:
    # the testbed is 6 hosts whatever n_tors says
    with pytest.raises(ValueError, match=message):
        ScenarioConfig(**kwargs)


def test_a_resolved_config_constructs_again():
    # resolved() fills every size field at the scale's default, read or
    # not, and callers replace() fields of the resolved config
    configs = [cfg for name in registry.names() for cfg in registry.get(name).configs]
    configs += [ScenarioConfig(topology=t, pattern="none") for t in FABRICS]
    for cfg in configs:
        resolved = cfg.resolved()
        assert replace(resolved).resolved() == resolved


@pytest.mark.parametrize("topology", sorted(FABRICS))
def test_a_builder_takes_exactly_its_rows_reads(topology):
    row = FABRICS[topology]
    params = list(inspect.signature(load(row.build)).parameters.values())
    assert [p.name for p in params[:3]] == ["sim", "host_factory", "switch_factory"]
    assert tuple(p.name for p in params[3:]) == row.reads
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[3:])


def test_a_one_host_per_side_dumbbell_builds_two_hosts():
    # the dumbbell row used to raise hosts_per_tor to 2 without a word
    sc = Scenario(ScenarioConfig(topology="dumbbell", hosts_per_tor=1, pattern="poisson"))
    assert len(sc.topology.hosts) == 2


class _Recording:
    """A config whose attribute reads are recorded."""

    def __init__(self, config):
        self.__dict__.update(_config=config, read=set())

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._config, name)


#: what every pattern may read besides its row's ``reads``: the run's
#: length and seed, and the line rate its loads are fractions of
RUN_WIDE = {"duration", "seed", "host_bandwidth"}


@pytest.mark.parametrize("pattern", [p for p, row in PATTERNS.items() if row.traffic])
def test_a_traffic_function_reads_only_its_rows_fields(pattern):
    cfg = ScenarioConfig(pattern=pattern, duration=50_000, **REQUIRED.get(("pattern", pattern), {}))
    sc = Scenario(cfg)
    sc.config = recording = _Recording(sc.config)
    load(PATTERNS[pattern].traffic)(sc)
    # no more than the row says (and the row claims no field it ignores)
    assert recording.read - RUN_WIDE == set(PATTERNS[pattern].reads)
