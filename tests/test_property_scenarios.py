"""Property-based whole-network fuzzing.

Hypothesis drives small random traffic patterns through random
protocol stacks and checks the conservation invariants every correct
packet-level simulator must satisfy: exact delivery, no buffer leaks,
deterministic replay.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults import RandomLoss, plan_of
from repro.floodgate.config import FloodgateConfig
from repro.floodgate.extension import FloodgateExtension
from repro.units import ms, us
from tests.conftest import MiniNet, install


flows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=11),    # src
        st.integers(min_value=0, max_value=11),    # dst
        st.integers(min_value=100, max_value=80_000),   # size
        st.integers(min_value=0, max_value=100_000),    # start ns
    ),
    min_size=1,
    max_size=12,
)


def run_random(flow_specs, floodgate: bool, loss_pct: int = 0):
    net = MiniNet("leaf-spine")
    if floodgate:
        config = FloodgateConfig(credit_timer=us(2), syn_timeout=us(50))
        for sw in net.topo.switches:
            sw.install_extension(
                FloodgateExtension(net.sim, config, False, False, 64_000, 640_000)
            )
    if loss_pct:
        rate = loss_pct / 100.0
        install(
            net, plan_of(RandomLoss(data_rate=rate, ctrl_rate=rate)), seed=12345
        )
        for host in net.topo.hosts:
            host.rto = us(300)
    flows = []
    for i, (src, dst, size, start) in enumerate(flow_specs):
        if src == dst:
            dst = (dst + 1) % 12
        flows.append(net.flow(i, src, dst, size, start))
    net.run(ms(60))
    return net, flows


class TestConservationUnderFuzz:
    @given(flows=flows_strategy)
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_plain_network_conserves(self, flows):
        net, live = run_random(flows, floodgate=False)
        for f in live:
            assert f.receiver_done
            assert f.delivered_bytes == f.size
        assert net.all_buffers_empty()

    @given(flows=flows_strategy)
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_floodgate_network_conserves(self, flows):
        net, live = run_random(flows, floodgate=True)
        for f in live:
            assert f.receiver_done
            assert f.delivered_bytes == f.size
        assert net.all_buffers_empty()
        # no window leaks either: every window fully restored
        for sw in net.topo.switches:
            ext = sw.extension
            for dst, win in ext.windows.window.items():
                assert win == ext.windows.initial[dst]

    @given(flows=flows_strategy)
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_floodgate_with_loss_conserves(self, flows):
        net, live = run_random(flows, floodgate=True, loss_pct=5)
        for f in live:
            assert f.receiver_done
            assert f.delivered_bytes == f.size

    @given(flows=flows_strategy)
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_replay_determinism(self, flows):
        net1, _ = run_random(flows, floodgate=True)
        net2, _ = run_random(flows, floodgate=True)
        assert net1.sim.events_executed == net2.sim.events_executed
        fct1 = sorted(r.fct for r in net1.stats.fct_records)
        fct2 = sorted(r.fct for r in net2.stats.fct_records)
        assert fct1 == fct2
