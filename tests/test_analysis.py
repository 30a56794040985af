"""Analytical models vs. simulator measurements.

The paper's central analytical claim (proved in its online appendix):
DCQCN's incast buffer grows with the flow count; Floodgate's is
bounded by per-path windows, independent of flows.  These tests check
both the closed forms themselves and that the simulator respects them.
"""

import pytest
from hypothesis import given, strategies as st

from repro.analysis import (
    credit_overhead_share,
    dcqcn_incast_buffer_bound,
    floodgate_core_buffer_bound,
    floodgate_dst_buffer_bound,
    floodgate_window_bytes,
    hop_bdp_bytes,
    ideal_window_bytes,
)
from repro.analysis.models import hop_rtt_ns
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.units import CTRL_PKT_SIZE, MTU, SEC, gbps, serialization_delay, us


class TestClosedForms:
    def test_hop_bdp_matches_hand_computation(self):
        # 40 Gbps, 500 ns each way, 1000 B data + 64 B credit
        # serialization (200 + 12.8 ns): rtt ~ 1.2128 us -> ~6 KB
        bdp = hop_bdp_bytes(gbps(40), 500)
        assert 5_500 <= bdp <= 6_500

    @pytest.mark.parametrize(
        "bw", [1e6, 1e8, 1e9, gbps(10), gbps(25), gbps(40), gbps(100), gbps(400)]
    )
    @pytest.mark.parametrize("delay", [0, 100, 500, 1_000, 5_000, 10_000, 50_000])
    def test_window_packets_equal_the_spelled_out_form(self, bw, delay):
        """``FloodgateExtension._initial_window``'s BDP term as it was
        spelled before it was built on ``hop_bdp_bytes``: same packets."""
        rtt = (
            2 * delay
            + serialization_delay(MTU, bw)
            + serialization_delay(CTRL_PKT_SIZE, bw)
        )
        assert hop_rtt_ns(bw, delay) == rtt
        spelled_out = max(1, -(-int(bw * rtt / (8 * SEC)) // MTU))
        assert -(-hop_bdp_bytes(bw, delay) // MTU) == spelled_out

    def test_window_grows_with_timer(self):
        w1 = floodgate_window_bytes(gbps(40), 500, us(1))
        w10 = floodgate_window_bytes(gbps(40), 500, us(10))
        assert w10 - w1 == pytest.approx(
            gbps(40) * us(9) / 8e9, rel=0.01
        )

    def test_ideal_window_independent_of_timer(self):
        w = ideal_window_bytes(gbps(40), 500, m=1.5)
        assert w == pytest.approx(1.5 * hop_bdp_bytes(gbps(40), 500), abs=1)

    def test_paper_scale_windows(self):
        """At 400 Gbps / 600 ns / T=10 us the practical window is
        ~0.5 MB-plus and dominated by C*T — the paper's regime."""
        w = floodgate_window_bytes(gbps(400), 600, us(10))
        ct = gbps(400) * us(10) / 8e9
        assert w > ct
        assert w - ct < 0.3 * ct  # BDP part is the minority

    def test_dcqcn_bound_proportional_to_flows(self):
        b1 = dcqcn_incast_buffer_bound(10, 35_000, 35_000, gbps(40), gbps(10))
        b2 = dcqcn_incast_buffer_bound(20, 35_000, 35_000, gbps(40), gbps(10))
        assert b2 == 2 * b1

    def test_dcqcn_bound_zero_when_not_bottlenecked(self):
        assert (
            dcqcn_incast_buffer_bound(10, 35_000, 35_000, gbps(10), gbps(40))
            == 0
        )

    def test_floodgate_dst_bound_flow_independent(self):
        b = floodgate_dst_buffer_bound(gbps(40), 500, us(2))
        assert b == floodgate_window_bytes(gbps(40), 500, us(2))

    def test_credit_share_falls_with_timer(self):
        s1 = credit_overhead_share(gbps(40), us(1))
        s10 = credit_overhead_share(gbps(40), us(10))
        assert s10 < s1 < 0.02

    def test_paper_scale_credit_share(self):
        # 400G, T=10us: 64 B per 500 KB ~ 0.013% per destination —
        # consistent with the paper's "0.175% of bandwidth" total
        share = credit_overhead_share(gbps(400), us(10))
        assert share < 0.001

    @given(
        n=st.integers(min_value=1, max_value=500),
        swnd=st.integers(min_value=1_000, max_value=100_000),
    )
    def test_dcqcn_bound_monotone_in_flows_and_window(self, n, swnd):
        base = dcqcn_incast_buffer_bound(n, swnd, 10**9, gbps(40), gbps(10))
        more_flows = dcqcn_incast_buffer_bound(
            n + 1, swnd, 10**9, gbps(40), gbps(10)
        )
        bigger_window = dcqcn_incast_buffer_bound(
            n, swnd + 1_000, 10**9, gbps(40), gbps(10)
        )
        assert more_flows >= base
        assert bigger_window >= base


class TestSimulatorRespectsBounds:
    def _incast_run(self, flow_control: str, n_tors: int = 4):
        # Fig. 14's traffic: one all-to-one burst (the burst interval
        # exceeds the duration) from every host outside rack 0
        cfg = ScenarioConfig(
            pattern="incast",
            incast_dst=0,
            flow_control=flow_control,
            n_tors=n_tors,
            hosts_per_tor=4,
            duration=200_000,
            max_runtime_factor=60.0,
        )
        result = run_scenario(cfg)
        assert result.total_flows == (n_tors - 1) * 4
        return result.scenario, result, result.total_flows

    def test_dcqcn_within_analytic_bound(self):
        sc, result, n_flows = self._incast_run("none")
        cfg = sc.config
        bound = dcqcn_incast_buffer_bound(
            n_flows,
            sc.cc.swnd_bytes,
            40_000,
            cfg.fabric_bandwidth,
            cfg.host_bandwidth,
        )
        measured = result.stats.max_port_buffer_by_role("tor-down")
        assert measured <= bound * 1.1
        # and the bound is not vacuous: within ~4x of the measurement
        assert measured >= bound / 4

    def test_floodgate_dst_within_analytic_bound(self):
        sc, result, _ = self._incast_run("floodgate")
        cfg = sc.config
        ext = sc.extensions[0]
        bound = floodgate_dst_buffer_bound(
            cfg.fabric_bandwidth,
            cfg.link_delay,
            ext.config.credit_timer,
            n_core_paths=1,  # per-dst ECMP: one spine serves the dst
        )
        measured = result.stats.max_port_buffer_by_role("tor-down")
        # generous slack for packets in flight / rounding to packets
        assert measured <= 3 * bound + 3_000

    def test_floodgate_core_within_analytic_bound(self):
        sc, result, _ = self._incast_run("floodgate", n_tors=6)
        cfg = sc.config
        ext = sc.extensions[0]
        bound = floodgate_core_buffer_bound(
            n_source_tors=5,
            tor_bandwidth=cfg.fabric_bandwidth,
            tor_link_delay=cfg.link_delay,
            credit_timer=ext.config.credit_timer,
            delay_credit_bytes=ext.credits.threshold,
        )
        measured = result.stats.max_port_buffer_by_role("core")
        assert measured <= bound * 1.5

    def test_flow_count_scaling_contrast(self):
        """The paper's headline: DCQCN scales with flows, Floodgate
        does not."""
        _, small_d, n_small = self._incast_run("none", n_tors=3)
        _, large_d, n_large = self._incast_run("none", n_tors=6)
        _, small_f, _ = self._incast_run("floodgate", n_tors=3)
        _, large_f, _ = self._incast_run("floodgate", n_tors=6)
        d_growth = (
            large_d.stats.max_port_buffer_by_role("tor-down")
            / small_d.stats.max_port_buffer_by_role("tor-down")
        )
        f_growth = (
            large_f.stats.max_port_buffer_by_role("tor-down")
            / max(small_f.stats.max_port_buffer_by_role("tor-down"), 1)
        )
        assert n_large > n_small
        assert d_growth > 1.2       # grows with flows
        assert f_growth < 1.2       # flow-count independent
