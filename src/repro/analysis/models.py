"""Closed-form buffer and overhead models.

All formulas take explicit parameters (no globals) and return bytes or
dimensionless shares, so they can be checked against both the paper's
reported configurations and this reproduction's scaled-down ones.
"""

from __future__ import annotations

from repro.units import CTRL_PKT_SIZE, MTU, SEC, serialization_delay


def hop_rtt_ns(bandwidth: float, link_delay: int, mtu: int = MTU) -> int:
    """Round trip between adjacent switches: both propagation
    directions plus the data and credit serialization times — the time
    between forwarding a packet and being able to see its credit (§3.2).
    """
    return (
        2 * link_delay
        + serialization_delay(mtu, bandwidth)
        + serialization_delay(CTRL_PKT_SIZE, bandwidth)
    )


def hop_bdp_bytes(bandwidth: float, link_delay: int, mtu: int = MTU) -> int:
    """One-hop bandwidth-delay product between adjacent switches."""
    hop_rtt = hop_rtt_ns(bandwidth, link_delay, mtu)
    return max(1, int(bandwidth * hop_rtt / (8 * SEC)))


def floodgate_window_bytes(
    bandwidth: float, link_delay: int, credit_timer: int, mtu: int = MTU
) -> int:
    """Practical design's initial window: ``BDP_nextHop + C_out * T`` (§4.2)."""
    timer_bytes = int(bandwidth * credit_timer / (8 * SEC))
    return hop_bdp_bytes(bandwidth, link_delay, mtu) + timer_bytes


def ideal_window_bytes(
    bandwidth: float, link_delay: int, m: float = 1.5, mtu: int = MTU
) -> int:
    """Strawman design's initial window: ``m * BDP_nextHop`` (§3.2)."""
    return int(m * hop_bdp_bytes(bandwidth, link_delay, mtu) + 0.5)


def dcqcn_incast_buffer_bound(
    n_flows: int,
    swnd_bytes: int,
    flow_bytes: int,
    arrival_bandwidth: float,
    drain_bandwidth: float,
) -> int:
    """Destination-side buffer bound for window-limited incast, no
    in-network flow control.

    Every flow can inject ``min(swnd, flow_size)`` before any
    congestion signal returns; the aggregation point drains at the
    destination link rate while the burst arrives at the fabric rate,
    so a ``1 - drain/arrival`` fraction of the burst must queue.  This
    is the "proportional to the number of flows" term of the paper's
    analysis.
    """
    burst = n_flows * min(swnd_bytes, flow_bytes)
    if arrival_bandwidth <= drain_bandwidth:
        return 0
    fraction = 1.0 - drain_bandwidth / arrival_bandwidth
    return int(burst * fraction)


def floodgate_dst_buffer_bound(
    core_bandwidth: float,
    core_link_delay: int,
    credit_timer: int,
    n_core_paths: int = 1,
    mtu: int = MTU,
) -> int:
    """Destination-ToR buffer bound under Floodgate.

    The last hop holds at most what its upstream cores may have in
    flight: one sending window per core path toward this destination —
    *independent of the flow count* (the paper's headline bound,
    "proportional to the number of core switches").
    """
    window = floodgate_window_bytes(
        core_bandwidth, core_link_delay, credit_timer, mtu
    )
    return n_core_paths * window


def floodgate_core_buffer_bound(
    n_source_tors: int,
    tor_bandwidth: float,
    tor_link_delay: int,
    credit_timer: int,
    delay_credit_bytes: int,
    mtu: int = MTU,
) -> int:
    """Core-switch occupancy bound under Floodgate.

    Each source ToR can have one window in flight toward the core, and
    the core's own VOQ is allowed to refill while it stays under the
    delayCredit threshold.
    """
    window = floodgate_window_bytes(
        tor_bandwidth, tor_link_delay, credit_timer, mtu
    )
    return n_source_tors * window + delay_credit_bytes


def credit_overhead_share(
    bandwidth: float,
    credit_timer: int,
    active_destinations: int = 1,
    mtu: int = MTU,
) -> float:
    """Worst-case credit-bandwidth share of the practical design (§7.4).

    A saturated port emits one ``CTRL_PKT_SIZE`` credit per active
    destination per timer period, against ``C * T`` data bytes.
    """
    data_bytes_per_period = bandwidth * credit_timer / (8 * SEC)
    credit_bytes = CTRL_PKT_SIZE * active_destinations
    if data_bytes_per_period <= 0:
        return 0.0
    return credit_bytes / (credit_bytes + data_bytes_per_period)
