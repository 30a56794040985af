#!/usr/bin/env python3
"""Library-level API: build a custom network by hand.

Skips the experiment harness entirely and uses the core classes
directly — the way you would embed the simulator in your own study:

* a hand-built asymmetric topology (two small racks, one big one),
* DCQCN hosts,
* Floodgate installed only on the switches you choose,
* hand-scheduled flows and direct access to every component's state.

Run:  python examples/custom_topology.py
"""

from repro.cc import Dcqcn
from repro.floodgate import FloodgateConfig, FloodgateExtension
from repro.net import Host, Switch, Topology
from repro.net.topology import PortRole
from repro.sim import Simulator
from repro.stats import FlowClass, StatsHub
from repro.units import gbps, kb, mb, ms, us


def main() -> None:
    sim = Simulator()
    stats = StatsHub()
    flow_table = {}
    cc = Dcqcn(line_rate=gbps(10), swnd_bytes=kb(35), base_rtt=us(16))

    topo = Topology(sim)
    topo.flow_table = flow_table

    # --- switches: one spine, three ToRs of different sizes ------------
    spine = Switch(sim, 1_000_000, "spine", mb(1), kind="core", stats=stats)
    spine.level = 1
    tors = []
    for t in range(3):
        tor = Switch(sim, 1_000_001 + t, f"tor{t}", mb(1), kind="tor", stats=stats)
        tor.level = 0
        tors.append(tor)
    topo.switches.extend([spine, *tors])

    # --- hosts: rack sizes 2, 2, and 6 ---------------------------------
    rack_sizes = [2, 2, 6]
    host_id = 0
    for tor, size in zip(tors, rack_sizes, strict=True):
        for _ in range(size):
            host = Host(sim, host_id, f"h{host_id}", cc, flow_table, stats=stats)
            topo.hosts.append(host)
            topo.connect(
                tor, host, gbps(10), 3_000,
                role_a=PortRole.TOR_DOWN, role_b=PortRole.HOST_UP,
            )
            host_id += 1
        topo.connect(
            tor, spine, gbps(25), 500,
            role_a=PortRole.TOR_UP, role_b=PortRole.CORE,
        )
    topo.finalize()

    # --- Floodgate on every switch --------------------------------------
    # base BDP 20 KB: dstPause off/on at 20/10 KB, delayCredit at 2 BDP
    config = FloodgateConfig(credit_timer=us(2))
    extensions = []
    for sw in topo.switches:
        ext = FloodgateExtension(sim, config, False, False, kb(20), 2 * kb(20))
        sw.install_extension(ext)
        extensions.append(ext)

    # --- traffic: the big rack's hosts gang up on host 0 ----------------
    fid = 0
    for src in range(4, 10):
        flow = topo.make_flow(fid, src, 0, 35_000, start_time=0)
        topo.start_flow(flow)
        stats.register_flow_class(fid, FlowClass.INCAST)
        fid += 1
    # one innocent cross-rack flow sharing the spine
    victim = topo.make_flow(fid, 2, 1, 60_000, start_time=0)
    topo.start_flow(victim)

    sim.run(until=ms(10))

    print("flow completion:")
    for flow in flow_table.values():
        kind = "victim" if flow is victim else "incast"
        print(
            f"  flow {flow.flow_id} ({kind:6s}) {flow.src}->{flow.dst}"
            f"  {flow.size:6d} B  fct={flow.finish_time / 1000:8.1f} us"
        )
    print()
    print("floodgate state after the storm:")
    for sw, ext in zip(topo.switches, extensions, strict=True):
        print(
            f"  {sw.name:6s} max VOQs used={ext.pool.max_in_use}"
            f"  credits sent={ext.credits.credits_sent}"
            f"  max buffer={sw.buffer.max_used / 1000:.1f} KB"
        )


if __name__ == "__main__":
    main()
