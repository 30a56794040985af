"""Network model: packets, links, ports, switches, hosts, topologies.

This package is the NS-3-equivalent substrate: store-and-forward links
with serialization and propagation delay, output-queued switches with a
shared buffer, dynamic-threshold PFC, RED/ECN marking, and hosts with
rate-limited NICs.
"""

from repro.lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "packet": ("Packet", "PacketKind"),
        "link": ("Link",),
        "port": ("EgressPort",),
        "buffer": ("SharedBuffer",),
        "node": ("Node",),
        "switch": ("Switch", "SwitchExtension"),
        "host": ("Host",),
        "topology": (
            "PortRole", "Topology", "build_dumbbell", "build_leaf_spine", "build_fat_tree",
            "build_testbed",
        ),
    },
)
