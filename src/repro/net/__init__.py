"""Network model: packets, links, ports, switches, hosts, topologies.

This package is the NS-3-equivalent substrate: store-and-forward links
with serialization and propagation delay, output-queued switches with a
shared buffer, dynamic-threshold PFC, RED/ECN marking, and hosts with
rate-limited NICs.
"""

from repro.net.packet import Packet, PacketKind
from repro.net.link import Link
from repro.net.port import EgressPort
from repro.net.buffer import SharedBuffer
from repro.net.node import Node
from repro.net.switch import Switch, SwitchExtension
from repro.net.host import Host
from repro.net.topology import (
    PortRole,
    Topology,
    build_dumbbell,
    build_fat_tree,
    build_leaf_spine,
    build_testbed,
)

__all__ = [
    "Packet",
    "PacketKind",
    "Link",
    "EgressPort",
    "SharedBuffer",
    "Node",
    "Switch",
    "SwitchExtension",
    "Host",
    "PortRole",
    "Topology",
    "build_dumbbell",
    "build_leaf_spine",
    "build_fat_tree",
    "build_testbed",
]
