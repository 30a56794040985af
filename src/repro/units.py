"""Unit helpers and global constants.

The simulator runs on an integer-nanosecond clock.  All helpers in this
module convert human-friendly quantities (Gbps, microseconds, kilobytes)
into the internal representation:

* time      -- integer nanoseconds (``int``)
* bandwidth -- bits per second (``float``; only ever multiplied/divided)
* sizes     -- bytes (``int``)

Keeping these conversions in one place avoids the classic simulator bug
of mixing microseconds with nanoseconds or bits with bytes.
"""

from __future__ import annotations

# --- time ------------------------------------------------------------------

NS = 1
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000


def ns(value: float) -> int:
    """Nanoseconds to internal time."""
    return int(round(value))


def us(value: float) -> int:
    """Microseconds to internal time."""
    return int(round(value * US))


def ms(value: float) -> int:
    """Milliseconds to internal time."""
    return int(round(value * MS))


def seconds(value: float) -> int:
    """Seconds to internal time."""
    return int(round(value * SEC))


# --- bandwidth --------------------------------------------------------------

KBPS = 1e3
MBPS = 1e6
GBPS = 1e9


def gbps(value: float) -> float:
    """Gigabits per second to bits per second."""
    return value * GBPS


# --- sizes ------------------------------------------------------------------

BYTE = 1
KB = 1_000
MB = 1_000_000

#: Default maximum transmission unit in bytes.  The paper uses 1 KB MTU
#: for window math ("30 MTU to 40 MTU" incast flows) and 1.5 KB for the
#: NDP comparison; configs override as needed.
MTU = 1_000

#: Size of control packets (ACK, CNP, credit, pause) in bytes.  64 B is
#: the minimum Ethernet frame and matches what NS-3 RoCE models use.
CTRL_PKT_SIZE = 64


def kb(value: float) -> int:
    """Kilobytes to bytes."""
    return int(round(value * KB))


def mb(value: float) -> int:
    """Megabytes to bytes."""
    return int(round(value * MB))


# --- derived quantities ------------------------------------------------------


def serialization_delay(size_bytes: int, bandwidth_bps: float) -> int:
    """Time to clock ``size_bytes`` onto a link of ``bandwidth_bps``."""
    return int(round(size_bytes * 8 * SEC / bandwidth_bps))


def bdp_bytes(bandwidth_bps: float, rtt_ns: int) -> int:
    """Bandwidth-delay product in bytes for a given RTT."""
    return int(round(bandwidth_bps * rtt_ns / (8 * SEC)))


def bdp_packets(bandwidth_bps: float, rtt_ns: int) -> int:
    """Bandwidth-delay product in MTU-sized packets (at least 1)."""
    return max(1, -(-bdp_bytes(bandwidth_bps, rtt_ns) // MTU))
