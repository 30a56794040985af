"""Floodgate: switch-based per-hop, per-destination flow control.

The paper's contribution (§3-§4).  Installed on switches as a
:class:`~repro.net.switch.SwitchExtension`:

* a per-destination *sending window* tames traffic toward destinations
  whose credits return slowly (the incast signature);
* credits are generated by the downstream switch as data departs, and
  (in the practical design) aggregated on a per-ingress-port timer
  ``T`` with a *delayCredit* threshold;
* identified incast traffic is isolated in dynamically-allocated
  Virtual Output Queues (bitmap allocation, CRC-hash fallback, up/down
  grouping for deadlock freedom);
* PSN sequence numbers plus a *switchSYN* probe recover lost
  windows after data/credit loss (§4.3);
* the optional per-dst PAUSE (``dstPause``/``dstResume``) extends flow
  control one hop into the source hosts.
"""

from repro.lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "config": ("FloodgateConfig",),
        "extension": ("FloodgateExtension",),
        "voq": ("Voq", "VoqPool"),
        "window": ("WindowTable",),
    },
)
