"""Closed-loop rpc: p999 request latency vs fan-out.

The request-level view of the incast problem: each client's request
fans out to N shard servers, the N responses collide at the client's
last hop, and the request completes only when the *slowest* response
lands — so request tail latency amplifies whatever the fabric does to
the straggler.  Under plain DCQCN the incast overruns the shared
buffer (drops + RTO-scale stalls); PFC keeps it lossless but spreads
HOL pressure; Floodgate meters the fan-in at the source so the p999
stays flat as the fan-out grows.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from repro.experiments.parallel import SweepTask, run_sweep
from repro.experiments.registry import get
from repro.units import MTU, ms

#: flow-control variants compared (cc stays dcqcn throughout, so the
#: "dcqcn" column is the congestion-control-only baseline)
SCHEMES = {
    "dcqcn": "none",
    "pfc-tag": "pfc-tag",
    "floodgate": "floodgate",
}
#: request fan-outs swept
FAN_OUTS = (4, 8, 12, 15)


def run(quick: bool = True) -> Dict:
    """Sweep fan-out x scheme; report p999 request latency + req/s.

    The responses are sized up from the bench scenario (60-80 MTU vs
    30-40) so a full fan-in burst overruns the 500 KB shared buffer —
    the regime where the schemes actually separate.  The 3 ms window
    completes 30-90 requests per cell at quick scale.
    """
    base = get("rpc-fanout").configs[0]
    base = replace(
        base,
        duration=ms(12) if not quick else ms(3),
        rpc=replace(
            base.rpc,
            response_size_min=60 * MTU,
            response_size_max=80 * MTU,
        ),
    )
    tasks = [
        SweepTask(
            key=(label, fan_out),
            config=replace(
                base,
                flow_control=fc,
                rpc=replace(base.rpc, fan_out=fan_out),
            ),
        )
        for label, fc in SCHEMES.items()
        for fan_out in FAN_OUTS
    ]
    results = run_sweep(tasks)

    out: Dict = {"fan_outs": list(FAN_OUTS)}
    for label in SCHEMES:
        out[label] = {
            fan_out: {
                "p999_us": round(results[(label, fan_out)].rpc_summary.p999_us, 1),
                "p99_us": round(results[(label, fan_out)].rpc_summary.p99_us, 1),
                "requests": results[(label, fan_out)].completed_requests,
                "requests_per_sec": round(
                    results[(label, fan_out)].requests_per_sec
                ),
            }
            for fan_out in FAN_OUTS
        }
    top = max(FAN_OUTS)
    fg = out["floodgate"][top]["p999_us"]
    out["floodgate_wins_p999_at_max_fanout"] = all(
        fg < out[label][top]["p999_us"]
        for label in SCHEMES
        if label != "floodgate"
    )
    return out
