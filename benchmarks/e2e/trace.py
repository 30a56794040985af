"""The traced pass: per-module self time and call counts from cProfile.

A pass makes ~10^6 calls, so calls are not recorded as spans; the pass
runs under ``cProfile`` (enabled from this file, around the same
``Runner.execute`` the timed passes use) and ``tottime`` is folded by
source module into ``<layer>.self_s``.  Functions outside ``repro`` —
C built-ins such as ``heappush``, stdlib helpers such as
``random.expovariate`` — are charged to the ``repro`` module that
called them, through the profile's caller table; what no ``repro``
caller explains (the harness itself) is ``trace.unattributed_s``.

A second pass runs with an ``EngineProfiler`` on the public
``Simulator.set_profiler`` slot for the heap depth.  Neither pass
feeds an end-to-end number.
"""

from __future__ import annotations

import cProfile
import importlib
import pstats
import time
from typing import Any, Dict, List, Optional, Tuple

#: metric -> (module, function names) whose ``ncalls`` it sums.  A name
#: that no longer exists yields 0 and is listed under ``missing``.
CALL_COUNTS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "net.switch.receive_calls": ("net.switch", ("receive",)),
    "net.port.enqueue_calls": ("net.port", ("enqueue", "enqueue_control")),
    "net.link.deliver_calls": ("net.link", ("deliver",)),
    "net.host.receive_calls": ("net.host", ("receive",)),
    "net.buffer.admit_calls": ("net.buffer", ("admit",)),
    "cc.on_ack_calls": ("cc.dcqcn", ("on_ack",)),
    "cc.on_cnp_calls": ("cc.dcqcn", ("on_cnp",)),
    "floodgate.on_data_calls": ("floodgate.extension", ("on_data",)),
    "stats.record_calls": (
        "stats.collector",
        (
            "record_fct",
            "record_rpc",
            "record_queuing",
            "record_switch_buffer",
            "record_port_buffer",
            "record_pfc_pause",
            "record_pfc_event",
            "record_drop",
            "record_tx",
            "record_rx",
        ),
    ),
    "flowsim.maxmin_calls": ("flowsim.maxmin", ("max_min_rates",)),
    # max_min_rates freezes every flow exactly once per call (`freeze`
    # is nested in it, so only the profiler can see it)
    "flowsim.maxmin_flow_visits": ("flowsim.maxmin", ("freeze",)),
}

#: modules reported on their own; every other module rolls up into its
#: top-level package (``cc``, ``floodgate``, ``stats``, ...)
OWN_LAYER = {
    "sim.engine",
    "sim.process",
    "sim.sharded",
    "net.port",
    "net.switch",
    "net.link",
    "net.host",
    "net.buffer",
    "net.packet",
    "net.topology",
}


def module_of(filename: str) -> Optional[str]:
    """``.../src/repro/net/port.py`` -> ``net.port``; None outside repro."""
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0 or not filename.endswith(".py"):
        return None
    return filename[at + len(marker) : -3].replace("/", ".").removesuffix(".__init__")


def layer_of(module: str) -> str:
    if module in OWN_LAYER:
        return "sharded" if module == "sim.sharded" else module
    return module.split(".", 1)[0]


def fold(stats: Dict[tuple, tuple]) -> Tuple[Dict[str, float], float]:
    """Per-module self seconds and the seconds no repro module explains."""
    owner: Dict[tuple, Optional[Dict[str, float]]] = {}

    def shares(func: tuple, depth: int = 0) -> Dict[str, float]:
        """Which repro modules a non-repro function's time belongs to."""
        module = module_of(func[0])
        if module is not None:
            return {module: 1.0}
        if func in owner:
            return owner[func] or {}
        owner[func] = None  # cycle guard
        callers = stats[func][4] if func in stats else {}
        total = sum(c[2] for c in callers.values())
        out: Dict[str, float] = {}
        if total > 0 and depth < 8:
            for caller, (_cc, _nc, tt, _ct) in callers.items():
                for mod, share in shares(caller, depth + 1).items():
                    out[mod] = out.get(mod, 0.0) + share * tt / total
        owner[func] = out
        return out

    per_module: Dict[str, float] = {}
    unattributed = 0.0
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        split = shares(func)
        explained = 0.0
        for mod, share in split.items():
            per_module[mod] = per_module.get(mod, 0.0) + tt * share
            explained += share
        unattributed += tt * max(1.0 - explained, 0.0)
    return per_module, unattributed


def _defined(module: str, name: str) -> bool:
    """Does ``repro.<module>`` still define a function or method ``name``?"""
    try:
        mod = importlib.import_module(f"repro.{module}")
    except ImportError:
        return False
    scopes = [vars(mod)] + [vars(v) for v in vars(mod).values() if isinstance(v, type)]
    return any(callable(scope.get(name)) for scope in scopes)


def call_counts(stats: Dict[tuple, tuple]) -> Tuple[Dict[str, int], List[str]]:
    """``ncalls`` per CALL_COUNTS metric, and the metrics whose functions are gone."""
    seen: Dict[Tuple[str, str], int] = {}
    for (filename, _line, name), (_cc, nc, *_rest) in stats.items():
        module = module_of(filename)
        if module is not None:
            seen[(module, name)] = seen.get((module, name), 0) + nc
    counts: Dict[str, int] = {}
    missing: List[str] = []
    for metric, (module, names) in CALL_COUNTS.items():
        counts[metric] = sum(seen.get((module, n), 0) for n in names)
        if metric != "flowsim.maxmin_flow_visits" and not any(
            (module, n) in seen or _defined(module, n) for n in names
        ):
            missing.append(metric)
    return counts, missing


def traced_passes(runner, configs: list) -> Dict[str, Any]:
    from benchmarks.e2e.workloads import reference_config

    workload = runner.workload
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    try:
        for i, cfg in enumerate(configs):
            runner.execute(i, cfg, "traced")
    finally:
        profile.disable()
    traced_wall = time.perf_counter() - start
    stats = pstats.Stats(profile).stats
    per_module, unattributed = fold(stats)
    layers: Dict[str, float] = {}
    for module, seconds in per_module.items():
        layer = layer_of(module)
        layers[layer] = layers.get(layer, 0.0) + seconds
    counts, missing = call_counts(stats)

    # the process-sharded parent executes no events itself: read the
    # heap depth off the serial twin, which runs the same schedule
    depth = 0
    for i, cfg in enumerate(configs):
        if workload.reference == "serial":
            cfg = reference_config(workload, cfg)
        record = runner.execute(i, cfg, "engine", engine_profile=True)
        if record is not None:
            depth = max(depth, record["max_heap_depth"])
    return {
        "traced_wall_s": traced_wall,
        "self_s": layers,
        "maxmin_s": per_module.get("flowsim.maxmin", 0.0),
        "unattributed_s": unattributed,
        "calls": counts,
        "missing": missing,
        "max_heap_depth": depth,
    }
