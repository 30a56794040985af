"""Measurement infrastructure: FCT, buffers, PFC, queueing, bandwidth."""

from repro.stats.collector import NON_INCAST, FlowClass, FlowSelector, StatsHub
from repro.stats.fct import FctRecord, FctSummary, summarize_fct
from repro.stats.rpc import RpcRecord, RpcSummary, requests_per_sec, summarize_rpc

__all__ = [
    "FlowClass",
    "FlowSelector",
    "NON_INCAST",
    "StatsHub",
    "FctRecord",
    "FctSummary",
    "summarize_fct",
    "RpcRecord",
    "RpcSummary",
    "summarize_rpc",
    "requests_per_sec",
]
