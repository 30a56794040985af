"""Unified observability: periodic samplers, streaming histograms,
engine profiling, and the run export built from them and the stats hub.

Opt in per run via ``ScenarioConfig(telemetry=TelemetryConfig())``;
the resulting :class:`TelemetryExport` rides on
``ScenarioResult.telemetry`` / ``ResultSummary.telemetry``, survives
the process pool and the sweep cache byte-identically, and renders
with the ``report`` CLI subcommand.
"""

from repro.telemetry.export import TelemetryExport
from repro.telemetry.profile import EngineProfiler
from repro.telemetry.recorder import TelemetryRecorder
from repro.telemetry.report import render_export
from repro.telemetry.registry import Histogram, TelemetryConfig
from repro.telemetry.samplers import GaugeSampler, PeriodicSampler, RateSampler

__all__ = [
    "EngineProfiler",
    "GaugeSampler",
    "Histogram",
    "PeriodicSampler",
    "RateSampler",
    "TelemetryConfig",
    "TelemetryExport",
    "TelemetryRecorder",
    "render_export",
]
