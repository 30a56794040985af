"""Unified observability: periodic samplers, streaming histograms,
engine profiling, and the run export built from them and the stats hub.

Opt in per run via ``ScenarioConfig(telemetry=TelemetryConfig())``;
the resulting :class:`TelemetryExport` rides on
``ScenarioResult.telemetry`` / ``ResultSummary.telemetry``, survives
the process pool and the sweep cache byte-identically, and renders
with the ``report`` CLI subcommand.  A run without telemetry loads
none of the recorder, the samplers, the export or the report.
"""

from repro.lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "profile": ("EngineProfiler",),
        "samplers": ("GaugeSampler", "PeriodicSampler", "RateSampler"),
        "registry": ("Histogram", "TelemetryConfig"),
        "export": ("TelemetryExport",),
        "recorder": ("TelemetryRecorder",),
        "report": ("render_export",),
    },
)
