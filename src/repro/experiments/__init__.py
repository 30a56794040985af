"""Experiment harness: scenario construction, runner, per-figure modules.

Every figure/table in the paper has a module under
``repro.experiments.figures`` that builds the right
:class:`ScenarioConfig`, runs it, and returns the rows/series the paper
reports.  Benchmarks under ``benchmarks/`` call those modules.

Importing the package loads none of them: the CLI parser reads its
choice lists from ``validate`` and ``figures.fault_sweep`` without
building a simulator.
"""

from repro.lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "scenario": ("Scale", "Scenario", "ScenarioConfig"),
        "runner": ("ScenarioResult", "run_scenario"),
        "parallel": ("ResultSummary", "SweepTask", "run_sweep", "summarize"),
    },
)
