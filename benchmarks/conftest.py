"""Benchmark helpers.

Every benchmark reproduces one paper figure/table at bench (quick)
scale: it runs the figure module once under pytest-benchmark timing,
prints the rows/series the paper reports, and asserts the result's
*shape* (who wins, direction of effects) — not absolute numbers, which
depend on the scaled-down substrate (see EXPERIMENTS.md).
"""

from __future__ import annotations

import pathlib
import time

import pytest

#: every figure's printed table is also appended here, so the results
#: survive pytest's output capture in default invocations
RESULTS_FILE = pathlib.Path(__file__).parent / "RESULTS.txt"


#: whether this session has started its RESULTS.txt yet; the header is
#: written by the first ``show()``, so sessions that print no figure
#: table (the e2e and perf tests) leave the tracked file alone
_results_started = False


@pytest.fixture
def once(benchmark):
    """Run a figure exactly once under benchmark timing."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return _run


def show(title: str, text: str) -> None:
    block = f"\n=== {title} ===\n{text}\n"
    print(block, end="")
    global _results_started
    if not _results_started:
        _results_started = True
        RESULTS_FILE.write_text(
            f"# Floodgate reproduction results, {time.strftime('%Y-%m-%d %H:%M')}\n"
        )
    with RESULTS_FILE.open("a") as fh:
        fh.write(block)
