"""Benchmark helpers.

Every benchmark reproduces one paper figure/table at bench (quick)
scale: it runs the figure module once under pytest-benchmark timing,
prints the rows/series the paper reports, and asserts the result's
*shape* (who wins, direction of effects) — not absolute numbers, which
depend on the scaled-down substrate (see EXPERIMENTS.md).
"""

from __future__ import annotations

import inspect
import pathlib
import textwrap
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


def without_fragments(fn, **fragments: str):
    """``fn`` recompiled from its live source with each named fragment
    deleted — the "hook-free twin" an overhead benchmark times ``fn``
    against.

    Built from the source rather than kept as a copy: a hand copy goes
    stale the next time ``fn`` changes, and then the benchmark compares
    two different programs and passes regardless.
    A fragment is text of the dedented source and must occur exactly
    once; when the hook moves or changes shape this raises, naming the
    fragment, instead of silently timing ``fn`` against itself.
    """
    source = textwrap.dedent(inspect.getsource(fn))
    for name, fragment in fragments.items():
        found = source.count(fragment)
        if found != 1:
            raise ValueError(
                f"{fn.__qualname__}: fragment {name!r} occurs {found} "
                f"times in the live source, expected exactly once"
            )
        source = source.replace(fragment, "")
    scope: dict = {}
    filename = f"<{fn.__qualname__} without {', '.join(fragments)}>"
    exec(compile(source, filename, "exec"), fn.__globals__, scope)
    return scope[fn.__name__]


def min_of_interleaved(time_hooked, time_legacy, repeats: int):
    """``(hooked_s, legacy_s)``: the fastest of ``repeats`` timings each.

    Both sides run once untimed first (the adaptive interpreter settles
    its inline caches on the first pass, and whichever variant ran cold
    would absorb that one-time cost), then interleaved and
    order-alternated, so a GC pause, a noisy neighbour or slow drift
    (thermal, frequency scaling) hits both alike instead of penalising
    whichever runs second.
    """
    time_hooked()
    time_legacy()
    hooked: list = []
    legacy: list = []
    sides = ((hooked, time_hooked), (legacy, time_legacy))
    for i in range(repeats):
        for samples, time_one in sides if i % 2 == 0 else sides[::-1]:
            samples.append(time_one())
    return min(hooked), min(legacy)
