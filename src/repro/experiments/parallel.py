"""Parallel scenario sweeps with on-disk result caching.

Figures that compare variants or sweep a parameter run 3-15 independent
simulations.  This module fans those runs out over a
``ProcessPoolExecutor`` and memoizes finished runs on disk:

* each run is described by a picklable :class:`SweepTask` — a result
  key and a :class:`ScenarioConfig`, which says everything about the
  run (traffic included: ``pattern=``);
* the worker extracts a slim, picklable :class:`ResultSummary` (FCT
  summaries and records, buffer maxima, PFC accounting, VOQ usage,
  event/wall counters) so the unpicklable ``Scenario``/``Simulator``
  never crosses the process boundary;
* completed runs are cached in ``REPRO_CACHE_DIR`` (or an explicit
  ``cache=`` directory) keyed by a stable hash of the package's own
  sources and the config — a warm sweep costs one pickle load per
  variant, and a cached run can only answer the code that produced it.

Determinism: a sweep produces byte-identical summaries whether it runs
serially, through the pool, or from a warm cache (``tasks`` map to
results by key, and each worker runs the same seeded simulation the
serial path would).

Environment knobs::

    REPRO_PARALLEL=0      force serial in-process execution
    REPRO_CACHE_DIR=path  enable the disk cache at ``path``
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import multiprocessing
import os
import pickle
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.experiments.runner import RunOutcome, ScenarioResult, run_scenario
from repro.experiments.scenario import ScenarioConfig

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_PARALLEL = "REPRO_PARALLEL"


# ---------------------------------------------------------------------------
# slim result object
# ---------------------------------------------------------------------------


@dataclass
class ResultSummary(RunOutcome):
    """Everything a figure needs from one run, in picklable form.

    :class:`~repro.experiments.runner.ScenarioResult` minus the live
    ``scenario`` object: the ``StatsHub`` is plain dicts and
    lists, so it crosses process boundaries and survives pickling to
    the disk cache unchanged.
    """

    #: wall time of the producing run; excluded from equality so
    #: serial / pooled / cached runs of the same seed compare equal
    wall_seconds: float = field(default=0.0, compare=False)
    #: True when this summary came from the disk cache
    from_cache: bool = field(default=False, compare=False)

    # -- identity -----------------------------------------------------------------

    def canonical_bytes(self) -> bytes:
        """Pickled form with run-dependent fields zeroed.

        Two runs of the same seeded scenario — serial, pooled, or
        cache-served — produce identical canonical bytes.  Pickling
        runs in fast mode (memo disabled) so the bytes depend only on
        the summary's values, not on which equal strings happen to be
        the same object — crossing a process boundary breaks string
        interning and would otherwise change the memo layout.
        """
        clean = dataclasses.replace(self, wall_seconds=0.0, from_cache=False)
        buf = io.BytesIO()
        pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.fast = True  # summaries are acyclic plain data
        pickler.dump(clean)
        return buf.getvalue()


def summarize(result: ScenarioResult) -> ResultSummary:
    """Extract the slim summary from a full in-process result."""
    shared = {f.name: getattr(result, f.name) for f in dataclasses.fields(RunOutcome)}
    return ResultSummary(**shared, wall_seconds=result.wall_seconds)


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepTask:
    """One unit of a sweep: a result key and the config that produces it."""

    key: Any
    config: ScenarioConfig


def execute_task(task: SweepTask) -> ResultSummary:
    """Run one task to a summary (the worker-process entry point)."""
    return summarize(run_scenario(task.config))


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def config_fingerprint(config: ScenarioConfig) -> str:
    """Stable hex digest of a config (nested dataclasses included)."""
    payload = json.dumps(
        dataclasses.asdict(config), sort_keys=True, default=str
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@functools.cache
def source_digest() -> str:
    """Hex digest of every ``repro/**/*.py``, hashed once per process.

    It stands where a hand-bumped schema version would: any edit to the
    package — a new summary field, an event the engine counts
    differently — orphans the runs cached before it, and nobody has to
    remember to say so.
    """
    package = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        body = path.read_bytes()
        name = path.relative_to(package).as_posix()
        digest.update(f"{name}\0{len(body)}\0".encode())
        digest.update(body)
    return digest.hexdigest()


def task_fingerprint(task: SweepTask) -> str:
    """Cache key: package sources + config."""
    payload = f"{source_digest()}\0{config_fingerprint(task.config)}"
    return hashlib.sha256(payload.encode()).hexdigest()


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "floodgate-repro"


def _resolve_cache_dir(
    cache: Union[bool, str, Path, None]
) -> Optional[Path]:
    if cache is False:
        return None
    if cache is True:
        return default_cache_dir()
    if cache is not None:
        return Path(cache)
    # None: opt in via the environment only
    env = os.environ.get(ENV_CACHE_DIR)
    return Path(env) if env else None


def _cache_load(cache_dir: Path, digest: str) -> Optional[ResultSummary]:
    path = cache_dir / f"{digest}.pkl"
    try:
        with path.open("rb") as fh:
            summary = pickle.load(fh)
    except Exception:
        # unpickling arbitrary corrupt bytes can raise nearly anything
        # (ValueError, KeyError, UnpicklingError, ...); a bad cache
        # entry must degrade to a miss, never kill the sweep
        return None
    if not isinstance(summary, ResultSummary):
        return None
    summary.from_cache = True
    return summary


def _cache_store(cache_dir: Path, digest: str, summary: ResultSummary) -> None:
    cache_dir.mkdir(parents=True, exist_ok=True)
    # atomic publish: never expose a half-written pickle
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(summary, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, cache_dir / f"{digest}.pkl")
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# the sweep driver
# ---------------------------------------------------------------------------


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _pool_context():
    """Prefer fork (cheap, inherits the imported package) when available."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_sweep(
    tasks: Iterable[SweepTask],
    max_workers: Optional[int] = None,
    cache: Union[bool, str, Path, None] = None,
    serial: bool = False,
) -> Dict[Any, ResultSummary]:
    """Run every task; return ``{task.key: ResultSummary}``.

    Cache hits are served first; the misses fan out over a process
    pool (unless ``serial`` is set, ``REPRO_PARALLEL=0``, or only one
    run is needed — then they run in-process).  Results are assembled
    in task order regardless of completion order, so the returned
    mapping is deterministic.
    """
    tasks = list(tasks)
    seen = set()
    for task in tasks:
        if task.key in seen:
            raise ValueError(
                f"two sweep tasks share the key {task.key!r}: results map "
                f"by key, so one run would silently replace the other"
            )
        seen.add(task.key)
    out: Dict[Any, ResultSummary] = {}
    cache_dir = _resolve_cache_dir(cache)

    misses: List[SweepTask] = []
    digests: Dict[Any, str] = {}
    for task in tasks:
        if cache_dir is not None:
            digest = task_fingerprint(task)
            digests[task.key] = digest
            hit = _cache_load(cache_dir, digest)
            if hit is not None:
                out[task.key] = hit
                continue
        misses.append(task)

    if misses:
        if serial or os.environ.get(ENV_PARALLEL) == "0":
            workers = 1
        else:
            workers = min(len(misses), max_workers or available_cpus())
        if workers <= 1 or len(misses) == 1:
            summaries = [execute_task(t) for t in misses]
        else:
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=_pool_context()
            ) as pool:
                summaries = list(pool.map(execute_task, misses))
        for task, summary in zip(misses, summaries, strict=True):
            out[task.key] = summary
            if cache_dir is not None:
                _cache_store(cache_dir, digests[task.key], summary)

    # preserve the caller's task order
    return {task.key: out[task.key] for task in tasks}
