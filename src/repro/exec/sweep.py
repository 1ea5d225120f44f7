"""Fan a set of simulation points out, merge results deterministically.

:func:`sweep` is the one concurrency primitive of the package.  The
contract that makes it safe to drop into the experiment harness:

- **Deterministic merge.**  Results come back in the order the tasks
  were given — never in completion order — so a parallel run is
  byte-identical to a serial one.
- **Cache transparency.**  With a cache, each point is looked up by its
  content fingerprint first and only misses are executed (then stored).
  A warm sweep does no simulation at all.
- **Failure naming.**  Any exception in a worker is re-raised in the
  caller as a :class:`~repro.util.errors.SimulationError` naming the
  failing point's key, with the original exception chained as the cause.

Both backends share this one driver.  Pending points are partitioned
into *units* that run inline or on one process pool: under ``"event"``
every point is a singleton unit; under ``"batch"`` points sharing a
recording form one unit (:mod:`repro.exec.batch_sweep`).  Chunking
counts units, and results, cache stores and profile rows are merged by
pending position, so unit formation never changes the merge order.

Observability: an ``observer`` (see :mod:`repro.obs.observer`) rides
along every simulation — which forces the sweep inline and uncached,
because a cached or out-of-process point produces no events to observe.
A ``profile`` (:class:`~repro.exec.profile.ExecProfile`) records host
wall time per point and per cache interaction in every mode.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from contextlib import ExitStack
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Iterable, Sequence

from repro.exec.cache import ResultCache
from repro.exec.fingerprint import code_version_token, fingerprint
from repro.exec.profile import SOURCE_CACHE, SOURCE_RUN, ExecProfile, TaskTiming
from repro.exec.tasks import SimTask
from repro.util.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.observer import RunObserver


def cache_key(task: SimTask) -> str:
    """The content-addressed cache key of one simulation point."""
    return fingerprint(
        {"task": task.describe(), "code_version": code_version_token()}
    )


def _ff_skipped(task: SimTask) -> int:
    """Iterations fast-forward has skipped under this task's config so far.

    Reads the config's cross-run ``aggregate`` ledger; sampling it
    before and after a point runs attributes the delta to that point.
    Works identically inline and inside a pool worker (the worker
    mutates its own pickled copy of the config and the delta travels
    back with the chunk's timings).
    """
    config = getattr(task, "fast_forward", None)
    if config is None:
        return 0
    return config.aggregate.skipped_iterations


@dataclass
class _Unit:
    """Points that execute together, in one call on one worker.

    Under the event backend every point is a singleton unit; the batch
    backend's units (:class:`repro.exec.batch_sweep._BatchUnit`) are
    groups of points sharing one recording.  Chunking counts units, so a
    unit is never split across workers.
    """

    tasks: list[SimTask]
    #: Positions of the tasks in the sweep's pending list.
    indices: list[int]
    #: Seconds and fast-forwarded iterations spent on this unit before
    #: dispatch (the batch backend's parallel recording), charged to its
    #: profile rows.
    warm_s: float = 0.0
    warm_skipped: int = 0

    #: Whether the unit replays a shared batch recording.
    batch: ClassVar[bool] = False

    def run(self, observer: "RunObserver | None" = None) -> tuple[list[Any], Any]:
        """Execute the unit: (results in task order, backend accounting)."""
        (task,) = self.tasks
        # Only pass the observer when one is attached: tasks that
        # predate observability keep their plain run() signature.
        if observer is not None:
            return [task.run(observer=observer)], None
        return [task.run()], None

    def account(self, outcome: Any, report: Any) -> None:
        """Fold the accounting :meth:`run` returned into a batch report."""


class _ChunkPointError(Exception):
    """One unit of a chunk failed.

    Carries the chunk-local unit index so the caller can name the
    failing point (the unit's first), and the original exception as the
    cause to chain.  Built from plain ``args`` so it pickles across the
    process boundary.
    """

    def __init__(self, index: int, cause: BaseException):
        super().__init__(index, cause)
        self.index = index
        self.cause = cause


def _execute_chunk(
    units: Sequence[_Unit], observer: "RunObserver | None" = None
) -> tuple[list[tuple[list[Any], Any, float, int]], float]:
    """Run a chunk of units in one call, in a pool worker or inline.

    Returns, per unit, (results, backend accounting, wall seconds,
    fast-forwarded iterations), plus the chunk's wall seconds — all
    measured where the units ran, so IPC and worker startup are
    excluded.
    """
    chunk_start = time.perf_counter()
    out = []
    for index, unit in enumerate(units):
        lead = unit.tasks[0]
        start = time.perf_counter()
        skipped_before = _ff_skipped(lead)
        try:
            results, outcome = unit.run(observer)
        except Exception as exc:
            raise _ChunkPointError(index, exc) from exc
        out.append(
            (
                results,
                outcome,
                time.perf_counter() - start,
                _ff_skipped(lead) - skipped_before,
            )
        )
    return out, time.perf_counter() - chunk_start


def _point_error(task: SimTask, exc: BaseException) -> SimulationError:
    """Name a failing point, by scenario when the task carries one.

    The scenario name is resolved on the *caller's* task object, so the
    report is identical whether the point failed inline or inside a
    pool worker (the exception crosses the process boundary carrying
    only the chunk-local index).
    """
    scenario = getattr(task, "scenario", None)
    where = f" of scenario {scenario!r}" if scenario else ""
    return SimulationError(
        f"sweep point {task.key!r}{where} failed: {type(exc).__name__}: {exc}"
    )


def _auto_chunk_size(points: int, jobs: int) -> int:
    """Default chunk size: about four chunks per worker.

    Large enough to amortize pickling/IPC per dispatch, small enough
    that an uneven last wave cannot idle most of the pool.
    """
    workers = min(jobs, points)
    if workers <= 0:
        return 1
    return max(1, math.ceil(points / (workers * 4)))


def sweep(
    tasks: Iterable[SimTask],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    observer: "RunObserver | None" = None,
    profile: ExecProfile | None = None,
    chunk_size: int | None = None,
    backend: str = "event",
    batch_report: Any = None,
    tape_cache: Any = None,
) -> list[Any]:
    """Execute simulation points, possibly in parallel, possibly cached.

    Args:
        tasks: the points; keys must be unique.
        jobs: worker processes.  1 (the default) runs inline in this
            process; N > 1 runs cache misses on a process pool of up to
            N workers.
        cache: optional on-disk result cache consulted before running
            and filled after.
        observer: optional run observer.  Observed sweeps run inline and
            bypass the cache — a replayed or out-of-process point has no
            gear events or trace records to observe.  Observation never
            changes results (the simulator is deterministic).
        profile: optional profile accumulating per-point wall time and
            cache-latency accounting across this sweep.
        chunk_size: units dispatched per worker call when ``jobs > 1``
            (amortizes pickling/IPC).  ``None`` picks about four chunks
            per worker.  Chunks are consecutive slices in task order, so
            chunking never changes results or merge order.  Under the
            event backend a unit is one point; under the batch backend
            it is a batch *group* — one recording is never split across
            workers.
        backend: ``"event"`` (the default) simulates every point
            independently; ``"batch"`` forms gear-groupable points into
            units (:mod:`repro.exec.batch_sweep`) that record once and
            replay the grid (results equal to ~1e-9, cached under
            distinct keys).  Observed sweeps always use the event engine
            — a replayed tape produces no events to observe.
        batch_report: optional
            :class:`repro.exec.batch_sweep.BatchReport` accumulating
            grouping/fallback/tape-cache/stage-timing accounting (batch
            backend only).
        tape_cache: optional :class:`repro.exec.cache.TapeCache`
            persisting batch recordings across sweeps and processes
            (batch backend only); ``None`` keeps recordings sweep-local.

    Returns:
        One result per task, in task order regardless of completion
        order or cache state.

    Raises:
        ConfigurationError: duplicate task keys, an unknown ``backend``,
            ``jobs < 1``, or ``chunk_size < 1``.
        SimulationError: a point failed; the message names its key and
            the original exception is chained as ``__cause__``.
    """
    from repro.exec.batch_sweep import (
        _form_units,
        _prepare_units,
        check_backend,
        point_key,
    )

    check_backend(backend)
    ordered: Sequence[SimTask] = list(tasks)
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    seen: set[tuple] = set()
    for task in ordered:
        if task.key in seen:
            raise ConfigurationError(f"duplicate sweep point key {task.key!r}")
        seen.add(task.key)

    sweep_start = time.perf_counter()
    if observer is not None:
        cache = None  # cached points would produce no events to observe
    batched = backend == "batch" and observer is None
    key_of = point_key if batched else cache_key

    results: dict[tuple, Any] = {}
    pending: list[tuple[SimTask, str | None]] = []
    lookups: dict[tuple, float] = {}
    for task in ordered:
        if cache is not None:
            lookup_start = time.perf_counter()
            key = key_of(task)
            payload = cache.load(key)
            lookup_s = time.perf_counter() - lookup_start
            if payload is not None:
                results[task.key] = task.decode(payload)
                if profile is not None:
                    profile.add(
                        TaskTiming(
                            key=str(task.key),
                            source=SOURCE_CACHE,
                            seconds=0.0,
                            lookup_s=lookup_s,
                        )
                    )
                continue
            lookups[task.key] = lookup_s
            pending.append((task, key))
        else:
            pending.append((task, None))

    if batched:
        units = _form_units(pending)
    else:
        units = [_Unit([task], [index]) for index, (task, _) in enumerate(pending)]
    pooled = jobs > 1 and len(units) > 1 and observer is None
    with ExitStack() as stack:
        warmup = None
        if batched:
            warmup = _prepare_units(units, batch_report, tape_cache, pooled, stack)
        if pooled:
            size = chunk_size or _auto_chunk_size(len(units), jobs)
            outcomes = _run_pool(units, jobs, size, profile, warmup)
        else:
            try:
                outcomes, _ = _execute_chunk(units, observer)
            except _ChunkPointError as exc:
                raise _point_error(
                    units[exc.index].tasks[0], exc.cause
                ) from exc.cause

    merge_start = time.perf_counter()
    computed: list[Any] = [None] * len(pending)
    rows: list[tuple[float, int]] = [(0.0, 0)] * len(pending)
    for unit, (unit_results, outcome, unit_s, skipped) in zip(units, outcomes):
        unit.account(outcome, batch_report)
        # A shared recording's cost splits evenly over its points, so
        # the rows still sum to the measured walls; the fast-forward
        # delta goes to the first point, as the ledger saw one run.
        share = (unit_s + unit.warm_s) / len(unit.tasks)
        for i, (index, result) in enumerate(zip(unit.indices, unit_results)):
            computed[index] = result
            rows[index] = (share, skipped + unit.warm_skipped if i == 0 else 0)
    for (task, key), result, (seconds, skipped) in zip(pending, computed, rows):
        results[task.key] = result
        store_s = 0.0
        if cache is not None and key is not None:
            store_start = time.perf_counter()
            meta: dict[str, Any] = {"point": [str(part) for part in task.key]}
            scenario = getattr(task, "scenario", None)
            if scenario:
                meta["scenario"] = scenario
            cache.store(key, task.encode(result), meta=meta)
            store_s = time.perf_counter() - store_start
        if profile is not None:
            profile.add(
                TaskTiming(
                    key=str(task.key),
                    source=SOURCE_RUN,
                    seconds=seconds,
                    lookup_s=lookups.get(task.key, 0.0),
                    store_s=store_s,
                    ff_skipped=skipped,
                )
            )
    if batched and batch_report is not None:
        batch_report.merge_s += time.perf_counter() - merge_start
    if profile is not None:
        profile.wall_s += time.perf_counter() - sweep_start
    return [results[task.key] for task in ordered]


def _run_pool(
    units: Sequence[_Unit],
    jobs: int,
    chunk_size: int,
    profile: ExecProfile | None = None,
    warmup: Any = None,
) -> list[tuple[list[Any], Any, float, int]]:
    """Fan unit chunks out to a process pool; collect in unit order.

    ``warmup`` (the batch backend's parallel recording, see
    :class:`repro.exec.batch_sweep._TapeWarmup`) runs on the same pool
    before any chunk is dispatched, one pool task per missing tape.
    """
    chunks = [
        list(units[i : i + chunk_size]) for i in range(0, len(units), chunk_size)
    ]
    workers = min(jobs, max(len(chunks), len(warmup) if warmup else 0))
    if profile is not None:
        profile.workers = max(profile.workers, workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        if warmup:
            warmup(pool)
        futures = [pool.submit(_execute_chunk, chunk) for chunk in chunks]
        wait(futures, return_when=FIRST_EXCEPTION)
        out = []
        for chunk, future in zip(chunks, futures):
            try:
                outcomes, chunk_wall = future.result()
            except Exception as exc:
                for other in futures:
                    other.cancel()
                if isinstance(exc, _ChunkPointError):
                    raise _point_error(
                        chunk[exc.index].tasks[0], exc.cause
                    ) from exc.cause
                # Infrastructure failure (e.g. a broken pool): no point
                # index to blame, so name the chunk's first point.
                raise _point_error(chunk[0].tasks[0], exc) from exc
            # Attribute the chunk's residual (request unpickling, loop
            # bookkeeping) evenly so the units' times sum to the
            # in-worker chunk wall — worker startup and IPC stay
            # excluded.
            residual = (chunk_wall - sum(o[2] for o in outcomes)) / len(outcomes)
            for unit, (unit_results, outcome, unit_s, skipped) in zip(
                chunk, outcomes
            ):
                # Workers mutate their own pickled copy of the config;
                # carry the headline counter back to the parent's ledger
                # so pooled and inline sweeps report the same totals.
                config = getattr(unit.tasks[0], "fast_forward", None)
                if config is not None and skipped:
                    config.aggregate.skipped_iterations += skipped
                out.append((unit_results, outcome, unit_s + residual, skipped))
    return out
