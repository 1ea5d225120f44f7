"""Batch-backend units for :func:`repro.exec.sweep.sweep`: record once, replay the grid.

Under ``sweep(..., backend="batch")`` points that share a recording — a
:class:`~repro.exec.tasks.GearSweepTask` (one recording covers its whole
gear grid) or several :class:`~repro.exec.tasks.MeasurementTask` points
differing only in gear — form one *unit* executed through
:mod:`repro.sim.batch`: one recording run plus a cheap replay per gear.
Units form by first occurrence; the sweep's deterministic merge, cache
lookups, failure naming and unit chunking apply unchanged.  What the
batch backend adds:

- **Own cache keys** — batch-computed points are keyed by
  :func:`batch_cache_key`, whose fingerprint carries a
  ``"backend": "batch"`` token, so batch results (1e-9-equivalent, not
  bitwise) never share cache entries with event results.  Partial hits
  shrink a group to its misses; the recording is still shared across
  them.
- **Exact fallback** — any :class:`~repro.sim.batch.BatchUnsupported`
  (uncertifiable structure, self-check miss) reruns the group's points
  on the event engine, bitwise what a plain run produces, and logs the
  group in the :class:`BatchReport` so truncated batch coverage is
  never silent.
- **Tape cache** — with ``tape_cache`` set, every group's recording is
  serialized (:func:`repro.sim.batch.tape_to_payload`) into a persistent
  :class:`~repro.exec.cache.TapeCache` under :func:`tape_key` — the
  fingerprint of the group's configuration *minus the gear axis* plus
  the recording gear, the code-version token, and the tape format
  version.  Later sweeps (same process or not) deserialize instead of
  re-recording; the replay-time self-check still runs on every loaded
  tape, so a stale or corrupt entry rejects itself into the exact event
  fallback.
- **Parallel recording** — with ``jobs > 1`` the missing tapes are
  recorded first, one pool task per distinct tape key, before any unit
  chunk is dispatched; units then load their tape from the store (an
  ephemeral sweep-local one when no ``tape_cache`` was given).  A sweep
  of N groups thus records N-wide instead of chunk-by-chunk.
- **Stage timings** — :class:`BatchReport` splits the wall into
  record/replay/merge so the dominant stage is visible in the CLI
  summary and the bench harness.

Tasks that cannot batch (calibration, policy runs — their structure is
gear-dependent by design) pass through as singleton event-engine units
with their normal cache keys.
"""

from __future__ import annotations

import tempfile
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar, Sequence

from repro.exec.cache import TapeCache
from repro.exec.fingerprint import code_version_token, fingerprint
from repro.exec.sweep import _ff_skipped, _point_error, _Unit, cache_key
from repro.exec.tasks import GearSweepTask, MeasurementTask, SimTask
from repro.util.errors import ConfigurationError

#: Fingerprint token that keys batch-computed results apart from event
#: results (they agree to ~1e-9, not bitwise — same precedent as the
#: fast-forward config entering the fingerprint).
BACKEND_TOKEN = "batch"

#: Backends :func:`repro.exec.sweep.sweep` accepts.
BACKENDS = ("event", "batch")


def check_backend(backend: str) -> None:
    """Reject a backend name outside :data:`BACKENDS`."""
    if backend not in BACKENDS:
        known = ", ".join(repr(b) for b in BACKENDS)
        raise ConfigurationError(
            f"unknown backend {backend!r}; choose from {known}"
        )


def batch_cache_key(task: SimTask) -> str:
    """Cache key of a point executed through the batch backend."""
    return fingerprint(
        {
            "task": task.describe(),
            "code_version": code_version_token(),
            "backend": BACKEND_TOKEN,
        }
    )


def point_key(task: SimTask) -> str:
    """Result-cache key of a point in a batch-backend sweep.

    Batchable kinds take :func:`batch_cache_key`; passthrough kinds run
    on the event engine and keep their event key.
    """
    if type(task) in (GearSweepTask, MeasurementTask):
        return batch_cache_key(task)
    return cache_key(task)


def _recording_gear(task: SimTask) -> int:
    """The gear a group led by ``task`` records at.

    Mirrors :func:`repro.sim.batch.batch_gear_grid`: the first gear of
    the requested grid.  Deterministic per group, so the tape key is
    stable across invocations.
    """
    if type(task) is GearSweepTask:
        if task.gears is not None:
            return task.gears[0]
        return list(task.cluster.gears.indices)[0]
    return task.gear  # type: ignore[attr-defined]


def tape_key(task: SimTask, recording_gear: int) -> str:
    """Persistent-cache key of the tape a group led by ``task`` shares.

    The fingerprint covers the task description *minus the gear axis*
    (``kind``/``gear``/``gears`` dropped — a recording is reusable by
    any grid over the same configuration, and a
    :class:`~repro.exec.tasks.GearSweepTask` can share a tape with a
    :class:`~repro.exec.tasks.MeasurementTask` group), plus the
    recording gear, the code-version token, and the tape format
    version, so stale tapes are never hit and
    :meth:`~repro.exec.cache.ResultCache.prune` invalidates them.
    """
    from repro.sim.batch import TAPE_FORMAT_VERSION

    desc = dict(task.describe())
    for axis in ("kind", "gear", "gears"):
        desc.pop(axis, None)
    return fingerprint(
        {
            "recording": desc,
            "recording_gear": recording_gear,
            "code_version": code_version_token(),
            "tape_format": TAPE_FORMAT_VERSION,
        }
    )


@dataclass
class BatchFallback:
    """One group that fell back to the exact event engine."""

    #: ``str(key)`` of the group's first point.
    point: str
    #: Points the group covered.
    points: int
    #: The :class:`~repro.sim.batch.BatchUnsupported` message.
    reason: str


@dataclass
class BatchReport:
    """What the batch backend did across one or more sweeps.

    Attributes:
        groups: batch groups formed (after cache hits shrank them).
        grouped_points: points covered by those groups.
        passthrough_points: non-batchable points run on the event engine.
        fallbacks: groups whose recording could not be certified and were
            re-run point-by-point on the event engine.
        tape_cache_enabled: whether a persistent tape cache was in play.
        tape_hits: distinct tapes of a sweep that nothing recorded:
            every unit loaded them from the persistent cache.
        tape_misses: distinct tapes of a sweep that a parallel-recording
            job or a unit recorded (absent, or present but undecodable)
            and stored for the next sweep.
        record_s: seconds spent executing recording runs (in-worker
            when pooled — IPC and pool startup excluded).
        replay_s: seconds spent revaluing gear grids from tapes.
        merge_s: parent-side seconds scattering unit results back to
            sweep order and writing the result cache.
        vector_cols: replayed gear columns whose timeline came from the
            vectorized walk (:class:`~repro.sim.batch.ReplayStats`
            summed over every unit, pooled workers included).
        scalar_cols: replayed gear columns whose timeline came from the
            exact scalar interpreter instead.
        divergent_cols: the scalar columns a per-column send-order guard
            forced (the rest are whole-grid fallbacks).
    """

    groups: int = 0
    grouped_points: int = 0
    passthrough_points: int = 0
    fallbacks: list[BatchFallback] = field(default_factory=list)
    tape_cache_enabled: bool = False
    tape_hits: int = 0
    tape_misses: int = 0
    record_s: float = 0.0
    replay_s: float = 0.0
    merge_s: float = 0.0
    vector_cols: int = 0
    scalar_cols: int = 0
    divergent_cols: int = 0

    @property
    def fallback_points(self) -> int:
        """Points that ended up on the event engine via fallback."""
        return sum(f.points for f in self.fallbacks)

    def summary(self) -> str:
        """One human-readable summary for CLI/bench reporting.

        Always names the fallback count and the replay column split
        (zeros included — silence is not a signal), the tape-cache
        hit/miss counts when a persistent cache was in play, and the
        record/replay/merge stage split.
        """
        line = (
            f"batch backend: {self.grouped_points} point(s) in "
            f"{self.groups} group(s)"
        )
        if self.passthrough_points:
            line += f", {self.passthrough_points} passthrough"
        line += (
            f", {len(self.fallbacks)} fallback(s); replay columns: "
            f"{self.vector_cols} vector, {self.scalar_cols} scalar "
            f"({self.divergent_cols} divergent)"
        )
        if self.tape_cache_enabled:
            line += (
                f"; tape cache: {self.tape_hits} hit(s), "
                f"{self.tape_misses} miss(es)"
            )
        line += (
            f"; stages: record {self.record_s:.3f}s, "
            f"replay {self.replay_s:.3f}s, merge {self.merge_s:.3f}s"
        )
        if self.fallbacks:
            line += f", {self.fallback_points} point(s) fell back:"
            for fb in self.fallbacks:
                line += f"\n  {fb.point}: {fb.reason}"
        return line


@dataclass
class _BatchUnit(_Unit):
    """A batch group: points sharing one recording, replayed as a grid."""

    batch: ClassVar[bool] = True
    #: Gear the group's recording runs at.
    rec_gear: int = 0
    #: Persistent-cache key of the group's tape.
    tape_key: str = ""
    #: Store the tape is loaded from and stored into (None: unit-local).
    tape_root: Path | None = None
    #: Certification failure from the parallel-recording phase; set on
    #: every unit sharing the failed tape so each falls back without
    #: re-attempting the recording.
    prefail: str | None = None
    #: Tape keys this sweep has counted as misses, one set shared by the
    #: sweep's batch units; None when no persistent tape cache is used.
    missed_keys: set[str] | None = None

    def run(self, observer: Any = None) -> tuple[list[Any], Any]:
        """Load or record the group's tape, then replay its gear grid.

        Returns (results, (fallback reason, recording seconds, replay
        seconds, :class:`~repro.sim.batch.ReplayStats`, whether this
        unit recorded)).  Any :class:`~repro.sim.batch.BatchUnsupported`
        — from certification, from the recording-gear self-check, or
        carried in as ``prefail`` — downgrades the whole unit to
        per-point event-engine runs, which are exact by definition.
        """
        from repro.sim.batch import (
            BatchUnsupported,
            ReplayStats,
            batch_gear_grid,
            batch_gear_sweep,
        )

        stats = ReplayStats()
        if self.prefail is not None:
            outcome = (self.prefail, 0.0, 0.0, stats, False)
            return [t.run() for t in self.tasks], outcome
        first: Any = self.tasks[0]
        record_s = 0.0
        recorded = False
        try:
            tape = None
            if self.tape_root is not None:
                tape = _load_tape(first.cluster, self.tape_root, self.tape_key)
            if tape is None:
                recorded = True
                tape, record_s = _record(
                    first, self.rec_gear, self.tape_root, self.tape_key
                )
            replay_start = time.perf_counter()
            if type(first) is GearSweepTask:
                results: list[Any] = [
                    batch_gear_sweep(
                        first.cluster,
                        first.workload,
                        nodes=first.nodes,
                        gears=first.gears,
                        fast_forward=first.fast_forward,
                        stats=stats,
                        tape=tape,
                    )
                ]
            else:
                results = list(
                    batch_gear_grid(
                        first.cluster,
                        first.workload,
                        nodes=first.nodes,
                        gears=[t.gear for t in self.tasks],  # type: ignore[attr-defined]
                        fast_forward=first.fast_forward,
                        stats=stats,
                        tape=tape,
                    )
                )
            replay_s = time.perf_counter() - replay_start
            return results, (None, record_s, replay_s, stats, recorded)
        except BatchUnsupported as exc:
            # replay_grid counts only grids that passed the self-check.
            outcome = (str(exc), record_s, 0.0, stats, recorded)
            return [t.run() for t in self.tasks], outcome

    def account(self, outcome: Any, report: BatchReport | None) -> None:
        if report is None:
            return
        fallback, record_s, replay_s, stats, recorded = outcome
        if recorded:
            _count_miss(report, self.missed_keys, self.tape_key)
        report.record_s += record_s
        report.replay_s += replay_s
        report.vector_cols += stats.vector_gears
        report.scalar_cols += stats.scalar_gears
        report.divergent_cols += stats.divergent_gears
        if fallback is not None:
            report.fallbacks.append(
                BatchFallback(
                    point=str(self.tasks[0].key),
                    points=len(self.tasks),
                    reason=fallback,
                )
            )


def _group_token(task: SimTask) -> tuple | None:
    """Identity under which a task may share a recording, or None.

    A :class:`MeasurementTask`'s token is the fingerprint of its
    description *minus the gear*: two points group iff everything else
    about them — cluster, workload state, node count, fast-forward
    config — is identical, which is exactly the condition for a shared
    gear-invariant tape.  :class:`GearSweepTask` returns None (it is a
    whole grid already and always forms its own group), as does any
    non-batchable kind.
    """
    if type(task) is MeasurementTask:
        desc = dict(task.describe())
        desc.pop("gear")
        return ("measurement", fingerprint(desc))
    return None


def _form_units(pending: Sequence[tuple[SimTask, str | None]]) -> list[_Unit]:
    """Partition pending points into execution units, in first-seen order."""
    units: list[_Unit] = []
    by_token: dict[tuple, _BatchUnit] = {}
    for index, (task, _) in enumerate(pending):
        if type(task) is GearSweepTask:
            units.append(_BatchUnit([task], [index]))
            continue
        token = _group_token(task)
        if token is None:
            units.append(_Unit([task], [index]))
            continue
        unit = by_token.get(token)
        if unit is None:
            unit = by_token[token] = _BatchUnit([], [])
            units.append(unit)
        unit.tasks.append(task)
        unit.indices.append(index)
    for unit in units:
        if unit.batch:
            unit.rec_gear = _recording_gear(unit.tasks[0])
            unit.tape_key = tape_key(unit.tasks[0], unit.rec_gear)
    return units


def _count_miss(
    report: BatchReport | None, missed_keys: set[str] | None, key: str
) -> None:
    """Turn ``key``'s provisional tape-cache hit into a miss, once per sweep."""
    if report is None or missed_keys is None or key in missed_keys:
        return
    missed_keys.add(key)
    report.tape_hits -= 1
    report.tape_misses += 1


def _load_tape(cluster: Any, tape_root: Path, key: str) -> Any | None:
    """Deserialize a cached tape, or None on miss/corruption/version skew.

    A payload that does not decode (format bump, truncated write an
    atomic rename should have prevented, hand-edited entry) is treated
    as a miss — the caller re-records.  A payload that decodes but no
    longer matches its recording totals is caught later by the replay
    self-check, which rejects the whole tape into the event fallback.
    """
    from repro.sim.batch import tape_from_payload

    payload = TapeCache(tape_root).load(key)
    if payload is None:
        return None
    try:
        return tape_from_payload(cluster, payload)
    except (ValueError, KeyError, TypeError, IndexError):
        return None


def _record(
    task: SimTask, rec_gear: int, tape_root: Path | None, key: str
) -> tuple[Any, float]:
    """Record the tape of a group led by ``task``; store it if a store is set.

    Returns (tape, seconds spent recording and storing).  Raises
    :class:`~repro.sim.batch.BatchUnsupported` when the recording cannot
    be certified.
    """
    from repro.sim.batch import record_tape, tape_to_payload

    start = time.perf_counter()
    tape = record_tape(
        task.cluster,  # type: ignore[attr-defined]
        task.workload,  # type: ignore[attr-defined]
        nodes=task.nodes,  # type: ignore[attr-defined]
        gear=rec_gear,
        fast_forward=getattr(task, "fast_forward", None),
    )
    if tape_root is not None:
        TapeCache(tape_root).store(key, tape_to_payload(tape))
    return tape, time.perf_counter() - start


def _record_tape_job(
    task: SimTask, rec_gear: int, tape_root: Path, key: str
) -> tuple[str | None, float, int]:
    """Record one group's tape into the store (parallel-recording phase).

    Returns (certification-failure reason or None, in-worker seconds,
    fast-forwarded iterations) — plain values so the tuple pickles back
    from a pool worker.
    """
    from repro.sim.batch import BatchUnsupported

    start = time.perf_counter()
    skipped_before = _ff_skipped(task)
    try:
        _record(task, rec_gear, tape_root, key)
        fail = None
    except BatchUnsupported as exc:
        fail = str(exc)
    return fail, time.perf_counter() - start, _ff_skipped(task) - skipped_before


def _prepare_units(
    units: Sequence[_Unit],
    report: BatchReport | None,
    tape_cache: TapeCache | None,
    pooled: bool,
    stack: ExitStack,
) -> _TapeWarmup | None:
    """Count the units into ``report`` and attach their tape store.

    Returns the parallel-recording phase a pooled sweep runs first, or
    None when no tape is missing (or the sweep runs inline).
    """
    groups = [unit for unit in units if unit.batch]
    if report is not None:
        report.groups += len(groups)
        report.grouped_points += sum(len(unit.tasks) for unit in groups)
        report.passthrough_points += len(units) - len(groups)
        if tape_cache is not None:
            # Counted per distinct tape (cross-kind units can share
            # one): each starts as a hit and becomes a miss when a
            # parallel-recording job or a unit records it
            # (:func:`_count_miss`).  An entry that exists can still
            # fail to decode, so only what ran can tell.
            report.tape_cache_enabled = True
            missed_keys: set[str] = set()
            report.tape_hits += len({unit.tape_key for unit in groups})
            for unit in groups:
                unit.missed_keys = missed_keys
    root = Path(tape_cache.root) if tape_cache is not None else None
    if pooled and root is None and groups:
        # No persistent cache: an ephemeral sweep-local store still lets
        # the parallel-recording phase hand tapes to the unit workers
        # without a second IPC round-trip.
        root = Path(
            stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-tapes-"))
        )
    for unit in groups:
        unit.tape_root = root
    if not pooled or root is None:
        return None
    warmup = _TapeWarmup(groups, root, report)
    return warmup if warmup.missing else None


class _TapeWarmup:
    """The parallel-recording phase of a pooled batch sweep.

    Recording is the serial bottleneck once replay is vectorized, so
    every missing tape is recorded on the sweep's pool, one task per
    distinct tape, *before* unit chunks are dispatched — a sweep of N
    fresh groups records N-wide even when chunking packs those groups
    onto fewer workers.  ``len()`` is that width.
    """

    def __init__(
        self,
        groups: Sequence[_BatchUnit],
        root: Path,
        report: BatchReport | None,
    ):
        store = TapeCache(root)
        self.root = root
        self.report = report
        #: Owners of each missing tape, in unit order, so warm-phase
        #: accounting lands on the first owner.
        self.missing: dict[str, list[_BatchUnit]] = {}
        for unit in groups:
            if not store.contains(unit.tape_key):
                self.missing.setdefault(unit.tape_key, []).append(unit)

    def __len__(self) -> int:
        return len(self.missing)

    def __call__(self, pool: ProcessPoolExecutor) -> None:
        """Record every missing tape on ``pool`` and wait for them.

        A certification failure marks every owning unit ``prefail`` so
        each falls back to the event engine without re-attempting the
        recording; the fast-forward skip delta folds into the parent
        ledger exactly like the sweep's pool does.
        """
        futures = {
            key: pool.submit(
                _record_tape_job,
                owners[0].tasks[0],
                owners[0].rec_gear,
                self.root,
                key,
            )
            for key, owners in self.missing.items()
        }
        wait(futures.values(), return_when=FIRST_EXCEPTION)
        for key, future in futures.items():
            owners = self.missing[key]
            try:
                fail, record_s, skipped = future.result()
            except Exception as exc:
                for other in futures.values():
                    other.cancel()
                raise _point_error(owners[0].tasks[0], exc) from exc
            _count_miss(self.report, owners[0].missed_keys, key)
            if self.report is not None:
                self.report.record_s += record_s
            config = getattr(owners[0].tasks[0], "fast_forward", None)
            if config is not None and skipped:
                config.aggregate.skipped_iterations += skipped
            owners[0].warm_s += record_s
            owners[0].warm_skipped += skipped
            if fail is not None:
                for unit in owners:
                    unit.prefail = fail
