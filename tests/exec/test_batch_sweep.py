"""Batch-backend sweeps: grouping, merge determinism, cache keying.

The load-bearing guarantees: points sharing a recording fold into one
group and scatter back byte-identically whether the sweep is serial or
pooled (chunking counts *groups*, never splitting a recording across
workers), batch results cache under keys the event engine never reads,
and non-batchable points pass through unchanged.
"""

from __future__ import annotations

import importlib
import json
import time

import pytest

from repro.cluster.machines import athlon_cluster
from repro.exec import (
    BatchReport,
    CalibrationTask,
    Executor,
    GearSweepTask,
    MeasurementTask,
    ResultCache,
    TapeCache,
    tape_key,
)
from repro.exec.batch_sweep import _form_units, batch_cache_key
from repro.exec.profile import SOURCE_RUN, ExecProfile
from repro.exec.sweep import _auto_chunk_size, _execute_chunk, cache_key, sweep
from repro.util.errors import ConfigurationError
from repro.workloads.jacobi import Jacobi
from repro.workloads.nas import BT, EP, MG

#: Tiny but non-degenerate workload scale for executor tests.
SCALE = 0.03

ALL_GEARS = (1, 2, 3, 4, 5, 6)


@pytest.fixture(scope="module")
def cluster():
    return athlon_cluster()


@pytest.fixture(scope="module")
def tasks(cluster):
    """A mixed bag: one gear-grid family, one sweep, one passthrough."""
    return (
        [
            MeasurementTask(cluster, EP(SCALE), nodes=2, gear=g)
            for g in ALL_GEARS
        ]
        + [GearSweepTask(cluster, Jacobi(SCALE), nodes=2, gears=(1, 4))]
        + [CalibrationTask(cluster, EP(SCALE))]
    )


def _payloads(tasks, results):
    return [
        json.dumps(task.encode(result), sort_keys=True)
        for task, result in zip(tasks, results)
    ]


class TestGrouping:
    def test_units_form_by_shared_recording(self, tasks):
        units = _form_units([(task, None) for task in tasks])
        # 6 measurements -> 1 group, the sweep -> its own group, the
        # calibration -> passthrough.
        assert [(len(u.tasks), u.batch) for u in units] == [
            (6, True),
            (1, True),
            (1, False),
        ]

    def test_gear_moved_points_group_but_node_moved_do_not(self, cluster):
        mixed = [
            MeasurementTask(cluster, EP(SCALE), nodes=2, gear=1),
            MeasurementTask(cluster, EP(SCALE), nodes=4, gear=1),
            MeasurementTask(cluster, EP(SCALE), nodes=2, gear=5),
        ]
        units = _form_units([(task, None) for task in mixed])
        assert [len(u.tasks) for u in units] == [2, 1]
        # First-seen order: the nodes=2 pair merged into the first unit.
        assert [t.gear for t in units[0].tasks] == [1, 5]

    def test_report_accounts_groups_and_passthrough(self, tasks):
        report = BatchReport()
        sweep(tasks, backend="batch", batch_report=report)
        assert report.groups == 2
        assert report.grouped_points == 7
        assert report.passthrough_points == 1
        assert report.fallbacks == []


class TestMergeDeterminism:
    """The regression the group-aware chunk sizing pins down.

    Chunk sizes are computed from the number of *units*, not points:
    with more workers than groups, a point-count chunk size would split
    a recording's points across workers (duplicating the recording) or
    leave the merge order at the mercy of completion order.  Serial,
    pooled, and explicitly-chunked sweeps must produce byte-identical
    payload lists.
    """

    def test_pooled_merge_is_byte_identical_to_serial(self, tasks):
        serial = _payloads(tasks, sweep(tasks, backend="batch", jobs=1))
        pooled = _payloads(tasks, sweep(tasks, backend="batch", jobs=4))
        assert pooled == serial

    def test_explicit_chunk_size_changes_nothing(self, tasks):
        serial = _payloads(tasks, sweep(tasks, backend="batch", jobs=1))
        chunked = _payloads(
            tasks, sweep(tasks, backend="batch", jobs=2, chunk_size=1)
        )
        assert chunked == serial

    def test_chunks_count_units_not_points(self, tasks):
        # 8 batchable points but only 3 units: auto-sizing on points
        # would give chunks of 2+ units and idle half a 4-worker pool;
        # sizing on units keeps one unit per chunk.
        units = _form_units([(task, None) for task in tasks])
        assert _auto_chunk_size(len(units), jobs=4) == 1

    def test_more_workers_than_groups_still_groups_once(self, tasks):
        report = BatchReport()
        sweep(tasks, backend="batch", jobs=8, batch_report=report)
        assert report.groups == 2  # recordings never split by the pool

    def test_duplicate_point_keys_rejected(self, tasks):
        with pytest.raises(ConfigurationError, match="duplicate"):
            sweep([tasks[0], tasks[0]], backend="batch")


class TestCacheKeying:
    def test_batch_keys_never_collide_with_event_keys(self, tasks):
        for task in tasks[:7]:  # the batchable kinds
            assert batch_cache_key(task) != cache_key(task)

    def test_warm_cache_replays_identically(self, tasks, tmp_path):
        cache = ResultCache(root=tmp_path / "batch-cache")
        cold = _payloads(tasks, sweep(tasks, backend="batch", cache=cache))
        report = BatchReport()
        warm = _payloads(
            tasks,
            sweep(tasks, backend="batch", cache=cache, batch_report=report),
        )
        assert warm == cold
        assert cache.stats.hits == len(tasks)
        assert report.groups == 0  # nothing left to record

    def test_event_executor_never_reads_batch_entries(self, tasks, tmp_path):
        cache = ResultCache(root=tmp_path / "shared-cache")
        sweep(tasks, backend="batch", cache=cache)
        hits_before = cache.stats.hits
        sweep(tasks[:1], cache=cache)
        # The event sweep missed: batch results are 1e-9-equivalent,
        # not bitwise, so they must not shadow exact results.
        assert cache.stats.hits == hits_before


class TestBackendSelection:
    def test_sweep_routes_batch_backend(self, tasks):
        via_sweep = _payloads(
            tasks, sweep(tasks, backend="batch")
        )
        # The same units run by hand and scattered back to task order.
        by_hand: list = [None] * len(tasks)
        for unit in _form_units([(task, None) for task in tasks]):
            unit_results, _ = unit.run()
            for index, result in zip(unit.indices, unit_results):
                by_hand[index] = result
        direct = _payloads(tasks, by_hand)
        assert via_sweep == direct

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_event_backend_never_groups(
        self, tasks, tmp_path, monkeypatch, jobs
    ):
        # The event path forms singleton units directly: no group
        # tokens, no tape keys, no fingerprint beyond the cache key.
        def never(*args, **kwargs):
            raise AssertionError("the event backend formed batch groups")

        batch_module = importlib.import_module("repro.exec.batch_sweep")
        monkeypatch.setattr(batch_module, "_group_token", never)
        monkeypatch.setattr(batch_module, "tape_key", never)
        profile = ExecProfile()
        cache = ResultCache(root=tmp_path / "cache")
        results = sweep(
            tasks, backend="event", jobs=jobs, cache=cache, profile=profile
        )
        assert len(results) == len(tasks)
        assert [t.key for t in profile.timings] == [str(t.key) for t in tasks]
        with pytest.raises(AssertionError, match="formed batch groups"):
            sweep(tasks, backend="batch")  # the patch does bite

    def test_sweep_forwards_tape_cache(self, tasks, tmp_path):
        tape_cache = TapeCache(tmp_path / "tapes")
        via_sweep = _payloads(
            tasks, sweep(tasks, backend="batch", tape_cache=tape_cache)
        )
        direct = _payloads(tasks, sweep(tasks, backend="batch"))
        assert via_sweep == direct
        assert len(tape_cache) == 2  # the cache saw the recordings

    @pytest.mark.parametrize("make", [
        lambda: Executor(backend="turbo"),
        lambda: sweep([], backend="turbo"),
    ])
    def test_unknown_backend_fails_loudly(self, make):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            make()

    def test_executor_accumulates_batch_report(self, tasks):
        executor = Executor(backend="batch")
        executor.run(tasks[:6])
        executor.run(tasks[6:])
        assert executor.batch_report is not None
        assert executor.batch_report.groups == 2
        assert executor.batch_report.passthrough_points == 1
        assert "batch backend:" in executor.batch_report.summary()

    def test_event_executor_has_no_batch_report(self):
        assert Executor().batch_report is None


class TestTapeCache:
    """The persistent recording store: skip re-recording, never re-trust."""

    def test_miss_then_hit_with_identical_results(self, tasks, tmp_path):
        tape_cache = TapeCache(tmp_path / "tapes")
        cold_report = BatchReport()
        cold = _payloads(
            tasks,
            sweep(
                tasks,
                backend="batch",
                batch_report=cold_report,
                tape_cache=tape_cache,
            ),
        )
        assert cold_report.tape_cache_enabled
        assert (cold_report.tape_hits, cold_report.tape_misses) == (0, 2)
        warm_report = BatchReport()
        warm = _payloads(
            tasks,
            sweep(
                tasks,
                backend="batch",
                batch_report=warm_report,
                tape_cache=tape_cache,
            ),
        )
        assert warm == cold  # a loaded tape replays byte-identically
        assert (warm_report.tape_hits, warm_report.tape_misses) == (2, 0)
        assert warm_report.record_s == 0.0  # nothing re-recorded

    def test_pooled_sweep_shares_tapes_and_matches_serial(self, tasks, tmp_path):
        serial = _payloads(tasks, sweep(tasks, backend="batch"))
        tape_cache = TapeCache(tmp_path / "tapes")
        cold = _payloads(
            tasks, sweep(tasks, backend="batch", jobs=4, tape_cache=tape_cache)
        )
        warm = _payloads(
            tasks, sweep(tasks, backend="batch", jobs=4, tape_cache=tape_cache)
        )
        assert cold == serial
        assert warm == serial

    def test_prune_evicts_tapes(self, tasks, tmp_path, monkeypatch):
        tape_cache = TapeCache(tmp_path / "tapes")
        sweep(tasks, backend="batch", tape_cache=tape_cache)
        assert len(tape_cache) == 2
        # Explicit size bound: evict (LRU) until the store fits.
        assert tape_cache.prune(max_bytes=0) == 2
        assert len(tape_cache) == 0
        assert tape_cache.stats.evicted == 2
        # The environment knob drives the same bound when prune() gets
        # no explicit argument (the runner's post-run prune path).
        sweep(tasks, backend="batch", tape_cache=tape_cache)
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.000001")
        assert tape_cache.prune() == 2
        # Eviction is never silent corruption: the next sweep simply
        # re-records and produces the same numbers.
        report = BatchReport()
        sweep(tasks, backend="batch", batch_report=report, tape_cache=tape_cache)
        assert (report.tape_hits, report.tape_misses) == (0, 2)

    def test_tape_store_is_invisible_to_the_result_cache(self, tasks, tmp_path):
        # The tape cache nests under the result-cache root in the
        # executor's derived layout; the result cache's entry glob must
        # never see (or prune) tape entries as its own.
        cache = ResultCache(root=tmp_path / "cache")
        tape_cache = TapeCache(tmp_path / "cache" / "tapes")
        sweep(tasks, backend="batch", cache=cache, tape_cache=tape_cache)
        assert len(tape_cache) == 2
        assert len(cache) == len(tasks)

    def test_summary_names_fallbacks_stages_and_tape_counts(
        self, tasks, tmp_path
    ):
        report = BatchReport()
        sweep(
            tasks,
            backend="batch",
            batch_report=report,
            tape_cache=TapeCache(tmp_path / "tapes"),
        )
        line = report.summary()
        assert ", 0 fallback(s)" in line
        # Zero counts are named too: 6 EP + 2 Jacobi columns, all vector.
        assert "replay columns: 8 vector, 0 scalar (0 divergent)" in line
        assert "tape cache: 0 hit(s), 2 miss(es)" in line
        assert "stages: record" in line
        assert "replay" in line and "merge" in line
        assert report.record_s > 0.0
        assert report.replay_s > 0.0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_undecodable_tape_counts_as_a_miss(self, cluster, tmp_path, jobs):
        # An entry that keeps its key but whose payload does not decode
        # is re-recorded, so it must be reported as a miss, not a hit.
        # The passthrough point gives the sweep a second unit, so with
        # jobs=2 the re-recording happens inside a pool worker.
        tasks = [
            MeasurementTask(cluster, EP(SCALE), nodes=2, gear=g)
            for g in (1, 3, 6)
        ] + [CalibrationTask(cluster, EP(SCALE))]
        tape_cache = TapeCache(tmp_path / "tapes")
        sweep(tasks, backend="batch", tape_cache=tape_cache)
        key = tape_key(tasks[0], 1)
        assert tape_cache.contains(key)
        tape_cache.store(key, {"garbage": 1})

        report = BatchReport()
        sweep(
            tasks, backend="batch", jobs=jobs, batch_report=report,
            tape_cache=tape_cache,
        )
        assert "tape cache: 0 hit(s), 1 miss(es)" in report.summary()
        assert report.record_s > 0.0
        assert not report.fallbacks

        warm = BatchReport()
        sweep(
            tasks, backend="batch", jobs=jobs, batch_report=warm,
            tape_cache=tape_cache,
        )
        assert (warm.tape_hits, warm.tape_misses) == (1, 0)
        assert warm.record_s == 0.0

    def test_no_cache_summary_omits_tape_counts(self, tasks):
        report = BatchReport()
        sweep(tasks, backend="batch", batch_report=report)
        assert not report.tape_cache_enabled
        assert "tape cache" not in report.summary()


class TestTapeKey:
    def test_shared_across_kinds_and_requested_gears(self, cluster):
        # Every member of a gear-grid family — and the sweep task that
        # covers the same grid — must map to ONE tape.
        low = MeasurementTask(cluster, EP(SCALE), nodes=2, gear=1)
        high = MeasurementTask(cluster, EP(SCALE), nodes=2, gear=5)
        grid = GearSweepTask(cluster, EP(SCALE), nodes=2, gears=ALL_GEARS)
        assert tape_key(low, 1) == tape_key(high, 1) == tape_key(grid, 1)

    def test_sensitive_to_everything_that_changes_the_recording(self, cluster):
        base = MeasurementTask(cluster, EP(SCALE), nodes=2, gear=1)
        keys = {
            tape_key(base, 1),
            tape_key(base, 2),  # recording gear
            tape_key(MeasurementTask(cluster, EP(SCALE), nodes=4, gear=1), 1),
            tape_key(MeasurementTask(cluster, Jacobi(SCALE), nodes=2, gear=1), 1),
            tape_key(MeasurementTask(cluster, EP(0.3), nodes=2, gear=1), 1),
        }
        assert len(keys) == 5


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


@pytest.fixture(scope="module")
def narrowing_tasks(cluster):
    """Two paper cells whose grids the send-order guard narrows: MG on
    4 nodes keeps only its recording-gear column vectorized, BT on 4
    nodes diverges on that column and takes scalar timelines for all."""
    return [
        MeasurementTask(cluster, make(0.2), nodes=4, gear=g)
        for make in (MG, BT)
        for g in ALL_GEARS
    ]


class TestReplayCoverage:
    """Which replay path computed each column is visible in the report."""

    def test_batch_sweep_agrees_with_event_runs(self, tasks):
        for task, ours in zip(tasks, sweep(tasks, backend="batch")):
            theirs = task.run()
            if isinstance(task, GearSweepTask):
                pairs = list(zip(ours, theirs))
            elif isinstance(task, MeasurementTask):
                pairs = [(ours, theirs)]
            else:
                assert ours == theirs  # the calibration passthrough
                continue
            for a, b in pairs:
                assert a.gear == b.gear
                assert _rel(a.time, b.time) <= 1e-9
                assert _rel(a.energy, b.energy) <= 1e-9

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_report_counts_columns_from_every_unit(self, narrowing_tasks, jobs):
        # Pooled workers send their ReplayStats back with the results.
        report = BatchReport()
        sweep(narrowing_tasks, backend="batch", jobs=jobs, batch_report=report)
        assert (report.vector_cols, report.scalar_cols) == (1, 11)
        assert report.divergent_cols == 5
        assert (
            "0 fallback(s); replay columns: 1 vector, 11 scalar "
            "(5 divergent)" in report.summary()
        )


class _SlowStore(ResultCache):
    """A result cache whose store of one chosen key takes visibly long."""

    slow_key: str | None = None

    def store(self, key, payload, *, meta=None):
        if key == self.slow_key:
            time.sleep(0.05)
        return super().store(key, payload, meta=meta)


class TestProfileRows:
    """Batch profile rows come back in task order with their own timings."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_follow_task_order(self, cluster, tmp_path, jobs):
        # Interleaved groups form units [Jacobi g1 + g2, EP g1]; a
        # unit-by-unit merge would put EP's row last and hand its cache
        # timings to the Jacobi g2 row.
        tasks = [
            MeasurementTask(cluster, Jacobi(SCALE), nodes=2, gear=1),
            MeasurementTask(cluster, EP(SCALE), nodes=2, gear=1),
            MeasurementTask(cluster, Jacobi(SCALE), nodes=2, gear=2),
        ]
        cache = _SlowStore(root=tmp_path / "cache")
        cache.slow_key = batch_cache_key(tasks[1])
        profile = ExecProfile()
        sweep(tasks, backend="batch", jobs=jobs, cache=cache, profile=profile)
        rows = profile.timings
        assert [t.key for t in rows] == [str(t.key) for t in tasks]
        assert all(t.source == SOURCE_RUN for t in rows)
        assert all(t.seconds > 0 and t.lookup_s > 0 for t in rows)
        assert [t.store_s >= 0.05 for t in rows] == [False, True, False]
        assert profile.busy_s <= profile.wall_s * profile.workers

    def test_unit_walls_fit_in_the_chunk_wall(self, tasks):
        units = _form_units([(task, None) for task in tasks])
        outcomes, chunk_wall = _execute_chunk(units)
        assert [len(unit_results) for unit_results, _, _, _ in outcomes] == [
            6,
            1,
            1,
        ]
        seconds = [unit_s for _, _, unit_s, _ in outcomes]
        assert all(s > 0 for s in seconds)
        assert sum(seconds) <= chunk_wall


class TestExecutorTapeCache:
    def test_derived_under_the_result_cache_root(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        executor = Executor(backend="batch", cache=cache)
        assert isinstance(executor.tape_cache, TapeCache)
        assert executor.tape_cache.root == tmp_path / "cache" / "tapes"

    def test_not_derived_without_batch_backend_or_cache(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        assert Executor(cache=cache).tape_cache is None
        assert Executor(backend="batch").tape_cache is None
        executor = Executor(backend="batch", cache=cache, tape_cache=False)
        assert executor.tape_cache is None  # explicit opt-out

    def test_tapes_outlive_a_cleared_result_cache(self, tasks, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        executor = Executor(backend="batch", cache=cache)
        executor.run(tasks)
        cache.clear()  # point payloads gone; recordings survive
        executor.run(tasks)
        assert executor.batch_report is not None
        assert executor.batch_report.tape_misses == 2
        assert executor.batch_report.tape_hits == 2
