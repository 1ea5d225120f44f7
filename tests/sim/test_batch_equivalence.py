"""Batch backend equivalence: record/replay vs the event engine.

The contract under test: a gear grid revalued from one recorded tape
(:mod:`repro.sim.batch`) agrees with independent event-engine runs to
1e-9 relative across every workload in the suite, composing with
steady-state fast-forward on the recording; and any certification
failure — a signature deviation during the recording, for instance —
refuses the tape loudly, so the exec layer's fallback reruns the points
on the event engine, bitwise what a plain sweep produces.  Every grid is
also checked against the per-gear scalar oracle (:mod:`tests.sim.oracle`),
and the paper cells where the vectorized walk narrows are pinned to the
column split they take.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.disk import drpm_disk
from repro.cluster.machines import athlon_cluster
from repro.core.run import gear_sweep, run_workload
from repro.mpi import FastForwardConfig
from repro.mpi.comm import Comm
from repro.sim import batch as batch_module
from repro.sim.batch import (
    BatchUnsupported,
    ReplayStats,
    batch_gear_grid,
    batch_gear_sweep,
    record_tape,
    replay_grid,
)
from repro.workloads import (
    BT,
    CG,
    EP,
    FT,
    IS,
    LU,
    MG,
    SP,
    CheckpointedStencil,
    Jacobi,
    SyntheticMemoryPressure,
)
from repro.workloads.base import CommScheme, Program, Workload, WorkloadSpec
from tests.sim.oracle import oracle_grid

#: Relative tolerance the equivalence grid asserts (the acceptance bar;
#: observed error stays orders of magnitude below — the replay mirrors
#: the engine's float arithmetic operation for operation).
RTOL = 1e-9

#: The paper cluster's full gear grid (figures 2 and 5 sweep all of it).
ALL_GEARS = (1, 2, 3, 4, 5, 6)


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _assert_grid_equivalent(
    cluster, workload, *, nodes, gears=ALL_GEARS, fast_forward=None
):
    """Batch grid vs one event run per gear, three quantities each.

    One recording backs both the batch grid and the per-gear scalar
    oracle, so this also pins the grid replay's own contract: it agrees
    with the oracle at the same tolerance, for every workload and gear,
    and the column accounting covers the whole grid.  Returns the
    grid's :class:`ReplayStats`.
    """
    tape = record_tape(
        cluster, workload, nodes=nodes, gear=gears[0], fast_forward=fast_forward
    )
    stats = ReplayStats()
    batch = batch_gear_grid(
        cluster,
        workload,
        nodes=nodes,
        gears=gears,
        stats=stats,
        tape=tape,
    )
    oracle = oracle_grid(tape, gears)
    assert len(batch) == len(gears)
    assert stats.vector_gears + stats.scalar_gears == len(gears)
    for gear, measurement, reference in zip(gears, batch, oracle):
        event = run_workload(
            cluster, workload, nodes=nodes, gear=gear, fast_forward=fast_forward
        )
        assert measurement.gear == gear
        assert _rel(event.time, measurement.time) <= RTOL
        assert _rel(event.energy, measurement.energy) <= RTOL
        assert _rel(event.active_time, measurement.active_time) <= RTOL
        assert reference.gear == gear
        assert _rel(reference.time, measurement.time) <= RTOL
        assert _rel(reference.energy, measurement.energy) <= RTOL
        assert _rel(reference.active_time, measurement.active_time) <= RTOL
    return stats


class TestEquivalenceGrid:
    """One tape per workload, replayed across the full gear grid."""

    # Scales keep the tier-1 wall clock sane while leaving every
    # workload enough iterations to exercise its communication pattern.
    # CG's ring recurrence rotates its per-iteration signature on more
    # than two ranks, so it runs on 2 (same choice as the ff-eligible
    # validation pack).
    @pytest.mark.parametrize(
        "make,scale,nodes",
        [
            (Jacobi, 0.2, 4),
            (CG, 0.5, 2),
            (EP, 1.0, 4),
            (FT, 2.0, 4),
            (IS, 2.0, 4),
            (LU, 1.0, 4),
            (MG, 1.0, 4),
            (SyntheticMemoryPressure, 0.4, 4),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
    )
    def test_power_of_two_workloads(self, cluster, make, scale, nodes):
        _assert_grid_equivalent(cluster, make(scale), nodes=nodes)

    @pytest.mark.parametrize("make", [BT, SP], ids=lambda w: w.__name__)
    def test_square_grid_workloads(self, cluster, make):
        _assert_grid_equivalent(cluster, make(0.5), nodes=4)

    def test_checkpointed_disk_phases(self):
        # Blocking checkpoint writes and DRPM spindle transitions ride
        # the tape too (disk time is gear-invariant; its excess power is
        # rolled up separately from the CPU terms).
        disk_cluster = athlon_cluster(max_nodes=8, disk=drpm_disk())
        _assert_grid_equivalent(
            disk_cluster,
            CheckpointedStencil(1.0, checkpoint_every=2),
            nodes=4,
        )

    def test_composes_with_fast_forward(self, cluster):
        # The recording itself macro-steps; replicated-window segments
        # are revalued once and weighted by their copy count.
        _assert_grid_equivalent(
            cluster,
            Jacobi(1.0),
            nodes=4,
            fast_forward=FastForwardConfig(max_period=4),
        )

    def test_subset_grids_match_figure5_menus(self, cluster):
        _assert_grid_equivalent(cluster, Jacobi(0.2), nodes=2, gears=(1, 4))

    def test_sweep_curve_matches_event_sweep(self, cluster):
        workload = SyntheticMemoryPressure(0.4)
        event = gear_sweep(cluster, workload, nodes=4)
        batch = batch_gear_sweep(cluster, workload, nodes=4)
        assert batch.workload == event.workload
        assert batch.nodes == event.nodes
        assert [p.gear for p in batch] == [p.gear for p in event]
        for ours, theirs in zip(batch, event):
            assert _rel(ours.time, theirs.time) <= RTOL
            assert _rel(ours.energy, theirs.energy) <= RTOL


class TestVectorizedReplay:
    """Column accounting and rejection semantics of the gear-axis walk."""

    def test_jacobi_grid_is_fully_vectorized(self, cluster):
        # The dense steady workload the bench ratchet gates on: every
        # gear column must come off the vectorized walk — any scalar
        # re-replay or divergence guard firing here is a regression.
        tape = record_tape(cluster, Jacobi(0.2), nodes=4, gear=1)
        stats = ReplayStats()
        replay_grid(tape, list(ALL_GEARS), stats=stats)
        assert stats.vector_gears == len(ALL_GEARS)
        assert stats.scalar_gears == 0
        assert stats.divergent_gears == 0
        assert stats.fallback_reasons == []

    # The recording-gear column's timeline comes off the vectorized walk
    # for Jacobi and off the scalar interpreter for BT on 4 nodes, whose
    # check column diverges from the recorded send order.
    @pytest.mark.parametrize(
        "timeline,make",
        [("grid", Jacobi), ("scalar", BT)],
        ids=["grid", "scalar"],
    )
    def test_self_check_miss_rejects_whole_tape(self, cluster, timeline, make):
        # A tape whose recorded totals no longer match its own replay —
        # bitrot, a stale cache entry surviving a model change — must
        # reject whichever path the check column's timeline took; the
        # grid may never ship numbers the recording gear cannot vouch for.
        tape = record_tape(cluster, make(0.2), nodes=4, gear=1)
        stats = ReplayStats()
        replay_grid(tape, list(ALL_GEARS), stats=stats)
        assert bool(stats.fallback_reasons) == (timeline == "scalar")
        tape.recording_energy *= 1.0 + 1e-6
        with pytest.raises(BatchUnsupported, match="self-check"):
            replay_grid(tape, list(ALL_GEARS))


class TestScalarTimelineFallback:
    """Paper cells where the send-order guard narrows the vector walk.

    Narrowed columns take their timeline from the scalar interpreter
    and share the one vectorized rollup; the numbers must still agree
    with the event engine and the per-gear oracle at 1e-9, and the
    split must be exactly the one the guard takes today.
    """

    def test_partial_narrowing_mg(self, cluster):
        # MG on 4 nodes: only the recording-gear column certifies.
        stats = _assert_grid_equivalent(cluster, MG(1.0), nodes=4)
        assert (stats.vector_gears, stats.scalar_gears) == (1, 5)
        assert stats.divergent_gears == 5
        assert stats.fallback_reasons == []

    def test_whole_grid_bt(self, cluster):
        # BT on 4 nodes: the recording-gear column itself diverges, so
        # every column takes its timeline from the scalar interpreter.
        stats = _assert_grid_equivalent(cluster, BT(1.0), nodes=4)
        assert (stats.vector_gears, stats.scalar_gears) == (0, 6)
        assert stats.divergent_gears == 0
        assert len(stats.fallback_reasons) == 1
        assert "recording-gear column diverged" in stats.fallback_reasons[0]

    def test_recording_gear_is_replayed_once(self, cluster, monkeypatch):
        # The schedule is recorded, not derived by a replay, so the
        # scalar interpreter runs only for flagged columns: never for a
        # fully vectorized grid, and exactly once per gear for a
        # whole-grid fallback — whether the tape is compiled or not.
        calls = []
        replay_gear = batch_module._replay_gear

        def counting(tape, durations):
            calls.append(tape.workload_name)
            return replay_gear(tape, durations)

        monkeypatch.setattr(batch_module, "_replay_gear", counting)
        jacobi = record_tape(cluster, Jacobi(0.2), nodes=4, gear=1)
        replay_grid(jacobi, list(ALL_GEARS))
        assert calls == []
        tape = record_tape(cluster, BT(1.0), nodes=4, gear=1)
        stats = ReplayStats()
        replay_grid(tape, list(ALL_GEARS), stats=stats)
        assert stats.scalar_gears == len(ALL_GEARS)
        assert calls == ["BT"] * len(ALL_GEARS)
        calls.clear()
        replay_grid(tape, list(ALL_GEARS))  # warm: already compiled
        assert calls == ["BT"] * len(ALL_GEARS)


class _DeviatingRing(Workload):
    """A ring workload whose iteration ``deviate_at`` does extra work.

    Every other iteration repeats the same compute + ring-exchange
    signature, so the recording's observe-only fast-forward establishes
    a reference pattern — which the perturbed iteration then breaks,
    registering a signature deviation that must reject the tape.
    """

    BASE_ITERATIONS = 16

    def __init__(self, *, deviate_at: int, extra: float):
        self.deviate_at = deviate_at
        self.extra = extra
        self.spec = WorkloadSpec(
            name="DeviatingRing",
            iterations=self.BASE_ITERATIONS,
            total_uops=2.0e9,
            upm=80.0,
            miss_latency=25e-9,
            serial_fraction=0.0,
            paper_comm_class=CommScheme.CONSTANT,
            description="uniform ring with one perturbed iteration",
        )

    def program(self, comm: Comm) -> Program:
        size, rank = comm.size, comm.rank
        iterations = self.spec.iterations
        iteration = 0
        while iteration < iterations:
            skipped = yield from comm.iteration_mark(iteration, iterations)
            if skipped:
                iteration += skipped
                continue
            share = self.extra if iteration == self.deviate_at else 1.0
            yield from comm.compute_block(
                self.parallel_block(size, share=share)
            )
            if size > 1:
                right = (rank + 1) % size
                left = (rank - 1) % size
                yield from comm.sendrecv(right, left, send_bytes=4096, tag=7)
            iteration += 1
        return None


class TestDeviationForcesExactFallback:
    """A broken steady pattern must never ship through the tape."""

    @given(
        deviate_at=st.integers(min_value=4, max_value=14),
        extra=st.sampled_from((0.25, 2.0, 3.0)),
    )
    @settings(max_examples=10, deadline=None)
    def test_recording_deviation_rejects_the_tape(self, deviate_at, extra):
        cluster = athlon_cluster()
        workload = _DeviatingRing(deviate_at=deviate_at, extra=extra)
        with pytest.raises(BatchUnsupported, match="deviation"):
            record_tape(cluster, workload, nodes=2, gear=1)

    @given(
        deviate_at=st.integers(min_value=4, max_value=14),
        extra=st.sampled_from((0.25, 2.0)),
    )
    @settings(max_examples=6, deadline=None)
    def test_exec_fallback_is_bitwise_event(self, deviate_at, extra):
        """The batch sweep's fallback results ARE event results.

        Not 1e-9-close: the fallback literally reruns ``task.run()``, so
        every float must compare equal.
        """
        from repro.exec.batch_sweep import BatchReport
        from repro.exec.sweep import sweep
        from repro.exec.tasks import MeasurementTask

        cluster = athlon_cluster()
        workload = _DeviatingRing(deviate_at=deviate_at, extra=extra)
        tasks = [
            MeasurementTask(cluster, workload, nodes=2, gear=g)
            for g in (1, 3, 6)
        ]
        report = BatchReport()
        batch_results = sweep(tasks, backend="batch", batch_report=report)
        event_results = [task.run() for task in tasks]
        assert report.fallbacks, "the deviating group must be logged"
        assert report.fallback_points == len(tasks)
        assert "deviation" in report.fallbacks[0].reason
        for ours, theirs in zip(batch_results, event_results):
            assert ours.time == theirs.time
            assert ours.energy == theirs.energy
            assert ours.active_time == theirs.active_time


class _WildcardGather(Workload):
    """Rank 0 collects one message per iteration with a wildcard receive.

    Which message a wildcard receive matches depends on arrival times,
    so the recording's send↔receive pairing cannot be certified
    gear-invariant and the tape must be refused.
    """

    def __init__(self):
        self.spec = WorkloadSpec(
            name="WildcardGather",
            iterations=4,
            total_uops=1.0e9,
            upm=80.0,
            miss_latency=25e-9,
            serial_fraction=0.0,
            paper_comm_class=CommScheme.CONSTANT,
            description="gather to rank 0 through wildcard receives",
        )

    def program(self, comm: Comm) -> Program:
        for _ in range(self.spec.iterations):
            yield from comm.compute_block(self.parallel_block(comm.size))
            if comm.rank == 0:
                for _ in range(comm.size - 1):
                    yield from comm.recv()
            else:
                yield from comm.send(0, nbytes=1024)
        return None


class TestWildcardReceivesAreRefused:
    """A wildcard receive fails certification like Now/SetGear."""

    def test_record_tape_refuses_wildcards(self, cluster):
        with pytest.raises(BatchUnsupported, match="wildcard"):
            record_tape(cluster, _WildcardGather(), nodes=2, gear=1)

    def test_exec_fallback_is_bitwise_event(self, cluster):
        from repro.exec.batch_sweep import BatchReport
        from repro.exec.sweep import sweep
        from repro.exec.tasks import MeasurementTask

        tasks = [
            MeasurementTask(cluster, _WildcardGather(), nodes=2, gear=g)
            for g in (1, 3, 6)
        ]
        report = BatchReport()
        batch_results = sweep(tasks, backend="batch", batch_report=report)
        event_results = [task.run() for task in tasks]
        assert len(report.fallbacks) == 1
        assert report.fallback_points == len(tasks)
        assert "wildcard" in report.fallbacks[0].reason
        for ours, theirs in zip(batch_results, event_results):
            assert ours.time == theirs.time
            assert ours.energy == theirs.energy
            assert ours.active_time == theirs.active_time
