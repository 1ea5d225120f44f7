"""The traced entry points of each ``repro`` layer, and the metrics read from them.

Span names (and so the layer each one is charged to):

==========================  ==============================================
span                        entry points
==========================  ==============================================
``experiments.<artifact>``  ``repro.experiments.figure1`` ... ``table1``
``scenarios.build``         the ``*_scenarios`` builders, ``figure5_plans``,
                            ``validation_pack``, ``expand``,
                            ``ScenarioSpec.tasks``
``exec.run``                ``Executor.run``
``exec.cache_key``          ``cache_key``, ``batch_cache_key``
``exec.cache_load/store``   ``ResultCache.load/store`` on the result cache
``exec.tape_load/store``    the same methods on a ``TapeCache``
``sim.batch.record``        ``record_tape``
``sim.batch.replay``        ``replay_grid``
``mpi.world``               ``World.run`` (``repro.cluster`` runs inside it)
``core.run_workload``       ``run_workload``
``core.calibrate``          ``calibrate_gears``
``policy.run``              ``run_with_policy``
==========================  ==============================================
"""

from __future__ import annotations

import importlib
import re
import sys
from typing import Any

from tracer import Patcher, Tracer
from workloads import ARTIFACTS

_MODULES = (
    "repro.core.calibration",
    "repro.core.run",
    "repro.exec.batch_sweep",
    "repro.exec.cache",
    "repro.exec.executor",
    "repro.exec.sweep",
    "repro.experiments",
    "repro.mpi.world",
    "repro.policy.comm",
    "repro.scenarios.packs",
    "repro.scenarios.paper",
    "repro.scenarios.spec",
    "repro.sim.batch",
)

#: Span names whose self times, with the residual, make up the wall time.
SELF_TIME_METRICS = {
    "experiments.self_s": [f"experiments.{a}" for a in ARTIFACTS],
    "scenarios.build_s": ["scenarios.build"],
    "exec.run_self_s": ["exec.run"],
    "exec.cache_key_s": ["exec.cache_key"],
    "exec.cache_load_s": ["exec.cache_load"],
    "exec.cache_store_s": ["exec.cache_store"],
    "exec.tape_load_s": ["exec.tape_load"],
    "exec.tape_store_s": ["exec.tape_store"],
    "sim.batch.record_self_s": ["sim.batch.record"],
    "sim.batch.replay_s": ["sim.batch.replay"],
    "mpi.world_s": ["mpi.world"],
    "core.run_workload_self_s": ["core.run_workload"],
    "core.calibrate_s": ["core.calibrate"],
    "policy.run_self_s": ["policy.run"],
}

#: Every per-layer metric: name -> (unit, better).
PER_LAYER: dict[str, tuple[str, str]] = {
    "mpi.world_s": ("s", "lower"),
    "mpi.world_runs": ("count", "lower"),
    "mpi.events": ("count", "lower"),
    "mpi.events_per_s": ("1/s", "higher"),
    "mpi.ff_skipped_iters": ("count", "higher"),
    "mpi.ff_jumps": ("count", "higher"),
    "mpi.ff_deviations": ("count", "lower"),
    "sim.batch.record_self_s": ("s", "lower"),
    "sim.batch.records": ("count", "lower"),
    "sim.batch.replay_s": ("s", "lower"),
    "sim.batch.replays": ("count", "higher"),
    "sim.batch.vector_cols": ("count", "higher"),
    "sim.batch.scalar_cols": ("count", "lower"),
    "sim.batch.divergent_cols": ("count", "lower"),
    "sim.batch.vector_frac": ("fraction", "higher"),
    "sim.batch.grid_fallbacks": ("count", "lower"),
    "exec.cache_key_s": ("s", "lower"),
    "exec.cache_key_calls": ("count", "lower"),
    "exec.cache_load_s": ("s", "lower"),
    "exec.cache_store_s": ("s", "lower"),
    "exec.cache_hits": ("count", "higher"),
    "exec.cache_misses": ("count", "lower"),
    "exec.tape_load_s": ("s", "lower"),
    "exec.tape_store_s": ("s", "lower"),
    "exec.tape_hits": ("count", "higher"),
    "exec.tape_misses": ("count", "lower"),
    "exec.batch_fallback_points": ("count", "lower"),
    "exec.run_self_s": ("s", "lower"),
    "scenarios.build_s": ("s", "lower"),
    **{f"experiments.{a}_s": ("s", "lower") for a in ARTIFACTS},
    "experiments.self_s": ("s", "lower"),
    "core.run_workload_self_s": ("s", "lower"),
    "core.calibrate_s": ("s", "lower"),
    "policy.run_self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.residual_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.spans": ("count", "lower"),
}

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

_REPLAY_FIELDS = ("vector_gears", "scalar_gears", "divergent_gears")


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every traced entry point; ``patcher.restore()`` undoes it."""
    for module in _MODULES:
        importlib.import_module(module)
    mod = sys.modules
    counts = tracer.counts

    def function(module: str, attr: str, name: str, **hooks: Any) -> None:
        original = getattr(mod[module], attr)
        if not patcher.replace_function(original, tracer.wrap(original, name, **hooks)):
            raise RuntimeError(f"{module}.{attr} is bound nowhere")

    def method(cls: type, attr: str, name: Any, **hooks: Any) -> None:
        patcher.replace_method(cls, attr, tracer.wrap(vars(cls)[attr], name, **hooks))

    for artifact in ARTIFACTS:
        function(f"repro.experiments.{artifact}", artifact, f"experiments.{artifact}")

    for artifact in ARTIFACTS:
        function("repro.scenarios.paper", f"{artifact}_scenarios", "scenarios.build")
    function("repro.scenarios.paper", "figure5_plans", "scenarios.build")
    function("repro.scenarios.packs", "validation_pack", "scenarios.build")
    function("repro.scenarios.spec", "expand", "scenarios.build")
    method(mod["repro.scenarios.spec"].ScenarioSpec, "tasks", "scenarios.build")

    def before_run(args, kwargs):
        report = args[0].batch_report
        return report, report.fallback_points if report is not None else 0

    def after_run(state, args, kwargs, result):
        report, before = state
        if report is not None:
            counts["exec.batch_fallback_points"] += report.fallback_points - before

    method(
        mod["repro.exec.executor"].Executor, "run", "exec.run",
        before=before_run, after=after_run,
    )
    function("repro.exec.sweep", "cache_key", "exec.cache_key")
    function("repro.exec.batch_sweep", "batch_cache_key", "exec.cache_key")

    cache_module = mod["repro.exec.cache"]

    def store_layer(cache: Any) -> str:
        return "exec.tape" if isinstance(cache, cache_module.TapeCache) else "exec.cache"

    def after_load(state, args, kwargs, result):
        counts[f"{store_layer(args[0])}_{'misses' if result is None else 'hits'}"] += 1

    method(
        cache_module.ResultCache, "load",
        lambda cache, *a, **k: f"{store_layer(cache)}_load", after=after_load,
    )
    method(
        cache_module.ResultCache, "store",
        lambda cache, *a, **k: f"{store_layer(cache)}_store",
    )

    batch = mod["repro.sim.batch"]
    function("repro.sim.batch", "record_tape", "sim.batch.record")

    def before_replay(args, kwargs):
        # exec.batch_sweep never passes a ReplayStats; inject one so the
        # per-column coverage is counted instead of thrown away.
        stats = kwargs.get("stats")
        if stats is None:
            stats = kwargs["stats"] = batch.ReplayStats()
        return stats, [getattr(stats, f) for f in _REPLAY_FIELDS], len(stats.fallback_reasons)

    def after_replay(state, args, kwargs, result):
        stats, before, reasons = state
        for field, start in zip(_REPLAY_FIELDS, before):
            counts[f"replay.{field}"] += getattr(stats, field) - start
        counts["replay.grid_fallbacks"] += len(stats.fallback_reasons) - reasons

    function(
        "repro.sim.batch", "replay_grid", "sim.batch.replay",
        before=before_replay, after=after_replay,
    )

    def before_world(args, kwargs):
        ff = args[0]._ff
        if ff is None:
            return None
        agg = ff.config.aggregate
        return agg, agg.skipped_iterations, agg.jumps, agg.deviations

    def after_world(state, args, kwargs, result):
        counts["mpi.events"] += args[0].engine.processed
        if state is not None:
            agg, skipped, jumps, deviations = state
            counts["mpi.ff_skipped_iters"] += agg.skipped_iterations - skipped
            counts["mpi.ff_jumps"] += agg.jumps - jumps
            counts["mpi.ff_deviations"] += agg.deviations - deviations

    method(
        mod["repro.mpi.world"].World, "run", "mpi.world",
        before=before_world, after=after_world,
    )
    function("repro.core.run", "run_workload", "core.run_workload")
    function("repro.core.calibration", "calibrate_gears", "core.calibrate")
    function("repro.policy.comm", "run_with_policy", "policy.run")


def diff(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    """Per-key growth between two :meth:`Tracer.snapshot` results."""
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def layer_metrics(flat: dict[str, float], wall_s: float, untraced_s: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from a traced run's snapshot.

    ``wall_s`` is the traced run's wall time; ``untraced_s`` the same
    work timed with tracing off.
    """
    def self_s(span: str) -> float:
        return flat.get(f"self:{span}", 0.0)

    def calls(span: str) -> float:
        return flat.get(f"calls:{span}", 0.0)

    def count(name: str) -> float:
        return flat.get(f"count:{name}", 0.0)

    out = {
        metric: sum(self_s(span) for span in spans)
        for metric, spans in SELF_TIME_METRICS.items()
    }
    accounted = sum(out.values())
    vector = count("replay.vector_gears")
    scalar = count("replay.scalar_gears")
    out.update(
        {
            "mpi.world_runs": calls("mpi.world"),
            "mpi.events": count("mpi.events"),
            "mpi.events_per_s": (
                count("mpi.events") / out["mpi.world_s"] if out["mpi.world_s"] else 0.0
            ),
            "mpi.ff_skipped_iters": count("mpi.ff_skipped_iters"),
            "mpi.ff_jumps": count("mpi.ff_jumps"),
            "mpi.ff_deviations": count("mpi.ff_deviations"),
            "sim.batch.records": calls("sim.batch.record"),
            "sim.batch.replays": calls("sim.batch.replay"),
            "sim.batch.vector_cols": vector,
            "sim.batch.scalar_cols": scalar,
            "sim.batch.divergent_cols": count("replay.divergent_gears"),
            "sim.batch.vector_frac": vector / (vector + scalar) if vector + scalar else 0.0,
            "sim.batch.grid_fallbacks": count("replay.grid_fallbacks"),
            "exec.cache_key_calls": calls("exec.cache_key"),
            "exec.cache_hits": count("exec.cache_hits"),
            "exec.cache_misses": count("exec.cache_misses"),
            "exec.tape_hits": count("exec.tape_hits"),
            "exec.tape_misses": count("exec.tape_misses"),
            "exec.batch_fallback_points": count("exec.batch_fallback_points"),
            "trace.wall_s": wall_s,
            "trace.residual_s": wall_s - accounted,
            "trace.overhead_frac": wall_s / untraced_s - 1.0 if untraced_s else 0.0,
            "trace.spans": sum(calls(s) for spans in SELF_TIME_METRICS.values() for s in spans),
        }
    )
    for artifact in ARTIFACTS:
        out[f"experiments.{artifact}_s"] = flat.get(f"total:experiments.{artifact}", 0.0)
    return out


def guard(workload: str, phases: dict[str, dict[str, float]], points: int) -> list[str]:
    """Why the traced run did not exercise the layers it is meant to stress.

    ``phases`` maps "cold" and "warm" to :func:`layer_metrics` of that
    pass alone; ``points`` is the number of points in one pass.
    """
    cold, warm = phases["cold"], phases["warm"]
    problems = []

    def need(ok: bool, why: str) -> None:
        if not ok:
            problems.append(why)

    # Points are content-addressed, and both suites repeat some (table 1
    # reuses figure 1's sweeps), so a cold pass also hits its own stores.
    need(cold["exec.cache_misses"] > 0, "cold pass never missed the result cache")
    need(warm["exec.cache_hits"] >= points, "warm pass hit the result cache for fewer than every point")
    need(warm["mpi.world_runs"] == 0, "warm pass simulated")
    need(cold["mpi.world_runs"] > 0, "cold pass did not simulate")
    batch_metrics = [m for m in cold if m.startswith("sim.batch.") or m.startswith("exec.tape_")]
    if workload == "paper-batch":
        need(cold["sim.batch.records"] > 0, "no tape was recorded")
        need(cold["sim.batch.replays"] > 0, "no grid was replayed")
        need(cold["sim.batch.vector_cols"] > 0, "no gear column was vectorized")
        need(cold["mpi.ff_skipped_iters"] > 0, "fast-forward skipped no iteration")
        need(cold["exec.tape_misses"] > 0, "the tape cache was never consulted")
    else:
        for metric in batch_metrics:
            need(cold[metric] == 0, f"{metric} is nonzero on the event backend")
    if workload == "pack-sweep":
        need(cold["policy.run_self_s"] > 0, "no policy-managed run")
    else:
        need(all(cold[f"experiments.{a}_s"] > 0 for a in ARTIFACTS), "an artifact did not run")
    return problems
