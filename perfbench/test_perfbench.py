"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for entry in (str(HERE), str(HERE.parent / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import hostspeed  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from tracer import Patcher, Tracer  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_spans():
    # run [0, 10] contains record [1, 7], which contains world [2, 6];
    # run also contains a second world [8, 9].
    clock = FakeClock()
    tracer = Tracer(clock)
    steps = [
        (0, "enter", "exec.run"),
        (1, "enter", "sim.batch.record"),
        (2, "enter", "mpi.world"),
        (6, "exit", None),
        (7, "exit", None),
        (8, "enter", "mpi.world"),
        (9, "exit", None),
        (10, "exit", None),
    ]
    for at, action, name in steps:
        clock.now = at
        tracer.enter(name) if action == "enter" else tracer.exit()
    assert tracer.self_s == {"exec.run": 3.0, "sim.batch.record": 2.0, "mpi.world": 5.0}
    assert tracer.total_s["exec.run"] == 10.0
    assert tracer.calls["mpi.world"] == 2
    assert sum(tracer.self_s.values()) == tracer.top_level_s() == 10.0
    parents = {s.name: s.parent for s in tracer.spans if s.name != "mpi.world"}
    run_id = next(s.id for s in tracer.spans if s.name == "exec.run")
    assert parents == {"exec.run": -1, "sim.batch.record": run_id}


def test_wrap_records_a_span_even_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    wrapped = tracer.wrap(boom, "core.run_workload")
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.calls["core.run_workload"] == 1
    assert not tracer._stack


def test_layer_metrics_sum_to_wall_time():
    tracer = Tracer(FakeClock())
    clock = tracer.clock
    for at, name in ((0, "exec.run"), (1, "mpi.world")):
        clock.now = at
        tracer.enter(name)
    clock.now = 3
    tracer.exit()
    clock.now = 4
    tracer.exit()
    metrics = layers.layer_metrics(tracer.snapshot(), wall_s=5.0, untraced_s=4.0)
    selves = sum(metrics[m] for m in layers.SELF_TIME_METRICS)
    assert selves + metrics["trace.residual_s"] == 5.0
    assert metrics["mpi.world_s"] == 2.0
    assert metrics["exec.run_self_s"] == 2.0
    assert metrics["trace.overhead_frac"] == 0.25


def _repro_namespaces() -> dict[str, dict[str, object]]:
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if module is not None and (name == "repro" or name.startswith("repro."))
    }


def test_patching_leaves_the_modules_unchanged():
    import workloads  # noqa: F401  (loads the modules a run loads)
    from repro.exec.cache import ResultCache
    from repro.exec.executor import Executor
    from repro.mpi.world import World

    before = _repro_namespaces()
    classes = {cls: dict(vars(cls)) for cls in (ResultCache, Executor, World)}
    with Patcher() as patcher:
        layers.install(Tracer(), patcher)
        assert sys.modules["repro.exec.sweep"].cache_key is not before["repro.exec.sweep"]["cache_key"]
        assert vars(World)["run"] is not classes[World]["run"]
    after = _repro_namespaces()
    assert after.keys() >= before.keys()
    for name, namespace in before.items():
        changed = [k for k, v in namespace.items() if after[name].get(k) is not v]
        assert not changed, (name, changed)
    for cls, namespace in classes.items():
        assert dict(vars(cls)) == namespace


def test_sweep_module_is_patched_despite_the_shadowing_function():
    import repro.exec

    module = sys.modules["repro.exec.sweep"]
    assert repro.exec.sweep is not module  # the package attribute is the function
    original = module.cache_key
    with Patcher() as patcher:
        layers.install(Tracer(), patcher)
        assert module.cache_key.__wrapped__ is original
        assert sys.modules["repro.exec.batch_sweep"].cache_key is module.cache_key
    assert module.cache_key is original


def test_metric_names_are_well_formed():
    names = list(layers.PER_LAYER) + list(run.END_TO_END)
    assert len(names) == len(set(names))
    for name in names:
        assert layers.METRIC_NAME.fullmatch(name), name
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in benchmark["per_layer"]] == [
        (name, unit) for name, (unit, _) in layers.PER_LAYER.items()
    ]
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == run.END_TO_END


def test_host_speed_rescales_by_the_probe_loop(monkeypatch):
    # A host running the probe loop at half its nominal speed halves
    # the reported time.
    monkeypatch.setattr(hostspeed, "loop_seconds", lambda repeats=3: 2 * hostspeed.NOMINAL_LOOP_S)
    clock = iter([0.0, 0.0, 3.0, 3.0])
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: next(clock))
    result, wall, nominal = hostspeed.HostSpeed().time(lambda: "done", sample=False)
    assert (result, wall, nominal) == ("done", 3.0, 1.5)


def test_pack_slice_is_seeded_and_covers_every_family():
    import workloads

    pool = workloads.pack_pool()
    families = {workloads.family(spec) for spec in pool}
    assert families == {"strong", "weak", "hetgear", "ckpt", "commpath", "zoo", "ff"}
    first = workloads.select_specs(pool, 1)
    assert [s.name for s in first] == [s.name for s in workloads.select_specs(pool, 1)]
    assert [s.name for s in first] != [s.name for s in workloads.select_specs(pool, 2)]
    assert {workloads.family(spec) for spec in first} == families
    points = sum(spec.points for spec in first)
    assert 0.9 * 1110 <= points < 1110


def test_close_allows_relative_and_cancellation_rounding_only():
    assert reference.close({"t": 80.0, "x": [1, "a"]}, {"t": 80.0 * (1 + 5e-10), "x": [1, "a"]})
    assert reference.close({"idle": 2e-13}, {"idle": 0.0})
    assert not reference.close({"t": 80.0}, {"t": 80.0 * (1 + 1e-8)})
    assert not reference.close({"n": 1}, {"n": 2})
    assert not reference.close({"n": True}, {"n": 1.0})
    assert not reference.close([1.0], [1.0, 2.0])


def test_mismatches_names_missing_extra_and_different_points():
    ref = {"a": "1", "b": "2", "c": "3"}
    produced = {"a": "1", "b": "9", "z": "0"}
    assert sorted(reference.mismatches(["a", "b", "c"], produced, ref, exact=True)) == ["b", "c", "z"]
