"""What each benchmark workload builds and runs.

A workload has a *setup* (import ``repro`` and build the scenario specs
and simulation tasks) and a *pass* (execute every point through a fresh
:class:`repro.exec.Executor` on a given cache root).  A pass is a
sequence of *units*, each timed on its own: one artifact call for the
paper suite, one ``Executor.run`` per scenario spec for the pack (as
``runner scenarios run`` does).  A pass also records each
``Executor.run`` call's tasks and results so the points can be checked
against the stored reference after the clock has stopped.
"""

from __future__ import annotations

import json
import random
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

import repro.experiments as experiments
from repro.exec import Executor, ResultCache
from repro.mpi.fastforward import FastForwardConfig
from repro.scenarios import packs, paper
from repro.scenarios import spec as scenario_spec

#: Paper artifacts, in the order ``repro.experiments.runner`` runs them.
ARTIFACTS = ("figure1", "table1", "figure2", "figure3", "figure4", "figure5")

#: Workload scale of the paper artifacts (the runner's default).
SCALE = 1.0

#: Share of each pack family's points a seed keeps.  High, so that the
#: amount of work hardly depends on the seed.
PACK_SHARE = 0.9


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"paper"`` (the six artifacts) or ``"pack"`` (a validation-pack slice).
    suite: str
    backend: str
    fast_forward: bool
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper-event",
            "paper",
            "event",
            False,
            "figures 1-5 and table 1 at full scale on the event engine: "
            "what any source edit costs, and the control for accelerators",
        ),
        Workload(
            "paper-batch",
            "paper",
            "batch",
            True,
            "the same artifacts on record/replay plus fast-forward, the "
            "fastest shipped configuration; stresses tapes and vector replay",
        ),
        Workload(
            "pack-sweep",
            "pack",
            "event",
            False,
            "about 1000 small validation-pack points from every family, "
            "where fingerprints and the result cache dominate",
        ),
    )
}


class RecordingExecutor(Executor):
    """An executor that keeps every sweep's tasks and results."""

    def __init__(self, **kwargs: Any):
        super().__init__(**kwargs)
        self.label = ""
        self.sweeps: list[tuple[str, list[Any], list[Any]]] = []

    def run(self, tasks):  # type: ignore[override]
        ordered = list(tasks)
        results = super().run(ordered)
        self.sweeps.append((self.label, ordered, results))
        return results


def pack_pool() -> list:
    """The whole first level of the validation pack: every family, 1110 points."""
    return packs.validation_pack(min_points=10**9, max_level=1)


def family(spec) -> str:
    return spec.name.split("/", 1)[0]


def select_specs(pool: list, seed: int) -> list:
    """A seeded slice of ``pool``: about PACK_SHARE of every family's points.

    Specs keep their pool order, so the slice runs in spec-list order.
    """
    rng = random.Random(seed)
    by_family: dict[str, list[int]] = defaultdict(list)
    for index, spec in enumerate(pool):
        by_family[family(spec)].append(index)
    chosen: list[int] = []
    for name in sorted(by_family):
        indices = by_family[name]
        goal = PACK_SHARE * sum(pool[i].points for i in indices)
        rng.shuffle(indices)
        kept = 0
        for index in indices:
            if kept >= goal:
                break
            chosen.append(index)
            kept += pool[index].points
    return [pool[i] for i in sorted(chosen)]


def build(workload: Workload, seed: int) -> list[tuple[str, list]]:
    """The setup a user pays before the first point runs: specs and tasks.

    Returns (name, tasks) groups: one per artifact, or one per pack spec.
    The paper artifacts are deterministic and ignore ``seed``; their
    experiment functions rebuild these tasks themselves in every pass.
    """
    if workload.suite == "paper":
        return [
            (a, scenario_spec.expand(getattr(paper, f"{a}_scenarios")(scale=SCALE)))
            for a in ARTIFACTS
        ]
    return [
        (spec.name, scenario_spec.expand([spec]))
        for spec in select_specs(pack_pool(), seed)
    ]


def make_executor(workload: Workload, cache_root) -> RecordingExecutor:
    return RecordingExecutor(
        cache=ResultCache(cache_root),
        backend=workload.backend,
        fast_forward=FastForwardConfig() if workload.fast_forward else None,
    )


def _wall_seconds(fn: Callable[[], Any]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_pass(
    workload: Workload,
    groups: list[tuple[str, list]],
    cache_root,
    timed: Callable[[Callable[[], Any]], Any] = _wall_seconds,
) -> tuple[RecordingExecutor, dict[str, Any]]:
    """One serial pass over every point.

    ``timed(fn)`` runs one unit and returns what to record for it (by
    default its wall seconds); the records come back keyed by unit.
    """
    executor = make_executor(workload, cache_root)
    units: dict[str, Any] = {}
    if workload.suite == "paper":
        for artifact in ARTIFACTS:
            executor.label = artifact
            run = getattr(experiments, artifact)
            units[artifact] = timed(lambda: run(scale=SCALE, executor=executor))
    else:
        executor.label = "pack"
        for name, tasks in groups:
            units[name] = timed(lambda: executor.run(tasks))
    return executor, units


def point_payloads(executor: RecordingExecutor) -> dict[str, str]:
    """Canonical payload text of every point a pass ran, by point id.

    Paper points are numbered within their artifact (an artifact may
    sweep one configuration more than once); pack points are named by
    their task key, which includes the scenario name.
    """
    out: dict[str, str] = {}
    counters: dict[str, int] = defaultdict(int)
    for label, tasks, results in executor.sweeps:
        for task, result in zip(tasks, results):
            if label == "pack":
                point = str(task.key)
            else:
                point = f"{label}#{counters[label]}"
                counters[label] += 1
            if point in out:
                raise ValueError(f"duplicate point id {point!r}")
            out[point] = json.dumps(task.encode(result), sort_keys=True)
    return out


def expected_points(
    workload: Workload, groups: list[tuple[str, list]], reference: dict[str, str]
) -> list[str]:
    """Ids of the points one pass must produce."""
    if workload.suite == "paper":
        return list(reference)
    return [str(task.key) for _, tasks in groups for task in tasks]
