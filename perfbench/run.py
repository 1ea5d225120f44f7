#!/usr/bin/env python3
"""End-to-end benchmark of the paper suite and a validation-pack slice.

Run from the repository root::

    python3 perfbench/run.py --workload paper-event --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload pack-sweep --seed 1 --trace 1
    python3 perfbench/run.py --workload paper-batch --repeat 5    # spread report
    python3 perfbench/run.py --make-reference                     # rewrite reference/

``--trace 0`` times setup, cold and warm passes with tracing off and
prints the end-to-end metrics; ``--trace 1`` runs the same work once
untraced and once with every layer entry point wrapped, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space (cache roots, span dumps), inside the checkout.
OUT = ROOT / ".bench_out"

#: Fresh interpreters timed per run; setup_s is their median.
SETUP_SAMPLES = 7
#: A round is one cold pass on a fresh cache, then warm passes on the
#: cache it filled.  Rounds repeat until the cold passes took
#: ``--seconds``, so every kind of sample spreads over the whole run.
MIN_ROUNDS = 3
MAX_ROUNDS = 8
#: Share of ``--seconds`` spent on warm passes, split over MIN_ROUNDS.
WARM_SHARE = 0.25
#: setup_s probes run with a fixed hash seed, so dict and set layouts
#: (and so the work they do) are the same in every interpreter.
PROBE_HASH_SEED = "0"

END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
    "cache_mb": "MB",
    "passed_frac": "fraction",
}


def _use_sources() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'repro'} not found; run from a full checkout")
    for entry in (str(HERE), str(SRC)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    # Never read or write the user's cache, never evict mid-run.
    os.environ.pop("REPRO_CACHE_MAX_MB", None)


def _pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU.

    The workloads are serial; pinning keeps the host-speed probes, the
    passes and the setup interpreters on the same CPU, so the probes
    measure the contention the timed work actually meets.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def context(workload: str, seed: int) -> dict:
    """Machine and configuration recorded with every result."""
    import numpy
    import workloads

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "scale": workloads.SCALE,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class SetupProbe:
    """Times fresh interpreters that import ``repro`` and build the tasks."""

    def __init__(self, workload: str, seed: int, speed: HostSpeed):
        self.command = [
            sys.executable, str(HERE / "run.py"), "--probe",
            "--workload", workload, "--seed", str(seed),
        ]
        self.env = dict(os.environ, PYTHONHASHSEED=PROBE_HASH_SEED, PYTHONPATH=str(SRC))
        self.env.pop("REPRO_CACHE_MAX_MB", None)
        self.speed = speed
        #: (wall, nominal) seconds per timed interpreter.
        self.samples: list[tuple[float, float]] = []
        # The first interpreter also writes bytecode caches; it is not timed.
        self._run()

    def _run(self) -> None:
        subprocess.run(
            self.command, env=self.env, check=True, timeout=120, stdout=subprocess.DEVNULL
        )

    def sample(self) -> None:
        if len(self.samples) < SETUP_SAMPLES:
            self.samples.append(self.speed.time(self._run, sample=False)[1:])


def _megabytes(root: Path) -> float:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file()) / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _pass(workload, groups, root: Path, speed: HostSpeed):
    """One pass; returns the executor and the pass's (wall, nominal) seconds."""
    import workloads

    gc.collect()
    executor, units = workloads.run_pass(
        workload, groups, root, timed=lambda fn: speed.time(fn)[1:]
    )
    return executor, tuple(sum(unit[i] for unit in units.values()) for i in (0, 1))


def _median(samples: list[tuple[float, float]], column: int) -> float:
    return statistics.median(s[column] for s in samples) if samples else 0.0


class Checks:
    """Counts points attempted and failed across every checked pass."""

    def __init__(self, workload, groups):
        import reference
        import workloads

        self.exact = workload.backend == "event"
        self.reference = reference.load(workload.suite)
        self.expected = workloads.expected_points(workload, groups, self.reference)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def against(self, produced: dict[str, str], baseline: dict[str, str] | None, label: str) -> None:
        """Check one pass: against the reference, or byte for byte against ``baseline``."""
        import reference

        if baseline is None:
            bad = reference.mismatches(self.expected, produced, self.reference, exact=self.exact)
        else:
            bad = reference.mismatches(self.expected, produced, baseline, exact=True)
        self.attempted += len(self.expected)
        self.failed += len(bad)
        if bad:
            self.problems.append(f"{label}: {len(bad)} point(s) differ, e.g. {bad[0]}")

    def lost(self, label: str, exc: BaseException) -> None:
        """A pass that raised: every one of its points failed."""
        self.attempted += len(self.expected)
        self.failed += len(self.expected)
        self.problems.append(f"{label} raised {type(exc).__name__}: {exc}")

    @property
    def passed_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


def measure(workload, seed: int, seconds: float) -> tuple[dict, Checks]:
    """The end-to-end metrics, tracing off.

    Every timing is rescaled to the host's nominal speed (see
    ``hostspeed.py``); the raw wall-time medians are printed alongside.
    Setup interpreters are timed between passes, so that they, like the
    passes, sample the whole run rather than one moment of it.
    """
    import workloads
    from repro.exec import code_version_token

    speed = HostSpeed()
    probe = SetupProbe(workload.name, seed, speed)
    groups = workloads.build(workload, seed)
    code_version_token()  # hashed once per process; not part of a pass
    checks = Checks(workload, groups)
    cold: list[tuple[float, float]] = []
    warm: list[tuple[float, float]] = []
    cache_mb = 0.0
    warm_round_s = WARM_SHARE * seconds / MIN_ROUNDS
    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as work:
        try:
            while len(cold) < MIN_ROUNDS or (
                sum(w for w, _ in cold) < seconds and len(cold) < MAX_ROUNDS
            ):
                probe.sample()
                root = Path(tempfile.mkdtemp(dir=work, prefix="cache-"))
                executor, times = _pass(workload, groups, root, speed)
                cold.append(times)
                if len(cold) == 1:
                    cache_mb = _megabytes(root)
                cold_payloads = workloads.point_payloads(executor)
                checks.against(cold_payloads, None, f"cold pass {len(cold)}")
                probe.sample()
                spent = 0.0
                while not spent or spent < warm_round_s:
                    executor, times = _pass(workload, groups, root, speed)
                    warm.append(times)
                    spent += times[0]
                    checks.against(
                        workloads.point_payloads(executor),
                        cold_payloads,
                        f"warm pass {len(warm)}",
                    )
                shutil.rmtree(root)
            while len(probe.samples) < SETUP_SAMPLES:
                probe.sample()
        except Exception as exc:
            traceback.print_exc()
            checks.lost(f"pass {len(cold) + len(warm) + 1}", exc)
    metrics = {
        "setup_s": _median(probe.samples, 1),
        "cold_s": _median(cold, 1),
        "warm_s": _median(warm, 1),
        "peak_rss_mb": _peak_rss_mb(),
        "cache_mb": cache_mb,
        "passed_frac": checks.passed_frac,
    }
    for name, samples in (("setup", probe.samples), ("cold", cold), ("warm", warm)):
        print(
            f"# {name}: {len(samples)} samples, wall median {_median(samples, 0):.4f} s, "
            f"nominal {[round(s[1], 4) for s in samples]}"
        )
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, checks


def trace(workload, seed: int) -> tuple[dict, Checks]:
    """The per-layer metrics of one traced build + cold + warm run."""
    import layers
    import workloads
    from repro.exec import code_version_token
    from tracer import Patcher, Tracer

    code_version_token()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="trace-") as work:
        gc.collect()
        start = time.perf_counter()
        groups = workloads.build(workload, seed)
        root = Path(tempfile.mkdtemp(dir=work))
        workloads.run_pass(workload, groups, root)
        workloads.run_pass(workload, groups, root)
        untraced_s = time.perf_counter() - start

        tracer = Tracer()
        marks: dict[str, tuple[float, dict]] = {}
        root = Path(tempfile.mkdtemp(dir=work))
        with Patcher() as patcher:
            layers.install(tracer, patcher)
            gc.collect()
            marks["start"] = (time.perf_counter(), tracer.snapshot())
            groups = workloads.build(workload, seed)
            marks["build"] = (time.perf_counter(), tracer.snapshot())
            cold, _ = workloads.run_pass(workload, groups, root)
            marks["cold"] = (time.perf_counter(), tracer.snapshot())
            warm, _ = workloads.run_pass(workload, groups, root)
            marks["warm"] = (time.perf_counter(), tracer.snapshot())
    checks = Checks(workload, groups)
    cold_payloads = workloads.point_payloads(cold)
    checks.against(cold_payloads, None, "traced cold pass")
    checks.against(workloads.point_payloads(warm), cold_payloads, "traced warm pass")

    wall_s = marks["warm"][0] - marks["start"][0]
    metrics = layers.layer_metrics(marks["warm"][1], wall_s, untraced_s)
    phases = {
        phase: layers.layer_metrics(
            layers.diff(marks[phase][1], marks[previous][1]),
            marks[phase][0] - marks[previous][0],
            0.0,
        )
        for previous, phase in (("build", "cold"), ("cold", "warm"))
    }
    checks.problems += layers.guard(workload.name, phases, len(checks.expected))
    accounted = wall_s - metrics["trace.residual_s"]
    if abs(accounted - tracer.top_level_s()) > 1e-6 * wall_s:
        checks.problems.append(
            f"self times sum to {accounted:.6f} s but top-level spans to {tracer.top_level_s():.6f} s"
        )
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload.name}-seed{seed}.json"
    spans_file.write_text(
        json.dumps([[s.id, s.name, s.start, s.end, s.parent] for s in tracer.spans])
    )
    print(f"# {len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}")
    units = layers.PER_LAYER
    return {k: {"value": metrics[k], "unit": units[k][0]} for k in units}, checks


def probe(workload, seed: int) -> None:
    """Setup in a fresh interpreter: import the package, build the tasks."""
    import workloads

    workloads.build(workloads.WORKLOADS[workload], seed)


def make_reference() -> None:
    """Recompute the stored reference on the event backend."""
    import numpy
    import reference
    import workloads

    meta = {
        "scale": workloads.SCALE,
        "backend": "event",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        paper = workloads.WORKLOADS["paper-event"]
        executor, _ = workloads.run_pass(paper, [], Path(work) / "paper")
        points = workloads.point_payloads(executor)
        print(f"paper: {len(points)} points -> {reference.save('paper', points, meta)}")
        pool = workloads.scenario_spec.expand(workloads.pack_pool())
        executor = workloads.make_executor(workloads.WORKLOADS["pack-sweep"], Path(work) / "pack")
        executor.label = "pack"
        executor.run(pool)
        points = workloads.point_payloads(executor)
        print(f"pack: {len(points)} points -> {reference.save('pack', points, meta)}")


def repeat(args: argparse.Namespace) -> int:
    """Run the benchmark ``--repeat`` times on successive seeds; print spreads."""
    values: dict[str, list[float]] = {}
    for offset in range(args.repeat):
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed + offset), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=600)
        if done.returncode:
            print(done.stdout + done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {args.seed + offset}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
        ), flush=True)
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for name, series in values.items():
        q1, med, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else series * 3
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:32} {med:12.5g} {q1:12.5g} {q3:12.5g} {share:8.3f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="paper-event")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="time budget of the cold passes; warm passes get a quarter of it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run N times on seeds seed..seed+N-1 and print each metric's quartiles")
    parser.add_argument("--make-reference", action="store_true")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _use_sources()
    OUT.mkdir(exist_ok=True)
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    if args.make_reference:
        make_reference()
        return 0
    if args.repeat:
        return repeat(args)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    _pin_to_one_cpu()
    print("# context " + json.dumps(context(workload.name, args.seed)))
    try:
        if args.trace:
            metrics, checks = trace(workload, args.seed)
        else:
            metrics, checks = measure(workload, args.seed, args.seconds)
    except Exception:
        traceback.print_exc()
        return 1
    for problem in checks.problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    correct = not checks.problems
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
