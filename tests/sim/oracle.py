"""Per-gear scalar reference for the batch backend's grid replay.

:func:`measure_gear` replays one gear with the scalar interpreter
(:func:`repro.sim.batch._replay_gear`) and rolls it up with plain
per-gear NumPy arithmetic — an independent route to the numbers
:func:`repro.sim.batch.replay_grid` computes with one vectorized walk
and one vectorized rollup over the whole grid.  Differential tests and
``benchmarks/bench_sim.py`` compare the two at 1e-9.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cluster.counters import CounterBank
from repro.core.run import RunMeasurement
from repro.sim.batch import Tape, _replay_gear, _self_check


def segment_durations(tape: Tape, gear_index: int) -> list[np.ndarray]:
    """Per-rank compute-segment durations at one gear, engine-exact."""
    cluster = tape.cluster
    cpu = cluster.node.cpu
    denom = cpu.issue_rate * cluster.gears[gear_index].frequency_hz
    return [
        tape.seg_uops[rank] / denom + tape.seg_stall[rank]
        for rank in range(tape.nodes)
    ]


def measure_gear(tape: Tape, gear_index: int) -> RunMeasurement:
    """Replay and roll up one gear exactly, one gear at a time.

    The recording gear is self-checked against the recording's own
    measurements, like the production path.
    """
    cluster = tape.cluster
    node_spec = cluster.node
    cpu = node_spec.cpu
    power_model = node_spec.power_model()
    cpu_model = power_model.cpu_model
    ref_bw = node_spec.memory.reference_miss_bandwidth
    upm = CounterBank(uops=tape.total_uops, l2_misses=tape.total_misses).upm

    gear = cluster.gears[gear_index]
    scale = cpu_model.dynamic_scale(gear)
    leak = cpu_model.leakage_power(gear)
    # Scalar prefixes mirror CPUPowerModel's left-associated products
    # so the rolled-up power matches the engine's floats exactly.
    k_active = cpu.dynamic_power_full * scale * cpu.active_activity
    cpu_idle = cpu.dynamic_power_full * scale * cpu.idle_activity + leak
    pm_idle = power_model.base_power + cpu_idle
    saf = cpu.stall_activity_fraction

    dur_arrays = segment_durations(tape, gear_index)
    durations = [d.tolist() for d in dur_arrays]

    finish, phases = _replay_gear(tape, durations)
    end_time = max(finish) if finish else 0.0

    energy = 0.0
    active_time = 0.0
    reducible_time = 0.0
    for rank in range(tape.nodes):
        d = dur_arrays[rank]
        w = tape.seg_weight[rank]
        if len(d):
            stall_frac = tape.seg_stall[rank] / d
            occupancy = (1.0 - stall_frac) + saf * stall_frac
            cpu_active = k_active * occupancy + leak
            intensity = np.minimum(
                1.0, (tape.seg_misses[rank] / d) / ref_bw
            )
            p_active = (
                power_model.base_power
                + cpu_active
                + power_model.memory_power_max * intensity
            )
            wd = w * d
            energy += float(np.sum(wd * (p_active - pm_idle)))
            rank_active = float(np.sum(wd))
            rank_reducible = float(np.sum(tape.seg_reducible[rank] * wd))
        else:
            rank_active = 0.0
            rank_reducible = 0.0
        if rank_active > active_time:
            active_time = rank_active
        if rank_reducible > reducible_time:
            reducible_time = rank_reducible
        # Idle baseline: the rank draws (CPU idle + disk idle) for
        # the whole run; disk-speed transitions split it into phases.
        t = 0.0
        disk_idle = tape.initial_disk_idle
        for boundary, new_idle in phases[rank]:
            energy += (pm_idle + disk_idle) * (boundary - t)
            t = boundary
            disk_idle = new_idle
        energy += (pm_idle + disk_idle) * (end_time - t)
        energy += tape.disk_excess[rank]

    measurement = RunMeasurement(
        workload=tape.workload_name,
        cluster=cluster.name,
        nodes=tape.nodes,
        gear=gear_index,
        time=end_time,
        energy=energy,
        active_time=active_time,
        idle_time=max(0.0, end_time - active_time),
        reducible_time=reducible_time,
        upm=upm,
    )
    if gear_index == tape.recording_gear:
        _self_check(tape, measurement)
    return measurement


def oracle_grid(tape: Tape, gear_indices: Sequence[int]) -> list[RunMeasurement]:
    """:func:`measure_gear` for every gear of a grid, in grid order."""
    return [measure_gear(tape, g) for g in gear_indices]
