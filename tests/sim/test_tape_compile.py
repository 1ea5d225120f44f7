"""Tape serialization is an exact, invertible encoding.

When a tape travels through the persistent tape cache it round-trips
JSON (:func:`tape_to_payload` / :func:`tape_from_payload`).  That step
is not allowed to lose a bit: every op field must come back with its
type and value — int64-range ints, bools, and float64 down to the sign
of zero — and a deserialized tape must replay bitwise identically to
the one that was recorded.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.batch import (
    _OP_COMPUTE,
    _OP_DISK,
    _OP_DSPEED,
    _OP_ELAPSE,
    _OP_MARK,
    _OP_RECV,
    _OP_SEND,
    _OP_WAIT,
    TAPE_FORMAT_VERSION,
    record_tape,
    replay_grid,
    tape_from_payload,
    tape_to_payload,
)
from repro.workloads import Jacobi

ALL_GEARS = (1, 2, 3, 4, 5, 6)

# Parameter strategies span the op fields' real ranges: rank/tag/slot-
# like ints stay small, byte counts reach well into int64, and float
# fields take any finite float64 (serialization must not round, clamp,
# or lose sign anywhere).
_small_int = st.integers(min_value=0, max_value=10_000)
_byte_count = st.integers(min_value=0, max_value=2**62)
_seconds = st.floats(allow_nan=False, allow_infinity=False, width=64)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just(_OP_COMPUTE), _small_int),
        st.tuples(
            st.just(_OP_SEND),
            _small_int,
            _small_int,
            _byte_count,
            st.booleans(),
        ),
        st.tuples(st.just(_OP_RECV), _small_int, _small_int, _small_int),
        st.tuples(st.just(_OP_WAIT), _small_int),
        st.tuples(st.just(_OP_ELAPSE), _seconds),
        st.tuples(st.just(_OP_DISK), _seconds),
        st.tuples(st.just(_OP_DSPEED), _seconds, _seconds),
        st.tuples(st.just(_OP_MARK), _small_int, _small_int),
    ),
    max_size=60,
)


def _exact(op: tuple) -> tuple:
    """An op's fields as (type, value) with floats by their bits, so
    ``True`` never passes for ``1`` nor ``-0.0`` for ``0.0``."""
    return tuple(
        (type(v).__name__, v.hex() if isinstance(v, float) else v)
        for v in op
    )


@pytest.fixture(scope="module")
def small_tape(cluster):
    return record_tape(cluster, Jacobi(0.03), nodes=1, gear=1)


class TestPayloadRoundTrip:
    """Tape JSON serialization is bitwise lossless."""

    @given(ops=_ops)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_op_streams_round_trip(self, cluster, small_tape, ops):
        tape = dataclasses.replace(small_tape, ops=[ops])
        wire = json.dumps(tape_to_payload(tape))
        restored = tape_from_payload(cluster, json.loads(wire))
        assert [_exact(op) for op in restored.ops[0]] == [
            _exact(op) for op in ops
        ]

    def test_payload_survives_json_and_replays_bitwise(self, cluster):
        tape = record_tape(cluster, Jacobi(0.2), nodes=4, gear=1)
        wire = json.dumps(tape_to_payload(tape))
        restored = tape_from_payload(cluster, json.loads(wire))
        assert restored.ops == tape.ops
        assert restored.send_order == tape.send_order
        assert restored.workload_name == tape.workload_name
        assert restored.nodes == tape.nodes
        assert restored.recording_time == tape.recording_time
        assert restored.recording_energy == tape.recording_energy
        for ours, theirs in zip(restored.seg_uops, tape.seg_uops):
            assert np.array_equal(ours, theirs)
        for ours, theirs in zip(restored.seg_weight, tape.seg_weight):
            assert np.array_equal(ours, theirs)
        # The contract the tape cache rests on: not 1e-9-close — every
        # float of every gear's measurement must compare equal.
        original = replay_grid(tape, list(ALL_GEARS))
        replayed = replay_grid(restored, list(ALL_GEARS))
        for ours, theirs in zip(replayed, original):
            assert ours.gear == theirs.gear
            assert ours.time == theirs.time
            assert ours.energy == theirs.energy
            assert ours.active_time == theirs.active_time

    def test_format_mismatch_is_rejected(self, cluster):
        tape = record_tape(cluster, Jacobi(0.2), nodes=2, gear=1)
        payload = tape_to_payload(tape)
        assert payload["format"] == TAPE_FORMAT_VERSION
        payload["format"] = TAPE_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="tape format"):
            tape_from_payload(cluster, payload)
