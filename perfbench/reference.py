"""The stored correctness reference and the comparisons against it.

A reference holds, per point, the canonical JSON text of
``task.encode(result)`` as computed by the event backend and captured at
the ``Executor.run`` boundary.  Event-backend passes must reproduce it
byte for byte; batch-backend passes within :data:`BATCH_RTOL` relative.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Any

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Relative tolerance of the batch backend against the event engine.
BATCH_RTOL = 1e-9

#: Absolute floor under that tolerance.  Some payload fields are
#: differences that cancel to zero (``idle_time_s`` is run time minus
#: active time); the replay leaves ~1e-14 s of rounding there where the
#: event engine leaves 0.0, a relative error of 1 on a value that is
#: zero to every digit the paper uses.
BATCH_ATOL = 1e-9


def path(suite: str) -> Path:
    return REFERENCE_DIR / f"{suite}.json.gz"


def load(suite: str) -> dict[str, str]:
    with gzip.open(path(suite), "rt", encoding="utf-8") as handle:
        return json.load(handle)["points"]


def save(suite: str, points: dict[str, str], meta: dict[str, Any]) -> Path:
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    text = json.dumps({"meta": meta, "points": points}, indent=0, sort_keys=True)
    target = path(suite)
    # mtime=0 keeps the archive byte-identical when the points are.
    with open(target, "wb") as raw, gzip.GzipFile(
        fileobj=raw, mode="wb", mtime=0, filename=""
    ) as handle:
        handle.write(text.encode("utf-8"))
    return target


def close(a: Any, b: Any, rtol: float = BATCH_RTOL, atol: float = BATCH_ATOL) -> bool:
    """Structural equality; floats within ``rtol`` relative plus ``atol``."""
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool):
            return False
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(close(a[k], b[k], rtol, atol) for k in a)
        )
    if isinstance(a, list):
        return (
            isinstance(b, list)
            and len(a) == len(b)
            and all(close(x, y, rtol, atol) for x, y in zip(a, b))
        )
    return type(a) is type(b) and a == b


def mismatches(
    expected: list[str],
    produced: dict[str, str],
    reference: dict[str, str],
    *,
    exact: bool,
) -> list[str]:
    """Ids of the expected points that are missing or disagree.

    A point the pass produced but nobody expected is a mismatch too.
    """
    wanted = set(expected)
    bad = [p for p in produced if p not in wanted]
    for point in expected:
        got = produced.get(point)
        want = reference.get(point)
        if got is None or want is None:
            bad.append(point)
        elif got != want and (exact or not close(json.loads(got), json.loads(want))):
            bad.append(point)
    return bad
