"""Layer tracing from outside the program.

The benchmark times the package's public entry points by replacing them,
for the length of a traced run, with wrappers that open and close a
span.  Nothing in ``src/`` knows it is being traced: the wrappers are
installed on module attributes and class attributes, which Python looks
up at call time, and every replaced attribute is put back afterwards.

A span's *self time* is its duration minus the durations of its direct
children, so the self times of all spans plus the time spent outside any
span (the *residual*) add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

#: Module prefix whose namespaces are searched for references to a
#: wrapped function.
PACKAGE = "repro"


@dataclass(frozen=True)
class Span:
    """One finished call into a traced entry point."""

    id: int
    name: str
    start: float
    end: float
    #: ``id`` of the enclosing span, or -1 at the top level.
    parent: int


class Tracer:
    """Collects spans in memory and keeps per-name self/total times.

    Spans must nest (a child closes before its parent), which holds for
    calls made by one thread.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        #: Open spans: [id, name, start, seconds covered by children].
        self._stack: list[list[Any]] = []
        self._next_id = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Free-form counters bumped by the entry-point hooks.
        self.counts: dict[str, float] = defaultdict(float)

    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, self.clock(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        """Close the innermost span."""
        end = self.clock()
        span_id, name, start, children = self._stack.pop()
        duration = end - start
        own = duration - children
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            Span(span_id, name, start, end, parent[0] if parent else -1)
        )
        self.self_s[name] += own
        self.total_s[name] += duration
        self.calls[name] += 1

    def top_level_s(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(s.end - s.start for s in self.spans if s.parent == -1)

    def snapshot(self) -> dict[str, float]:
        """Every accumulated figure as one flat mapping (for phase deltas)."""
        flat: dict[str, float] = {}
        for name, value in self.self_s.items():
            flat[f"self:{name}"] = value
        for name, value in self.total_s.items():
            flat[f"total:{name}"] = value
        for name, value in self.calls.items():
            flat[f"calls:{name}"] = value
        for name, value in self.counts.items():
            flat[f"count:{name}"] = value
        return flat

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str | Callable[..., str],
        *,
        before: Callable[..., Any] | None = None,
        after: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """A span-recording stand-in for ``fn``.

        Args:
            name: the span name, or a function of the call's arguments
                returning it (one entry point can serve two layers).
            before: ``before(args, kwargs)`` runs outside the span and
                returns a state object handed to ``after``; it may
                mutate ``kwargs``.
            after: ``after(state, args, kwargs, result)`` runs outside
                the span once the call returned.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            state = before(args, kwargs) if before is not None else None
            tracer.enter(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(state, args, kwargs, result)
            return result

        return traced


class Patcher:
    """Replaces attributes and puts every one of them back.

    Use as a context manager; :meth:`restore` also runs on error.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace_function(self, original: Callable[..., Any], stand_in: Any) -> int:
        """Rebind every ``repro`` module attribute that *is* ``original``.

        Modules that did ``from x import f`` hold their own reference,
        so each loaded module's namespace is searched (through
        ``sys.modules``, because a package may shadow a submodule with
        a function of the same name, as ``repro.exec.sweep`` is).
        Returns how many attributes were rebound.
        """
        rebound = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == PACKAGE or module_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, stand_in)
                    rebound += 1
        return rebound

    def replace_method(self, cls: type, attr: str, stand_in: Any) -> None:
        """Rebind a method on the class that defines it (not a subclass)."""
        self._set(cls, attr, stand_in)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()
