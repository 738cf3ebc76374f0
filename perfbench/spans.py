"""In-memory span recorder for the benchmark's traced runs.

A span is ``(id, parent, name, start, end, units)``: one call into a
layer, timed with :func:`time.perf_counter`, with the span that was open
when it started as its parent and an optional count of work units
(coins drawn, shards dispatched, bytes published).  Spans are kept in a
list while the run lasts and written out as JSONL when it ends.

Spans are taken from outside the program only: :meth:`Tracer.wrap`
wraps a callable the benchmark itself calls, and :meth:`Tracer.patch`
replaces a public function or method at its module or class attribute
until :meth:`Tracer.unpatch_all`.  Calls made from another process
(forked sweep workers inherit patched classes) or another thread pass
straight through without recording, as do calls re-entering a span of
the same name (a subclass method delegating to ``super()``).
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

#: ``(args, kwargs, result) -> units`` — the work a call did.
Units = Callable[[tuple, dict, Any], int]

_MISSING = object()


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    units: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class NameStats:
    """Aggregate of every span sharing one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: int = 0


def self_times(spans: Iterable[Span]) -> dict[str, NameStats]:
    """Per-name call count, inclusive time, self time and units.

    A span's self time is its duration minus the durations of its
    direct children, which on one thread nest strictly inside it.
    """
    spans = list(spans)
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = (
                child_time.get(span.parent, 0.0) + span.duration
            )
    out: dict[str, NameStats] = {}
    for span in spans:
        stats = out.setdefault(span.name, NameStats())
        stats.calls += 1
        stats.total_s += span.duration
        stats.self_s += span.duration - child_time.get(span.id, 0.0)
        stats.units += span.units
    return out


def layer_of(name: str) -> str:
    """The layer a span name belongs to: its dotted prefix."""
    return name.rsplit(".", 1)[0] if "." in name else name


def summary_text(spans: Iterable[Span], iterations: int) -> str:
    """A self-time table, one row per span name, grouped by layer."""
    stats = self_times(spans)
    layers: dict[str, float] = {}
    for name, s in stats.items():
        layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + s.self_s
    total = sum(layers.values()) or 1.0
    lines = [
        f"self time per layer over {iterations} traced iteration(s)",
        f"{'layer':<28}{'self_s':>10}{'share':>8}",
    ]
    for layer, self_s in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<28}{self_s:>10.4f}{self_s / total:>8.1%}")
    lines.append("")
    lines.append(
        f"{'span':<34}{'calls':>9}{'total_s':>10}{'self_s':>10}{'units':>12}"
    )
    for name, s in sorted(stats.items(), key=lambda kv: -kv[1].self_s):
        lines.append(
            f"{name:<34}{s.calls:>9}{s.total_s:>10.4f}{s.self_s:>10.4f}"
            f"{s.units:>12}"
        )
    return "\n".join(lines)


class Tracer:
    """Records spans of calls made on the thread that created it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[tuple[int, str]] = []
        self._next_id = 0
        self._pid = os.getpid()
        self._tid = threading.get_ident()
        self._restore: list[Callable[[], None]] = []

    def _records(self, name: str) -> bool:
        return (
            os.getpid() == self._pid
            and threading.get_ident() == self._tid
            and not (self._open and self._open[-1][1] == name)
        )

    def wrap(
        self, name: str, fn: Callable, units: Units | None = None
    ) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer._records(name):
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._open[-1][0] if tracer._open else None
            tracer._open.append((sid, name))
            start = time.perf_counter()
            result = _MISSING
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._open.pop()
                count = 0
                if units is not None and result is not _MISSING:
                    count = int(units(args, kwargs, result))
                tracer.spans.append(
                    Span(sid, parent, name, start, end, count)
                )

        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        units: Units | None = None,
    ) -> None:
        """Wrap ``owner.attr`` in place until :meth:`unpatch_all`.

        ``owner`` is a module or a class.  On a class the wrapper is set
        on that class itself, shadowing an inherited method; unpatching
        restores exactly the previous attribute table.
        """
        own = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), units))
        if own is _MISSING:
            self._restore.append(lambda: delattr(owner, attr))
        else:
            self._restore.append(lambda: setattr(owner, attr, own))

    def unpatch_all(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._restore:
            self._restore.pop()()

    def write_jsonl(self, path: str | os.PathLike[str]) -> None:
        """Write the recorded spans, one JSON object a line."""
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "parent": s.parent,
                            "name": s.name,
                            "start": round(s.start - origin, 9),
                            "end": round(s.end - origin, 9),
                            "units": s.units,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


class NullTracer:
    """The untraced run's tracer: every hook is the identity."""

    def wrap(
        self, name: str, fn: Callable, units: Units | None = None
    ) -> Callable:
        return fn
