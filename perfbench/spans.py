"""In-memory span recording and the arithmetic over recorded spans.

A span records a name, start and end times, the index of the span that was
open when it began (its parent, -1 for none) and the operation id the
benchmark loop had set.  Spans are only ever appended; they are written out
once, when the benchmark ends.  Everything here runs in one thread, so spans
nest strictly.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped calls.  `op` is set by the benchmark loop
    before each operation, so that the spans of one operation share it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = -1
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent, self.op))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        if not self._open or self._open[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self._open.pop()
        self.spans[idx].end = self.clock()

    def wrap(self, name: str, fn, describe=None):
        """fn wrapped in a span; describe(args, kwargs, result) -> info is
        stored on the span after a successful call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if describe is not None:
                self.spans[idx].info = describe(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op", "info"],
                    "names": names,
                    "spans": [
                        [index[s.name], s.start, s.end, s.parent, s.op, s.info]
                        for s in self.spans
                    ],
                },
                fh,
            )


def rebind(module_prefix: str, fn, replacement) -> list[tuple[object, str]]:
    """Bind `replacement` wherever a loaded module under `module_prefix` binds
    the function object `fn`; returns the (module, name) pairs changed."""
    changed = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (
            mod_name == module_prefix or mod_name.startswith(module_prefix + ".")
        ):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, replacement)
                changed.append((mod, attr))
    return changed


def children(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def union_length(intervals) -> float:
    """Total length covered by a set of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(spans: list[Span], idx: int, kids: list[list[int]]) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    s = spans[idx]
    covered = union_length(
        (max(spans[k].start, s.start), min(spans[k].end, s.end)) for k in kids[idx]
    )
    return s.duration - covered


def busy_time(spans: list[Span], name: str) -> float:
    """Wall time during which at least one span called `name` was open."""
    return union_length((s.start, s.end) for s in spans if s.name == name)


def nearest_ancestor(spans: list[Span], idx: int, match) -> int:
    """Index of the closest enclosing span p with match(p) true, or -1."""
    p = spans[idx].parent
    while p >= 0:
        if match(p):
            return p
        p = spans[p].parent
    return -1


def by_name(spans: list[Span]) -> dict[str, list[int]]:
    out = defaultdict(list)
    for i, s in enumerate(spans):
        out[s.name].append(i)
    return out
