"""In-memory span recording and self-time arithmetic for the traced run.

A :class:`Recorder` keeps one tuple per call into a wrapped function:
``(name, thread, start, end, info)``.  Nothing is written until the run
ends.  Times come from :func:`time.monotonic`, which on Linux reads the
system-wide ``CLOCK_MONOTONIC``, so spans recorded in the collector
process line up with the load generator's timed window.

Self time is a span's duration minus the part of it its children cover.
Children are the spans nested directly inside it on the same thread and,
for a *wait* span (a caller blocking until other threads finish), the
top-level spans of other threads that overlap it: the shard ingests a
``drain()`` waits for.

This module imports nothing from the program under test, so its
arithmetic is testable on its own.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from bisect import bisect_left
from typing import Callable, Iterable, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    thread: int
    start: float
    end: float
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from wrapped callables, one list append per call."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.spans: list[Span] = []

    def wrap(self, func: Callable, name: str, info: Optional[Callable] = None):
        """``func`` timed as span ``name``; ``info(args, kwargs, result)``
        tags it (``result`` is ``None`` when the call raised)."""
        clock, spans, get_ident = self.clock, self.spans, threading.get_ident

        @functools.wraps(func)
        def timed(*args, **kwargs):
            start = clock()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                spans.append(
                    Span(name, get_ident(), start, clock(),
                         None if info is None else info(args, kwargs, result))
                )

        timed.__wrapped_by_perfbench__ = True
        return timed

    def wrap_async(self, func: Callable, name: str, only: Optional[Callable] = None):
        """A coroutine function timed from call to completion.

        The span includes every await inside it, so it is recorded with
        thread ``0``: it never nests on a thread's stack and never counts
        as busy time.  ``only()`` filters which calls are recorded.
        """
        clock, spans = self.clock, self.spans

        @functools.wraps(func)
        async def timed(*args, **kwargs):
            if only is not None and not only():
                return await func(*args, **kwargs)
            start = clock()
            try:
                return await func(*args, **kwargs)
            finally:
                spans.append(Span(name, 0, start, clock()))

        timed.__wrapped_by_perfbench__ = True
        return timed

    def wrap_generator(self, func: Callable, name: str):
        """A generator function whose every ``next()`` is one span."""
        clock, spans, get_ident = self.clock, self.spans, threading.get_ident

        @functools.wraps(func)
        def timed(*args, **kwargs):
            inner = func(*args, **kwargs)
            while True:
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    spans.append(Span(name, get_ident(), start, clock()))
                    return
                spans.append(Span(name, get_ident(), start, clock()))
                yield item

        timed.__wrapped_by_perfbench__ = True
        return timed


def current_task_named(task_name: str) -> Callable[[], bool]:
    """Predicate: the running asyncio task carries ``task_name``."""

    def check() -> bool:
        try:
            task = asyncio.current_task()
        except RuntimeError:
            return False
        return task is not None and task.get_name() == task_name

    return check


# ----------------------------------------------------------------------
# interval arithmetic
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def clip(spans: Iterable[Span], start: float, end: float) -> list[Span]:
    """Spans cut to the window ``[start, end]``; those outside are dropped."""
    out = []
    for span in spans:
        lo, hi = max(span.start, start), min(span.end, end)
        if hi > lo:
            out.append(span._replace(start=lo, end=hi))
    return out


def parents(spans: list[Span]) -> list[Optional[int]]:
    """Index of each span's enclosing span on the same thread (or None).

    Spans of one thread nest properly (a wrapped call returns before its
    caller does), so one stack per thread recovers the call tree.
    """
    out: list[Optional[int]] = [None] * len(spans)
    by_thread: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        by_thread.setdefault(span.thread, []).append(index)
    for indices in by_thread.values():
        indices.sort(key=lambda i: (spans[i].start, -spans[i].end))
        stack: list[int] = []
        for index in indices:
            span = spans[index]
            while stack and spans[stack[-1]].end <= span.start:
                stack.pop()
            if stack:
                out[index] = stack[-1]
            stack.append(index)
    return out


def self_times(spans: list[Span], wait_names: Iterable[str] = ()) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Same-thread children come from :func:`parents`.  A span whose name is
    in ``wait_names`` also adopts every top-level span of *another* thread
    (never a thread-``0`` asynchronous span) that overlaps it — the work
    it was blocked on — so its self time is the part of the wait no other
    thread was busy for it.
    """
    parent_of = parents(spans)
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for index, parent in enumerate(parent_of):
        if parent is not None:
            children[parent].append((spans[index].start, spans[index].end))
    wait_names = frozenset(wait_names)
    waits = [i for i, span in enumerate(spans) if span.name in wait_names]
    if waits:
        roots = sorted(
            (i for i, parent in enumerate(parent_of) if parent is None),
            key=lambda i: spans[i].start,
        )
        root_starts = [spans[i].start for i in roots]
        longest = max((spans[i].duration for i in roots), default=0.0)
        for wait in waits:
            w = spans[wait]
            lo = bisect_left(root_starts, w.start - longest)
            hi = bisect_left(root_starts, w.end)
            for i in roots[lo:hi]:
                other = spans[i]
                if other.thread not in (w.thread, 0) and other.end > w.start:
                    children[wait].append((other.start, other.end))
    out = []
    for index, span in enumerate(spans):
        covered = union_length(
            (max(lo, span.start), min(hi, span.end)) for lo, hi in children[index]
        )
        out.append(span.duration - covered)
    return out


def outermost(spans: list[Span], names: Iterable[str]) -> list[int]:
    """Indices of spans named in ``names`` with no same-named ancestor,
    so inclusive sums do not count a recursive call twice."""
    names = frozenset(names)
    parent_of = parents(spans)
    out = []
    for index, span in enumerate(spans):
        if span.name not in names:
            continue
        parent = parent_of[index]
        while parent is not None and spans[parent].name not in names:
            parent = parent_of[parent]
        if parent is None:
            out.append(index)
    return out
