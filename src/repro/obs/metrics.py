"""The metrics registry — counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` holds every instrument of one telemetry scope.
Instruments are identified by a metric *name* plus an optional label set
(Prometheus-style); :meth:`~MetricsRegistry.counter`,
:meth:`~MetricsRegistry.gauge` and :meth:`~MetricsRegistry.histogram` are
get-or-create, so call sites never coordinate registration.

The library has one registry in use: the serve collector's
(:attr:`repro.serve.ReportCollector.metrics`), which the ``STATS`` wire
frame, the HEALTH verdict and ``/metrics`` all read.  It always records.

All mutations take one registry-wide lock, so a concurrent
:meth:`~MetricsRegistry.snapshot` is a consistent cut: counters
incremented from worker threads sum exactly, never torn.  The
per-operation cost is one lock acquisition — instruments are updated per
*batch*, never per report.

:class:`Span` times a block of code into a histogram.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from types import SimpleNamespace
from typing import Optional, Sequence, Union

#: Snapshot schema version (bumped when the layout changes).
SNAPSHOT_SCHEMA = 1

#: Default histogram bucket upper bounds for durations in seconds.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default bucket upper bounds for batch/report-count histograms.
DEFAULT_COUNT_BUCKETS: tuple[float, ...] = (
    1, 8, 64, 256, 1024, 4096, 8192, 16_384, 65_536, 262_144, 1_048_576,
)

LabelValue = Union[str, int, float, bool]


def _escape_label(value: object) -> str:
    """Prometheus label-value escaping (backslash, quote, newline)."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def series_key(name: str, labels: dict) -> str:
    """The canonical series identifier: ``name`` or ``name{k="v",...}``.

    Labels are sorted by key and values escaped, so the key is both a
    stable dict key for snapshots and a valid Prometheus series string.
    """
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in sorted(labels.items())
    )
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing counter."""

    kind = "counter"
    __slots__ = ("key", "_registry", "_value")

    def __init__(self, registry: "MetricsRegistry", key: str) -> None:
        self.key = key
        self._registry = registry
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        with self._registry._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._registry._lock:
            return self._value


class Gauge:
    """A value that can go up and down (queue depths, lags, levels)."""

    kind = "gauge"
    __slots__ = ("key", "_registry", "_value")

    def __init__(self, registry: "MetricsRegistry", key: str) -> None:
        self.key = key
        self._registry = registry
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._registry._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._registry._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._registry._lock:
            return self._value


class Histogram:
    """A fixed-bucket histogram (Prometheus ``le`` semantics).

    ``edges`` are strictly increasing upper bounds; an observation lands
    in the first bucket whose edge is ``>= value``, values above the last
    edge land in the implicit overflow (``+Inf``) bucket.  ``sum`` and
    ``count`` track totals, so averages fall out of any snapshot.
    """

    kind = "histogram"
    __slots__ = ("key", "edges", "_registry", "_counts", "_sum", "_count")

    def __init__(
        self,
        registry: "MetricsRegistry",
        key: str,
        edges: Sequence[float],
    ) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"bucket edges must be strictly increasing: {edges}")
        self.key = key
        self.edges = edges
        self._registry = registry
        self._counts = [0] * (len(edges) + 1)  # +1: the +Inf overflow bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.edges, value)
        with self._registry._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._registry._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._registry._lock:
            return self._sum

    def state(self) -> dict:
        """Plain-data view: edges, per-bucket counts, sum, count."""
        with self._registry._lock:
            return {
                "edges": list(self.edges),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }


class Span:
    """A timing context: observes the block's wall-clock duration in
    seconds into ``histogram`` on exit."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class MetricsRegistry:
    """A concurrent get-or-create registry of named instruments."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[str, object] = {}
        # (cls, name, labels-items) -> instrument; skips series_key
        # formatting on repeat fetches.
        self._fetch_memo: dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # instrument factories (get-or-create)
    # ------------------------------------------------------------------
    def _instrument(self, cls, name: str, labels: dict, **kwargs):
        memo_key = (cls, name, tuple(labels.items()))
        cached = self._fetch_memo.get(memo_key)
        if cached is not None:
            return cached
        key = series_key(name, labels)
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {key!r} is a {existing.kind}, not a {cls.kind}"
                    )
                self._fetch_memo[memo_key] = existing
                return existing
            metric = cls(self, key, **kwargs)
            self._metrics[key] = metric
            self._fetch_memo[memo_key] = metric
            return metric

    def counter(self, name: str, **labels: LabelValue) -> Counter:
        return self._instrument(Counter, name, labels)

    def gauge(self, name: str, **labels: LabelValue) -> Gauge:
        return self._instrument(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: LabelValue,
    ) -> Histogram:
        edges = DEFAULT_TIME_BUCKETS if buckets is None else buckets
        return self._instrument(Histogram, name, labels, edges=edges)

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------
    def metrics(self) -> list:
        with self._lock:
            return [self._metrics[key] for key in sorted(self._metrics)]

    def snapshot(self) -> dict:
        """A consistent plain-data cut of every registered instrument.

        Taken under the registry lock, so concurrent increments are never
        torn: the totals in one snapshot always add up.  Keys are
        Prometheus-style series strings (see :func:`series_key`), sorted.
        """
        with self._lock:
            counters = {}
            gauges = {}
            histograms = {}
            for key in sorted(self._metrics):
                metric = self._metrics[key]
                if isinstance(metric, Counter):
                    counters[key] = metric._value
                elif isinstance(metric, Gauge):
                    gauges[key] = metric._value
                else:
                    histograms[key] = {
                        "edges": list(metric.edges),
                        "counts": list(metric._counts),
                        "sum": metric._sum,
                        "count": metric._count,
                    }
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def clear(self) -> None:
        """Drop every registered instrument (tests and long-lived procs)."""
        with self._lock:
            self._metrics.clear()
            self._fetch_memo.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry(metrics={len(self)})"


def get_registry() -> SimpleNamespace:
    """An object whose ``enabled`` is always False.

    The library has no process-wide registry.  This name is kept only
    because ``perfbench/run.py`` reads ``get_registry().enabled`` and
    refuses to take end-to-end numbers while it is True, until perfbench
    tolerates its absence.
    """
    return SimpleNamespace(enabled=False)
