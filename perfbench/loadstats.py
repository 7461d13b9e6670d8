"""Arithmetic the benchmark reports with: percentiles, schedule lateness,
failure counting.  Imports nothing from the program under test."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Sequence

#: A reported percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: Percentiles considered, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def nearest_rank(samples: Sequence[float], percentile: float) -> float:
    """The nearest-rank percentile: the smallest sample with at least
    ``percentile`` percent of the samples at or below it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    return ordered[rank_index(len(ordered), percentile)]


def rank_index(n: int, percentile: float) -> int:
    """Zero-based index of the nearest-rank ``percentile`` among ``n``."""
    # Rounded first so that e.g. 99.9% of 10,000 is exactly rank 9,990.
    return max(0, math.ceil(round(percentile * n / 100.0, 9)) - 1)


def samples_beyond(n: int, percentile: float) -> int:
    """How many of ``n`` sorted samples lie strictly after the
    nearest-rank ``percentile``."""
    return n - 1 - rank_index(n, percentile)


def highest_supported_percentile(n: int) -> float | None:
    """The highest percentile of :data:`PERCENTILE_LADDER` with at least
    :data:`MIN_TAIL_SAMPLES` samples beyond it, or ``None``."""
    for percentile in PERCENTILE_LADDER:
        if samples_beyond(n, percentile) >= MIN_TAIL_SAMPLES:
            return percentile
    return None


def schedule(start: float, interval: float, duration: float) -> list[float]:
    """Due times of an open-loop schedule: one every ``interval`` seconds
    from ``start``, for every slot that falls before ``start + duration``."""
    count = math.ceil(duration / interval - 1e-9)
    return [start + k * interval for k in range(count)]


def latencies_from_due(due: Sequence[float], done: Sequence[float]) -> list[float]:
    """Latency of each request timed from when it was due, so a stall
    that delays later sends counts against every request it delayed."""
    return [finish - when for when, finish in zip(due, done)]


def lateness(due: Sequence[float], sent: Sequence[float]) -> list[float]:
    """How late the generator sent each request (never negative)."""
    return [max(0.0, went - when) for when, went in zip(due, sent)]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


@dataclass
class Outcomes:
    """Attempted operations and failures, by reason.

    Every operation the benchmark drives and every correctness check
    counts as one attempt; an exception, a failed check, a timeout, a
    lost report or a rejected frame counts as one failure.
    """

    attempted: int = 0
    failures: dict[str, int] = field(default_factory=dict)

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + n

    def check(self, ok: bool, reason: str) -> bool:
        """One correctness check: an attempt, and a failure unless ``ok``."""
        self.attempt()
        if not ok:
            self.fail(reason)
        return ok

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
