"""Health verdicts: turn live telemetry into pass/warn/fail with reasons.

The metrics plane reports raw counters; an operator (or a load balancer
probe) wants a *verdict*.  :class:`HealthPolicy` holds the thresholds,
:func:`evaluate_health` folds a collector's session stats and registry
snapshot into one machine-readable payload::

    {"status": "warn",
     "checks": [{"check": "ingest_lag", "session": "cohort",
                 "status": "warn", "value": 0.61,
                 "reason": "160083 pending of 262144 high water"}, ...],
     "schema": 1}

Every check grades one session: its ingest lag (pending vs the
backpressure high water), backpressure stall time, drift-event rate, and
two latency percentiles computed from the registry's own bucket counts —
the ring flush copy (``serve_flush_seconds``) and the query, which
drains every shard before it answers (``serve_query_seconds``).  Each
session's series are looked up by their exact
:func:`~repro.obs.metrics.series_key`, so any session id attributes
correctly.  The overall ``status`` is the worst individual check; every
non-pass check carries its reason, so ``fail`` is always
attributable.

:class:`HealthMonitor` adds the small amount of state rate checks need
(drift events are judged per evaluation window, not cumulatively) and is
what the collector's ``/healthz`` route and HEALTH wire query answer
from.  Everything else is pure functions over plain data, so tests and
offline tooling can evaluate recorded snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .metrics import series_key

#: Version of the health payload layout.
HEALTH_SCHEMA = 1

#: Verdicts, worst last.
VERDICTS = ("pass", "warn", "fail")

_RANK = {verdict: rank for rank, verdict in enumerate(VERDICTS)}


def worst(verdicts: Iterable[str]) -> str:
    """The most severe verdict of an iterable (``pass`` when empty)."""
    rank = 0
    for verdict in verdicts:
        rank = max(rank, _RANK.get(verdict, 0))
    return VERDICTS[rank]


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds separating pass from warn from fail.

    ``*_warn`` crossing yields ``warn``; ``*_fail`` crossing yields
    ``fail``.  Set a pair to ``None`` to disable that check entirely.
    """

    #: Ingest lag as a fraction of the session's backpressure high water.
    lag_warn: Optional[float] = 0.5
    lag_fail: Optional[float] = 1.0
    #: Seconds a session has spent stalled in backpressure (cumulative
    #: plus any stall in progress).
    stall_warn: Optional[float] = 1.0
    stall_fail: Optional[float] = 30.0
    #: Drift events flagged since the previous evaluation.
    drift_warn: Optional[int] = 1
    drift_fail: Optional[int] = 10
    #: Latency percentile bound in seconds, for the flush copy
    #: (``flush_latency``) and the drain plus answer of a query
    #: (``query_latency``).
    flush_quantile: float = 0.99
    flush_warn: Optional[float] = 1.0
    flush_fail: Optional[float] = 10.0

    def grade(
        self, value: float, warn: Optional[float], fail: Optional[float]
    ) -> str:
        if fail is not None and value >= fail:
            return "fail"
        if warn is not None and value >= warn:
            return "warn"
        return "pass"


def histogram_quantile(state: dict, q: float) -> float:
    """A quantile estimate from a snapshot histogram's bucket counts.

    Linear interpolation inside the winning bucket (Prometheus
    ``histogram_quantile`` semantics); observations in the overflow
    bucket clamp to the last finite edge.  Returns 0.0 for an empty
    histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    edges, counts = state["edges"], state["counts"]
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    cumulative = 0.0
    lower = 0.0
    for edge, count in zip(edges, counts):
        if cumulative + count >= target and count > 0:
            if edge == float("inf"):
                return float(lower)
            fraction = (target - cumulative) / count
            return lower + (edge - lower) * min(max(fraction, 0.0), 1.0)
        cumulative += count
        lower = edge
    return float(lower)


#: ``(check, histogram family)`` of the per-session latency checks.
_LATENCY_CHECKS = (
    ("flush_latency", "serve_flush_seconds"),
    ("query_latency", "serve_query_seconds"),
)


def _series(section: dict, family: str, session: str):
    """A snapshot section's ``family{session="..."}`` entry, or ``None``."""
    return section.get(series_key(family, {"session": session}))


def _check(
    check: str, status: str, value: float, reason: str, session: str
) -> dict:
    return {
        "check": check,
        "status": status,
        "value": value,
        "reason": reason,
        "session": session,
    }


def evaluate_health(
    sessions: Iterable[dict],
    snapshot: Optional[dict] = None,
    policy: Optional[HealthPolicy] = None,
    drift_baseline: Optional[dict] = None,
) -> dict:
    """One health payload from per-session ingest stats and a registry cut.

    ``sessions`` are :meth:`repro.serve.registry.HostedSession.ingest_stats`
    payloads (or anything shaped like them); ``snapshot`` is a metrics
    registry snapshot supplying each session's drift counter and latency
    histograms.  ``drift_baseline`` maps session id to the
    drift-event count already judged (the :class:`HealthMonitor` window
    state); cumulative counts are used when absent.
    """
    policy = policy or HealthPolicy()
    snapshot = snapshot or {}
    drift_baseline = drift_baseline or {}
    checks: list[dict] = []

    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})

    for stats in sessions:
        session = str(stats.get("session", "?"))
        high_water = int(stats.get("high_water", 0) or 0)
        pending = int(stats.get("pending", 0) or 0)
        if high_water > 0:
            fraction = pending / high_water
            checks.append(
                _check(
                    "ingest_lag",
                    policy.grade(fraction, policy.lag_warn, policy.lag_fail),
                    round(fraction, 4),
                    f"{pending} pending of {high_water} high water",
                    session=session,
                )
            )
        stall = float(stats.get("stall_seconds", 0.0) or 0.0)
        checks.append(
            _check(
                "backpressure_stall",
                policy.grade(stall, policy.stall_warn, policy.stall_fail),
                round(stall, 4),
                f"{stall:.3f}s stalled in backpressure"
                + (" (stall in progress)" if stats.get("stalled") else ""),
                session=session,
            )
        )
        total = _series(counters, "serve_drift_events_total", session)
        if total is not None:
            fresh = int(total) - int(drift_baseline.get(session, 0))
            checks.append(
                _check(
                    "drift_rate",
                    policy.grade(fresh, policy.drift_warn, policy.drift_fail),
                    fresh,
                    f"{fresh} drift event(s) this window ({int(total)} total)",
                    session=session,
                )
            )
        for check, family in _LATENCY_CHECKS:
            state = _series(histograms, family, session)
            if state is None or not sum(state.get("counts", ())):
                continue
            quantile = histogram_quantile(state, policy.flush_quantile)
            checks.append(
                _check(
                    check,
                    policy.grade(quantile, policy.flush_warn, policy.flush_fail),
                    round(quantile, 6),
                    f"{family} p{int(policy.flush_quantile * 100)} "
                    f"~{quantile:.4f}s",
                    session=session,
                )
            )

    return {
        "schema": HEALTH_SCHEMA,
        "status": worst(check["status"] for check in checks),
        "checks": checks,
    }


class HealthMonitor:
    """The stateful wrapper rate checks need.

    Keeps the drift-event counts already judged so each evaluation grades
    only the *new* events (a cohort that drifted once last week should
    not warn forever), and remembers the last verdict for cheap reads.
    """

    def __init__(self, policy: Optional[HealthPolicy] = None) -> None:
        self.policy = policy or HealthPolicy()
        self._drift_seen: dict[str, int] = {}
        self.last: Optional[dict] = None

    def evaluate(
        self, sessions: Iterable[dict], snapshot: Optional[dict] = None
    ) -> dict:
        sessions = list(sessions)
        snapshot = snapshot or {}
        verdict = evaluate_health(
            sessions,
            snapshot,
            policy=self.policy,
            drift_baseline=self._drift_seen,
        )
        counters = snapshot.get("counters", {})
        for stats in sessions:
            session = str(stats.get("session", "?"))
            total = _series(counters, "serve_drift_events_total", session)
            if total is not None:
                self._drift_seen[session] = int(total)
        self.last = verdict
        return verdict
