"""Unified telemetry plane: metrics, spans, traces, health, exposition.

Dependency-free observability for the whole stack.  One process-wide
:class:`MetricsRegistry` holds counters, gauges, and fixed-bucket
histograms; instruments are no-ops while the registry is disabled (the
default — flip with ``REPRO_OBS=1``, :func:`enable`, or the
:class:`enabled` context manager).  :func:`span` times a block against a
histogram, :func:`log_event` emits newline-delimited JSON records, and
the :mod:`~repro.obs.prom` / :mod:`~repro.obs.http` modules render the
registry as Prometheus text (``repro obs dump``, ``/metrics``).

Two further planes build on the same switch:

* :mod:`~repro.obs.trace` — end-to-end request tracing: a
  :class:`TraceContext` propagated client → wire → collector → shard
  workers, completed spans in a bounded ring on the process
  :class:`Tracer`, exported as Chrome trace-event JSON
  (``repro-bench obs trace``, ``/traces``).
* :mod:`~repro.obs.health` — verdicts: :func:`evaluate_health` turns
  session ingest stats plus a registry snapshot into machine-readable
  pass/warn/fail with reasons (``/healthz`` and the HEALTH wire query).
"""

from .log import JsonLogger, configure_logging, get_logger, log_event
from .metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    SNAPSHOT_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    disable,
    enable,
    enabled,
    get_registry,
    merge_snapshots,
    series_key,
    span,
)
from .prom import render, render_snapshot, write_snapshot
from .http import start_http_server, start_metrics_server
from .health import (
    HEALTH_SCHEMA,
    HealthMonitor,
    HealthPolicy,
    evaluate_health,
    histogram_quantile,
)
from .trace import (
    SpanRing,
    TraceContext,
    Tracer,
    chrome_trace,
    disable_tracing,
    enable_tracing,
    get_tracer,
    trace_span,
    tracing_enabled,
)

__all__ = [
    "SNAPSHOT_SCHEMA",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "series_key",
    "get_registry",
    "enable",
    "disable",
    "enabled",
    "span",
    "merge_snapshots",
    "render",
    "render_snapshot",
    "write_snapshot",
    "start_http_server",
    "start_metrics_server",
    "HEALTH_SCHEMA",
    "HealthPolicy",
    "HealthMonitor",
    "evaluate_health",
    "histogram_quantile",
    "TraceContext",
    "Tracer",
    "SpanRing",
    "chrome_trace",
    "get_tracer",
    "enable_tracing",
    "disable_tracing",
    "trace_span",
    "tracing_enabled",
    "JsonLogger",
    "get_logger",
    "configure_logging",
    "log_event",
]
