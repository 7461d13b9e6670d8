"""Telemetry: one metrics registry, health verdicts, logs, exposition.

Dependency-free observability for the serve plane.  The report collector
owns the one :class:`MetricsRegistry` (counters, gauges, fixed-bucket
histograms; :attr:`repro.serve.ReportCollector.metrics`), and everything
here reads it:

* :mod:`~repro.obs.prom` / :mod:`~repro.obs.http` render it as
  Prometheus text (``/metrics``) and serve ``/healthz``;
* :mod:`~repro.obs.health` — verdicts: :func:`evaluate_health` turns
  session ingest stats plus a registry snapshot into machine-readable
  pass/warn/fail with reasons (``/healthz`` and the HEALTH wire query);
* :func:`log_event` emits newline-delimited JSON records
  (``repro-serve --log-json``).
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
    series_key,
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
    "JsonLogger",
    "get_logger",
    "configure_logging",
    "log_event",
]
