"""Prometheus text-format rendering of registry snapshots.

Renders the exposition format (``text/plain; version=0.0.4``) from a
:class:`~repro.obs.metrics.MetricsRegistry` snapshot: ``# TYPE`` headers
per metric family, counters and gauges as plain samples, and histograms
expanded into cumulative ``_bucket{le=...}`` series plus ``_sum`` /
``_count``.  Snapshot keys are already Prometheus series strings (see
:func:`repro.obs.metrics.series_key`), so rendering is a pure
reformatting — the same function backs the ``/metrics`` HTTP endpoint
and the snapshot writer used by CI.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from .metrics import MetricsRegistry


def _family(series: str) -> str:
    """The metric family name of a series key (strip the label set)."""
    brace = series.find("{")
    return series if brace < 0 else series[:brace]


def _labels(series: str) -> str:
    """The raw ``k="v",...`` label body of a series key (may be empty)."""
    brace = series.find("{")
    return "" if brace < 0 else series[brace + 1 : -1]


def _with_label(series: str, extra: str) -> str:
    """Append one pre-escaped label pair to a series key's label set."""
    body = _labels(series)
    body = f"{body},{extra}" if body else extra
    return f"{_family(series)}{{{body}}}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def render_snapshot(snapshot: dict) -> str:
    """The Prometheus text exposition of one registry snapshot."""
    lines: list[str] = []
    seen_types: set[str] = set()

    def type_line(family: str, kind: str) -> None:
        if family not in seen_types:
            seen_types.add(family)
            lines.append(f"# TYPE {family} {kind}")

    for series, value in snapshot.get("counters", {}).items():
        type_line(_family(series), "counter")
        lines.append(f"{series} {_format_value(value)}")
    for series, value in snapshot.get("gauges", {}).items():
        type_line(_family(series), "gauge")
        lines.append(f"{series} {_format_value(value)}")
    for series, state in snapshot.get("histograms", {}).items():
        family = _family(series)
        type_line(family, "histogram")
        cumulative = 0
        for edge, count in zip(state["edges"], state["counts"]):
            cumulative += count
            bucket = _with_label(series, f'le="{_format_value(edge)}"')
            lines.append(f"{family}_bucket{bucket[len(family):]} {cumulative}")
        cumulative += state["counts"][-1]
        inf_bucket = _with_label(series, 'le="+Inf"')
        lines.append(f"{family}_bucket{inf_bucket[len(family):]} {cumulative}")
        label_body = _labels(series)
        suffix = f"{{{label_body}}}" if label_body else ""
        lines.append(f"{family}_sum{suffix} {_format_value(state['sum'])}")
        lines.append(f"{family}_count{suffix} {state['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def render(registry: MetricsRegistry) -> str:
    """Render a live registry's snapshot."""
    return render_snapshot(registry.snapshot())


def write_snapshot(path: Union[str, Path], registry: MetricsRegistry) -> Path:
    """Write the Prometheus text of ``registry`` to ``path``."""
    path = Path(path)
    path.write_text(render(registry))
    return path
