"""Plain-text result tables for the benchmark harness.

Every experiment renders to an aligned text table resembling the paper's
figure/table, printed to stdout and persisted under
``benchmarks/results/`` so EXPERIMENTS.md can quote paper-vs-measured.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Sequence


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    note: Optional[str] = None,
) -> str:
    """Render an aligned monospace table with a title and optional note."""
    cells = [[str(h) for h in headers]] + [
        [_fmt(value) for value in row] for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(value.ljust(w) for value, w in zip(row, widths)))
    if note:
        lines.append("")
        lines.append(note)
    return "\n".join(lines) + "\n"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def results_dir() -> Path:
    """Directory where bench outputs are persisted.

    Defaults to ``benchmarks/results`` relative to the repository root;
    override with ``REPRO_RESULTS_DIR``.
    """
    override = os.environ.get("REPRO_RESULTS_DIR")
    if override:
        path = Path(override)
    else:
        path = Path(__file__).resolve().parents[3] / "benchmarks" / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def emit(name: str, report: str) -> str:
    """Print a report and persist it as ``<name>.txt``; returns the report."""
    print()
    print(report)
    (results_dir() / f"{name}.txt").write_text(report)
    return report


def bench_scale() -> str:
    """The harness scale: ``"quick"`` (default) or ``"full"`` via the
    ``REPRO_BENCH_SCALE`` environment variable."""
    value = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    return "full" if value == "full" else "quick"
