"""Throughput-regression gate over the machine-readable bench artifacts.

Compares a freshly produced ``BENCH_{stream,protocol,serve}.json`` against
the committed baseline of the same kind and fails when any shared
throughput series regressed by more than a threshold (30% by default —
wide enough to absorb CI-runner noise, tight enough to catch a real
performance cliff).

Only series present in *both* artifacts are compared: stream/protocol
artifacts key throughput per framework, serve artifacts per
``(connections, batch_size)`` grid cell.  Aggregates that are not
comparable across differing grids (``max_reports_per_sec``) are ignored,
as are series that appear on only one side (reported as notes, never
failures), so shrinking or growing a bench grid does not trip the gate.

Importable API (:func:`extract_rates`, :func:`compare`,
:func:`compare_artifacts`) with a thin CLI wrapper at
``benchmarks/compare_bench.py``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Sequence

#: Fractional throughput drop that fails the gate (0.30 == -30%).
DEFAULT_THRESHOLD = 0.30

#: Per-framework throughput fields, in stream/protocol artifacts.
_FRAMEWORK_RATE_FIELDS = ("reports_per_sec", "users_per_sec")


def extract_rates(payload: dict) -> dict[str, float]:
    """The comparable throughput series of one bench artifact.

    Returns ``{series_key: rate}`` — ``"<framework>:<field>"`` for the
    stream/protocol shapes and
    ``"connections=<n>,batch=<b>:reports_per_sec"`` per serve grid cell.
    Unknown payload shapes yield an empty mapping rather than raising, so
    the gate degrades to a no-op on future artifact kinds.
    """
    rates: dict[str, float] = {}
    frameworks = payload.get("frameworks")
    if isinstance(frameworks, dict):
        for name, stats in frameworks.items():
            for field in _FRAMEWORK_RATE_FIELDS:
                if isinstance(stats, dict) and field in stats:
                    rates[f"{name}:{field}"] = float(stats[field])
    for cell in payload.get("cells", ()):
        if not isinstance(cell, dict) or "reports_per_sec" not in cell:
            continue
        key = (
            f"connections={cell.get('connections')},"
            f"batch={cell.get('batch_size')}:reports_per_sec"
        )
        rates[key] = float(cell["reports_per_sec"])
    return rates


def config_summary(payload: dict) -> Optional[str]:
    """The execution configuration a bench artifact's rates belong to.

    Pulls the kernel backend, engine thread schedule and tracing state
    from the artifact's ``meta`` block, so the gate can flag comparisons
    across differing configurations — a numba-backed fresh run against a
    numpy baseline clears the gate trivially, and the inverse would fail
    it for the wrong reason.
    """
    meta = payload.get("meta") or {}
    parts = []
    backend = meta.get("backend")
    if isinstance(backend, dict) and backend.get("name"):
        parts.append(f"backend={backend['name']}")
    elif isinstance(backend, str):
        parts.append(f"backend={backend}")
    if meta.get("threads") is not None:
        parts.append(f"threads={meta['threads']}")
    tracing = meta.get("tracing")
    if isinstance(tracing, dict) and (
        tracing.get("enabled") or tracing.get("dropped")
    ):
        # Only a live tracing plane is a config difference worth flagging
        # — artifacts predating the tracing block compare as untraced.
        parts.append("tracing=on")
        if tracing.get("dropped"):
            parts.append(f"spans_dropped={tracing['dropped']}")
    return " ".join(parts) or None


def compare(
    baseline: dict,
    fresh: dict,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[list[str], list[str]]:
    """Compare two artifact payloads; returns ``(regressions, lines)``.

    ``regressions`` holds the series keys that dropped by more than
    ``threshold``; ``lines`` is a human-readable account of every shared
    series plus notes for one-sided ones and for differing run
    configurations (backend / threads / tracing).
    """
    base_rates = extract_rates(baseline)
    fresh_rates = extract_rates(fresh)
    regressions: list[str] = []
    lines: list[str] = []
    base_config = config_summary(baseline)
    fresh_config = config_summary(fresh)
    if base_config or fresh_config:
        lines.append(
            f"  config     baseline[{base_config or '?'}] "
            f"fresh[{fresh_config or '?'}]"
        )
        if base_config != fresh_config:
            lines.append(
                "  note       run configurations differ; "
                "rates may not be directly comparable"
            )
    for key in sorted(set(base_rates) & set(fresh_rates)):
        before, after = base_rates[key], fresh_rates[key]
        change = (after - before) / before if before > 0 else 0.0
        verdict = "ok"
        if change < -threshold:
            verdict = "REGRESSION"
            regressions.append(key)
        lines.append(
            f"  {verdict:10s} {key}: {before:,.0f} -> {after:,.0f} "
            f"({change:+.1%})"
        )
    for key in sorted(set(base_rates) - set(fresh_rates)):
        lines.append(f"  note       {key}: only in baseline (skipped)")
    for key in sorted(set(fresh_rates) - set(base_rates)):
        lines.append(f"  note       {key}: only in fresh run (skipped)")
    if not lines:
        lines.append("  note       no comparable throughput series")
    return regressions, lines


def compare_artifacts(
    baseline_path: Path | str,
    fresh_path: Path | str,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[list[str], list[str]]:
    """:func:`compare` over two artifact files, with a header line."""
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    with open(fresh_path, encoding="utf-8") as handle:
        fresh = json.load(handle)
    regressions, lines = compare(baseline, fresh, threshold=threshold)
    header = f"{baseline_path} vs {fresh_path} (threshold -{threshold:.0%}):"
    return regressions, [header, *lines]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``compare_bench.py [--threshold F] BASELINE FRESH [B F ...]``.

    Exits 0 when no shared series regressed, 1 on any regression, 2 on
    usage errors.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="compare_bench.py",
        description=(
            "Fail when a fresh bench artifact regresses its committed "
            "baseline's throughput by more than the threshold."
        ),
    )
    parser.add_argument(
        "artifacts",
        nargs="+",
        metavar="PATH",
        help="baseline/fresh artifact paths, in alternating pairs",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="fractional drop that fails the gate (default: 0.30)",
    )
    args = parser.parse_args(argv)
    if len(args.artifacts) % 2 != 0:
        parser.error("artifacts must come in baseline/fresh pairs")
    failed: list[str] = []
    for index in range(0, len(args.artifacts), 2):
        baseline_path, fresh_path = args.artifacts[index : index + 2]
        regressions, lines = compare_artifacts(
            baseline_path, fresh_path, threshold=args.threshold
        )
        print("\n".join(lines))
        failed.extend(f"{fresh_path}: {key}" for key in regressions)
    if failed:
        print(f"\n{len(failed)} throughput regression(s):")
        for item in failed:
            print(f"  {item}")
        return 1
    print("\nno throughput regressions")
    return 0
