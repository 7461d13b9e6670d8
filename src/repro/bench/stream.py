"""Streaming ingestion throughput benchmark.

Feeds a synthetic report stream (Zipf-ish item popularity over a skewed
class mix) through every framework's
:class:`~repro.stream.session.OnlineFrameworkSession` behind a
:class:`~repro.stream.sharding.ShardedAggregator` and measures sustained
ingestion throughput (reports/sec), end-of-stream estimation error, and
peak resident memory.  The quick scale streams 1.2M users per framework;
the full scale 10M.

Besides the usual text report the run emits a machine-readable
``BENCH_stream.json`` artifact (repo root by default; override with
``REPRO_BENCH_STREAM_ARTIFACT``) so successive PRs can track the
throughput trajectory.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..mechanisms.backends import backend_info, use_backend
from ..metrics import rmse
from ..obs import metrics as obs_metrics
from ..rng import ensure_rng, spawn_seeds
from ..stream import ShardedAggregator, default_shard_count, make_session
from .reporting import artifact_path, bench_meta, format_table

#: Workload parameters per scale.
SCALES = {
    "quick": dict(n_users=1_200_000, n_classes=5, n_items=1024, batch_size=65_536),
    "full": dict(n_users=10_000_000, n_classes=5, n_items=4096, batch_size=262_144),
}

#: Frameworks benchmarked, in report order.
STREAM_FRAMEWORKS: tuple[str, ...] = ("hec", "ptj", "pts", "pts-cp")


def _artifact_path() -> Path:
    return artifact_path("REPRO_BENCH_STREAM_ARTIFACT", "BENCH_stream.json")


def _peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux container
        peak //= 1024
    return peak / 1024.0


def _synthetic_stream(
    n_users: int, n_classes: int, n_items: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Labels and items for ``n_users`` reports: mildly skewed class mix,
    Zipf-ish item head (enough structure for the error column to mean
    something without dominating the timing)."""
    ranks = np.arange(1, n_items + 1, dtype=np.float64)
    item_probs = ranks**-1.05
    item_probs /= item_probs.sum()
    class_probs = rng.dirichlet(np.full(n_classes, 5.0))
    labels = rng.choice(n_classes, size=n_users, p=class_probs)
    items = rng.choice(n_items, size=n_users, p=item_probs)
    return labels, items


def run_stream_benchmark(
    scale: str = "quick",
    seed: int = 0,
    n_users: Optional[int] = None,
    n_shards: Optional[int] = None,
    batch_size: Optional[int] = None,
    epsilon: float = 1.0,
    frameworks: Sequence[str] = STREAM_FRAMEWORKS,
    mode: str = "simulate",
    backend: Optional[str] = None,
    artifact: Optional[str] = None,
) -> tuple[str, dict]:
    """Run the ingestion benchmark; returns ``(report, artifact_payload)``.

    The payload is also written to ``artifact`` (default: the path from
    ``REPRO_BENCH_STREAM_ARTIFACT`` or ``BENCH_stream.json`` at the repo
    root); an unwritable location is reported in the table note rather
    than aborting the run, so the benchmark works from installed
    packages too.  Explicit ``n_users`` / ``n_shards`` / ``batch_size``
    override the scale's defaults.  ``backend`` pins the kernel backend
    for the run; it lands in the artifact so a recorded rate is
    attributable to its configuration.
    """
    if scale not in SCALES:
        raise ConfigurationError(f"scale must be one of {sorted(SCALES)}, got {scale!r}")
    params = dict(SCALES[scale])
    if n_users is not None:
        params["n_users"] = int(n_users)
    if batch_size is not None:
        params["batch_size"] = int(batch_size)
    n = params["n_users"]
    c, d = params["n_classes"], params["n_items"]
    batch = params["batch_size"]
    if n < 1 or batch < 1:
        raise ConfigurationError("n_users and batch_size must be positive")
    shards = default_shard_count() if n_shards is None else int(n_shards)
    if shards < 1:
        raise ConfigurationError(f"need at least one shard, got {shards}")

    rng = ensure_rng(seed)
    labels, items = _synthetic_stream(n, c, d, rng)
    truth = np.bincount(labels * d + items, minlength=c * d).reshape(c, d)
    batches = [
        (labels[start : start + batch], items[start : start + batch])
        for start in range(0, n, batch)
    ]

    rows = []
    per_framework: dict[str, dict] = {}
    shard_seeds: dict[str, list[int]] = {}
    total_reports = 0
    # Measure with telemetry on: timings come from the shared obs.span
    # primitive and the run's registry snapshot lands in the artifact
    # meta block.  (spawn_seeds + ensure_rng reproduces spawn()'s exact
    # generator streams while capturing the seeds for the meta block.)
    registry = obs_metrics.get_registry()
    with use_backend(backend), obs_metrics.enabled():
        run_backend = backend_info()
        for name in frameworks:
            seeds = spawn_seeds(rng, shards)
            shard_seeds[name] = list(seeds)
            sessions = [
                make_session(
                    name,
                    epsilon=epsilon,
                    n_classes=c,
                    n_items=d,
                    mode=mode,
                    rng=ensure_rng(seed_value),
                )
                for seed_value in seeds
            ]
            with obs_metrics.span("bench_stream_seconds", framework=name) as timer:
                with ShardedAggregator(sessions) as aggregator:
                    for item in batches:
                        aggregator.submit(item)
                    aggregator.drain()
                    merged = aggregator.merged()
            elapsed = timer.elapsed
            error = float(rmse(merged.estimate(), truth))
            reports_per_sec = (
                merged.n_ingested / elapsed if elapsed > 0 else float("inf")
            )
            total_reports += merged.n_ingested
            rows.append(
                [
                    name,
                    merged.n_ingested,
                    len(batches),
                    f"{elapsed:.2f}",
                    f"{reports_per_sec:,.0f}",
                    round(error, 1),
                ]
            )
            per_framework[name] = {
                "n_ingested": merged.n_ingested,
                "elapsed_sec": elapsed,
                "reports_per_sec": reports_per_sec,
                "rmse": error,
            }

    peak_rss_mb = _peak_rss_mb()
    payload = {
        "scale": scale,
        "seed": seed,
        "mode": mode,
        "epsilon": epsilon,
        "n_users": n,
        "n_classes": c,
        "n_items": d,
        "batch_size": batch,
        "n_shards": shards,
        "total_reports": total_reports,
        "peak_rss_mb": peak_rss_mb,
        "frameworks": per_framework,
        "meta": bench_meta(
            shard_seeds=shard_seeds,
            metrics=registry.snapshot(),
            backend=run_backend,
        ),
    }
    artifact_path = Path(artifact) if artifact is not None else _artifact_path()
    try:
        artifact_path.write_text(json.dumps(payload, indent=2) + "\n")
        artifact_note = f"artifact: {artifact_path}"
    except OSError as error:
        artifact_note = f"artifact not written ({error})"

    report = format_table(
        f"Streaming ingestion throughput (scale={scale}, c={c}, d={d}, "
        f"eps={epsilon}, shards={shards}, batch={batch})",
        ["framework", "reports", "batches", "sec", "reports/sec", "RMSE"],
        rows,
        note=(
            f"peak RSS {peak_rss_mb:,.0f} MiB; total {total_reports:,} reports "
            f"ingested; {artifact_note}"
        ),
    )
    return report, payload
