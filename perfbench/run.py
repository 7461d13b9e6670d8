"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  ``--trace 0`` measures the end-to-end
metrics with every wrapper off; ``--trace 1`` is the separate traced run
that reports per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Lines before it are a human-readable report and the run's provenance.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("estimate-protocol", "topk-protocol", "serve-simulate", "serve-protocol")

#: name -> unit, in the order they print.  Each workload reports the
#: ones that apply to it; the serve workloads report all of them.
END_TO_END = {
    "users_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rmse_ratio": "ratio",
    "topk_f1": "ratio",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
}

#: Printed with the others but left out of the result line, so no bound
#: applies: serve-simulate's p90 answers in ~15 ms, and in a host's slow
#: phase its tail grows far more than its median (ten seeds spread 0.28
#: where p50 spread 0.15).
PRINTED_ONLY = ("query_p90_ms",)

PER_LAYER = {
    "mechanisms.privatize_s": "s",
    "mechanisms.aggregate_s": "s",
    "mechanisms.calls": "count",
    "mechanisms.reports": "count",
    "mechanisms.ns_per_report": "ns",
    "core.calibrate_s": "s",
    "core.topk.split_s": "s",
    "core.topk.prune_s": "s",
    "core.topk.iterations": "count",
    "core.topk.candidate_recall": "ratio",
    "stream.ingest_s": "s",
    "stream.ingest_calls": "count",
    "stream.shard_busy_frac": "ratio",
    "stream.shard_imbalance": "ratio",
    "stream.drain_wait_s": "s",
    "stream.estimate_s": "s",
    "serve.client_pack_s": "s",
    "serve.client_write_wait_s": "s",
    "serve.decode_s": "s",
    "serve.flush_sort_s": "s",
    "serve.frames": "count",
    "serve.bytes_in": "B",
    "serve.stall_s": "s",
    "serve.pending_max": "count",
    "serve.query_wait_frac": "ratio",
    "serve.cache_hit_ratio": "ratio",
    "serve.frames_rejected": "count",
    "datasets.generate_s": "s",
    "process.cpu_s_per_muser": "s",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "loadgen.lag_ms_max": "ms",
}

#: Environment variables that change what the program does or records.
PROVENANCE_ENV = ("REPRO_OBS", "REPRO_THREADS", "REPRO_BACKEND")


def _fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")


def _telemetry_on() -> bool:
    from repro.obs.metrics import get_registry
    from repro.obs.trace import get_tracer

    return get_registry().enabled or get_tracer().enabled


def provenance(seed: int) -> dict:
    import numpy
    from repro.mechanisms.backends import backend_info
    from repro.mechanisms.engine import default_thread_count

    threads_env = os.environ.get("REPRO_THREADS")
    return {
        "seed": seed,
        "backend": backend_info(),
        "engine_threads": (
            f"REPRO_THREADS={threads_env}" if threads_env
            else "serial (no REPRO_THREADS)"
        ),
        "engine_auto_threads": default_thread_count(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "env": {name: os.environ.get(name) for name in PROVENANCE_ENV},
    }


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive", 2)

    import_began = time.monotonic()
    try:
        _import_program()
    except ImportError as error:
        return _fail(f"cannot import the program: {error}", 3)
    import workloads

    import_s = time.monotonic() - import_began
    if not args.trace and _telemetry_on():
        return _fail(
            "telemetry or tracing is on (REPRO_OBS); refusing to take "
            "end-to-end numbers", 4,
        )
    info = provenance(args.seed)

    workdir = None
    try:
        if args.workload.startswith("serve-"):
            workdir = workloads.scratch_dir(ROOT)
            result = workloads.run_serve(
                args.workload, args.seed, args.seconds, bool(args.trace), workdir
            )
        else:
            result = workloads.run_in_process(
                args.workload, args.seed, args.seconds, bool(args.trace)
            )
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass
    result.setup_s += import_s
    outcomes = result.outcomes

    print(f"workload: {args.workload} (trace={args.trace}, seconds={args.seconds})")
    print("provenance: " + json.dumps(info, sort_keys=True))
    print(f"attempted={outcomes.attempted} failed={outcomes.failed} "
          f"failed_frac={outcomes.failed_frac:.6f} (ratio)")
    for reason, count in sorted(outcomes.failures.items()):
        print(f"  failure x{count}: {reason}")
    for name, ratio in sorted(result.rmse_ratio.items()):
        print(f"rmse_ratio[{name}] = {ratio:.4f} (ratio)")
    for name, value in sorted(result.notes.items()):
        print(f"note {name} = {value}")

    if args.trace:
        result.layer["datasets.generate_s"] = result.generate_s
        metrics = {
            name: _metric(result.layer.get(name, 0.0), unit)
            for name, unit in PER_LAYER.items()
        }
    else:
        values = {
            "users_per_s": result.users_per_s,
            "setup_s": result.setup_s,
            "peak_rss_mb": result.peak_rss_mb,
            "rmse_ratio": (
                sum(result.rmse_ratio.values()) / len(result.rmse_ratio)
                if result.rmse_ratio else None
            ),
            "topk_f1": result.topk_f1,
            "query_p50_ms": result.query_p50_ms,
            "query_p90_ms": result.query_p90_ms,
        }
        metrics = {
            name: _metric(values[name], unit)
            for name, unit in END_TO_END.items()
            if values[name] is not None
        }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": max(1, outcomes.attempted),
        "failed": outcomes.failed,
        "metrics": {
            name: metric for name, metric in metrics.items()
            if name not in PRINTED_ONLY
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
