"""Command-line entry points: regenerate the paper's tables and figures,
inspect the telemetry plane, and host the standalone report collector.

Examples::

    repro-bench --list
    repro-bench fig7
    repro-bench table3 --scale full --seed 7
    repro-bench all
    repro-bench obs dump --format=prom   # telemetry snapshot
    repro-bench obs trace --output trace.json   # Chrome trace export
    python -m repro fig6           # equivalent module form
    python -m repro top 9009       # live ops console for a collector
    repro-serve --port 9009        # standalone collector
    repro-serve --metrics-port 9100 --log-json serve.jsonl
    python -m repro.serve          # equivalent module form

Throughput is measured by the repository benchmark, ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .bench.experiments import EXPERIMENTS, run_experiment
from .bench.reporting import emit


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Regenerate the evaluation of 'Multi-class Item Mining under "
            "Local Differential Privacy' (ICDE 2025)."
        ),
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help=f"experiment id ({', '.join(sorted(EXPERIMENTS))}) or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=("quick", "full"),
        default=None,
        help="workload scale (default: REPRO_BENCH_SCALE or 'quick')",
    )
    parser.add_argument(
        "--quick",
        action="store_const",
        const="quick",
        dest="scale",
        help="shorthand for --scale quick",
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    return parser


def build_obs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench obs",
        description=(
            "Inspect the telemetry plane (metrics snapshots, trace rings)."
        ),
    )
    parser.add_argument(
        "action",
        choices=("dump", "trace"),
        help=(
            "obs action: 'dump' prints a metrics snapshot, 'trace' "
            "exports this process's span ring as Chrome trace-event JSON "
            "(load it in Perfetto / chrome://tracing)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("json", "prom"),
        default="json",
        help="dump output format: JSON snapshot or Prometheus text",
    )
    parser.add_argument(
        "--input",
        default=None,
        help=(
            "read the snapshot from a file (a registry snapshot, as "
            "'dump --format=json' prints one) instead of this process's "
            "live registry"
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="trace: write the Chrome trace JSON here instead of stdout",
    )
    return parser


def obs_main(argv: Sequence[str]) -> int:
    """``repro-bench obs``: print a metrics snapshot (``dump``) as JSON
    or Prometheus text, or export the process span ring (``trace``) as
    Chrome trace-event JSON."""
    import json

    from .obs import get_registry, get_tracer, render_snapshot

    args = build_obs_parser().parse_args(argv)
    if args.action == "trace":
        document = get_tracer().export_chrome()
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2)
                handle.write("\n")
            print(
                f"wrote {len(document['traceEvents'])} trace events "
                f"to {args.output}"
            )
        else:
            print(json.dumps(document, indent=2))
        return 0
    if args.input is not None:
        with open(args.input, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        if not isinstance(snapshot, dict) or not (
            "counters" in snapshot or "histograms" in snapshot
        ):
            print(f"{args.input} is not a registry snapshot", file=sys.stderr)
            return 2
    else:
        snapshot = get_registry().snapshot()
    if args.format == "prom":
        sys.stdout.write(render_snapshot(snapshot))
    else:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "obs":
        return obs_main(argv[1:])
    if argv and argv[0] == "top":
        from .obs.console import main as top_main

        return top_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.list or args.experiment is None:
        print("Available experiments:")
        for name in sorted(EXPERIMENTS):
            doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]
            print(f"  {name:8s} {doc}")
        return 0
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; use --list", file=sys.stderr)
            return 2
        emit(name, run_experiment(name, scale=args.scale, seed=args.seed))
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Host the asyncio LDP report collector: clients handshake a "
            "session config and stream one report per user; estimates are "
            "queryable mid-stream over the same connection."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=9009, help="bind port (0: OS-assigned)"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="default aggregation shards per hosted session",
    )
    parser.add_argument(
        "--flush-reports",
        type=int,
        default=65_536,
        help="micro-batch size drained into the aggregation plane",
    )
    parser.add_argument(
        "--high-water",
        type=int,
        default=262_144,
        help="unprocessed-report ceiling before connections pause reading",
    )
    parser.add_argument(
        "--flush-interval",
        type=float,
        default=0.05,
        help="background buffer sweep period in seconds",
    )
    parser.add_argument(
        "--coalesce",
        type=int,
        default=64,
        help=(
            "most REPORTS frames decoded per event-loop wakeup "
            "(1 disables coalescing)"
        ),
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help=(
            "also serve a Prometheus /metrics endpoint on this port "
            "(enables process-wide telemetry)"
        ),
    )
    parser.add_argument(
        "--log-json",
        default=None,
        metavar="PATH",
        help="append structured JSON log records to PATH",
    )
    return parser


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the standalone collector until interrupted (``repro-serve``)."""
    import asyncio

    from .serve import ReportCollector

    args = build_serve_parser().parse_args(argv)
    if args.log_json is not None:
        from .obs import configure_logging

        configure_logging(args.log_json)

    async def _serve() -> None:
        collector = ReportCollector(
            host=args.host,
            port=args.port,
            flush_interval=args.flush_interval,
            default_shards=args.shards,
            flush_reports=args.flush_reports,
            high_water=args.high_water,
            coalesce_frames=args.coalesce,
        )
        await collector.start()
        print(f"repro-serve: collecting reports on {collector.host}:{collector.port}")
        metrics_server = None
        if args.metrics_port is not None:
            import json as _json

            from .obs import (
                enable,
                enable_tracing,
                get_registry,
                get_tracer,
                start_metrics_server,
            )
            from .obs.http import JSON_CONTENT_TYPE

            # The engine/stream layers record into the process registry;
            # flip it (and the span ring) on so the ops surface exposes
            # them next to the collector's always-exact wire counters.
            enable()
            enable_tracing()

            def healthz_route():
                verdict = collector.health()
                status = (
                    "503 Service Unavailable"
                    if verdict.get("status") == "fail"
                    else "200 OK"
                )
                return status, JSON_CONTENT_TYPE, _json.dumps(verdict) + "\n"

            def traces_route():
                document = get_tracer().export_chrome()
                return "200 OK", JSON_CONTENT_TYPE, _json.dumps(document) + "\n"

            metrics_server = await start_metrics_server(
                args.host,
                args.metrics_port,
                (collector.metrics, get_registry()),
                routes={"/healthz": healthz_route, "/traces": traces_route},
            )
            print(
                "repro-serve: metrics on "
                f"http://{args.host}:{args.metrics_port}/metrics "
                "(+ /healthz, /traces)"
            )
        try:
            await collector.serve_forever()
        finally:
            if metrics_server is not None:
                metrics_server.close()
                await metrics_server.wait_closed()
            await collector.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro-serve: stopped")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
