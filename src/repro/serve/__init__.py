"""Async report-collection service — the network front-end of the
unified report plane.

The paper's deployment model is a collector receiving one privatised
report per user over the wire; this subpackage is that collector, built
on asyncio over the streaming and engine layers:

* :mod:`~repro.serve.protocol` — the length-prefixed wire codec: a JSON
  HELLO handshake carrying the session config, packed binary
  ``(class_label, report)`` REPORTS frames (encoded through a reusable
  interleave arena, decoded as zero-copy views, coalesced off the socket
  by :class:`FrameReader`), and a JSON control channel.
* :mod:`~repro.serve.ringbuf` — the zero-allocation ingest buffer:
  :class:`ReportRing` columnar ring buffers written in place on arrival
  and flushed in arrival order.
* :mod:`~repro.serve.registry` — :class:`SessionRegistry` hosting many
  concurrent cohorts (:class:`HostedSession`): ring-buffered ingest,
  high/low-water backpressure, and queries that drain mid-stream over
  :mod:`repro.stream.drain` adapters.
* :mod:`~repro.serve.collector` — :class:`ReportCollector`, the
  ``asyncio.start_server`` loop speaking the protocol.
* :mod:`~repro.serve.client` — :class:`ReportClient` and the
  :func:`generate_load` population simulator.

Quickstart (one process; see ``examples/report_service.py``)::

    import asyncio, numpy as np
    from repro.serve import ReportCollector, ReportClient

    async def main():
        async with ReportCollector() as collector:
            client = await ReportClient.connect(
                collector.host, collector.port,
                session="demo", framework="pts", epsilon=2.0,
                n_classes=3, n_items=64, seed=7,
            )
            async with client:
                await client.send(labels, items)
                estimate = await client.estimate()   # mid-stream query

    asyncio.run(main())

Run a standalone collector with ``repro-serve`` (``python -m
repro.serve``); the repository benchmark (``perfbench/run.py``, its
``serve-*`` workloads) measures its throughput and query latency.
"""

from .client import ReportClient, fetch_health, fetch_stats, generate_load
from .collector import ReportCollector
from .protocol import FrameReader, ReportsEncoder, ServeError, WireError
from .registry import HostedSession, SessionRegistry, canonical_config
from .ringbuf import ReportRing

__all__ = [
    "FrameReader",
    "HostedSession",
    "ReportClient",
    "ReportCollector",
    "ReportRing",
    "ReportsEncoder",
    "ServeError",
    "SessionRegistry",
    "WireError",
    "canonical_config",
    "fetch_health",
    "fetch_stats",
    "generate_load",
]
