"""Asyncio report client and load generator.

:class:`ReportClient` is the user-side half of the wire protocol: it
handshakes a session config, streams ``(label, item)`` reports in
REPORTS frames, and drives the control channel (``estimate`` / ``topk``
/ ``class_sizes`` / ``stats`` / ``advance_round``) mid-stream.  One
client maps to one TCP connection; many clients may feed the same
session id concurrently — the paper's one-report-per-user collection is
``n`` clients each sending a single report, and
:func:`generate_load` simulates exactly that population at a
configurable connection count and chunking.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional

import numpy as np

from . import protocol
from .protocol import ServeError


class ReportClient:
    """One collector connection bound to one session id.

    Build with :meth:`connect` (or ``async with ReportClient.session(...)``
    via the context-manager form), stream with :meth:`send`, query any
    time, and :meth:`close` to settle — the collector answers with the
    connection's ingested-report count.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        config: dict,
        hello: dict,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._encoder = protocol.ReportsEncoder()
        self.config = config
        self.session_id = config["session"]
        #: The collector's handshake reply (``created`` flag, kind).
        self.hello = hello
        self._closed = False

    @classmethod
    async def connect(cls, host: str, port: int, **config) -> "ReportClient":
        """Open a connection and handshake ``config`` onto its session.

        ``config`` holds the handshake keys (``session``, ``framework`` or
        ``kind="topk"``, ``epsilon``, ``n_classes``, ``n_items``, optional
        ``mode`` / ``seed`` / ``shards`` / decay knobs or a sliding
        ``window``); ``None`` values are elided so server defaults apply.
        """
        reader, writer = await asyncio.open_connection(host, port)
        try:
            reply = await protocol.request(
                reader, writer, protocol.hello_frame(config)
            )
        except BaseException:
            writer.close()
            raise
        return cls(reader, writer, config, reply["result"])

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    async def send(self, labels, items, chunk_size: Optional[int] = None) -> int:
        """Stream aligned report columns; returns the report count sent.

        Large populations are cut into ``chunk_size`` reports per frame
        (default: one maximal frame), packed back-to-back into the
        client's resident interleave arena and written in arena-sized
        batches — with the writer's own flow control awaited between
        writes so collector backpressure propagates here.  Columns
        already shaped as contiguous ``int32`` skip the validation scan
        and conversion copy entirely.
        """
        labels, items = protocol.as_report_columns(labels, items)
        for payload in self._encoder.pack(labels, items, chunk_size):
            self._writer.write(payload)
            await self._writer.drain()
        return int(labels.size)

    async def send_one(self, label: int, item: int) -> None:
        """One user's single report (the literal protocol message)."""
        await self.send(np.array([label]), np.array([item]))

    # ------------------------------------------------------------------
    # control channel
    # ------------------------------------------------------------------
    async def query(self, query: str, **params):
        """Raw control query; returns the reply's ``result`` field."""
        reply = await protocol.request(
            self._reader, self._writer, protocol.query_frame(query, **params)
        )
        return reply["result"]

    async def estimate(self) -> np.ndarray:
        """The served session's ``(c, d)`` pair-count estimate so far."""
        return np.asarray(await self.query("estimate"), dtype=np.float64)

    async def topk(self, k: Optional[int] = None) -> dict[int, list[int]]:
        result = await self.query("topk", k=k)
        return {int(label): list(ids) for label, ids in result.items()}

    async def class_sizes(self) -> np.ndarray:
        return np.asarray(await self.query("class_sizes"), dtype=np.float64)

    async def stats(self) -> dict:
        return await self.query("stats")

    async def server_stats(self) -> dict:
        """Poll the collector's live telemetry (the STATS wire frame).

        Unlike :meth:`stats` (a session-scoped query that drains first)
        this reads the collector's own counters — frames decoded,
        reports ingested, per-session lags, and the full metrics
        snapshot — without touching any session's work queue.
        """
        reply = await protocol.request(
            self._reader, self._writer, protocol.stats_frame()
        )
        return reply["result"]

    async def health(self) -> dict:
        """Poll the collector's health verdict (the HEALTH wire frame).

        Machine-readable ``{"status": "pass"|"warn"|"fail", "checks":
        [...]}`` — the same payload the ``/healthz`` HTTP route serves.
        """
        reply = await protocol.request(
            self._reader, self._writer, protocol.health_frame()
        )
        return reply["result"]

    async def advance_round(self) -> dict:
        """Advance a hosted top-k session's mining round (control plane)."""
        return await self.query("advance_round")

    async def drift(self, threshold: Optional[float] = None) -> dict:
        """Run a server-side drift check on a framework session.

        The server scores the drained estimate's residual against its
        closed-form variance bound (see
        :class:`repro.stream.drift.DriftDetector`); ``threshold``
        overrides the server's default flag bar for this check.  The
        first call installs the baseline and reports a zero score.
        """
        return await self.query("drift", threshold=threshold)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def close(self) -> int:
        """Settle and close; returns the connection's ingested count."""
        if self._closed:
            return 0
        self._closed = True
        try:
            reply = await protocol.request(
                self._reader, self._writer, protocol.bye_frame()
            )
            return int(reply["result"]["ingested"])
        finally:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:  # pragma: no cover - platform dependent
                pass

    def abort(self) -> None:
        """Drop the connection without settling (error paths only)."""
        self._closed = True
        self._writer.close()

    async def __aenter__(self) -> "ReportClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


async def generate_load(
    host: str,
    port: int,
    config: dict,
    labels,
    items,
    n_connections: int = 4,
    chunk_size: int = 4096,
) -> dict:
    """Simulate a report population: ``n_connections`` concurrent clients
    each stream a contiguous slice of ``(labels, items)`` — one privatised
    report per simulated user — into the same session.

    Returns ``{"reports", "elapsed_sec", "reports_per_sec",
    "n_connections"}``; the per-connection ingested counts confirmed at
    BYE must sum to the population, so a lost report fails loudly here.

    The population is validated and shaped to the ``int32`` wire dtype
    exactly once, then cut into contiguous per-connection slice *views*
    — a preshaped ``int32`` population flows to the socket with zero
    validation scans and zero conversion copies per chunk.
    """
    if n_connections < 1:
        raise ServeError(f"n_connections must be >= 1, got {n_connections}")
    labels, items = protocol.as_report_columns(labels, items)
    step, extra = divmod(int(labels.size), n_connections)
    slices, start = [], 0
    for i in range(n_connections):
        stop = start + step + (1 if i < extra else 0)
        slices.append(slice(start, stop))
        start = stop

    async def one_connection(part) -> int:
        client = await ReportClient.connect(host, port, **config)
        try:
            await client.send(labels[part], items[part], chunk_size=chunk_size)
        except BaseException:
            client.abort()
            raise
        return await client.close()

    began = time.perf_counter()
    ingested = await asyncio.gather(*(one_connection(part) for part in slices))
    elapsed = time.perf_counter() - began
    total = int(sum(ingested))
    if total != labels.size:
        raise ServeError(
            f"population of {labels.size} reports but collector confirmed "
            f"{total}"
        )
    return {
        "reports": total,
        "elapsed_sec": elapsed,
        "reports_per_sec": total / elapsed if elapsed > 0 else float("inf"),
        "n_connections": int(n_connections),
    }


async def fetch_stats(host: str, port: int) -> dict:
    """One-shot telemetry poll of a running collector.

    Connects, sends a bare STATS frame (no session handshake — the
    collector answers STATS pre-HELLO), and returns the payload.  This
    is what a monitor sidecar or the load-generation example use to
    watch ingest progress from outside every session.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        reply = await protocol.request(
            reader, writer, protocol.stats_frame()
        )
        return reply["result"]
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass


async def fetch_health(host: str, port: int) -> dict:
    """One-shot health probe of a running collector.

    Sends a bare HEALTH frame (answered pre-HELLO, like STATS) and
    returns the verdict payload — what a load balancer or monitor polls
    without joining any session.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        reply = await protocol.request(
            reader, writer, protocol.health_frame()
        )
        return reply["result"]
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass
