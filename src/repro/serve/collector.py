"""The asyncio report collector — the network-facing ingestion front-end.

:class:`ReportCollector` listens with :func:`asyncio.start_server` and
speaks the frame protocol of :mod:`repro.serve.protocol`.  Each
connection handshakes onto a hosted session (create-or-join through the
:class:`~repro.serve.registry.SessionRegistry`), then interleaves
REPORTS frames with QUERY frames answered mid-stream from drained
snapshots.  Reports ride the zero-allocation fast lane: a
:class:`~repro.serve.protocol.FrameReader` surfaces every consecutive
REPORTS frame sitting in the socket buffer as one coalesced batch of
zero-copy body views, which decode in a single pass straight into the
session's columnar ring buffer — no per-frame ndarray, no per-frame
event-loop wakeup.  The event loop only ever buffers and routes; the
actual privatisation/aggregation work runs on the drain adapters' worker
threads — one per shard of a framework session, one per top-k miner — so
ingestion for one session overlaps with queries on another.

Backpressure is end-to-end: a session above its high-water mark of
unprocessed reports parks the connection coroutine after the offending
frame, which stops the collector reading the socket, fills the kernel
buffers, and blocks the client's writes until the aggregation plane
catches up below the low-water mark.

A periodic flusher bounds staleness for trickle streams: buffers that
never reach ``flush_reports`` are swept every ``flush_interval``
seconds, so a mid-stream query on a quiet session still reflects
(almost) everything accepted.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from ..exceptions import ReproError
from ..obs import trace as _trace
from ..obs.health import HealthMonitor, HealthPolicy
from ..obs.log import log_event
from ..obs.metrics import MetricsRegistry
from . import protocol
from .protocol import ServeError, WireError
from .registry import SessionRegistry


class ReportCollector:
    """Serve LDP report collection over localhost/TCP.

    Parameters
    ----------
    registry:
        The session registry to host; a fresh one is built from the
        keyword defaults when omitted.
    host / port:
        Bind address; port ``0`` (default) lets the OS pick — read the
        bound address back from :attr:`host` / :attr:`port` after
        :meth:`start`.
    flush_interval:
        Period of the background buffer sweep in seconds.
    default_shards / flush_reports / high_water / record:
        Registry defaults when ``registry`` is omitted (see
        :class:`~repro.serve.registry.SessionRegistry`).
    metrics:
        The collector's telemetry registry.  Defaults to a private
        *always-enabled* :class:`~repro.obs.metrics.MetricsRegistry` —
        the STATS frame and ``/metrics`` endpoint reconcile against it,
        so it stays exact regardless of the process-wide telemetry
        switch.
    """

    def __init__(
        self,
        registry: Optional[SessionRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        flush_interval: float = 0.05,
        default_shards: int = 1,
        flush_reports: int = 65_536,
        high_water: int = 262_144,
        record: bool = False,
        max_sessions: int = 256,
        metrics: Optional[MetricsRegistry] = None,
        health_policy: Optional[HealthPolicy] = None,
    ) -> None:
        if flush_interval <= 0:
            raise ServeError(
                f"flush_interval must be positive, got {flush_interval!r}"
            )
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            enabled=True
        )
        if registry is not None:
            self.registry = registry
            if self.registry.metrics is None:
                self.registry.metrics = self.metrics
        else:
            self.registry = SessionRegistry(
                default_shards=default_shards,
                flush_reports=flush_reports,
                high_water=high_water,
                record=record,
                max_sessions=max_sessions,
                metrics=self.metrics,
            )
        self._bind_host = host
        self._bind_port = port
        self.flush_interval = float(flush_interval)
        self._server: Optional[asyncio.AbstractServer] = None
        self._flusher: Optional[asyncio.Task] = None
        self._next_connection_id = 0
        self._health = HealthMonitor(policy=health_policy)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        if self._server is None:
            return self._bind_host
        return self._server.sockets[0].getsockname()[0]

    @property
    def port(self) -> int:
        if self._server is None:
            return self._bind_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise ServeError("collector is already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self._bind_host, self._bind_port
        )
        self._flusher = asyncio.ensure_future(self._flush_loop())
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Serve until cancelled (the standalone ``repro-serve`` loop)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, settle every session's buffers, release workers."""
        if self._flusher is not None:
            self._flusher.cancel()
            try:
                await self._flusher
            except asyncio.CancelledError:
                pass
            self._flusher = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.registry.settle_all()
        self.registry.close()

    async def __aenter__(self) -> "ReportCollector":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def _flush_loop(self) -> None:
        while True:
            await asyncio.sleep(self.flush_interval)
            for hosted in self.registry.sessions():
                hosted.try_flush()

    # ------------------------------------------------------------------
    # per-connection protocol loop
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection_id = self._next_connection_id
        self._next_connection_id += 1
        self.metrics.counter("serve_connections_total").inc()
        self.metrics.gauge("serve_connections_active").inc()
        log_event("serve.connection.open", connection=connection_id)
        try:
            await self._serve_connection(reader, writer, connection_id)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # peer went away mid-frame; its flushed reports stand
        except Exception as error:  # noqa: BLE001 - untrusted peer input;
            # report whatever a frame provoked instead of dropping silently
            self.metrics.counter("serve_frames_rejected_total").inc()
            await self._try_reply(writer, protocol.error_frame(error))
        finally:
            self.metrics.gauge("serve_connections_active").dec()
            log_event("serve.connection.close", connection=connection_id)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - platform dependent
                pass

    async def _read_frame(self, frames: protocol.FrameReader) -> tuple[int, bytes]:
        """Read and count one frame (rejected frames tally separately)."""
        try:
            frame_type, body = await frames.read_frame()
        except WireError:
            self.metrics.counter("serve_frames_rejected_total").inc()
            raise
        self.metrics.counter(
            "serve_frames_total", type=protocol.FRAME_NAMES[frame_type]
        ).inc()
        return frame_type, body

    async def _read_batch(self, frames: protocol.FrameReader, m_reports):
        """Read and count the next control frame or coalesced REPORTS run."""
        try:
            frame_type, body = await frames.read_batch()
        except WireError:
            self.metrics.counter("serve_frames_rejected_total").inc()
            raise
        if frame_type == protocol.REPORTS:
            m_reports.inc(len(body))
        else:
            self.metrics.counter(
                "serve_frames_total", type=protocol.FRAME_NAMES[frame_type]
            ).inc()
        return frame_type, body

    async def _serve_connection(self, reader, writer, connection_id) -> None:
        frames = protocol.FrameReader(reader)
        while True:
            frame_type, body = await self._read_frame(frames)
            # Monitors may poll a running collector without joining a
            # session: STATS and HEALTH are answerable pre-HELLO.
            if frame_type == protocol.STATS:
                writer.write(protocol.reply_frame(self.stats()))
            elif frame_type == protocol.HEALTH:
                writer.write(protocol.reply_frame(self.health()))
            else:
                break
            await writer.drain()
        if frame_type != protocol.HELLO:
            raise WireError("connection must open with a HELLO frame")
        hello = protocol.decode_json(body)
        # The advisory trace announcement rides outside the canonical
        # session config: pop it before the config equality check, keep
        # it as this connection's context only while tracing is live
        # (malformed or absent degrades to untraced, never to an error).
        ctx = None
        if isinstance(hello, dict) and "trace" in hello:
            announced = _trace.TraceContext.from_wire(hello.pop("trace"))
            if _trace.get_tracer().enabled:
                ctx = announced
        try:
            hosted, created = self.registry.open(hello)
        except ReproError as error:
            await self._try_reply(writer, protocol.error_frame(error))
            return
        log_event(
            "serve.session.join",
            connection=connection_id,
            session=hosted.session_id,
            created=created,
        )
        writer.write(
            protocol.reply_frame(
                {
                    "session": hosted.session_id,
                    "kind": hosted.kind,
                    "created": created,
                }
            )
        )
        await writer.drain()

        accepted = 0
        # The REPORTS hot loop touches two counters per batch; fetch the
        # instruments once instead of re-keying the registry per frame.
        m_reports = self.metrics.counter("serve_frames_total", type="reports")
        m_ingested = self.metrics.counter("serve_reports_ingested_total")
        while True:
            frame_type, body = await self._read_batch(frames, m_reports)
            if frame_type == protocol.REPORTS:
                if ctx is None:
                    n = hosted.buffer_frames(body)
                else:
                    # Traced connection: one ingest span per coalesced
                    # run, whose child context the next flush parents on.
                    with _trace.get_tracer().span(
                        "collector.ingest",
                        ctx,
                        cat="serve",
                        session=hosted.session_id,
                        frames=len(body),
                    ) as ingest_span:
                        n = hosted.buffer_frames(body, trace=ingest_span.ctx)
                # The views alias the reader's buffer: release them before
                # the next read so the buffer can compact in place.
                del body
                accepted += n
                m_ingested.inc(n)
                hosted.try_flush(only_full=True)
                await hosted.wait_writable()
            elif frame_type == protocol.STATS:
                writer.write(protocol.reply_frame(self.stats()))
                await writer.drain()
            elif frame_type == protocol.HEALTH:
                writer.write(protocol.reply_frame(self.health()))
                await writer.drain()
            elif frame_type == protocol.QUERY:
                spec = protocol.decode_json(body)
                query_ctx = ctx
                if isinstance(spec, dict) and "trace" in spec:
                    # Popped unconditionally: the trace annotation is
                    # transport metadata, not part of the query spec.
                    announced = _trace.TraceContext.from_wire(spec.pop("trace"))
                    if announced is not None and _trace.get_tracer().enabled:
                        query_ctx = announced
                with _trace.get_tracer().span(
                    "collector.query",
                    query_ctx,
                    cat="serve",
                    session=hosted.session_id,
                ):
                    try:
                        result = await hosted.query(spec)
                    except Exception as error:  # noqa: BLE001
                        # Recoverable (e.g. estimate() before any data, or
                        # a malformed parameter): report, keep the
                        # connection.
                        writer.write(protocol.error_frame(error))
                    else:
                        writer.write(protocol.reply_frame(result))
                await writer.drain()
            elif frame_type == protocol.BYE:
                await hosted.settle()
                writer.write(protocol.reply_frame({"ingested": accepted}))
                await writer.drain()
                return
            else:
                raise WireError(
                    f"unexpected frame type {frame_type:#x} mid-session"
                )

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The live telemetry payload answered to a STATS frame.

        Loop-thread only; never drains or blocks, so a monitor poll is
        cheap even under full ingest load.  ``collector`` summarises the
        wire-level counters, ``sessions`` the per-session ingest lags,
        and ``metrics`` is the full registry snapshot.
        """
        snapshot = self.metrics.snapshot()
        counters = snapshot["counters"]
        frames = {
            name: counters[key]
            for name in protocol.FRAME_NAMES.values()
            if (key := f'serve_frames_total{{type="{name}"}}') in counters
        }
        return {
            "collector": {
                "host": self.host,
                "port": self.port,
                "connections_total": counters.get("serve_connections_total", 0),
                "connections_active": int(
                    snapshot["gauges"].get("serve_connections_active", 0)
                ),
                "frames": frames,
                "frames_rejected": counters.get("serve_frames_rejected_total", 0),
                "reports_ingested": counters.get("serve_reports_ingested_total", 0),
            },
            "sessions": [
                hosted.ingest_stats() for hosted in self.registry.sessions()
            ],
            "metrics": snapshot,
        }

    def health(self) -> dict:
        """The verdict payload behind ``/healthz`` and the HEALTH frame.

        Feeds the live per-session ingest stats and the collector's
        metrics snapshot through the stateful
        :class:`~repro.obs.health.HealthMonitor`; loop-thread only and
        never drains, so probes stay cheap under load.
        """
        return self._health.evaluate(
            [hosted.ingest_stats() for hosted in self.registry.sessions()],
            self.metrics.snapshot(),
        )

    async def _try_reply(self, writer, frame: bytes) -> None:
        try:
            writer.write(frame)
            await writer.drain()
        except (ConnectionError, RuntimeError):  # pragma: no cover
            pass
