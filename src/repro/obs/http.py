"""A tiny asyncio HTTP server for the observability surfaces.

``repro-serve`` mounts this next to the report collector: one
``asyncio.start_server`` loop answering ``GET`` requests off a small
route table — ``/metrics`` (Prometheus text) and ``/healthz``
(machine-readable pass/warn/fail).  It speaks just enough HTTP/1.0 for
``curl``, a Prometheus scraper, and a load-balancer probe — request line
plus headers in, one fixed response out, connection closed — and
deliberately nothing more (no keep-alive, no chunking, no TLS), so the
serving path stays dependency-free.

Malformed input gets an explicit status, never a silent close: a bad
request line is ``400``, an oversized request is ``413``, an unknown
path ``404``, a non-GET method ``405``, and a route handler that raises
is ``500`` — probes and scrapers see a diagnosable response either way.

Routes are callables returning ``(status, content_type, body)``; sync or
async both work.  :func:`start_metrics_server` builds the conventional
table from a registry (plus any extra routes the caller mounts).
"""

from __future__ import annotations

import asyncio
import inspect
from typing import Awaitable, Callable, Mapping, Optional, Union

from . import prom
from .metrics import MetricsRegistry

_MAX_REQUEST_BYTES = 8192

#: A route handler: () -> (status, content_type, body), sync or async.
RouteResult = tuple[str, str, str]
Route = Callable[[], Union[RouteResult, Awaitable[RouteResult]]]

#: Content types of the standard surfaces.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
JSON_CONTENT_TYPE = "application/json; charset=utf-8"


def _response(status: str, body: str, content_type: str = "text/plain") -> bytes:
    payload = body.encode("utf-8")
    head = (
        f"HTTP/1.0 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + payload


async def _read_request(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The raw request head, or ``None`` when it exceeds the size cap."""
    try:
        return await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError:
        return None


async def _handle(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    routes: Mapping[str, Route],
) -> None:
    try:
        request = await _read_request(reader)
        if request is None or len(request) > _MAX_REQUEST_BYTES:
            writer.write(
                _response("413 Request Entity Too Large", "request too large\n")
            )
            return
        line = request.split(b"\r\n", 1)[0].decode("latin-1", "replace")
        parts = line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            writer.write(_response("400 Bad Request", "bad request\n"))
            return
        method, path = parts[0], parts[1].split("?", 1)[0]
        if method != "GET":
            writer.write(_response("405 Method Not Allowed", "GET only\n"))
            return
        route = routes.get(path)
        if route is None:
            known = " ".join(sorted(routes))
            writer.write(_response("404 Not Found", f"try one of: {known}\n"))
            return
        try:
            result = route()
            if inspect.isawaitable(result):
                result = await result
            status, content_type, body = result
        except Exception as error:  # noqa: BLE001 - a broken route must
            # answer, not drop the probe on the floor
            writer.write(
                _response(
                    "500 Internal Server Error",
                    f"{type(error).__name__}: {error}\n",
                )
            )
            return
        writer.write(_response(status, body, content_type=content_type))
    finally:
        try:
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - peer gone
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass


async def start_http_server(
    host: str, port: int, routes: Mapping[str, Route]
) -> asyncio.AbstractServer:
    """Serve ``routes`` on ``host:port``; the caller owns the server's
    lifetime (``server.close()`` / ``await server.wait_closed()``)."""
    routes = dict(routes)

    async def handler(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await _handle(reader, writer, routes)

    return await asyncio.start_server(
        handler, host, port, limit=_MAX_REQUEST_BYTES
    )


async def start_metrics_server(
    host: str,
    port: int,
    registry: MetricsRegistry,
    *,
    render: Optional[Callable[[], str]] = None,
    routes: Optional[Mapping[str, Route]] = None,
) -> asyncio.AbstractServer:
    """Serve ``GET /metrics`` for ``registry`` on ``host:port``.

    ``render`` overrides the default Prometheus renderer of the
    registry; ``routes`` mounts additional paths next to ``/metrics``
    (``repro-serve`` adds ``/healthz`` this way).  Returns the listening
    server; the caller owns its lifetime.
    """
    if render is None:
        render = lambda: prom.render(registry)  # noqa: E731

    def metrics_route() -> RouteResult:
        return "200 OK", PROMETHEUS_CONTENT_TYPE, render()

    table: dict[str, Route] = {"/metrics": metrics_route}
    if routes:
        table.update(routes)
    return await start_http_server(host, port, table)
