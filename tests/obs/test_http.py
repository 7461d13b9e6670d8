"""The observability HTTP server: route table, explicit error statuses,
async routes, and concurrent scrapes."""

import asyncio
import json

from repro.obs import MetricsRegistry
from repro.obs.http import (
    JSON_CONTENT_TYPE,
    PROMETHEUS_CONTENT_TYPE,
    start_http_server,
    start_metrics_server,
)


def run(coro, timeout=120):
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def _request(port: int, raw: bytes) -> bytes:
    """One raw request against a listening server; the full response."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(raw)
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # server may answer-and-close before we finish writing
        return await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _port(server) -> int:
    return server.sockets[0].getsockname()[1]


async def _serve(routes):
    return await start_http_server("127.0.0.1", 0, routes)


def _get(path: str) -> bytes:
    return f"GET {path} HTTP/1.0\r\n\r\n".encode()


class TestRouting:
    def test_known_route_answers(self):
        async def scenario():
            server = await _serve(
                {"/ping": lambda: ("200 OK", "text/plain", "pong\n")}
            )
            try:
                return await _request(_port(server), _get("/ping"))
            finally:
                server.close()
                await server.wait_closed()

        response = run(scenario())
        assert response.startswith(b"HTTP/1.0 200 OK\r\n")
        assert response.endswith(b"pong\n")

    def test_query_string_stripped(self):
        async def scenario():
            server = await _serve(
                {"/ping": lambda: ("200 OK", "text/plain", "pong\n")}
            )
            try:
                return await _request(_port(server), _get("/ping?x=1"))
            finally:
                server.close()
                await server.wait_closed()

        assert run(scenario()).startswith(b"HTTP/1.0 200 OK\r\n")

    def test_unknown_path_is_404_listing_known_routes(self):
        async def scenario():
            server = await _serve(
                {
                    "/metrics": lambda: ("200 OK", "text/plain", ""),
                    "/healthz": lambda: ("200 OK", "text/plain", ""),
                }
            )
            try:
                return await _request(_port(server), _get("/nope"))
            finally:
                server.close()
                await server.wait_closed()

        response = run(scenario())
        assert response.startswith(b"HTTP/1.0 404 Not Found\r\n")
        assert b"/healthz /metrics" in response

    def test_non_get_is_405(self):
        async def scenario():
            server = await _serve({"/": lambda: ("200 OK", "text/plain", "")})
            try:
                return await _request(
                    _port(server), b"POST / HTTP/1.0\r\n\r\n"
                )
            finally:
                server.close()
                await server.wait_closed()

        assert run(scenario()).startswith(b"HTTP/1.0 405 ")

    def test_malformed_request_line_is_400(self):
        async def scenario():
            server = await _serve({"/": lambda: ("200 OK", "text/plain", "")})
            try:
                return await _request(
                    _port(server), b"this is not http\r\n\r\n"
                )
            finally:
                server.close()
                await server.wait_closed()

        assert run(scenario()).startswith(b"HTTP/1.0 400 Bad Request\r\n")

    def test_oversized_request_is_413(self):
        async def scenario():
            server = await _serve({"/": lambda: ("200 OK", "text/plain", "")})
            try:
                raw = b"GET /" + b"A" * 10_000 + b" HTTP/1.0\r\n\r\n"
                return await _request(_port(server), raw)
            finally:
                server.close()
                await server.wait_closed()

        assert run(scenario()).startswith(b"HTTP/1.0 413 ")

    def test_raising_route_is_500_with_exception_name(self):
        def broken():
            raise RuntimeError("boom")

        async def scenario():
            server = await _serve({"/broken": broken})
            try:
                return await _request(_port(server), _get("/broken"))
            finally:
                server.close()
                await server.wait_closed()

        response = run(scenario())
        assert response.startswith(b"HTTP/1.0 500 ")
        assert b"RuntimeError: boom" in response

    def test_async_route_awaited(self):
        async def healthz():
            await asyncio.sleep(0)
            return (
                "200 OK",
                JSON_CONTENT_TYPE,
                json.dumps({"status": "pass", "checks": []}) + "\n",
            )

        async def scenario():
            server = await _serve({"/healthz": healthz})
            try:
                return await _request(_port(server), _get("/healthz"))
            finally:
                server.close()
                await server.wait_closed()

        response = run(scenario())
        assert response.startswith(b"HTTP/1.0 200 OK\r\n")
        body = response.split(b"\r\n\r\n", 1)[1]
        assert json.loads(body) == {"status": "pass", "checks": []}


class TestMetricsServer:
    def test_metrics_route_renders_registries(self):
        registry = MetricsRegistry()
        registry.counter("demo_total").inc(3)

        async def scenario():
            server = await start_metrics_server("127.0.0.1", 0, registry)
            try:
                return await _request(_port(server), _get("/metrics"))
            finally:
                server.close()
                await server.wait_closed()

        response = run(scenario())
        assert PROMETHEUS_CONTENT_TYPE.encode() in response
        assert b"demo_total 3" in response

    def test_extra_routes_mount_next_to_metrics(self):
        registry = MetricsRegistry()

        async def scenario():
            server = await start_metrics_server(
                "127.0.0.1",
                0,
                registry,
                routes={
                    "/healthz": lambda: (
                        "200 OK",
                        JSON_CONTENT_TYPE,
                        '{"status": "pass"}\n',
                    )
                },
            )
            try:
                port = _port(server)
                return (
                    await _request(port, _get("/metrics")),
                    await _request(port, _get("/healthz")),
                )
            finally:
                server.close()
                await server.wait_closed()

        metrics, healthz = run(scenario())
        assert metrics.startswith(b"HTTP/1.0 200 OK\r\n")
        assert b'{"status": "pass"}' in healthz

    def test_custom_render_overrides_default(self):
        async def scenario():
            server = await start_metrics_server(
                "127.0.0.1", 0, MetricsRegistry(), render=lambda: "custom 42\n"
            )
            try:
                return await _request(_port(server), _get("/metrics"))
            finally:
                server.close()
                await server.wait_closed()

        assert b"custom 42" in run(scenario())

    def test_concurrent_scrapes(self):
        registry = MetricsRegistry()
        registry.counter("demo_total").inc()

        async def scenario():
            server = await start_metrics_server("127.0.0.1", 0, registry)
            try:
                port = _port(server)
                return await asyncio.gather(
                    *(_request(port, _get("/metrics")) for _ in range(8))
                )
            finally:
                server.close()
                await server.wait_closed()

        responses = run(scenario())
        assert len(responses) == 8
        for response in responses:
            assert response.startswith(b"HTTP/1.0 200 OK\r\n")
            assert b"demo_total 1" in response
