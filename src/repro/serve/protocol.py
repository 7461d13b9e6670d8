"""The report-collection wire protocol: length-prefixed frames.

Every message on a collector connection is one *frame*::

    frame   := u32_be length | u8 type | body           (length covers type+body)

    HELLO   (0x01)  JSON session config — framework/top-k kind, epsilon,
                    domain sizes, execution mode, optional seed/shards/
                    decay; opens or joins the named session.  A key
                    outside the config's vocabulary is refused with an
                    ERROR frame (see
                    :func:`repro.serve.registry.canonical_config`).
    REPORTS (0x02)  u32_be count | count x (i32_le label, i32_le item) —
                    the per-user reports, packed columnar-ready.
    QUERY   (0x03)  JSON ``{"query": "estimate" | "topk" | "class_sizes"
                    | "stats" | "advance_round" | "drift", ...params}`` —
                    the control channel, answerable mid-stream.
    REPLY   (0x04)  JSON ``{"ok": true, "result": ...}`` (arrays as
                    nested lists).
    ERROR   (0x05)  JSON ``{"ok": false, "error": msg, "kind": cls}``.
    BYE     (0x06)  empty body; the collector settles the connection's
                    buffered reports and replies with the ingested count.
    STATS   (0x07)  empty body; the collector replies with its live
                    telemetry — frames decoded/rejected, reports
                    ingested, per-session ingest state, and a metrics
                    registry snapshot.  Accepted before the HELLO
                    handshake, so a monitor can poll a running collector
                    without joining a session.
    HEALTH  (0x08)  empty body; the collector replies with its health
                    verdict (machine-readable pass/warn/fail with
                    per-check reasons, see
                    :func:`repro.obs.health.evaluate_health`).  Like
                    STATS it is accepted before the HELLO handshake, so
                    probes need no session.

The codec is symmetric — client and collector share these helpers — and
pure plain-data (struct + JSON + fixed-width integer arrays, no
pickling), so either end can face an untrusted peer.  Report bodies
decode straight into ``int64`` NumPy columns, ready for the session
batch plane without per-report Python dispatch.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Optional

import numpy as np

from ..exceptions import ReproError

#: Frame type tags.
HELLO = 0x01
REPORTS = 0x02
QUERY = 0x03
REPLY = 0x04
ERROR = 0x05
BYE = 0x06
STATS = 0x07
HEALTH = 0x08

_FRAME_TYPES = frozenset(
    (HELLO, REPORTS, QUERY, REPLY, ERROR, BYE, STATS, HEALTH)
)

#: Human-readable frame names (telemetry labels, log records).
FRAME_NAMES = {
    HELLO: "hello",
    REPORTS: "reports",
    QUERY: "query",
    REPLY: "reply",
    ERROR: "error",
    BYE: "bye",
    STATS: "stats",
    HEALTH: "health",
}

#: Hard cap on one frame's payload (type byte + body).
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Report pairs that fit one maximal REPORTS frame.
MAX_REPORTS_PER_FRAME = (MAX_FRAME_BYTES - 5) // 8

_LEN = struct.Struct("!I")
_COUNT = struct.Struct("!I")


class ServeError(ReproError):
    """The report-collection service rejected a request (the collector's
    ERROR frame surfaced client-side, or a local serve-layer failure)."""


class WireError(ServeError):
    """A malformed, oversized, or out-of-protocol frame on the wire."""


def encode_frame(frame_type: int, body: bytes = b"") -> bytes:
    """One length-prefixed frame, ready to write."""
    if frame_type not in _FRAME_TYPES:
        raise WireError(f"unknown frame type {frame_type:#x}")
    payload_len = 1 + len(body)
    if payload_len > MAX_FRAME_BYTES:
        raise WireError(
            f"frame of {payload_len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return _LEN.pack(payload_len) + bytes((frame_type,)) + body


def encode_json(frame_type: int, obj) -> bytes:
    """A JSON-bodied frame (HELLO / QUERY / REPLY / ERROR)."""
    return encode_frame(frame_type, json.dumps(obj).encode("utf-8"))


def decode_json(body: bytes) -> dict:
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"undecodable JSON frame body: {error}") from None
    if not isinstance(obj, dict):
        raise WireError(f"JSON frame body must be an object, got {type(obj).__name__}")
    return obj


def _i32_column(name: str, values) -> np.ndarray:
    """An integer column validated against the int32 wire range — a value
    that would wrap in the packed frame must fail loudly, not corrupt a
    cell of the served estimate.

    Columns already held as ``int32`` pass through untouched: they cannot
    hold an out-of-range value, so a preshaped report population skips
    both the min/max scan and any conversion copy on every chunk.
    """
    column = np.asarray(values)
    if column.ndim != 1:
        column = column.ravel()
    if column.dtype == np.int32 or column.size == 0:
        return column
    if column.dtype.kind not in "iu":
        raise WireError(f"{name} must be integers, got dtype {column.dtype}")
    low, high = int(column.min()), int(column.max())
    if low < -(2**31) or high >= 2**31:
        raise WireError(
            f"{name} values [{low}, {high}] do not fit the int32 wire format"
        )
    return column


def as_report_columns(labels, items) -> tuple[np.ndarray, np.ndarray]:
    """Aligned wire-ready report columns, validated once for a whole send.

    Returns the columns as ``int32`` (converted here if needed, so
    chunked sends slice preshaped views instead of re-validating and
    re-packing Python lists per chunk).
    """
    labels = _i32_column("labels", labels)
    items = _i32_column("items", items)
    if labels.shape != items.shape:
        raise WireError(
            f"labels ({labels.shape}) and items ({items.shape}) must align"
        )
    if labels.dtype != np.int32:
        labels = labels.astype(np.int32)
    if items.dtype != np.int32:
        items = items.astype(np.int32)
    return labels, items


#: Bytes of header per REPORTS frame: u32 length + u8 type + u32 count.
_REPORTS_HEADER = _LEN.size + 1 + _COUNT.size


def _pack_reports_into(
    arena: bytearray, offset: int, labels: np.ndarray, items: np.ndarray
) -> int:
    """One REPORTS frame at ``arena[offset:]``; returns bytes written.

    The ``(label, item)`` columns interleave straight into the arena
    through an ``int32`` view — no intermediate pair matrix, no
    ``tobytes`` copy.
    """
    n = int(labels.shape[0])
    _LEN.pack_into(arena, offset, 1 + _COUNT.size + 8 * n)
    arena[offset + _LEN.size] = REPORTS
    _COUNT.pack_into(arena, offset + _LEN.size + 1, n)
    if n:
        view = np.frombuffer(
            arena, dtype="<i4", count=2 * n, offset=offset + _REPORTS_HEADER
        )
        view[0::2] = labels
        view[1::2] = items
    return _REPORTS_HEADER + 8 * n


class ReportsEncoder:
    """A reusable interleave buffer building REPORTS frames back-to-back.

    The client write path packs many frames into one resident arena and
    hands the filled prefix to the transport as a single batched write —
    one write (and one payload copy, unavoidable because the transport
    may retain the buffer) per arena fill instead of one allocation +
    interleave + copy per frame.
    """

    __slots__ = ("_arena",)

    #: Default arena size: a dozen-ish 4096-report frames per write.
    DEFAULT_ARENA_BYTES = 512 * 1024

    def __init__(self, arena_bytes: int = DEFAULT_ARENA_BYTES) -> None:
        self._arena = bytearray(max(int(arena_bytes), _REPORTS_HEADER + 8))

    def pack(self, labels, items, chunk_size: Optional[int] = None):
        """Yield write payloads covering ``(labels, items)``.

        Columns are validated/converted once (see
        :func:`as_report_columns`); each payload holds as many
        ``chunk_size``-report frames as fit the arena.
        """
        labels, items = as_report_columns(labels, items)
        arena = self._arena
        used = 0
        for span in chunk_spans(labels.shape[0], chunk_size):
            chunk_labels = labels[span]
            need = _REPORTS_HEADER + 8 * int(chunk_labels.shape[0])
            if used + need > len(arena):
                if used:
                    yield bytes(memoryview(arena)[:used])
                    used = 0
                if need > len(arena):
                    self._arena = arena = bytearray(need)
            used += _pack_reports_into(arena, used, chunk_labels, items[span])
        if used or labels.shape[0] == 0:
            yield bytes(memoryview(arena)[:used])


def encode_reports(labels, items) -> bytes:
    """A REPORTS frame carrying aligned ``(label, item)`` int32 columns."""
    labels, items = as_report_columns(labels, items)
    n = int(labels.shape[0])
    if n > MAX_REPORTS_PER_FRAME:
        raise WireError(
            f"{n} reports exceed the {MAX_REPORTS_PER_FRAME}-per-frame cap; "
            "chunk the batch"
        )
    frame = bytearray(_REPORTS_HEADER + 8 * n)
    _pack_reports_into(frame, 0, labels, items)
    return bytes(frame)


def _reports_flat(body) -> np.ndarray:
    """The validated flat ``<i4`` view over a REPORTS body (zero-copy)."""
    if len(body) < _COUNT.size:
        raise WireError("truncated REPORTS frame: missing count")
    (n,) = _COUNT.unpack_from(body)
    payload = len(body) - _COUNT.size
    if payload % 4:
        raise WireError(
            f"REPORTS frame body of {payload} bytes is not int32-aligned"
        )
    flat = np.frombuffer(body, dtype="<i4", offset=_COUNT.size)
    if flat.size != 2 * n:
        raise WireError(
            f"REPORTS frame claims {n} reports but carries {flat.size // 2}"
        )
    return flat


def decode_reports_view(body) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy ``(labels, items)`` int32 views over a REPORTS body.

    The strided views alias ``body``'s memory (read-only when ``body`` is
    ``bytes``): the collector's fast lane writes them straight into a
    session ring buffer without materialising a per-frame array.  They
    are only valid while ``body``'s buffer is.
    """
    flat = _reports_flat(body)
    return flat[0::2], flat[1::2]


def decode_reports(body) -> tuple[np.ndarray, np.ndarray]:
    """``(labels, items)`` int64 columns from a REPORTS frame body.

    Each column is materialised with exactly one copy (strided wire view
    → fresh contiguous ``int64``), so the returned arrays own their data
    and are writable — safe to hand to any downstream consumer.
    """
    flat = _reports_flat(body)
    return flat[0::2].astype(np.int64), flat[1::2].astype(np.int64)


async def read_frame(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    """The next ``(frame_type, body)`` off the stream.

    Raises :class:`asyncio.IncompleteReadError` on a clean mid-frame EOF
    and :class:`WireError` on protocol violations.
    """
    header = await reader.readexactly(_LEN.size)
    (payload_len,) = _LEN.unpack(header)
    if payload_len < 1:
        raise WireError("empty frame payload")
    if payload_len > MAX_FRAME_BYTES:
        raise WireError(
            f"incoming frame of {payload_len} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    payload = await reader.readexactly(payload_len)
    frame_type = payload[0]
    if frame_type not in _FRAME_TYPES:
        raise WireError(f"unknown frame type {frame_type:#x}")
    return frame_type, payload[1:]


class FrameReader:
    """A buffered frame reader with coalesced REPORTS decode.

    One socket read can surface many frames; :meth:`read_batch` parses
    them out of a resident byte buffer and hands *consecutive REPORTS
    frames back as one batch of zero-copy body views* — the collector
    decodes them in a single pass into the session's ring buffer instead
    of waking once per frame.  Control frames come back one at a time as
    owned ``bytes`` (their JSON decode wants a real buffer anyway and
    they must outlive the read buffer).

    REPORTS body views alias the internal buffer and are only valid
    until the next ``read_*`` call — consume them before re-entering.
    """

    __slots__ = ("_reader", "_buf", "_pos", "_coalesce", "_read_size")

    def __init__(
        self,
        reader: asyncio.StreamReader,
        coalesce: int = 64,
        read_size: int = 256 * 1024,
    ) -> None:
        self._reader = reader
        self._buf = bytearray()
        self._pos = 0
        self._coalesce = max(1, int(coalesce))
        self._read_size = max(4096, int(read_size))

    def _compact(self) -> None:
        if not self._pos:
            return
        try:
            del self._buf[: self._pos]
        except BufferError:  # a stale view still exports the buffer
            self._buf = bytearray(memoryview(self._buf)[self._pos :])
        self._pos = 0

    async def _fill(self) -> None:
        """Grow the buffer by one socket read (EOF raises like
        ``readexactly``: ``IncompleteReadError`` carrying the partial)."""
        self._compact()
        chunk = await self._reader.read(self._read_size)
        if not chunk:
            raise asyncio.IncompleteReadError(bytes(self._buf), None)
        self._buf += chunk

    def _parse(self) -> Optional[tuple[int, int, int]]:
        """``(frame_type, body_start, body_end)`` of the next complete
        frame in the buffer (consuming it), or ``None`` to read more."""
        buf, pos = self._buf, self._pos
        if len(buf) - pos < _LEN.size:
            return None
        (payload_len,) = _LEN.unpack_from(buf, pos)
        if payload_len < 1:
            raise WireError("empty frame payload")
        if payload_len > MAX_FRAME_BYTES:
            raise WireError(
                f"incoming frame of {payload_len} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte cap"
            )
        end = pos + _LEN.size + payload_len
        if len(buf) < end:
            return None
        frame_type = buf[pos + _LEN.size]
        if frame_type not in _FRAME_TYPES:
            raise WireError(f"unknown frame type {frame_type:#x}")
        self._pos = end
        return frame_type, pos + _LEN.size + 1, end

    async def _next_frame(self) -> tuple[int, int, int]:
        while True:
            parsed = self._parse()
            if parsed is not None:
                return parsed
            await self._fill()

    async def read_frame(self) -> tuple[int, bytes]:
        """One ``(frame_type, body)`` — the uncoalesced compatible form."""
        frame_type, start, end = await self._next_frame()
        return frame_type, bytes(self._buf[start:end])

    async def read_batch(self):
        """The next control frame, or a coalesced run of REPORTS frames.

        Returns ``(frame_type, body_bytes)`` for control frames and
        ``(REPORTS, [body_view, ...])`` for reports — every further
        complete REPORTS frame already sitting in the buffer joins the
        batch (up to the coalesce cap) without touching the event loop.
        """
        frame_type, start, end = await self._next_frame()
        if frame_type != REPORTS:
            return frame_type, bytes(self._buf[start:end])
        view = memoryview(self._buf)
        bodies = [view[start:end]]
        while len(bodies) < self._coalesce:
            mark = self._pos
            try:
                parsed = self._parse()
            except WireError:
                # Leave the malformed frame for the next read to report.
                self._pos = mark
                break
            if parsed is None or parsed[0] != REPORTS:
                self._pos = mark
                break
            bodies.append(view[parsed[1] : parsed[2]])
        return REPORTS, bodies


async def request(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    frame: bytes,
) -> dict:
    """Write one frame, await the JSON reply, unwrap errors.

    The collector answers every HELLO/QUERY/BYE with a REPLY or ERROR
    frame; an ERROR raises :class:`ServeError` carrying the collector's
    message.
    """
    writer.write(frame)
    await writer.drain()
    frame_type, body = await read_frame(reader)
    obj = decode_json(body)
    if frame_type == ERROR:
        raise ServeError(
            f"{obj.get('kind', 'ServeError')}: {obj.get('error', 'unknown error')}"
        )
    if frame_type != REPLY:
        raise WireError(f"expected a REPLY frame, got type {frame_type:#x}")
    return obj


def error_frame(error: Exception) -> bytes:
    """The ERROR frame reporting ``error`` to the peer."""
    return encode_json(
        ERROR,
        {"ok": False, "error": str(error), "kind": type(error).__name__},
    )


def reply_frame(result, **extra) -> bytes:
    """A REPLY frame wrapping ``result`` (plus any extra fields)."""
    payload = {"ok": True, "result": result}
    payload.update(extra)
    return encode_json(REPLY, payload)


def hello_frame(config: dict) -> bytes:
    """The handshake frame for a session config (``None`` values elided)."""
    return encode_json(
        HELLO, {key: value for key, value in config.items() if value is not None}
    )


def query_frame(query: str, **params) -> bytes:
    body = {"query": query}
    body.update({key: value for key, value in params.items() if value is not None})
    return encode_json(QUERY, body)


def bye_frame() -> bytes:
    return encode_frame(BYE)


def stats_frame() -> bytes:
    """The telemetry poll frame (empty body; answered with a REPLY)."""
    return encode_frame(STATS)


def health_frame() -> bytes:
    """The health probe frame (empty body; answered with a REPLY)."""
    return encode_frame(HEALTH)


def chunk_spans(n: int, chunk_size: Optional[int] = None):
    """Slices cutting ``n`` reports into REPORTS-frame-sized chunks."""
    from ..mechanisms.engine import batch_spans

    size = MAX_REPORTS_PER_FRAME if chunk_size is None else int(chunk_size)
    size = min(size, MAX_REPORTS_PER_FRAME)
    return batch_spans(n, 1, size)
