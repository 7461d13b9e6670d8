"""Structured JSON log records: one process-wide newline-delimited sink.

One process-wide :class:`JsonLogger` emits newline-delimited JSON
records, each carrying a timestamp, an event name, and whatever context
fields the call site attaches (session ids, connection ids, pending
depths).  Logging is *off by default*: until a sink is configured
(:func:`configure_logging`, or the ``REPRO_OBS_LOG`` environment
variable naming a file), :func:`log_event` is a single attribute check.

Records are written line-atomically under a lock, so interleaved worker
threads never corrupt the stream; every line is independently
parseable::

    {"ts": 1754500000.123456, "event": "serve.backpressure.pause",
     "session": "cohort", "pending": 270000}
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from pathlib import Path
from typing import Optional, Union

Sink = Union[None, str, Path, io.TextIOBase]


class JsonLogger:
    """Newline-delimited JSON event log with an optional sink."""

    def __init__(self, sink: Sink = None) -> None:
        self._stream = None
        self._owns_stream = False
        self._lock = threading.Lock()
        if sink is not None:
            self.configure(sink)

    @property
    def enabled(self) -> bool:
        return self._stream is not None

    def configure(self, sink: Sink) -> "JsonLogger":
        """Point the logger at a file path or text stream (``None`` turns
        logging off again); returns the logger."""
        self.close()
        if sink is None:
            return self
        if isinstance(sink, (str, Path)):
            self._stream = open(sink, "a", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = sink
            self._owns_stream = False
        return self

    def close(self) -> None:
        stream, owned = self._stream, self._owns_stream
        self._stream = None
        self._owns_stream = False
        if stream is not None and owned:
            stream.close()

    def event(self, event: str, **fields) -> None:
        """Emit one record; a no-op until a sink is configured."""
        stream = self._stream
        if stream is None:
            return
        record = {"ts": round(time.time(), 6), "event": str(event)}
        record.update(fields)
        line = json.dumps(record, default=str, separators=(",", ":"))
        with self._lock:
            stream.write(line + "\n")
            stream.flush()


#: The process-wide logger; a sink named by REPRO_OBS_LOG attaches here.
_LOGGER = JsonLogger(os.environ.get("REPRO_OBS_LOG") or None)


def get_logger() -> JsonLogger:
    """The process-wide structured logger."""
    return _LOGGER


def configure_logging(sink: Sink) -> JsonLogger:
    """Attach a sink (path or stream) to the process-wide logger."""
    return _LOGGER.configure(sink)


def log_event(event: str, **fields) -> None:
    """Emit one structured record through the process-wide logger."""
    _LOGGER.event(event, **fields)
