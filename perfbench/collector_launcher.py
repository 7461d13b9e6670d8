"""Run the collector (``repro-serve``) with the traced run's wrappers.

Usage: ``python collector_launcher.py SPANS_JSON [repro-serve args...]``

Installs the span wrappers of :mod:`layers` on the collector's layers,
then serves exactly as ``python -m repro.serve`` does.  When the
collector stops (SIGINT), the spans recorded in memory are written to
``SPANS_JSON`` together with the event-loop thread's id.
"""

from __future__ import annotations

import json
import sys
import threading

import layers
from spans import Recorder


def _plain(info):
    if info is None or isinstance(info, (int, float, str)):
        return info
    return [_plain(value) for value in info]


def main(argv: list[str]) -> int:
    from repro.cli import serve_main

    spans_path, serve_args = argv[0], argv[1:]
    recorder = Recorder()
    layers.install_collector(recorder)
    try:
        return serve_main(serve_args)
    finally:
        rows = [
            [span.name, span.thread, span.start, span.end, _plain(span.info)]
            for span in recorder.spans
        ]
        with open(spans_path, "w") as out:
            json.dump({"loop_thread": threading.get_ident(), "spans": rows}, out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
