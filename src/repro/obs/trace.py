"""Kept only for ``perfbench/run.py``; the library has no span plane.

perfbench reads ``get_tracer().enabled`` and refuses to take end-to-end
numbers while it is True.  This module goes once perfbench tolerates its
absence.
"""

from __future__ import annotations

from types import SimpleNamespace


def get_tracer() -> SimpleNamespace:
    """An object whose ``enabled`` is always False."""
    return SimpleNamespace(enabled=False)
