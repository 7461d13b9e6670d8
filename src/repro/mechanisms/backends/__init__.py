"""The report plane's kernels: one NumPy implementation.

The kernels themselves live in :mod:`.numpy_backend`.  This package
keeps two names only because ``perfbench/`` reads them, until perfbench
tolerates their absence:

* :func:`backend_info`, which perfbench's ``provenance:`` line prints;
* :func:`get_kernel`, through which
  :func:`~repro.mechanisms.engine.grouped_batch_support` fetches
  ``grouped_scatter`` at call time, so that perfbench's traced run can
  rebind ``engine.get_kernel`` to time the grouped fold.
"""

from __future__ import annotations

from typing import Callable

from . import numpy_backend


def get_kernel(kernel_name: str) -> Callable:
    """The kernel ``kernel_name`` of :data:`.numpy_backend.KERNELS`."""
    return numpy_backend.KERNELS[kernel_name]


def backend_info() -> dict:
    """The kernels' implementation, for perfbench's provenance line."""
    return {"name": "numpy"}
