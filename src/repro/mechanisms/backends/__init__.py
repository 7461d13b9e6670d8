"""Pluggable kernel backends for the report plane's hot loops.

The unified report plane funnels every protocol path through three
vectorised kernels — ``perturb_onehot``, ``categorical_support`` and
``grouped_scatter`` — called from :mod:`repro.mechanisms.kernels`,
:mod:`repro.mechanisms.engine` and :mod:`repro.mechanisms.correlated`.
This package makes the *implementation* of those kernels swappable at
runtime:

* ``numpy`` — the reference implementations (:mod:`.numpy_backend`),
  always present;
* ``numba`` — compiled ``nogil`` variants (:mod:`.numba_backend`),
  selected only when the numba toolchain imports; their GIL-free compute
  stages let the batch engine run independent blocks on real threads;
* ``auto`` (default) — numba when available, else numpy.

Selection is process-wide: the ``REPRO_BACKEND`` environment variable or
an explicit :func:`set_backend` call (or the scoped :func:`use_backend`)
picks the backend; kernels fetch their active
implementation per call through :func:`get_kernel`, with a per-kernel
NumPy fallback so a backend never has to implement the full table.  The
active selection is recorded in the telemetry registry (when enabled)
and reported through :func:`backend_info`, which perfbench prints on
its ``provenance:`` line.

Whatever the backend, results are draw-for-draw and bit-for-bit
identical to the NumPy reference — the seeded equivalence suite pins it.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from ...exceptions import ConfigurationError
from ...obs import metrics as _obs
from . import numba_backend, numpy_backend

#: Recognised values of ``REPRO_BACKEND`` / ``--backend``.
BACKEND_CHOICES = ("auto", "numpy", "numba")

#: Names of the registry's hot kernels.
KERNEL_NAMES = tuple(numpy_backend.KERNELS)

#: Environment variable naming the requested backend.
BACKEND_ENV = "REPRO_BACKEND"


@dataclass(frozen=True)
class KernelBackend:
    """One resolved backend: a kernel table plus execution properties.

    ``gil_free`` marks backends whose compute stages release the GIL —
    the engine only fans blocks onto a thread pool when it is set.
    Missing kernels fall back to the NumPy reference per kernel, so a
    partial backend is still a complete one.
    """

    name: str
    gil_free: bool
    kernels: Mapping[str, Callable] = field(repr=False)

    def kernel(self, kernel_name: str) -> Callable:
        impl = self.kernels.get(kernel_name)
        if impl is None:
            impl = numpy_backend.KERNELS.get(kernel_name)
        if impl is None:
            raise ConfigurationError(
                f"unknown kernel {kernel_name!r}; choose from {sorted(KERNEL_NAMES)}"
            )
        return impl


_NUMPY = KernelBackend(name="numpy", gil_free=False, kernels=numpy_backend.KERNELS)
_NUMBA = KernelBackend(name="numba", gil_free=True, kernels=numba_backend.KERNELS)

_lock = threading.Lock()
_active: Optional[KernelBackend] = None
_requested: Optional[str] = None


def numba_available() -> bool:
    """Whether the compiled numba backend can be selected."""
    return numba_backend.available()


def resolve_backend(name: Optional[str] = None) -> KernelBackend:
    """Resolve a backend request to a concrete :class:`KernelBackend`.

    ``name`` falls back to the ``REPRO_BACKEND`` environment variable and
    then to ``"auto"``.  Requesting ``"numba"`` explicitly when the
    toolchain is absent is an error; ``"auto"`` silently degrades to
    NumPy so the library never *requires* the compiled path.
    """
    requested = (name or os.environ.get(BACKEND_ENV) or "auto").strip().lower()
    if requested not in BACKEND_CHOICES:
        raise ConfigurationError(
            f"backend must be one of {BACKEND_CHOICES}, got {requested!r}"
        )
    if requested == "numpy":
        return _NUMPY
    if requested == "numba":
        if not numba_available():
            raise ConfigurationError(
                "backend 'numba' requested but numba is not importable; "
                "install numba or use REPRO_BACKEND=auto|numpy"
            )
        return _NUMBA
    return _NUMBA if numba_available() else _NUMPY


def _record(backend: KernelBackend, requested: Optional[str]) -> None:
    registry = _obs.get_registry()
    if registry.enabled:
        registry.counter(
            "kernel_backend_selected_total", backend=backend.name
        ).inc()
        registry.gauge("kernel_backend_gil_free").set(1.0 if backend.gil_free else 0.0)


def active_backend() -> KernelBackend:
    """The process-wide backend, resolving ``REPRO_BACKEND`` on first use."""
    global _active, _requested
    backend = _active
    if backend is None:
        with _lock:
            if _active is None:
                _requested = os.environ.get(BACKEND_ENV) or "auto"
                _active = resolve_backend(None)
                _record(_active, _requested)
            backend = _active
    return backend


def set_backend(name: Optional[str] = None) -> KernelBackend:
    """Select the process-wide backend (CLI override); returns it.

    ``None`` re-resolves from the environment — callers that merely want
    the selection recorded (benches) can pass their flag through
    unchanged.
    """
    global _active, _requested
    with _lock:
        _requested = name or os.environ.get(BACKEND_ENV) or "auto"
        _active = resolve_backend(name)
        _record(_active, _requested)
        return _active


@contextmanager
def use_backend(name: str):
    """Temporarily switch the process-wide backend (tests, experiments)."""
    global _active, _requested
    with _lock:
        previous = _active, _requested
        _requested = name
        _active = resolve_backend(name)
    try:
        yield _active
    finally:
        with _lock:
            _active, _requested = previous


def get_kernel(kernel_name: str) -> Callable:
    """The active backend's implementation of ``kernel_name``."""
    return active_backend().kernel(kernel_name)


def backend_info() -> dict:
    """Machine-readable description of the active selection (bench meta)."""
    backend = active_backend()
    return {
        "name": backend.name,
        "requested": _requested or "auto",
        "gil_free": backend.gil_free,
        "numba_available": numba_available(),
        "numba_version": numba_backend.version(),
    }
