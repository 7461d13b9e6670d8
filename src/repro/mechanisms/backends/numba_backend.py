"""Numba ``nogil`` variants of the report plane's counting kernels.

Importing this module is always safe: when numba is absent every public
symbol still exists and :func:`available` returns ``False`` — the
registry then falls back to the NumPy reference backend.  When numba is
present, the compute stages compile with ``nogil=True`` so the batch
engine can dispatch independent blocks onto a thread pool and actually
run them in parallel.

Only the deterministic kernels have twins here (``categorical_support``
and ``grouped_scatter``), and they are bit-for-bit the NumPy reference by
construction.  The one-hot perturbation has none: its cost is the
draws from the caller's NumPy generator, which a twin would still make
in NumPy, so it would compile only the cheap compare.  The registry's
per-kernel fallback serves the NumPy kernel on this backend too.
"""

from __future__ import annotations

import numpy as np

from ...exceptions import AggregationError

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
    from numba import njit as _njit
except ImportError:  # pragma: no cover - the numpy-only environment
    _numba = None

    def _njit(*args, **kwargs):  # type: ignore[misc]
        """Decorator stub so kernel definitions below always parse."""
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


def available() -> bool:
    """Whether the numba toolchain imported successfully."""
    return _numba is not None


def version() -> str | None:
    """Installed numba version, or ``None``."""
    return getattr(_numba, "__version__", None) if _numba is not None else None


# ----------------------------------------------------------------------
# compiled nogil stages
# ----------------------------------------------------------------------
@_njit(nogil=True)
def _categorical_support(reports, domain_size):  # pragma: no cover
    counts = np.zeros(domain_size, dtype=np.int64)
    for i in range(reports.size):
        value = reports[i]
        if value < 0 or value >= domain_size:
            return counts, False
        counts[value] += 1
    return counts, True


@_njit(nogil=True)
def _grouped_scatter(groups, bits, n_groups):  # pragma: no cover
    n, width = bits.shape
    out = np.zeros((n_groups, width), dtype=np.int64)
    for i in range(n):
        g = groups[i]
        for j in range(width):
            out[g, j] += bits[i, j]
    return out


# ----------------------------------------------------------------------
# registry-facing wrappers (NumPy-identical signatures and semantics)
# ----------------------------------------------------------------------
def categorical_support(reports, domain_size, name="categorical"):
    counts, in_domain = _categorical_support(
        np.asarray(reports, dtype=np.int64), np.int64(domain_size)
    )
    if not in_domain:
        raise AggregationError(f"{name} report outside domain [0, {domain_size})")
    return counts


def grouped_scatter(groups, bits, n_groups):
    return _grouped_scatter(
        np.asarray(groups, dtype=np.int64),
        np.asarray(bits, dtype=np.int64),
        np.int64(n_groups),
    )


#: Kernel table exposed to the registry (only consulted when available()).
KERNELS = {
    "categorical_support": categorical_support,
    "grouped_scatter": grouped_scatter,
}
