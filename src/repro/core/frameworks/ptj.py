"""PTJ — Perturbing The pair Jointly (paper Section III-B).

The label-item pair is flattened into the Cartesian product domain
``P = C x I`` of size ``c*d`` and perturbed as a single value with the
full budget ε through the adaptive GRR/OUE oracle.  No invalid data is
ever produced, and the whole budget benefits a single perturbation —
PTJ's utility is typically the best of the basic frameworks — but the
report costs ``O(c d)`` bits under OUE, the framework's documented
drawback (Section V-C, Table II).
"""

from __future__ import annotations

from .base import MulticlassFramework


class PTJFramework(MulticlassFramework):
    """Joint-domain framework over ``c * d`` values."""

    name = "ptj"

    @property
    def oracle_name(self) -> str:
        """Which oracle the adaptive rule selected ("grr" or "oue")."""
        return self._session._oracle.name

    def communication_bits_per_user(self) -> int:
        return self._session._oracle.communication_bits()
