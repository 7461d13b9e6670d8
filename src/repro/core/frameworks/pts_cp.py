"""PTS-CP — the PTS framework upgraded with correlated perturbation.

Identical wire shape to PTS (label + ``(d+1)``-bit vector), but the item
perturbation is *conditioned on the label's fate*: a flipped label
invalidates the item, the validity flag records it, and the server's
flag-filtered aggregation plus Eq. (4) remove the cross-class noise PTS
suffers from.  This is the paper's headline mechanism for multi-class
frequency estimation (Sections IV-B, VI-A).
"""

from __future__ import annotations

from ...mechanisms.correlated import CorrelatedPerturbation
from .base import SplitBudgetFramework


class PTSCPFramework(SplitBudgetFramework):
    """Correlated-perturbation framework (the paper's PTS-CP)."""

    name = "pts-cp"

    @property
    def mechanism(self) -> CorrelatedPerturbation:
        """The underlying correlated mechanism (exposes p1/q1/p2/q2)."""
        return self._session._mechanism

    def communication_bits_per_user(self) -> int:
        return self._session._mechanism.communication_bits()
