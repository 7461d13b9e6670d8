"""PTS — Perturbing The pair Separately (paper Section III-B).

The label is perturbed with GRR under budget ε₁ and the item with OUE
under ε₂ = ε - ε₁ (defaults ε₁ = ε₂ = ε/2).  The server groups item
supports by perturbed label and inverts with the paper's Eq. (6)
(:func:`repro.core.estimators.calibrate_pts`).

PTS keeps the per-user report at ``O(d)`` bits, but label flips smear a
user's (still truthfully perturbed) item into the wrong class — the
cross-class noise the correlated mechanism (:mod:`.pts_cp`) then removes.
"""

from __future__ import annotations

from .base import SplitBudgetFramework


class PTSFramework(SplitBudgetFramework):
    """Split-budget framework: GRR labels (ε₁) + OUE items (ε₂)."""

    name = "pts"

    @property
    def p1(self) -> float:
        return self._session._label_oracle.p

    @property
    def q1(self) -> float:
        return self._session._label_oracle.q

    @property
    def p2(self) -> float:
        return self._session._item_oracle.p

    @property
    def q2(self) -> float:
        return self._session._item_oracle.q

    def communication_bits_per_user(self) -> int:
        return (
            self._session._label_oracle.communication_bits()
            + self._session._item_oracle.communication_bits()
        )
