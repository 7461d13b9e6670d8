"""HEC — Handling Each Class independently (paper Section II-D).

The strawman framework: each user is assigned one of ``c`` groups
uniformly at random, and group ``g`` mines class ``g`` with the *full*
budget ε through the adaptive GRR/OUE oracle.  A user whose label does
not match her group's class is *invalid* and reports a uniformly random
item for deniability.  The calibration divides by the realised group
sizes.

HEC wastes roughly a ``(c-1)/c`` fraction of users per class and its
random-item deniability injects ``(N - n)/d`` bias per cell (Theorem 4);
both effects are what the paper's PTJ/PTS frameworks remove.
"""

from __future__ import annotations

from .base import MulticlassFramework


class HECFramework(MulticlassFramework):
    """User-partition strawman with random-item deniability: users are
    assigned to class groups iid-uniformly (see
    :class:`~repro.stream.session.OnlineHEC`)."""

    name = "hec"

    @property
    def oracle_name(self) -> str:
        """Which oracle the adaptive rule selected ("grr" or "oue")."""
        return self._session._oracle.name

    def communication_bits_per_user(self) -> int:
        return self._session._oracle.communication_bits()
