"""Shared value types used across the library.

The library deals in *label-item pairs*: each user holds one item drawn
from an item domain of size ``d`` and one class label drawn from a label
domain of size ``c``.  Domains are always the integer ranges ``[0, d)`` and
``[0, c)``; mapping application values (strings, product ids, ...) onto
those ranges is the caller's responsibility (see
:class:`repro.datasets.base.LabelItemDataset.from_pairs` for a helper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

#: Sentinel passed to :class:`repro.mechanisms.validity.ValidityPerturbation`
#: (and accepted by the correlated mechanism) to mark an item that is not in
#: the current valid domain — e.g. an item pruned from the candidate set.
INVALID_ITEM: int = -1

#: A client-side report.  The concrete type depends on the mechanism:
#: an ``int`` for GRR, a ``numpy`` bit vector for unary encodings and the
#: validity perturbation, a ``(label, bits)`` tuple for the correlated
#: mechanism.
Report = Union[int, np.ndarray, tuple]


@dataclass(frozen=True)
class LabelItemPair:
    """One user's private datum: an item tagged with its class label."""

    label: int
    item: int

    def __post_init__(self) -> None:
        if self.label < 0:
            raise ValueError(f"label must be non-negative, got {self.label}")
        if self.item < 0 and self.item != INVALID_ITEM:
            raise ValueError(
                f"item must be non-negative or INVALID_ITEM, got {self.item}"
            )

    def as_tuple(self) -> tuple[int, int]:
        """Return ``(label, item)`` as a plain tuple."""
        return (self.label, self.item)


@dataclass(frozen=True)
class DomainSpec:
    """Sizes of the label and item domains for a multi-class task."""

    n_classes: int
    n_items: int

    def __post_init__(self) -> None:
        if self.n_classes < 1:
            raise ValueError(f"need at least one class, got {self.n_classes}")
        if self.n_items < 1:
            raise ValueError(f"need at least one item, got {self.n_items}")

    @property
    def joint_size(self) -> int:
        """Size of the Cartesian product domain used by PTJ."""
        return self.n_classes * self.n_items

    def flatten(self, label: int, item: int) -> int:
        """Map a pair to its index in the joint (PTJ) domain."""
        if not 0 <= label < self.n_classes:
            raise ValueError(f"label {label} outside [0, {self.n_classes})")
        if not 0 <= item < self.n_items:
            raise ValueError(f"item {item} outside [0, {self.n_items})")
        return label * self.n_items + item

    def unflatten(self, index: int) -> tuple[int, int]:
        """Inverse of :meth:`flatten`."""
        if not 0 <= index < self.joint_size:
            raise ValueError(f"index {index} outside [0, {self.joint_size})")
        return divmod(index, self.n_items)
