"""The four multi-class frequency-estimation frameworks.

``make_framework`` builds one by name — the names match the paper's
legends: ``"hec"``, ``"ptj"``, ``"pts"``, ``"pts-cp"``.
"""

from typing import Optional

from ...exceptions import ConfigurationError
from ...rng import RngLike
from .base import MODES, MulticlassFramework, split_counts_into_groups
from .hec import HECFramework
from .ptj import PTJFramework
from .pts import PTSFramework
from .pts_cp import PTSCPFramework

#: Registry of framework constructors keyed by paper name.
FRAMEWORKS = {
    "hec": HECFramework,
    "ptj": PTJFramework,
    "pts": PTSFramework,
    "pts-cp": PTSCPFramework,
}


def make_framework(
    name: str,
    epsilon: float,
    n_classes: int,
    n_items: int,
    mode: str = "simulate",
    rng: RngLike = None,
    label_fraction: Optional[float] = None,
) -> MulticlassFramework:
    """Build a framework by its paper name.

    ``label_fraction`` is forwarded to the split-budget frameworks (PTS,
    PTS-CP) and rejected for the others.
    """
    try:
        cls = FRAMEWORKS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown framework {name!r}; choose from {sorted(FRAMEWORKS)}"
        ) from None
    kwargs = dict(
        epsilon=epsilon, n_classes=n_classes, n_items=n_items, mode=mode, rng=rng
    )
    if label_fraction is not None:
        if name not in ("pts", "pts-cp"):
            raise ConfigurationError(
                f"label_fraction only applies to pts/pts-cp, not {name!r}"
            )
        kwargs["label_fraction"] = label_fraction
    return cls(**kwargs)


__all__ = [
    "FRAMEWORKS",
    "HECFramework",
    "MODES",
    "MulticlassFramework",
    "PTJFramework",
    "PTSCPFramework",
    "PTSFramework",
    "make_framework",
    "split_counts_into_groups",
]
