"""Seeded stand-ins for the paper's four Kaggle datasets.

The originals (Diabetes Prediction, Heart Disease Health Indicators,
MyAnimeList, JD contest) are not redistributable and unavailable offline,
so each generator below synthesises a dataset matching the statistics the
paper reports and that actually drive the algorithms: user count, class
count and balance, item-domain size, head skew, and cross-class overlap of
frequent items.  ``_difficulty_scale`` states the substitution and
calibration argument; ``scale`` shrinks the user count proportionally
for laptop benches.

The frequency-estimation datasets (:func:`diabetes_like`,
:func:`heart_disease_like`) model the paper's per-feature protocol: users
are divided into one group per feature and each group mines the
(class label, feature value) pairs of its feature.  The helpers return a
:class:`FeatureStudy` bundling the per-feature datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import DomainError
from ..rng import RngLike, ensure_rng
from .base import LabelItemDataset
from .synthetic import exponential_multiclass

#: Per-class user counts of the (20%-sampled) JD dataset from the paper's
#: Fig. 8 discussion: age groups <=25, 26-35, 36-45, 46-55, >=56.
JD_CLASS_SIZES: tuple[int, ...] = (850_000, 4_000_000, 3_000_000, 314_000, 170_000)

#: Item-domain size of the JD dataset.
JD_N_ITEMS: int = 28_000

#: Item-domain size of the MyAnimeList dataset (anime titles).
ANIME_N_ITEMS: int = 14_000

#: Pair count of the 20%-sampled MyAnimeList dataset (~7M records).
ANIME_N_USERS: int = 7_000_000


@dataclass
class FeatureStudy:
    """A per-feature collection of label-item datasets.

    The paper's frequency-estimation experiments assign each user group to
    one feature; RMSE is averaged over features.  ``datasets[i]`` holds
    the (class label, value of feature ``i``) pairs of group ``i``.
    """

    name: str
    datasets: list[LabelItemDataset]

    @property
    def n_features(self) -> int:
        return len(self.datasets)

    def __iter__(self):
        return iter(self.datasets)


def _class_conditional_values(
    n_per_class: np.ndarray,
    domain: int,
    shift: float,
    concentration: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """``(c, domain)`` pair counts for one feature.

    Each class draws values from a discretised log-normal-like profile;
    ``shift`` moves the positive class's mode right (e.g. diabetics have
    higher glucose), creating the class-conditional structure the
    multi-class estimators must recover.
    """
    n_classes = len(n_per_class)
    counts = np.zeros((n_classes, domain), dtype=np.int64)
    base_mode = 0.35
    for label, size in enumerate(n_per_class):
        mode = min(0.9, base_mode + shift * label)
        positions = (np.arange(domain) + 0.5) / domain
        log_dev = np.log(positions / mode)
        weights = np.exp(-0.5 * (log_dev / concentration) ** 2) / positions
        probs = weights / weights.sum()
        counts[label] = rng.multinomial(int(size), probs)
    return counts


def _binary_feature_study(
    name: str,
    n_users: int,
    positive_rate: float,
    feature_domains: list[int],
    scale: float,
    rng: np.random.Generator,
) -> FeatureStudy:
    """Shared machinery for the two clinical datasets."""
    if not 0.0 < positive_rate < 1.0:
        raise DomainError(f"positive rate must be in (0,1), got {positive_rate}")
    if scale <= 0:
        raise DomainError(f"scale must be positive, got {scale}")
    n_users = max(len(feature_domains) * 10, int(round(n_users * scale)))
    group_size = n_users // len(feature_domains)
    datasets = []
    for index, domain in enumerate(feature_domains):
        n_positive = int(round(group_size * positive_rate))
        per_class = np.asarray([group_size - n_positive, n_positive])
        shift = 0.25 if domain > 4 else 0.1
        concentration = 0.45 if domain > 20 else 0.8
        counts = _class_conditional_values(per_class, domain, shift, concentration, rng)
        datasets.append(
            LabelItemDataset.from_pair_counts(
                counts, name=f"{name}/feature{index}(d={domain})", rng=rng
            )
        )
    return FeatureStudy(name=name, datasets=datasets)


def diabetes_like(scale: float = 1.0, rng: RngLike = None) -> FeatureStudy:
    """Stand-in for the Diabetes Prediction dataset.

    100,000 individuals, 8 features, binary diabetes label (~8.5%
    positive); continuous features rounded to one decimal, the largest
    domain holding about 600 values (BMI).
    """
    rng = ensure_rng(rng)
    feature_domains = [2, 2, 5, 6, 13, 97, 18, 600]
    return _binary_feature_study(
        name="diabetes-like",
        n_users=100_000,
        positive_rate=0.085,
        feature_domains=feature_domains,
        scale=scale,
        rng=rng,
    )


def heart_disease_like(scale: float = 1.0, rng: RngLike = None) -> FeatureStudy:
    """Stand-in for the Heart Disease Health Indicators dataset.

    253,680 survey responses, 21 categorical features (largest domain
    84), binary heart-disease label (~9.4% positive).
    """
    rng = ensure_rng(rng)
    feature_domains = [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 5, 6, 6, 13, 14, 30, 31, 84]
    return _binary_feature_study(
        name="heart-like",
        n_users=253_680,
        positive_rate=0.094,
        feature_domains=feature_domains,
        scale=scale,
        rng=rng,
    )


def _difficulty_scale(reference_scale: float, scale: float) -> float:
    """Exponential head scale for a stand-in shrunk to ``scale`` of its
    users: the calibration the stand-ins of this package rest on.

    Why stand-ins: the paper's four Kaggle datasets are not
    redistributable, and the algorithms see a dataset only through a few
    statistics — user count, class count and balance, item-domain size,
    head skew, and the cross-class overlap of frequent items — so each
    generator here matches those and nothing else.  Results are compared
    with the paper by shape (method orderings, trend directions,
    crossovers), never by absolute value.

    Why this scale: the top-k task's hardness is governed by the ratio of
    the count gap between adjacent head ranks (``∝ N / s`` for an
    exponential head of scale ``s`` over ``N`` users) to the LDP support
    noise (``∝ sqrt(N)``), i.e. ``∝ sqrt(N) / s``.  Shrinking the user
    count by ``scale`` therefore pairs with shrinking the head scale by
    ``sqrt(scale)`` (floored at 0.002), so that laptop-sized benches aim
    at the paper-scale orderings.  The argument is first-order: it leaves
    out how the miners split users into round cohorts, and quick-scale
    Table III scores read higher than full-scale ones, so a quick-scale
    ordering is a hint to confirm at full scale.
    """
    return max(0.002, reference_scale * float(np.sqrt(scale)))


def anime_like(scale: float = 1.0, rng: RngLike = None) -> LabelItemDataset:
    """Stand-in for the MyAnimeList top-k workload.

    Two gender classes (55/45 split), 14,000 anime titles, a nearly flat
    exponential head (many similarly popular shows — what makes the
    paper's top-20 task hard), and a strongly shared head: the hit shows
    are popular with both genders, which is exactly the "globally
    frequent items" effect the paper's PTS pipeline exploits.
    """
    rng = ensure_rng(rng)
    if scale <= 0:
        raise DomainError(f"scale must be positive, got {scale}")
    n_users = max(1000, int(round(ANIME_N_USERS * scale)))
    sizes = np.asarray([int(round(n_users * 0.55)), 0], dtype=np.int64)
    sizes[1] = n_users - sizes[0]
    exp_scale = _difficulty_scale(0.035, scale)  # calibrated: see its docstring
    return exponential_multiclass(
        n_users=n_users,
        n_classes=2,
        n_items=ANIME_N_ITEMS,
        exp_scales=[exp_scale, exp_scale * 0.9],
        class_sizes=sizes,
        shared_head=14,
        head_window=20,
        name="anime-like",
        rng=rng,
    )


def jd_like(scale: float = 1.0, rng: RngLike = None) -> LabelItemDataset:
    """Stand-in for the JD contest top-k workload.

    Five age-group classes with the paper's very unbalanced sizes
    (850k/4M/3M/314k/170k before scaling), 28,000 items, a flat
    exponential sales head with substantial cross-class overlap (popular
    goods are popular with all age groups).
    """
    rng = ensure_rng(rng)
    if scale <= 0:
        raise DomainError(f"scale must be positive, got {scale}")
    sizes = np.maximum(50, np.round(np.asarray(JD_CLASS_SIZES, dtype=np.float64) * scale)).astype(
        np.int64
    )
    exp_scale = _difficulty_scale(0.022, scale)
    return exponential_multiclass(
        n_users=int(sizes.sum()),
        n_classes=len(sizes),
        n_items=JD_N_ITEMS,
        exp_scales=[exp_scale * f for f in (1.0, 1.05, 0.95, 1.1, 0.9)],
        class_sizes=sizes,
        shared_head=10,
        head_window=20,
        name="jd-like",
        rng=rng,
    )
