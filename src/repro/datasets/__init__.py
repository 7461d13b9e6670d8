"""Datasets: the container type plus the paper's six workloads.

Real Kaggle data is unavailable offline; :mod:`repro.datasets.realworld`
provides matched synthetic stand-ins (the argument for them is in
``realworld._difficulty_scale``), and
:mod:`repro.datasets.loaders` can ingest the originals if you have them.
"""

from .base import LabelItemDataset
from .loaders import load_pairs_csv
from .realworld import (
    ANIME_N_ITEMS,
    ANIME_N_USERS,
    JD_CLASS_SIZES,
    JD_N_ITEMS,
    FeatureStudy,
    anime_like,
    diabetes_like,
    heart_disease_like,
    jd_like,
)
from .synthetic import (
    DRIFT_PATTERNS,
    SYN1_PAIR_COUNTS,
    SYN2_CLASS_SIZES,
    SYN2_PROBE_COUNT,
    DriftBatch,
    DriftStep,
    drift_schedule,
    drift_stream,
    syn1,
    syn2,
    syn3,
    syn4,
    zipf_multiclass,
)

__all__ = [
    "ANIME_N_ITEMS",
    "ANIME_N_USERS",
    "DRIFT_PATTERNS",
    "DriftBatch",
    "DriftStep",
    "FeatureStudy",
    "JD_CLASS_SIZES",
    "JD_N_ITEMS",
    "LabelItemDataset",
    "SYN1_PAIR_COUNTS",
    "SYN2_CLASS_SIZES",
    "SYN2_PROBE_COUNT",
    "anime_like",
    "diabetes_like",
    "drift_schedule",
    "drift_stream",
    "heart_disease_like",
    "jd_like",
    "load_pairs_csv",
    "syn1",
    "syn2",
    "syn3",
    "syn4",
    "zipf_multiclass",
]
