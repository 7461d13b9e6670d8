"""One entry point per paper table/figure (the reproduction harness).

Each function regenerates the corresponding experiment at a configurable
scale and returns the formatted report.  ``scale="quick"`` (the default,
used by ``pytest benchmarks/``) runs laptop-friendly sizes with difficulty
matched to the paper's regime (see ``repro.datasets.realworld``);
``scale="full"`` runs the paper-sized sweeps.

The success criterion everywhere is the paper's *shape* — method
orderings, trend directions, crossovers — not absolute numbers, since the
substrate is a seeded simulator and the real datasets are matched
stand-ins (argued in ``repro.datasets.realworld._difficulty_scale``).
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..analysis.complexity import measured_report_bits, table2_rows
from ..analysis.pmi import pmi_matrix
from ..core.frameworks import make_framework
from ..core.topk import MultiClassTopK
from ..core.variance import table1 as table1_rows
from ..datasets import (
    FeatureStudy,
    anime_like,
    diabetes_like,
    heart_disease_like,
    jd_like,
    syn1,
    syn2,
    syn3,
    syn4,
)
from ..metrics import average_over_classes, f1_score, rmse
from .reporting import format_table

#: The five top-k methods of Figs. 7-10, in the paper's legend order.
TOPK_METHODS: tuple[tuple[str, bool], ...] = (
    ("hec", False),
    ("ptj", False),
    ("ptj", True),
    ("pts", False),
    ("pts", True),
)


def _method_name(framework: str, optimized: bool) -> str:
    if not optimized:
        return framework.upper()
    return "PTJ-Shuffling+VP" if framework == "ptj" else "PTS-Shuffling+VP+CP"


def _topk_scores(
    dataset,
    k: int,
    epsilon: float,
    trials: int,
    seed: int,
    methods: Iterable[tuple[str, bool]] = TOPK_METHODS,
    **scheme_options,
) -> dict[str, tuple[float, float]]:
    """Mean (F1, NCR) per method over ``trials`` seeded runs."""
    truth = dataset.true_topk(k)
    out: dict[str, tuple[float, float]] = {}
    for framework, optimized in methods:
        f1s, ncrs = [], []
        for trial in range(trials):
            scheme = MultiClassTopK.for_framework(
                framework,
                k=k,
                epsilon=epsilon,
                n_classes=dataset.n_classes,
                n_items=dataset.n_items,
                optimized=optimized,
                rng=np.random.default_rng(seed + trial),
                **scheme_options,
            )
            mined = scheme.mine(dataset)
            f1s.append(average_over_classes(mined, truth, "f1"))
            ncrs.append(average_over_classes(mined, truth, "ncr"))
        out[_method_name(framework, optimized)] = (float(np.mean(f1s)), float(np.mean(ncrs)))
    return out


# ----------------------------------------------------------------------
# Table I — variance coefficients
# ----------------------------------------------------------------------

def table1_experiment(scale: str = "quick", seed: int = 0) -> str:
    """Closed-form Table I next to the paper's printed values."""
    rows = table1_rows()
    paper = {
        "f(C,I)": [87.4, 32.9, 17.1, 10.3, 6.8, 4.9, 3.7, 2.9],
        "n": [213.8, 58.9, 22.8, 10.5, 5.4, 3.0, 1.8, 1.1],
        "N": [441.8, 53.3, 12.0, 3.6, 1.3, 0.5, 0.2, 0.1],
    }
    body = []
    for index, eps in enumerate(rows["epsilon"]):
        body.append(
            [
                eps,
                round(rows["f(C,I)"][index], 1),
                paper["f(C,I)"][index],
                round(rows["n"][index], 1),
                paper["n"][index],
                round(rows["N"][index], 1),
                paper["N"][index],
            ]
        )
    return format_table(
        "Table I — coefficients of f(C,I), n, N in Var[f̂] (Eq. 5, c=4)",
        ["eps", "f ours", "f paper", "n ours", "n paper", "N ours", "N paper"],
        body,
        note=(
            "n and N columns match the printed table exactly; the paper's "
            "printed f column deviates <=15% from Eq. (5)'s grouping "
            "(see EXPERIMENTS.md)."
        ),
    )


# ----------------------------------------------------------------------
# Fig. 5 — empirical variance analysis
# ----------------------------------------------------------------------

def fig5_experiment(scale: str = "quick", seed: int = 0) -> str:
    """Empirical Var[f̂] vs PMI (SYN1) and vs class amount n (SYN2)."""
    trials = 1000 if scale == "full" else 200
    data_scale = 1.0 if scale == "full" else 0.05
    rng = np.random.default_rng(seed)
    rows = []

    # (a) SYN1: fixed marginals, pair count swept over 3 decades.
    data = syn1(scale=data_scale, rng=rng)
    counts = data.pair_counts()
    pmi = pmi_matrix(counts)
    frameworks = {
        "PTS": make_framework("pts", epsilon=1.0, n_classes=4, n_items=4),
        "PTS-CP": make_framework("pts-cp", epsilon=1.0, n_classes=4, n_items=4),
    }
    estimates = {
        name: np.stack(
            [
                fw.estimate_frequencies(data, rng=np.random.default_rng(seed + t))
                for t in range(trials)
            ]
        )
        for name, fw in frameworks.items()
    }
    for magnitude in range(4):
        cell = (0, int(np.argsort(counts[0])[magnitude]))
        row = [f"SYN1 f={counts[cell]}", round(float(pmi[cell]), 2)]
        for name in ("PTS", "PTS-CP"):
            variance = float(((estimates[name][:, cell[0], cell[1]] - counts[cell]) ** 2).mean())
            row.append(f"{variance:.3g}")
        rows.append(row)

    # (b) SYN2: fixed pair count, class amount swept.
    data = syn2(scale=data_scale, rng=rng)
    counts = data.pair_counts()
    estimates = {
        name: np.stack(
            [
                fw.estimate_frequencies(data, rng=np.random.default_rng(seed + 5000 + t))
                for t in range(trials)
            ]
        )
        for name, fw in frameworks.items()
    }
    for label in range(4):
        row = [f"SYN2 n={int(counts[label].sum())}", "-"]
        for name in ("PTS", "PTS-CP"):
            variance = float(((estimates[name][:, label, 0] - counts[label, 0]) ** 2).mean())
            row.append(f"{variance:.3g}")
        rows.append(row)

    return format_table(
        "Fig. 5 — empirical variance: (a) PMI sweep on SYN1, (b) class amount sweep on SYN2",
        ["cell", "PMI", "Var PTS", "Var PTS-CP"],
        rows,
        note=(
            "Shape checks: (a) variance is flat in PMI (correlation strength "
            "is concealed by n and N); (b) variance grows with n."
        ),
    )


# ----------------------------------------------------------------------
# Fig. 6 — frequency-estimation RMSE
# ----------------------------------------------------------------------

def _study_rmse(
    study: FeatureStudy, framework: str, epsilon: float, trials: int, seed: int
) -> float:
    """RMSE averaged over features and trials for one framework."""
    errors = []
    for data in study:
        truth = data.pair_counts()
        fw = make_framework(
            framework, epsilon=epsilon, n_classes=data.n_classes, n_items=data.n_items
        )
        for trial in range(trials):
            estimate = fw.estimate_frequencies(
                data, rng=np.random.default_rng(seed + trial)
            )
            errors.append(rmse(estimate, truth))
    return float(np.mean(errors))


def fig6_experiment(scale: str = "quick", seed: int = 0) -> str:
    """RMSE vs ε on the Diabetes- and Heart-like datasets."""
    trials = 20 if scale == "full" else 5
    data_scale = 1.0 if scale == "full" else 0.5
    epsilons = (0.5, 1.0, 2.0, 3.0, 4.0)
    rng = np.random.default_rng(seed)
    rows = []
    for name, study in (
        ("Diabetes", diabetes_like(scale=data_scale, rng=rng)),
        ("Heart", heart_disease_like(scale=data_scale, rng=rng)),
    ):
        for eps in epsilons:
            row = [name, eps]
            for framework in ("hec", "ptj", "pts", "pts-cp"):
                row.append(round(_study_rmse(study, framework, eps, trials, seed), 1))
            rows.append(row)
    return format_table(
        "Fig. 6 — frequency estimation RMSE vs ε (lower is better)",
        ["dataset", "eps", "HEC", "PTJ", "PTS", "PTS-CP"],
        rows,
        note=(
            "Shape checks: PTJ and PTS beat HEC by orders of magnitude; "
            "PTS-CP improves on PTS, most at small ε; errors fall with ε."
        ),
    )


# ----------------------------------------------------------------------
# Figs. 7-9 — top-k on the real-data stand-ins
# ----------------------------------------------------------------------

def fig7_experiment(scale: str = "quick", seed: int = 0) -> str:
    """F1/NCR vs ε on Anime- and JD-like data, k = 20."""
    trials = 5 if scale == "full" else 3
    data_scale = 1.0 if scale == "full" else 0.1
    epsilons = (2.0, 4.0, 6.0, 8.0)
    rows = []
    for name, dataset in (
        ("Anime", anime_like(scale=data_scale, rng=np.random.default_rng(seed))),
        ("JD", jd_like(scale=data_scale, rng=np.random.default_rng(seed + 1))),
    ):
        for eps in epsilons:
            scores = _topk_scores(dataset, 20, eps, trials, seed)
            for method, (f1, ncr) in scores.items():
                rows.append([name, eps, method, round(f1, 3), round(ncr, 3)])
    return format_table(
        "Fig. 7 — top-k mining vs ε (k=20)",
        ["dataset", "eps", "method", "F1", "NCR"],
        rows,
        note=(
            "Shape checks: optimized methods beat their baselines; all "
            "methods improve with ε; PTS-optimized gains the most."
        ),
    )


def fig8_experiment(scale: str = "quick", seed: int = 0) -> str:
    """Per-class F1 on JD-like data (ε=8, k=20) — class starvation."""
    trials = 5 if scale == "full" else 3
    data_scale = 1.0 if scale == "full" else 0.1
    dataset = jd_like(scale=data_scale, rng=np.random.default_rng(seed))
    truth = dataset.true_topk(20)
    rows = []
    for framework, optimized in TOPK_METHODS:
        per_class = np.zeros(dataset.n_classes)
        for trial in range(trials):
            scheme = MultiClassTopK.for_framework(
                framework, k=20, epsilon=8.0,
                n_classes=dataset.n_classes, n_items=dataset.n_items,
                optimized=optimized, rng=np.random.default_rng(seed + trial),
            )
            mined = scheme.mine(dataset)
            for label in range(dataset.n_classes):
                per_class[label] += f1_score(mined.get(label, []), truth[label])
        rows.append(
            [_method_name(framework, optimized)]
            + [round(v / trials, 3) for v in per_class]
        )
    sizes = dataset.class_counts()
    return format_table(
        "Fig. 8 — per-class F1 on JD-like data (ε=8, k=20)",
        ["method"] + [f"class{c + 1} (n={sizes[c]})" for c in range(dataset.n_classes)],
        rows,
        note=(
            "Shape checks: classes 2-3 (largest) score best; PTJ starves "
            "the small classes 4-5 (no results), PTS-optimized still "
            "serves them via global candidates."
        ),
    )


def fig9_experiment(scale: str = "quick", seed: int = 0) -> str:
    """F1/NCR vs k on JD-like data, ε = 4."""
    trials = 5 if scale == "full" else 3
    data_scale = 1.0 if scale == "full" else 0.1
    dataset = jd_like(scale=data_scale, rng=np.random.default_rng(seed))
    rows = []
    for k in (10, 20, 30, 40, 50):
        scores = _topk_scores(dataset, k, 4.0, trials, seed)
        for method, (f1, ncr) in scores.items():
            rows.append([k, method, round(f1, 3), round(ncr, 3)])
    return format_table(
        "Fig. 9 — top-k mining vs k on JD-like data (ε=4)",
        ["k", "method", "F1", "NCR"],
        rows,
        note=(
            "Shape checks: PTS-based utility decreases with k (rarer items "
            "are harder); PTJ's relative utility improves with k (larger "
            "joint candidate budget)."
        ),
    )


# ----------------------------------------------------------------------
# Fig. 10 — class-count sweeps on SYN3/SYN4
# ----------------------------------------------------------------------

def fig10_experiment(scale: str = "quick", seed: int = 0) -> str:
    """F1/NCR vs number of classes on SYN3 (global head) and SYN4."""
    trials = 5 if scale == "full" else 2
    n_users = 5_000_000 if scale == "full" else 1_000_000
    n_items = 20_000 if scale == "full" else 4_096
    # Quick mode shrinks per-class user counts ~8x below the paper's
    # regime, so the exponential scales shrink with sqrt(8) to preserve
    # the noise-to-gap ratio (see repro.datasets.realworld).
    scale_range = (0.01, 0.1) if scale == "full" else (0.004, 0.02)
    class_counts = (10, 20, 30, 40, 50) if scale == "full" else (10, 30, 50)
    rows = []
    for name, generator in (("SYN3 (global)", syn3), ("SYN4", syn4)):
        for n_classes in class_counts:
            dataset = generator(
                n_classes=n_classes, n_users=n_users, n_items=n_items,
                rng=np.random.default_rng(seed + n_classes),
                scale_range=scale_range,
            )
            scores = _topk_scores(dataset, 20, 4.0, trials, seed)
            for method, (f1, ncr) in scores.items():
                rows.append([name, n_classes, method, round(f1, 3), round(ncr, 3)])
    return format_table(
        "Fig. 10 — top-k vs number of classes (ε=4, k=20)",
        ["dataset", "classes", "method", "F1", "NCR"],
        rows,
        note=(
            "Shape checks: utility declines as classes increase; optimized "
            "beats baseline; PTS-optimized degrades on SYN4 (no global "
            "head) while PTJ is indifferent to it."
        ),
    )


# ----------------------------------------------------------------------
# Table II — complexity
# ----------------------------------------------------------------------

def table2_experiment(scale: str = "quick", seed: int = 0) -> str:
    """Cost-model rows at the JD parameterisation plus measured bits."""
    c, d, n, k = 5, 28_000, 9_000_000, 20
    rows = []
    for cost in table2_rows(c, d, n, k):
        rows.append(
            [
                cost.method,
                f"{cost.user_communication:.3g}",
                f"{cost.user_time:.3g}",
                f"{cost.user_space:.3g}",
                f"{cost.server_time:.3g}",
                f"{cost.server_space:.3g}",
            ]
        )
    measured = measured_report_bits(c, d, k)
    note_lines = ["Measured per-user report sizes (bits):"]
    for method, bits in measured.items():
        note_lines.append(f"  {method}: {bits}")
    note_lines.append(
        "Shape checks: optimized rows are independent of d on the user "
        "side; PTJ costs a factor ~c more than PTS."
    )
    return format_table(
        f"Table II — complexity model (c={c}, d={d}, N={n}, k={k}, m=1)",
        ["method", "user comm", "user time", "user space", "server time", "server space"],
        rows,
        note="\n".join(note_lines),
    )


# ----------------------------------------------------------------------
# Table III — ablation
# ----------------------------------------------------------------------

def table3_experiment(scale: str = "quick", seed: int = 0) -> str:
    """Ablation of the optimizations on Anime-like data (ε=5, k=20)."""
    trials = 10 if scale == "full" else 4
    data_scale = 1.0 if scale == "full" else 0.1
    dataset = anime_like(scale=data_scale, rng=np.random.default_rng(seed))
    truth = dataset.true_topk(20)

    configs = [
        ("ptj", (), "PTJ (Baseline)"),
        ("ptj", ("vp",), "PTJ +VP"),
        ("ptj", ("shuffle",), "PTJ +Shuffling"),
        ("ptj", ("shuffle", "vp"), "PTJ All"),
        ("pts", (), "PTS (Baseline)"),
        ("pts", ("global",), "PTS +Global"),
        ("pts", ("vp",), "PTS +VP"),
        ("pts", ("shuffle",), "PTS +Shuffling"),
        ("pts", ("shuffle", "vp", "cp", "global"), "PTS All"),
    ]
    rows = []
    for framework, toggles, label in configs:
        f1s, ncrs = [], []
        for trial in range(trials):
            scheme = MultiClassTopK(
                framework, k=20, epsilon=5.0,
                n_classes=dataset.n_classes, n_items=dataset.n_items,
                optimizations=toggles, rng=np.random.default_rng(seed + trial),
            )
            mined = scheme.mine(dataset)
            f1s.append(average_over_classes(mined, truth, "f1"))
            ncrs.append(average_over_classes(mined, truth, "ncr"))
        rows.append([label, round(float(np.mean(f1s)), 3), round(float(np.mean(ncrs)), 3)])
    return format_table(
        "Table III — ablation on Anime-like data (ε=5, k=20)",
        ["configuration", "F1", "NCR"],
        rows,
        note=(
            "Shape checks: every optimization improves its baseline; the "
            "full stacks score highest; paper rows (F1): PTJ .261/.280/"
            ".316/.340, PTS .159/.165/.214/.241/.358."
        ),
    )


# ----------------------------------------------------------------------
# Fig. 11 — budget-split sweep
# ----------------------------------------------------------------------

def fig11_experiment(scale: str = "quick", seed: int = 0) -> str:
    """F1 vs the label-budget fraction p on SYN4 (5/10/20 classes)."""
    trials = 5 if scale == "full" else 2
    n_users = 5_000_000 if scale == "full" else 1_000_000
    n_items = 20_000 if scale == "full" else 4_096
    scale_range = (0.01, 0.1) if scale == "full" else (0.004, 0.02)
    fractions = (0.1, 0.3, 0.5, 0.7, 0.9)
    rows = []
    for n_classes in (5, 10, 20):
        dataset = syn4(
            n_classes=n_classes, n_users=n_users, n_items=n_items,
            rng=np.random.default_rng(seed + n_classes),
            scale_range=scale_range,
        )
        truth = dataset.true_topk(20)
        for fraction in fractions:
            f1s = []
            for trial in range(trials):
                scheme = MultiClassTopK.for_framework(
                    "pts", k=20, epsilon=4.0,
                    n_classes=n_classes, n_items=n_items,
                    rng=np.random.default_rng(seed + trial),
                    label_fraction=fraction,
                )
                f1s.append(average_over_classes(scheme.mine(dataset), truth, "f1"))
            rows.append([n_classes, fraction, round(float(np.mean(f1s)), 3)])
    return format_table(
        "Fig. 11 — budget split p = ε₁/ε on SYN4 (ε=4, k=20)",
        ["classes", "p", "F1"],
        rows,
        note=(
            "Shape checks: F1 rises then falls in p with a flat optimum "
            "in the 0.3-0.5 band, supporting the paper's ε₁=ε₂=ε/2 default."
        ),
    )


# ----------------------------------------------------------------------
# Fig. 12 — parameters a and b
# ----------------------------------------------------------------------

def fig12_experiment(scale: str = "quick", seed: int = 0) -> str:
    """Sweeps of the sample fraction a and the noise threshold b."""
    trials = 5 if scale == "full" else 3
    data_scale = 1.0 if scale == "full" else 0.1
    datasets = (
        ("Anime", anime_like(scale=data_scale, rng=np.random.default_rng(seed))),
        ("JD", jd_like(scale=data_scale, rng=np.random.default_rng(seed + 1))),
    )
    rows = []
    for name, dataset in datasets:
        truth = dataset.true_topk(20)

        def run(a: float, b: float) -> float:
            f1s = []
            for trial in range(trials):
                scheme = MultiClassTopK.for_framework(
                    "pts", k=20, epsilon=5.0,
                    n_classes=dataset.n_classes, n_items=dataset.n_items,
                    rng=np.random.default_rng(seed + trial), a=a, b=b,
                )
                f1s.append(average_over_classes(scheme.mine(dataset), truth, "f1"))
            return float(np.mean(f1s))

        for a in (0.1, 0.2, 0.3, 0.4, 0.5):
            rows.append([name, f"a={a}", round(run(a, 2.0), 3)])
        for b in (1.5, 2.0, 2.5, 3.0, 3.5):
            rows.append([name, f"b={b}", round(run(0.2, b), 3)])
    return format_table(
        "Fig. 12 — PTS-optimized F1 vs parameters a and b (ε=5, k=20)",
        ["dataset", "parameter", "F1"],
        rows,
        note=(
            "Shape checks: both parameters are dataset-dependent but flat "
            "(no sharp optimum), supporting the defaults a=0.2, b=2."
        ),
    )


#: Registry used by the CLI and the pytest benches.
EXPERIMENTS = {
    "table1": table1_experiment,
    "fig5": fig5_experiment,
    "fig6": fig6_experiment,
    "fig7": fig7_experiment,
    "fig8": fig8_experiment,
    "fig9": fig9_experiment,
    "fig10": fig10_experiment,
    "table2": table2_experiment,
    "table3": table3_experiment,
    "fig11": fig11_experiment,
    "fig12": fig12_experiment,
}


def run_experiment(name: str, scale: Optional[str] = None, seed: int = 0) -> str:
    """Run one experiment by name and return its report."""
    from .reporting import bench_scale

    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name](scale=scale or bench_scale(), seed=seed)
