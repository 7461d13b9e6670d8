"""Gendered anime rankings (the paper's MyAnimeList workload).

A streaming platform wants each gender's top-20 shows for personalised
recommendations.  The catalogue head is shared — hit shows are hits with
everyone — which is exactly the structure the paper's PTS pipeline
exploits through global candidate generation.  We demonstrate the effect
by toggling the "global" optimization on and off, and show the validity
flag's value by also toggling "vp" (paper Table III rows).

Run:  python examples/anime_rankings.py          (a few seconds)
"""

import numpy as np

from repro.core.topk import MultiClassTopK
from repro.datasets import anime_like
from repro.metrics import average_over_classes


def main() -> None:
    data = anime_like(scale=0.1, rng=np.random.default_rng(9))
    truth = data.true_topk(20)
    shared = len(set(truth[0]) & set(truth[1]))
    print(f"workload: {data}")
    print(f"top-20 shows shared between genders: {shared} / 20")
    print()

    k, epsilon, trials = 20, 5.0, 3
    configurations = [
        ((), "PEM baseline"),
        (("vp",), "+ validity perturbation"),
        (("shuffle", "vp"), "+ shuffling"),
        (("shuffle", "vp", "cp"), "+ correlated perturbation"),
        (("shuffle", "vp", "cp", "global"), "+ global candidates (full stack)"),
    ]
    print(f"PTS ablation at eps = {epsilon}, k = {k} (paper Table III),")
    print(f"mean F1 over {trials} seeded trials; each row's change is paired")
    print("trial by trial against the row above it:")
    previous = None
    verdicts = {}
    for toggles, label in configurations:
        scores = []
        for trial in range(trials):
            scheme = MultiClassTopK(
                "pts", k=k, epsilon=epsilon,
                n_classes=data.n_classes, n_items=data.n_items,
                optimizations=toggles, rng=np.random.default_rng(100 + trial),
            )
            scores.append(average_over_classes(scheme.mine(data), truth, "f1"))
        scores = np.asarray(scores)
        line = f"  {label:35s} F1 = {scores.mean():.3f}"
        if previous is not None:
            change = scores - previous
            line += (
                f"  change {change.mean():+.3f}"
                f" (per trial {change.min():+.3f} .. {change.max():+.3f})"
            )
            verdicts[label] = (
                f"raised F1 in {(change > 0).sum()} of {trials} trials,"
                f" lowered it in {(change < 0).sum()},"
                f" left it unchanged in {(change == 0).sum()}"
            )
        print(line)
        previous = scores
    print()
    for label, verdict in verdicts.items():
        print(f"{label.lstrip('+ ')}: {verdict}")


if __name__ == "__main__":
    main()
