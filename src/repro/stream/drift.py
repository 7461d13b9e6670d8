"""Distribution-drift detection against the closed-form noise floor.

A private estimate moves between queries for two reasons: LDP sampling
noise, whose magnitude the Section-V theorems bound
(``OnlineFrameworkSession.estimate_variance``), and genuine change in
the underlying stream.  :class:`DriftDetector` separates the two with a
per-cell z-score: the residual between the current estimate and a
retained baseline, normalised by the combined standard deviation of
both snapshots.  A cell whose residual the noise bound cannot explain
(``|z| > threshold``) is flagged; the detector then re-baselines so the
next comparison starts from the post-shift regime.

The bound is exact for PTJ and HEC.  For PTS and PTS-CP it is
conservative: observed variance over the closed form is 0.29–0.44 (PTS)
and 0.55–0.89 (PTS-CP), because the paper's forms drop the covariance
between pair support, class size and item total.  PTS drift z-scores
therefore read 1.5–1.9× small until exact variance forms replace the
paper's there.

The baseline and current snapshots share ingested history (minus decay),
so treating their variances as additive is conservative in the common
windowed case and at worst understates correlation — the threshold is a
knob, not a significance guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..exceptions import ConfigurationError

#: Default flag threshold in combined standard deviations.
DEFAULT_THRESHOLD = 4.0

#: Numerical floor for the combined variance (degenerate cells).
_VAR_FLOOR = 1e-12


@dataclass(frozen=True)
class DriftReport:
    """One drift check: the max cell z-score and what cleared the bar."""

    score: float
    drifted: bool
    threshold: float
    n_flagged: int
    flagged: list[tuple[int, int]] = field(default_factory=list)
    baseline_age: int = 0

    def to_dict(self) -> dict:
        return {
            "score": float(self.score),
            "drifted": bool(self.drifted),
            "threshold": float(self.threshold),
            "n_flagged": int(self.n_flagged),
            "flagged": [[int(c), int(i)] for c, i in self.flagged],
            "baseline_age": int(self.baseline_age),
        }


class DriftDetector:
    """Flag when an estimate's residual exceeds its variance bound.

    ``threshold`` is the z-score above which a cell counts as drifted;
    ``max_flagged`` caps how many (worst-first) cell coordinates a
    report carries.  The first :meth:`update` installs the baseline and
    reports a zero score.
    """

    def __init__(
        self,
        threshold: float = DEFAULT_THRESHOLD,
        max_flagged: int = 16,
    ) -> None:
        if not threshold > 0:
            raise ConfigurationError(
                f"drift threshold must be > 0, got {threshold!r}"
            )
        if max_flagged < 1:
            raise ConfigurationError(
                f"max_flagged must be >= 1, got {max_flagged!r}"
            )
        self.threshold = float(threshold)
        self.max_flagged = int(max_flagged)
        self._baseline: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._baseline_age = 0
        self.n_checks = 0
        self.n_drift_events = 0

    @property
    def has_baseline(self) -> bool:
        return self._baseline is not None

    def rebaseline(self, estimate, variance) -> None:
        """Install ``(estimate, variance)`` as the comparison point."""
        estimate = np.asarray(estimate, dtype=np.float64)
        variance = np.asarray(variance, dtype=np.float64)
        if estimate.shape != variance.shape:
            raise ConfigurationError(
                f"estimate {estimate.shape} and variance {variance.shape} "
                "must align"
            )
        self._baseline = (estimate.copy(), variance.copy())
        self._baseline_age = 0

    def reset(self) -> None:
        """Drop the baseline; the next update starts fresh."""
        self._baseline = None
        self._baseline_age = 0

    def update(
        self,
        estimate,
        variance,
        threshold: Optional[float] = None,
        rebaseline_on_drift: bool = True,
    ) -> DriftReport:
        """Score the current snapshot against the baseline.

        Returns a :class:`DriftReport`; when drift is flagged and
        ``rebaseline_on_drift`` is set, the current snapshot becomes the
        new baseline so subsequent checks measure *further* movement.
        """
        bar = self.threshold if threshold is None else float(threshold)
        if not bar > 0:
            raise ConfigurationError(f"threshold must be > 0, got {bar!r}")
        estimate = np.asarray(estimate, dtype=np.float64)
        variance = np.asarray(variance, dtype=np.float64)
        self.n_checks += 1
        if self._baseline is None:
            self.rebaseline(estimate, variance)
            return DriftReport(
                score=0.0, drifted=False, threshold=bar,
                n_flagged=0, flagged=[], baseline_age=0,
            )
        base_est, base_var = self._baseline
        if estimate.shape != base_est.shape:
            raise ConfigurationError(
                f"snapshot shape {estimate.shape} does not match baseline "
                f"{base_est.shape}"
            )
        self._baseline_age += 1
        sigma = np.sqrt(np.maximum(base_var + variance, _VAR_FLOOR))
        z = np.abs(estimate - base_est) / sigma
        score = float(z.max()) if z.size else 0.0
        over = np.argwhere(z > bar)
        if over.size:
            order = np.argsort(z[tuple(over.T)])[::-1][: self.max_flagged]
            flagged = [tuple(int(v) for v in over[i]) for i in order]
        else:
            flagged = []
        drifted = score > bar
        report = DriftReport(
            score=score,
            drifted=drifted,
            threshold=bar,
            n_flagged=int(over.shape[0]),
            flagged=flagged,
            baseline_age=self._baseline_age,
        )
        if drifted:
            self.n_drift_events += 1
            if rebaseline_on_drift:
                self.rebaseline(estimate, variance)
        return report
