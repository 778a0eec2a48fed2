"""Error measures over prediction sets.

All residuals are predicted - actual.  Variances use the n-1 sample
denominator throughout.  Rows with nonpositive actuals make the relative
measures (MMRE, PRED, LSD) undefined and raise instead of being skipped,
since silently changing n corrupts comparisons; the variance-ratio and
standardized-accuracy measures stay computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import MetricError
from .pipeline import PredictionSet

METRIC_FIELDS = ("mmre", "pred25", "lsd", "re_star", "sa", "mar")


@dataclass(frozen=True)
class MetricReport:
    n: int
    mmre: float
    pred25: float
    lsd: float
    re_star: float
    sa: float
    mar: float

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class MetricSummary:
    """Per-metric mean and n-1 standard deviation across fold reports."""

    means: dict
    stds: dict
    n_reports: int
    single_sample: bool

    def to_json_dict(self) -> dict:
        return {
            "n_reports": self.n_reports,
            "single_sample": self.single_sample,
            "metrics": {name: {"mean": self.means[name], "std": self.stds[name]}
                        for name in METRIC_FIELDS},
        }


def _relative_errors(ps: PredictionSet) -> np.ndarray:
    if np.any(ps.actual <= 0.0):
        raise MetricError("relative error undefined: actual values must be > 0")
    return np.abs(ps.predicted - ps.actual) / ps.actual


def mmre(ps: PredictionSet) -> float:
    """Mean magnitude of relative error."""
    if len(ps) == 0:
        raise MetricError("empty prediction set")
    return float(np.mean(_relative_errors(ps)))


def pred(ps: PredictionSet, x: float = 25.0) -> float:
    """Fraction of rows whose relative error is within x percent (inclusive)."""
    if x <= 0:
        raise MetricError(f"pred threshold must be positive, got {x}")
    if len(ps) == 0:
        raise MetricError("empty prediction set")
    return float(np.mean(_relative_errors(ps) <= x / 100.0))


def mar(ps: PredictionSet) -> float:
    """Mean absolute residual."""
    if len(ps) == 0:
        raise MetricError("empty prediction set")
    return float(np.mean(np.abs(ps.predicted - ps.actual)))


def re_star(ps: PredictionSet) -> float:
    """Variance of residuals over variance of actuals.

    Exactly 1 for any constant predictor; below 1 for a useful one.
    """
    if len(ps) < 2:
        raise MetricError("re_star needs at least 2 rows")
    var_actual = float(np.var(ps.actual, ddof=1))
    if var_actual == 0.0:
        raise MetricError("re_star undefined for constant actuals")
    return float(np.var(ps.predicted - ps.actual, ddof=1) / var_actual)


def lsd(ps: PredictionSet) -> float:
    """Logarithmic standard deviation.

    With e_i = ln(actual_i) - ln(predicted_i) and s2 their sample variance:
    sqrt( sum_i (e_i + s2/2)^2 / (n-1) ).
    """
    if len(ps) < 2:
        raise MetricError("lsd needs at least 2 rows")
    if np.any(ps.actual <= 0.0) or np.any(ps.predicted <= 0.0):
        raise MetricError("lsd undefined: actuals and predictions must be > 0")
    e = np.log(ps.actual) - np.log(ps.predicted)
    s2 = float(np.var(e, ddof=1))
    return float(math.sqrt(np.sum((e + s2 / 2.0) ** 2) / (len(ps) - 1)))


def sa(ps: PredictionSet, training_response) -> float:
    """Standardized accuracy: 1 - MAR / MAR_P0.

    MAR_P0 is the exact expectation of the mean absolute residual of a
    random guesser that predicts training response values: the mean of
    |actual_i - y_j| over all (test row i, training row j) pairs.
    """
    if len(ps) == 0:
        raise MetricError("empty prediction set")
    train = np.asarray(training_response, dtype=float)
    if train.size == 0:
        raise MetricError("sa needs a nonempty training response sample")
    mar_p0 = float(np.mean(np.abs(ps.actual[:, None] - train[None, :])))
    if mar_p0 == 0.0:
        raise MetricError("sa undefined: all actual and training values identical")
    return 1.0 - mar(ps) / mar_p0


def report(ps: PredictionSet, training_response) -> MetricReport:
    """All measures for one prediction set."""
    return MetricReport(
        n=len(ps),
        mmre=mmre(ps),
        pred25=pred(ps, 25.0),
        lsd=lsd(ps),
        re_star=re_star(ps),
        sa=sa(ps, training_response),
        mar=mar(ps),
    )


def aggregate(reports) -> MetricSummary:
    """Elementwise mean and n-1 standard deviation across reports."""
    reports = list(reports)
    if not reports:
        raise MetricError("cannot aggregate an empty report list")
    means = {}
    stds = {}
    for name in METRIC_FIELDS:
        values = np.array([getattr(r, name) for r in reports])
        means[name] = float(values.mean())
        stds[name] = 0.0 if len(reports) == 1 else float(values.std(ddof=1))
    return MetricSummary(means=means, stds=stds,
                         n_reports=len(reports),
                         single_sample=len(reports) == 1)
