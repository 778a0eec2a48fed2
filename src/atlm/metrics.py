"""Error measures over prediction sets.

All residuals are predicted - actual.  Variances use the n-1 sample
denominator throughout.  Rows with nonpositive actuals make the relative
measures (MMRE, PRED, LSD) undefined and raise instead of being skipped,
since silently changing n corrupts comparisons; the variance-ratio and
standardized-accuracy measures stay computable.

The six functions :func:`mmre`, :func:`pred`, :func:`lsd`,
:func:`re_star`, :func:`sa` and :func:`mar` are the definitions, and
:func:`report` calls them in report order.  :func:`report_stack` scores a
whole group of equal-sized folds in one stacked pass (validation calls it
once per group of k-fold or holdout folds with the same test and training
sizes) and equals the definitions bit for bit.  It words no error itself: a
set where a definition is undefined gets None, and running that set through
:func:`report` raises the definition's error.

A measure that overflows is kept as inf (or NaN), with no warning, in the
definitions as in :func:`report_stack`.  :func:`lsd` needs no such guard: its
log ratios lie within +-1455.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, fields

import numpy as np

from .dataset import _instance
from .errors import MetricError
from .pipeline import PredictionSet

METRIC_FIELDS = ("mmre", "pred25", "lsd", "re_star", "sa", "mar")


@dataclass(frozen=True)
class MetricReport:
    """The error measures of one prediction set.  An output record, built by
    the package and not checked (see :mod:`atlm`)."""

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
    """Per-metric mean and n-1 standard deviation across fold reports.
    An output record, built by the package and not checked (see :mod:`atlm`)."""

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


def _size(ps: PredictionSet) -> int:
    """``len(ps)``; anything but a PredictionSet raises MetricError."""
    return len(_instance(ps, PredictionSet, MetricError, "a prediction set"))


def _relative_errors(ps: PredictionSet) -> np.ndarray:
    if np.any(ps.actual <= 0.0):
        raise MetricError("relative error undefined: actual values must be > 0")
    return np.abs(ps.predicted - ps.actual) / ps.actual


@np.errstate(over="ignore", invalid="ignore")
def mmre(ps: PredictionSet) -> float:
    """Mean magnitude of relative error."""
    if _size(ps) == 0:
        raise MetricError("empty prediction set")
    return float(np.mean(_relative_errors(ps)))


@np.errstate(over="ignore", invalid="ignore")
def pred(ps: PredictionSet, x: float = 25.0) -> float:
    """Fraction of rows whose relative error is within x percent (inclusive)."""
    # a bool is an int, and a NaN compares false with everything
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not x > 0:
        raise MetricError(f"pred threshold must be a positive number, got {x!r}")
    if _size(ps) == 0:
        raise MetricError("empty prediction set")
    return float(np.mean(_relative_errors(ps) <= x / 100.0))


@np.errstate(over="ignore", invalid="ignore")
def mar(ps: PredictionSet) -> float:
    """Mean absolute residual."""
    if _size(ps) == 0:
        raise MetricError("empty prediction set")
    return float(np.mean(np.abs(ps.predicted - ps.actual)))


@np.errstate(over="ignore", invalid="ignore")
def re_star(ps: PredictionSet) -> float:
    """Variance of residuals over variance of actuals.

    Exactly 1 for any constant predictor; below 1 for a useful one.
    Constant actuals are found by comparing the values themselves: the
    computed variance of equal values is not zero when their mean does not
    round back to them.  A variance that underflows to zero counts as
    constant too.
    """
    if _size(ps) < 2:
        raise MetricError("re_star needs at least 2 rows")
    var_actual = float(np.var(ps.actual, ddof=1))
    if (ps.actual == ps.actual[0]).all() or var_actual == 0.0:
        raise MetricError("re_star undefined for constant actuals")
    return float(np.var(ps.predicted - ps.actual, ddof=1) / var_actual)


def lsd(ps: PredictionSet) -> float:
    """Logarithmic standard deviation.

    With e_i = ln(actual_i) - ln(predicted_i) and s2 their sample variance:
    sqrt( sum_i (e_i + s2/2)^2 / (n-1) ).
    """
    if _size(ps) < 2:
        raise MetricError("lsd needs at least 2 rows")
    if np.any(ps.actual <= 0.0) or np.any(ps.predicted <= 0.0):
        raise MetricError("lsd undefined: actuals and predictions must be > 0")
    e = np.log(ps.actual) - np.log(ps.predicted)
    s2 = float(np.var(e, ddof=1))
    return float(math.sqrt(np.sum((e + s2 / 2.0) ** 2) / (len(ps) - 1)))


@np.errstate(over="ignore", invalid="ignore")
def sa(ps: PredictionSet, training_response) -> float:
    """Standardized accuracy: 1 - MAR / MAR_P0.

    MAR_P0 is the exact expectation of the mean absolute residual of a
    random guesser that predicts training response values: the mean of
    |actual_i - y_j| over all (test row i, training row j) pairs.
    """
    try:
        train = np.asarray(training_response)
        if train.dtype.kind == "c":  # a cast would drop the imaginary part
            raise TypeError
        train = train.astype(float, copy=False)
    except (TypeError, ValueError):
        raise MetricError("sa needs a 1-D training response sample, got a ragged "
                          "or non-numeric one") from None
    if train.ndim != 1:
        raise MetricError(f"sa needs a 1-D training response sample, got shape {train.shape}")
    if _size(ps) == 0:
        raise MetricError("empty prediction set")
    if train.size == 0:
        raise MetricError("sa needs a nonempty training response sample")
    if not np.isfinite(train).all():
        raise MetricError("sa needs a finite training response sample")
    mar_p0 = float(np.mean(np.abs(ps.actual[:, None] - train[None, :])))
    if mar_p0 == 0.0:
        raise MetricError("sa undefined: all actual and training values identical")
    return 1.0 - mar(ps) / mar_p0


def report(ps: PredictionSet, training_response) -> MetricReport:
    """All measures for one prediction set: the six definitions, in report order."""
    return MetricReport(_size(ps), mmre(ps), pred(ps), lsd(ps), re_star(ps),
                        sa(ps, training_response), mar(ps))


def report_stack(predicted, actual, training) -> list[MetricReport | None]:
    """All measures for each row of (sets x n) stacks of predicted and actual
    values, with a (sets x m) stack of each set's training response.

    Residuals, errors and log ratios are computed once.  Every mean, sum and
    variance is one ``np.add.reduce`` along the contiguous last axis, which
    adds a row in the same pairwise order as the 1-D ``np.mean``,
    ``np.sum`` and ``np.var`` of the definitions, so each field equals them
    bit for bit; MAR_P0 reduces each set's flattened (test x training)
    block.  The rows hold finite values, as a PredictionSet's do.  A set where
    a definition raises gets None in place of its report."""
    predicted, actual, training = (np.ascontiguousarray(a, dtype=float)
                                   for a in (predicted, actual, training))
    sets, n = actual.shape
    with np.errstate(all="ignore"):  # a set that this spoils gets None below
        residual = predicted - actual
        absolute = np.abs(residual)
        relative = absolute / actual
        log_ratio = np.log(actual) - np.log(predicted)
        s2 = _var(log_ratio)
        lsd_ = np.sqrt(_sum(np.square(log_ratio + (s2 / 2.0)[:, None])) / (n - 1))
        var_actual = _var(actual)
        mar_ = _sum(absolute) / n
        pairs = n * training.shape[1]
        mar_p0 = _sum(np.abs(actual[:, :, None] - training[:, None, :])
                      .reshape(sets, pairs)) / pairs
        measures = {
            "mmre": _sum(relative) / n,
            "pred25": _sum(relative <= 0.25) / n,
            "lsd": lsd_,
            "re_star": _var(residual) / var_actual,
            "sa": 1.0 - mar_ / mar_p0,
            "mar": mar_,
        }
    # the sets where a definition raises.  Fewer than 2 rows are constant
    # actuals (no rows vacuously), and MAR_P0 is 0 only for constant actuals
    # or a variance that underflows to 0, so neither needs a term of its own
    failing = ((actual <= 0.0).any(axis=1) | (predicted <= 0.0).any(axis=1)
               | (actual == actual[:, :1]).all(axis=1) | (var_actual == 0.0)
               | (training.shape[1] == 0) | ~np.isfinite(training).all(axis=1))
    columns = [measures[name].tolist() for name in METRIC_FIELDS]
    return [None if bad else MetricReport(n, *values)
            for bad, values in zip(failing.tolist(), zip(*columns))]


def _sum(a: np.ndarray) -> np.ndarray:
    return np.add.reduce(a, axis=1, dtype=float)


def _var(a: np.ndarray) -> np.ndarray:
    """Each row's ``np.var(row, ddof=1)``, bit for bit."""
    n = a.shape[1]
    d = a - (_sum(a) / n)[:, None]
    return _sum(d * d) / (n - 1)


def aggregate(reports) -> MetricSummary:
    """Elementwise mean and n-1 standard deviation across reports."""
    try:
        reports = list(reports)
    except TypeError:
        raise MetricError(f"aggregate needs an iterable of MetricReports, "
                          f"got {type(reports).__name__}") from None
    if not reports:
        raise MetricError("cannot aggregate an empty report list")
    for r in reports:
        _instance(r, MetricReport, MetricError, "each aggregated report")
    # (metrics x reports): each metric's row is reduced as its own 1-D array would be
    values = np.array(list(map(operator.attrgetter(*METRIC_FIELDS), reports)), dtype=float).T.copy()
    means, stds = (dict(zip(METRIC_FIELDS, row.tolist())) for row in _mean_std(values))
    return MetricSummary(means=means, stds=stds, n_reports=len(reports),
                         single_sample=len(reports) == 1)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result is kept as it is
def _mean_std(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's mean and n-1 standard deviation (0 for one value); finite rows
    whose sum or squares overflow are scaled down by a power of two first (exact)."""
    mean = values.mean(axis=1)
    std = values.std(axis=1, ddof=1) if values.shape[1] > 1 else np.zeros(len(values))
    redo = ~(np.isfinite(mean) & np.isfinite(std)) & np.isfinite(values).all(axis=1)
    if redo.any():
        exponent = np.frexp(np.abs(values[redo]).max(axis=1))[1]
        scaled = _mean_std(np.ldexp(values[redo], -exponent[:, None]))
        mean[redo], std[redo] = (np.ldexp(v, exponent) for v in scaled)
    return mean, std
