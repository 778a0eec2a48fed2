"""The end-to-end baseline model.

Fitting computes the transform table on the training data only and fits
the linear model on the transformed training data.  Prediction applies the
training-chosen transforms to the test data, evaluates the linear model,
and inverts the response transform so predictions land on the original
effort scale next to the untouched actual values.  Every stage works on
whole arrays, down to the :class:`PredictionSet`.  There are no tunable
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, _instance
from .errors import DegenerateSampleError, FitError, PredictionError, SchemaError
from .linear import (
    FittedLinearModel,
    build_design,
    fit_ols,
    predict as linear_predict,
)
from .transforms import (
    TransformTable,
    apply_transforms,
    calculate_transforms,
    invert_predictions,
)


@dataclass(frozen=True)
class AtlmModel:
    transforms: TransformTable
    linear: FittedLinearModel


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """Row ids with aligned arrays of predicted and actual values, original scale.

    ``row_ids`` is a sequence, stored as a tuple; ``predicted`` and ``actual``
    must be 1-D, one finite number per row id."""

    row_ids: tuple[int, ...]
    predicted: np.ndarray
    actual: np.ndarray

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "row_ids", tuple(self.row_ids))
        except TypeError:
            raise PredictionError(f"row_ids must be a sequence, got {self.row_ids!r}") from None
        for name in ("predicted", "actual"):
            value = getattr(self, name)
            try:
                array = np.asarray(value)
                if array.dtype.kind == "c":  # a cast would drop the imaginary part
                    raise TypeError
                object.__setattr__(self, name, array.astype(float, copy=False))
            except (TypeError, ValueError):  # not real numbers, or ragged
                raise PredictionError(f"{name} must be numbers, got {value!r}") from None
        if not self.predicted.shape == self.actual.shape == (len(self.row_ids),):
            raise PredictionError(
                f"predicted of shape {self.predicted.shape} and actual of shape "
                f"{self.actual.shape} do not fit {len(self.row_ids)} row ids")
        finite = np.isfinite(self.predicted) & np.isfinite(self.actual)
        if not finite.all():
            i = int(finite.argmin())
            raise _non_finite_error(self.row_ids[i], self.predicted[i], self.actual[i])

    @classmethod
    def _trusted(cls, row_ids: tuple[int, ...], predicted: np.ndarray,
                 actual: np.ndarray) -> "PredictionSet":
        """A PredictionSet built without the constructor's checks: the caller
        guarantees 1-D float64 arrays with one finite value per row id."""
        new = object.__new__(cls)
        new.__dict__.update(row_ids=row_ids, predicted=predicted, actual=actual)
        return new

    def __len__(self) -> int:
        return len(self.row_ids)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PredictionSet) and self.row_ids == other.row_ids
                and np.array_equal(self.predicted, other.predicted)
                and np.array_equal(self.actual, other.actual))


def _non_finite_error(row_id: int, predicted: float, actual: float) -> PredictionError:
    return PredictionError(f"non-finite prediction or actual for row {row_id}: "
                           f"({float(predicted)!r}, {float(actual)!r})")


def _too_few_rows_error(name: str, rows: int) -> DegenerateSampleError:
    return DegenerateSampleError(f"training dataset {name!r} has {rows} rows; "
                                 f"skewness selection needs at least 3")


def _too_narrow_error(name: str, rows: int, width: int) -> FitError:
    return FitError(f"dataset {name!r} has {rows} rows but its schema implies {width} "
                    f"design columns; need at least as many rows")


def pooled(prediction_sets) -> PredictionSet:
    """Concatenate fold prediction sets, preserving fold order."""
    sets = list(prediction_sets)
    return PredictionSet(tuple(rid for ps in sets for rid in ps.row_ids),
                         np.concatenate([np.empty(0)] + [ps.predicted for ps in sets]),
                         np.concatenate([np.empty(0)] + [ps.actual for ps in sets]))


def atlm_fit(training: Dataset) -> AtlmModel:
    """Select transforms on the training data and fit the linear model."""
    _instance(training, Dataset, SchemaError, "training data").require_no_missing("fit")
    if len(training) < 3:
        raise _too_few_rows_error(training.name, len(training))
    transforms = calculate_transforms(training)
    transformed = apply_transforms(transforms, training)
    design = build_design(transformed)
    width = design.matrix.shape[1]
    if len(training) < width:
        raise _too_narrow_error(training.name, len(training), width)
    linear = fit_ols(design, transformed.response_column())
    return AtlmModel(transforms=transforms, linear=linear)


def atlm_predict(model: AtlmModel, test: Dataset) -> PredictionSet:
    """Predict the test rows on the original response scale."""
    _instance(model, AtlmModel, PredictionError, "a model")
    _instance(test, Dataset, SchemaError, "test data").require_no_missing("predict")
    transformed = apply_transforms(model.transforms, test)
    raw = linear_predict(model.linear, transformed)
    return PredictionSet(row_ids=test.ids,
                         predicted=invert_predictions(model.transforms, raw),
                         actual=test.response_column())
