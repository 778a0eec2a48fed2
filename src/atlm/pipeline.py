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

from .dataset import Dataset
from .errors import DegenerateSampleError, FitError, PredictionError
from .linear import (
    FittedLinearModel,
    UNSEEN_ERROR,
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
    """Row ids with aligned arrays of predicted and actual values, original scale."""

    row_ids: tuple[int, ...]
    predicted: np.ndarray
    actual: np.ndarray

    def __post_init__(self) -> None:
        for name in ("predicted", "actual"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        bad = ~(np.isfinite(self.predicted) & np.isfinite(self.actual))
        if bad.any():
            i = int(bad.argmax())
            raise PredictionError(
                f"non-finite prediction or actual for row {self.row_ids[i]}: "
                f"({float(self.predicted[i])!r}, {float(self.actual[i])!r})")

    def __len__(self) -> int:
        return len(self.row_ids)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PredictionSet) and self.row_ids == other.row_ids
                and np.array_equal(self.predicted, other.predicted)
                and np.array_equal(self.actual, other.actual))

    def to_csv_text(self) -> str:
        from .dataset import format_number
        lines = ["row_id,predicted,actual"]
        for rid, pred, actual in zip(self.row_ids, self.predicted.tolist(),
                                     self.actual.tolist()):
            lines.append(f"{rid},{format_number(pred)},{format_number(actual)}")
        return "\n".join(lines) + "\n"


def pooled(prediction_sets) -> PredictionSet:
    """Concatenate fold prediction sets, preserving fold order."""
    sets = list(prediction_sets)
    return PredictionSet(tuple(rid for ps in sets for rid in ps.row_ids),
                         np.concatenate([np.empty(0)] + [ps.predicted for ps in sets]),
                         np.concatenate([np.empty(0)] + [ps.actual for ps in sets]))


def atlm_fit(training: Dataset) -> AtlmModel:
    """Select transforms on the training data and fit the linear model."""
    training.require_no_missing("fit")
    if len(training) < 3:
        raise DegenerateSampleError(
            f"training dataset {training.name!r} has {len(training)} rows; "
            f"skewness selection needs at least 3")
    transforms = calculate_transforms(training)
    transformed = apply_transforms(transforms, training)
    design = build_design(transformed)
    width = design.matrix.shape[1]
    if len(training) < width:
        raise FitError(
            f"dataset {training.name!r} has {len(training)} rows but its schema "
            f"implies {width} design columns; need at least as many rows")
    linear = fit_ols(design, transformed.response_column(),
                     response_name=training.response_name)
    return AtlmModel(transforms=transforms, linear=linear)


def atlm_predict(model: AtlmModel, test: Dataset,
                 unseen_level: str = UNSEEN_ERROR) -> PredictionSet:
    """Predict the test rows on the original response scale."""
    test.require_no_missing("predict")
    transformed = apply_transforms(model.transforms, test)
    raw = linear_predict(model.linear, transformed, unseen_level=unseen_level)
    return PredictionSet(row_ids=test.ids,
                         predicted=invert_predictions(model.transforms, raw),
                         actual=test.response_column())
