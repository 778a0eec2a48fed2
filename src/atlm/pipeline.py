"""The end-to-end baseline model.

Fitting computes the transform table on the training data only and fits
the linear model on the transformed training data.  Prediction applies the
training-chosen transforms to the test data, evaluates the linear model,
and inverts the response transform so predictions land on the original
effort scale next to the untouched actual values.  There are no tunable
parameters.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class PredictionSet:
    """Ordered (row id, predicted, actual) triples on the original scale."""

    rows: tuple[tuple[int, float, float], ...]

    def __post_init__(self) -> None:
        for rid, pred, actual in self.rows:
            if not (math.isfinite(pred) and math.isfinite(actual)):
                raise PredictionError(
                    f"non-finite prediction or actual for row {rid}: "
                    f"({pred!r}, {actual!r})")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def row_ids(self) -> tuple[int, ...]:
        return tuple(r[0] for r in self.rows)

    @property
    def predicted(self) -> np.ndarray:
        return np.array([r[1] for r in self.rows])

    @property
    def actual(self) -> np.ndarray:
        return np.array([r[2] for r in self.rows])

    def to_csv_text(self) -> str:
        from .dataset import format_number
        lines = ["row_id,predicted,actual"]
        for rid, pred, actual in self.rows:
            lines.append(f"{rid},{format_number(pred)},{format_number(actual)}")
        return "\n".join(lines) + "\n"


def pooled(prediction_sets) -> PredictionSet:
    """Concatenate fold prediction sets, preserving fold order."""
    rows: list[tuple[int, float, float]] = []
    for ps in prediction_sets:
        rows.extend(ps.rows)
    return PredictionSet(rows=tuple(rows))


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
    y = np.asarray(transformed.response_column(), dtype=float)
    linear = fit_ols(design, y, response_name=training.response_name)
    return AtlmModel(transforms=transforms, linear=linear)


def atlm_predict(model: AtlmModel, test: Dataset,
                 unseen_level: str = UNSEEN_ERROR) -> PredictionSet:
    """Predict the test rows on the original response scale."""
    test.require_no_missing("predict")
    transformed = apply_transforms(model.transforms, test)
    raw = linear_predict(model.linear, transformed, unseen_level=unseen_level)
    preds = invert_predictions(model.transforms, raw)
    actuals = test.response_column()
    return PredictionSet(rows=tuple(
        (rid, float(p), float(a))
        for rid, p, a in zip(test.ids, preds, actuals)))
