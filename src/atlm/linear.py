"""Least-squares linear model over a dummy-coded design matrix.

Categorical predictors are expanded with treatment contrasts: a factor with
L observed levels contributes L-1 indicator columns, compared from its
codes, against a reference level (the first level seen in the training
column).  The fit uses a column-pivoted Householder QR; columns whose
pivoted diagonal falls below ``RANK_TOL`` times the leading diagonal are
aliased (dropped with no coefficient), so deliberately collinear feature
sets still fit, with predictions unaffected by which member of a dependent
group is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dataset import Dataset, NUMERIC, RESPONSE
from .errors import FitError, SchemaError, UnseenLevelError

INTERCEPT = "intercept"

UNSEEN_ERROR = "error"
UNSEEN_AS_REFERENCE = "as-reference"
UNSEEN_POLICIES = (UNSEEN_ERROR, UNSEEN_AS_REFERENCE)

#: relative pivot magnitude below which a design column is aliased
RANK_TOL = 1e-7


@dataclass(frozen=True)
class DesignMatrix:
    labels: tuple[str, ...]
    matrix: np.ndarray
    factor_levels: dict


@dataclass(frozen=True)
class FittedLinearModel:
    """Estimated coefficients plus everything needed to rebuild a design."""

    coefficients: dict
    aliased: frozenset
    factor_levels: dict
    design_labels: tuple[str, ...]
    response_name: str

    def coefficient_vector(self) -> np.ndarray:
        return np.array([self.coefficients.get(label, 0.0)
                         for label in self.design_labels])


def dummy_label(factor: str, level: str) -> str:
    return f"{factor}={level}"


def build_design(ds: Dataset, levels: dict | None = None,
                 unseen_level: str = UNSEEN_ERROR) -> DesignMatrix:
    """Intercept + numeric columns + L-1 dummy columns per factor, in schema order.

    ``levels`` is supplied at prediction time with the training level
    dictionaries; without it (training time) a factor's levels are the ones
    its codes use, in first appearance order, reference level first.
    """
    if unseen_level not in UNSEEN_POLICIES:
        raise SchemaError(f"unknown unseen-level policy {unseen_level!r}")
    explanatory = [c for c in ds.active_columns() if c.role != RESPONSE]
    if not explanatory:
        raise SchemaError(f"dataset {ds.name!r} has no explanatory columns")

    labels: list[str] = [INTERCEPT]
    # the design's columns, built as the rows of its transpose
    rows: list[np.ndarray] = [np.ones((1, len(ds)))]
    factor_levels: dict[str, tuple[str, ...]] = {}

    for col in explanatory:
        i = ds.column_index(col.name)
        if col.kind == NUMERIC:
            labels.append(col.name)
            rows.append(ds.values[i:i + 1])
            continue
        codes, names = ds.values[i].astype(np.intp), ds.levels[i]
        if levels is None:
            lvls = tuple(names[c] for c in dict.fromkeys(codes.tolist()))
        elif col.name in levels:
            lvls = tuple(levels[col.name])
        else:
            raise SchemaError(f"no training levels recorded for factor {col.name!r}")
        # each row's position in lvls; -1 for a level training never saw
        position = {level: k for k, level in enumerate(lvls)}
        index = np.array([position.get(level, -1) for level in names], dtype=np.intp)[codes]
        if unseen_level == UNSEEN_ERROR and (index < 0).any():
            row = int(index.argmin())
            raise UnseenLevelError(
                f"factor {col.name!r} has level {names[codes[row]]!r} in row "
                f"{ds.ids[row]} that was not seen in training")
        factor_levels[col.name] = lvls
        labels.extend(dummy_label(col.name, level) for level in lvls[1:])
        rows.append(np.arange(1, len(lvls))[:, None] == index)

    return DesignMatrix(labels=tuple(labels),
                        matrix=np.ascontiguousarray(np.concatenate(rows, dtype=float).T),
                        factor_levels=factor_levels)


def fit_ols(design: DesignMatrix, y, response_name: str = "y") -> FittedLinearModel:
    """Minimize ||y - X b|| by column-pivoted QR with rank detection."""
    x = design.matrix
    yv = np.asarray(y, dtype=float)
    n, p = x.shape
    if n != yv.size:
        raise FitError(f"design has {n} rows but response has {yv.size}")
    if n < 2:
        raise FitError("need at least 2 rows to fit")

    q, r, piv = scipy.linalg.qr(x, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] <= 0.0:
        raise FitError("no usable design columns")
    rank = int(np.count_nonzero(diag >= RANK_TOL * diag[0]))
    if rank == 0:
        raise FitError("no usable design columns")

    qty = q.T @ yv
    beta = scipy.linalg.solve_triangular(r[:rank, :rank], qty[:rank])

    coefficients = {design.labels[piv[i]]: float(beta[i]) for i in range(rank)}
    aliased = frozenset(design.labels[piv[i]] for i in range(rank, p))
    return FittedLinearModel(
        coefficients=coefficients,
        aliased=aliased,
        factor_levels=dict(design.factor_levels),
        design_labels=design.labels,
        response_name=response_name,
    )


def predict(model: FittedLinearModel, test: Dataset,
            unseen_level: str = UNSEEN_ERROR) -> np.ndarray:
    """Evaluate the fitted model on new rows; aliased columns contribute 0."""
    design = build_design(test, levels=model.factor_levels, unseen_level=unseen_level)
    if design.labels != model.design_labels:
        raise SchemaError(
            "test design does not match training design: "
            f"expected columns {list(model.design_labels)}, got {list(design.labels)}")
    return design.matrix @ model.coefficient_vector()
