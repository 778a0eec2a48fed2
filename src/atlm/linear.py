"""Least-squares linear model over a dummy-coded design matrix.

Categorical predictors are expanded with treatment contrasts: a factor with
L observed levels contributes L-1 indicator columns, compared from its
codes, against a reference level (the first level seen in the training
column).  The fit uses a column-pivoted Householder QR; columns whose
pivoted diagonal is zero or falls below ``RANK_TOL`` times the leading
diagonal are aliased (coefficient 0), so collinear feature sets still fit,
with predictions unaffected by which member of a dependent group is dropped.
Coefficients are keyed by design position: two columns may share a label.

The QR fit, :func:`_qr_solve`, calls LAPACK through scipy's wrappers:
``dgeqp3`` factors the design with column pivoting, ``dorgqr`` forms Q, and
``dtrtrs`` solves the leading rank x rank triangle of R against Q'y; the plan
path of :mod:`atlm.validation` calls it on designs gathered in Fortran order.
The first fit loads scipy's ``_flapack`` extension file on its own, so
neither ``import atlm`` nor a fit imports ``scipy.linalg``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, NUMERIC
from .errors import FitError, MissingValueError, SchemaError, UnseenLevelError

INTERCEPT = "intercept"

#: relative pivot magnitude below which a design column is aliased
RANK_TOL = 1e-7

#: FitError messages of a fit whose triangular solve breaks down
SINGULAR_FACTOR = "the triangular factor of the design is singular"
NON_FINITE_COEFFICIENT = "the fit gave a non-finite coefficient"


@dataclass(frozen=True)
class DesignMatrix:
    labels: tuple[str, ...]
    matrix: np.ndarray
    factor_levels: dict


@dataclass(frozen=True)
class FittedLinearModel:
    """One coefficient per design column, in ``design_labels`` order and 0.0 at
    the ``aliased`` positions, plus everything needed to rebuild a design."""

    coefficients: tuple[float, ...]
    aliased: frozenset[int]
    factor_levels: dict
    design_labels: tuple[str, ...]


def dummy_label(factor: str, level: str) -> str:
    return f"{factor}={level}"


def _unseen_level_error(factor: str, level: str, row_id: int) -> UnseenLevelError:
    return UnseenLevelError(f"factor {factor!r} has level {level!r} in row {row_id} "
                            f"that was not seen in training")


def _check_design(ds: Dataset) -> None:
    if not ds.schema.explanatory:
        raise SchemaError(f"dataset {ds.name!r} has no explanatory columns")


def build_design(ds: Dataset, levels: dict | None = None) -> DesignMatrix:
    """Intercept + numeric columns + L-1 dummy columns per factor, in schema order.

    ``levels`` is supplied at prediction time with the training level
    dictionaries; without it (training time) a factor's levels are the ones
    its codes use, in first appearance order, reference level first.  A
    missing factor cell raises MissingValueError, and a level that ``levels``
    lacks raises UnseenLevelError."""
    _check_design(ds)

    labels: list[str] = [INTERCEPT]
    # the design's columns, built as the rows of its transpose
    rows: list[np.ndarray] = [np.ones((1, len(ds)))]
    factor_levels: dict[str, tuple[str, ...]] = {}

    for i, col in ds.schema.explanatory:
        if col.kind == NUMERIC:
            labels.append(col.name)
            rows.append(ds.values[i:i + 1])
            continue
        gaps = np.isnan(ds.values[i])
        if gaps.any():
            raise MissingValueError(f"dataset {ds.name!r} has a missing value in factor "
                                    f"{col.name!r}, row {ds.ids[int(gaps.argmax())]}")
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
        if (index < 0).any():
            row = int(index.argmin())
            raise _unseen_level_error(col.name, names[codes[row]], ds.ids[row])
        factor_levels[col.name] = lvls
        labels.extend(dummy_label(col.name, level) for level in lvls[1:])
        rows.append(np.arange(1, len(lvls))[:, None] == index)

    return DesignMatrix(labels=tuple(labels),
                        matrix=np.ascontiguousarray(np.concatenate(rows, dtype=float).T),
                        factor_levels=factor_levels)


@functools.cache
def _lapack():
    """LAPACK's float64 geqp3, orgqr and trtrs, resolved on the first fit.

    They are read from scipy's ``linalg/_flapack`` extension, loaded on its
    own as ``atlm._flapack``, because importing ``scipy.linalg`` (and with it
    ``numpy.f2py``, ``numpy.random`` and ``numpy.polynomial``) costs more time
    and memory than a whole plan's fits.  Where that file lies is a scipy
    detail: when it is not found, ``get_lapack_funcs`` supplies the same
    wrappers."""
    path = _flapack_file()
    if path is None:
        from scipy.linalg import get_lapack_funcs
        return tuple(get_lapack_funcs(("geqp3", "orgqr", "trtrs"), dtype=np.float64))
    loader = importlib.machinery.ExtensionFileLoader("atlm._flapack", path)
    flapack = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location("atlm._flapack", path, loader=loader))
    loader.exec_module(flapack)
    return flapack.dgeqp3, flapack.dorgqr, flapack.dtrtrs


def _flapack_file() -> str | None:
    """The path of the installed scipy's ``linalg/_flapack`` extension, found
    without importing scipy, or None."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def fit_ols(design: DesignMatrix, y) -> FittedLinearModel:
    """Minimize ||y - X b|| by column-pivoted QR with rank detection.

    The LAPACK calls are the ones ``scipy.linalg.qr(x, mode="economic",
    pivoting=True)`` and ``solve_triangular`` make, with the same workspace
    sizes and triangle layout, so the coefficients equal theirs bit for bit."""
    x = design.matrix
    yv = np.asarray(y, dtype=float)
    n, p = x.shape
    if n != yv.size:
        raise FitError(f"design has {n} rows but response has {yv.size}")
    if n < 2:
        raise FitError("need at least 2 rows to fit")
    if not (np.isfinite(x).all() and np.isfinite(yv).all()):
        raise FitError("the design or the response has a non-finite value")
    if p == 0:
        raise FitError("no usable design columns")

    coefficients, aliased = _qr_solve(np.array(x, dtype=float, order="F"), yv)
    return FittedLinearModel(
        coefficients=tuple(coefficients.tolist()),
        aliased=aliased,
        factor_levels=dict(design.factor_levels),
        design_labels=design.labels,
    )


def _qr_solve(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, frozenset[int]]:
    """``(coefficients, aliased)`` of :func:`fit_ols` on a checked, Fortran-ordered
    ``design``, factored in place: one per column, 0 at the ``aliased`` positions."""
    geqp3, orgqr, trtrs = _lapack()
    factor_work, q_work = _workspace(*design.shape)
    qr, piv, tau, _, _ = geqp3(design, lwork=factor_work, overwrite_a=1)
    diag = np.abs(qr.diagonal()).tolist()
    if diag[0] <= 0.0:
        raise FitError("no usable design columns")
    # a subnormal leading pivot makes the threshold underflow to 0, so an
    # exactly zero pivot must be ruled out by itself
    threshold = RANK_TOL * diag[0]
    rank = len([d for d in diag if d >= threshold and d > 0.0])
    # R's leading triangle, transposed in Fortran order: solve_triangular hands
    # trtrs the C-ordered R this way, and the other layout rounds differently
    triangle = qr[:rank, :rank].T.copy(order="F")
    # Q's first min(rows, columns) columns, formed in place of the reflectors
    reflectors = qr[:, :min(design.shape)]
    q = orgqr(reflectors, tau, lwork=q_work, overwrite_a=1)[0]
    beta, info = trtrs(triangle, (q.T @ y)[:rank], lower=1, trans=1)
    if info > 0:
        raise FitError(SINGULAR_FACTOR)
    if not np.isfinite(beta).all():
        raise FitError(NON_FINITE_COEFFICIENT)
    coefficients = np.zeros(design.shape[1])
    piv -= 1  # geqp3 numbers columns from 1
    coefficients[piv[:rank]] = beta
    return coefficients, frozenset(piv[rank:].tolist())


@functools.cache
def _workspace(rows: int, columns: int) -> tuple[int, int]:
    """The optimal ``geqp3`` and ``orgqr`` workspace sizes that scipy asks
    LAPACK for, for a (rows x columns) design; blocking changes the rounding,
    so the fit uses these.  They depend on the shape alone, and a process
    meets few shapes."""
    geqp3, orgqr, _ = _lapack()
    design = np.zeros((rows, columns), order="F")
    reflectors = np.zeros((rows, min(rows, columns)), order="F")
    return (int(geqp3(design, lwork=-1)[3][0]),
            int(orgqr(reflectors, np.zeros(min(rows, columns)), lwork=-1)[1][0]))


def predict(model: FittedLinearModel, test: Dataset) -> np.ndarray:
    """Evaluate the fitted model on new rows; aliased columns contribute 0."""
    design = build_design(test, levels=model.factor_levels)
    if design.labels != model.design_labels:
        raise SchemaError(
            "test design does not match training design: "
            f"expected columns {list(model.design_labels)}, got {list(design.labels)}")
    # an overflow to inf is reported as E_PREDICT by PredictionSet, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        return design.matrix @ model.coefficients
