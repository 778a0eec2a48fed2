"""Skewness-minimizing variable transforms.

For every numeric variable (response included) the candidate transforms are
``none``, ``log`` (natural) and ``sqrt``.  A candidate is admissible only
when every training value lies in its domain; among admissible candidates
the one with the smallest absolute b1 sample skewness wins, ties broken
toward the weaker transform (none > log > sqrt).  Categorical variables are
left alone.  The inverse transforms (identity, exp, square) are total, so
predictions can always be mapped back to the original scale.

Both directions work on rows of the dataset's (columns x rows) matrix: one
moments pass scores every candidate of every variable, and the b1 values
equal :func:`skewness_b1` of each transformed column bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import CATEGORICAL, Dataset, NUMERIC
from .errors import DegenerateSampleError, SchemaError, TransformDomainError

NONE = "none"
LOG = "log"
SQRT = "sqrt"

#: candidate order; also the tie-breaking preference order
TRANSFORM_KINDS = (NONE, LOG, SQRT)

INADMISSIBLE = "inadmissible"
DEGENERATE = "degenerate"

_FORWARD = {NONE: lambda a: a, LOG: np.log, SQRT: np.sqrt}
_INVERSE = {NONE: lambda a: a, LOG: np.exp, SQRT: np.square}
#: where each transform is defined
_DOMAIN = {NONE: lambda a: np.full(a.shape, True), LOG: lambda a: a > 0.0,
           SQRT: lambda a: a >= 0.0}


def inverse_values(kind: str, values) -> np.ndarray:
    return np.asarray(_INVERSE[kind](np.asarray(values, dtype=float)), dtype=float)


def skewness_b1(values) -> float:
    """b1 sample skewness: g1 scaled by ((n-1)/n)^(3/2).

    g1 = m3 / m2^(3/2) with m_r the r-th central moment using a 1/n
    denominator.  Needs n >= 3 and positive variance.
    """
    a = np.asarray(values, dtype=float)
    n = a.size
    if n < 3:
        raise DegenerateSampleError(f"skewness needs at least 3 values, got {n}")
    mean = a.mean()
    d = a - mean
    m2 = np.mean(d * d)
    if m2 ** 1.5 == 0.0:  # zero, or so small that its 3/2 power underflows
        raise DegenerateSampleError("skewness undefined for a zero-variance sample")
    m3 = np.mean(d * d * d)
    g1 = m3 / m2 ** 1.5
    return float(g1 * ((n - 1) / n) ** 1.5)


@dataclass(frozen=True)
class TransformEntry:
    variable: str
    kind: str
    skewness_chosen: float | None
    skewness_all: dict
    categorical: bool = False

    def describe(self, kind: str) -> str:
        value = self.skewness_all.get(kind)
        if value is None or isinstance(value, str):
            return value or "-"
        return f"{value:.6g}"


@dataclass(frozen=True)
class TransformTable:
    """Per-variable transform choices computed from one training dataset."""

    entries: dict
    response: str

    def __getitem__(self, variable: str) -> TransformEntry:
        return self.entries[variable]

    def __contains__(self, variable: str) -> bool:
        return variable in self.entries

    def response_kind(self) -> str:
        return self.entries[self.response].kind

    def to_json_dict(self) -> dict:
        return {
            "response": self.response,
            "variables": {
                name: {
                    "kind": e.kind,
                    "categorical": e.categorical,
                    "skewness_chosen": e.skewness_chosen,
                    "skewness": e.skewness_all,
                }
                for name, e in self.entries.items()
            },
        }


def _skewness_rows(a: np.ndarray) -> list:
    """:func:`skewness_b1` of each row of a C-contiguous 2-D array, or DEGENERATE.

    Summing along the contiguous last axis keeps the 1-D mean's pairwise
    order; the last step stays on Python floats, as array ``** 1.5`` can
    differ from scalar ``pow`` in the last bit."""
    n = a.shape[1]
    if n < 3:
        return [DEGENERATE] * a.shape[0]
    d = a - np.add.reduce(a, axis=1, keepdims=True) / n
    dd = d * d
    m2 = (np.add.reduce(dd, axis=1) / n).tolist()
    m3 = (np.add.reduce(dd * d, axis=1) / n).tolist()
    scale = ((n - 1) / n) ** 1.5
    return [DEGENERATE if (spread := s2 ** 1.5) == 0.0 else s3 / spread * scale
            for s2, s3 in zip(m2, m3)]


def calculate_transforms(training: Dataset) -> TransformTable:
    """Choose, per variable, the admissible transform of least |b1| skew."""
    numeric = [c.name for c in training.active_columns() if c.kind == NUMERIC]
    values = training.values[[training.column_index(name) for name in numeric]]
    admissible = {kind: _DOMAIN[kind](values).all(axis=1) for kind in TRANSFORM_KINDS}
    b1 = iter(_skewness_rows(np.concatenate(
        [_FORWARD[kind](values[ok]) for kind, ok in admissible.items()])))
    skews: dict[str, dict] = {name: {} for name in numeric}
    for kind, ok in admissible.items():
        for name, valid in zip(numeric, ok.tolist()):
            skews[name][kind] = next(b1) if valid else INADMISSIBLE

    entries: dict[str, TransformEntry] = {}
    for col in training.active_columns():
        if col.kind == CATEGORICAL:
            entries[col.name] = TransformEntry(col.name, NONE, None, {}, categorical=True)
            continue
        skew_all = skews[col.name]
        best_kind, best = NONE, None
        for kind, value in skew_all.items():
            # strictly less, so ties go to the weaker transform
            if isinstance(value, float) and (best is None or abs(value) < abs(best)):
                best_kind, best = kind, value
        entries[col.name] = TransformEntry(col.name, best_kind, best, skew_all)
    return TransformTable(entries=entries, response=training.response_name)


def apply_transforms(table: TransformTable, ds: Dataset) -> Dataset:
    """Forward-transform every active numeric column; factors untouched.

    Raises a domain error naming the variable and the first row whose value
    lies outside the domain of the transform chosen on training data (the
    typical case: log was chosen and a test value is <= 0); missing cells
    are passed over."""
    numeric = [c.name for c in ds.active_columns() if c.kind == NUMERIC]
    for name in numeric:
        if name not in table:
            raise SchemaError(f"transform table has no entry for variable {name!r}")

    columns = {kind: [ds.column_index(n) for n in numeric if table[n].kind == kind]
               for kind in (LOG, SQRT)}
    outside = np.zeros_like(ds.missing)
    for kind, at in columns.items():
        outside[at] = ~_DOMAIN[kind](ds.values[at])
    outside &= ~ds.missing
    if outside.any():
        row = int(outside.any(axis=0).argmax())
        i = int(outside[:, row].argmax())
        name = ds.schema[i].name
        raise TransformDomainError(
            f"value {float(ds.values[i, row])!r} of variable {name!r} in row "
            f"{ds.ids[row]} is outside the domain of the training-chosen "
            f"{table[name].kind!r} transform")
    out = ds.values.copy()
    for kind, at in columns.items():
        out[at] = _FORWARD[kind](ds.values[at])
    return replace(ds, values=out)


def invert_predictions(table: TransformTable, predictions) -> list[float]:
    """Map predictions back to the original response scale."""
    if table.response not in table:
        raise SchemaError(f"transform table has no response entry {table.response!r}")
    kind = table.response_kind()
    # an overflow to inf is reported as E_PREDICT by PredictionSet, not as a warning
    with np.errstate(over="ignore"):
        return inverse_values(kind, predictions).tolist()
