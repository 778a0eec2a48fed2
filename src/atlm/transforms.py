"""Skewness-minimizing variable transforms.

For every numeric variable (response included) the candidate transforms are
``none``, ``log`` (natural) and ``sqrt``.  A candidate is admissible only
when every training value lies in its domain; among admissible candidates
the one with the smallest absolute b1 sample skewness wins, ties broken
toward the weaker transform (none > log > sqrt).  Categorical variables are
left alone.  The inverse transforms (identity, exp, square) are total, so
predictions can always be mapped back to the original scale.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def forward_value(kind: str, value: float) -> float:
    return float(_FORWARD[kind](value))


def inverse_values(kind: str, values) -> np.ndarray:
    return np.asarray(_INVERSE[kind](np.asarray(values, dtype=float)), dtype=float)


def admissible(kind: str, values: np.ndarray) -> bool:
    if kind == LOG:
        return bool(np.all(values > 0.0))
    if kind == SQRT:
        return bool(np.all(values >= 0.0))
    return True


def in_domain(kind: str, value: float) -> bool:
    if kind == LOG:
        return value > 0.0
    if kind == SQRT:
        return value >= 0.0
    return True


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
    if m2 == 0.0:
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


def calculate_transforms(training: Dataset) -> TransformTable:
    """Choose, per variable, the admissible transform of least |b1| skew."""
    entries: dict[str, TransformEntry] = {}
    for col in training.active_columns():
        if col.kind == CATEGORICAL:
            entries[col.name] = TransformEntry(col.name, NONE, None, {}, categorical=True)
            continue
        values = np.asarray(training.column(col.name), dtype=float)
        skew_all: dict[str, object] = {}
        best_kind = NONE
        best_abs: float | None = None
        for kind in TRANSFORM_KINDS:
            if not admissible(kind, values):
                skew_all[kind] = INADMISSIBLE
                continue
            try:
                b1 = skewness_b1(_FORWARD[kind](values))
            except DegenerateSampleError:
                skew_all[kind] = DEGENERATE
                continue
            skew_all[kind] = b1
            if best_abs is None or abs(b1) < best_abs:
                best_abs = abs(b1)
                best_kind = kind
        chosen = skew_all.get(best_kind)
        entries[col.name] = TransformEntry(
            col.name, best_kind,
            chosen if isinstance(chosen, float) else None,
            skew_all)
    return TransformTable(entries=entries, response=training.response_name)


def apply_transforms(table: TransformTable, ds: Dataset) -> Dataset:
    """Forward-transform every numeric cell; categorical cells untouched.

    Raises a domain error naming the variable and row when a cell falls
    outside the domain of the transform chosen on training data (the
    typical case: log was chosen and a test value is <= 0).
    """
    active_numeric = [c.name for c in ds.active_columns() if c.kind == NUMERIC]
    for name in active_numeric:
        if name not in table:
            raise SchemaError(f"transform table has no entry for variable {name!r}")

    columns: dict[str, int] = {n: ds.column_index(n) for n in active_numeric}
    new_rows = []
    for rid, row in zip(ds.ids, ds.rows):
        cells = list(row)
        for name, i in columns.items():
            kind = table[name].kind
            if kind == NONE:
                continue
            value = cells[i]
            if value is None:
                continue
            if not in_domain(kind, value):
                raise TransformDomainError(
                    f"value {value!r} of variable {name!r} in row {rid} is outside "
                    f"the domain of the training-chosen {kind!r} transform")
            cells[i] = forward_value(kind, value)
        new_rows.append(tuple(cells))
    return Dataset(name=ds.name, schema=ds.schema, ids=ds.ids,
                   rows=tuple(new_rows), source_rows=ds.source_rows)


def invert_predictions(table: TransformTable, predictions) -> list[float]:
    """Map predictions back to the original response scale."""
    if table.response not in table:
        raise SchemaError(f"transform table has no response entry {table.response!r}")
    kind = table.response_kind()
    # an overflow to inf is reported as E_PREDICT by PredictionSet, not as a warning
    with np.errstate(over="ignore"):
        return [float(v) for v in inverse_values(kind, predictions)]
