"""Skewness-minimizing variable transforms.

For every numeric variable (response included) the candidate transforms are
``none``, ``log`` (natural) and ``sqrt``.  A candidate is admissible only
when every training value lies in its domain; among admissible candidates
the one with the smallest absolute b1 sample skewness wins, ties broken
toward the weaker transform (none > log > sqrt).  Categorical variables are
left alone.  The inverse transforms (identity, exp, square) are total, so
predictions can always be mapped back to the original scale.

:func:`_fold_b1` is the one definition of b1, the exact pass: over rows of
the (columns x rows) matrix it fills a (kinds x variables x folds) b1 array,
equal to :func:`skewness_b1` of each transformed column bit for bit, +inf
where a candidate is inadmissible, NaN where it is degenerate;
:func:`_least_skewed` takes its argmin of |b1| over the kinds.
:func:`calculate_transforms` runs the exact pass on one dataset.  A plan's
folds are screened, then get the exact pass where the screen is unsure:
:func:`_fold_choices` settles each fold's choices from whole-plan moment
sums where a rounding bound leaves no doubt about the argmin, and sends
the unsure folds through :func:`_fold_b1`, so every choice equals the
exact one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import CATEGORICAL, Dataset, _instance
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
#: where log and sqrt are defined; a NaN (a missing cell) counts as inside,
#: so that the transform passes it through as NaN
_DOMAIN = {LOG: lambda a: ~(a <= 0.0), SQRT: lambda a: ~(a < 0.0)}

#: cells of one stacked skewness pass; a larger set of folds takes several
_STACK_CELLS = 1 << 15

#: float64's unit roundoff, and the bounds beyond which _fold_choices's screen
#: settles nothing: see there
_U = 2.0 ** -53
_TINY = 2.0 ** -300
_HUGE = 2.0 ** 1000


def skewness_b1(values) -> float:
    """b1 sample skewness: g1 scaled by ((n-1)/n)^(3/2).

    g1 = m3 / m2^(3/2) with m_r the r-th central moment using a 1/n
    denominator.  Needs n >= 3 and values that are not all equal (tested
    exactly, as the computed variance of a constant sample need not be 0).
    A finite sample whose moments overflow is scaled down first.
    """
    a = np.asarray(values, dtype=float)
    n = a.size
    if n < 3:
        raise DegenerateSampleError(f"skewness needs at least 3 values, got {n}")
    if (a == a[0]).all():
        raise DegenerateSampleError("skewness undefined for a zero-variance sample")
    with np.errstate(over="ignore", invalid="ignore"):
        d = a - a.mean()
        m2 = np.mean(d * d)
        m3 = np.mean(d * d * d)
    if not (np.isfinite(m2) and np.isfinite(m3)) and np.isfinite(a).all():
        return skewness_b1(_scaled_down(a))  # a moment overflowed
    if m2 ** 1.5 == 0.0:  # so small that its 3/2 power underflows
        raise DegenerateSampleError("skewness undefined for a zero-variance sample")
    g1 = m3 / m2 ** 1.5
    return float(g1 * ((n - 1) / n) ** 1.5)


def _scaled_down(a: np.ndarray) -> np.ndarray:
    """Each row of finite ``a`` times the power of two that brings its largest
    magnitude below 1, so no moment of it overflows; exact, and b1 does not
    change with scale."""
    return np.ldexp(a, -np.frexp(np.abs(a).max(axis=-1, keepdims=True))[1])


class TransformEntry(NamedTuple):
    """One variable's choice, with each candidate's b1 or why it has none."""

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


def _skewness_rows(a: np.ndarray) -> np.ndarray:
    """:func:`skewness_b1` of each row of a 2-D array, or NaN.

    Summing along the contiguous last axis keeps the 1-D mean's pairwise
    order, so rows that are not contiguous are copied first (numpy sums them
    in another order); the last step stays on Python floats, as array
    ``** 1.5`` can differ from scalar ``pow`` in the last bit."""
    a = np.ascontiguousarray(a)
    n = a.shape[1]
    if n < 3:
        return np.full(a.shape[0], math.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        d = a - np.add.reduce(a, axis=1, keepdims=True) / n
        dd = d * d
        m2 = (np.add.reduce(dd, axis=1) / n).tolist()
        m3 = (np.add.reduce(dd * d, axis=1) / n).tolist()
    if not math.isfinite(sum(m2) + sum(m3)):  # a moment, or their sum, overflowed
        overflowed = np.isfinite(a).all(axis=1) & ~np.isfinite([m2, m3]).all(axis=0)
        if overflowed.any():
            return _skewness_rows(np.where(overflowed[:, None], _scaled_down(a), a))
    scale = ((n - 1) / n) ** 1.5
    flat = (a == a[:, :1]).all(axis=1).tolist()
    return np.array([math.nan if constant or (spread := s2 ** 1.5) == 0.0 else s3 / spread * scale
                     for constant, s2, s3 in zip(flat, m2, m3)], dtype=float)


def _forward_rows(values: np.ndarray) -> np.ndarray:
    """Each row under each transform, kind-major; a value outside a domain ends non-finite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.concatenate([_FORWARD[kind](values) for kind in TRANSFORM_KINDS])


def _fold_b1(forward: np.ndarray, trains: np.ndarray) -> np.ndarray:
    """The (kinds x variables x folds) b1 of ``_forward_rows`` output over each
    row of training positions ``trains``: +inf where a training cell is not
    finite (outside the kind's domain), NaN where the sample is degenerate."""
    rows, size = forward.shape[0], trains.shape[1]
    nonfinite = ~np.isfinite(forward)
    bad = np.flatnonzero(nonfinite.any(axis=1))
    if bad.size:
        # zeroed for the pass, as a non-finite cell sends its chunk down the overflow
        # check of _skewness_rows; their b1 is replaced after it
        forward = np.where(nonfinite, 0.0, forward)
    step = max(1, _STACK_CELLS // max(1, rows * size))
    # take gathers each chunk in C order, (rows x folds x size), so that each
    # fold's row is one contiguous run, as _skewness_rows needs
    chunks = [trains[at:at + step] for at in range(0, len(trains), step)]
    b1 = np.concatenate([_skewness_rows(forward.take(c, axis=1).reshape(rows * len(c), size))
                         .reshape(rows, -1) for c in chunks], axis=1)
    b1[bad] = np.where(nonfinite[bad][:, trains].any(axis=2), math.inf, b1[bad])
    return b1.reshape(len(TRANSFORM_KINDS), -1, len(trains))


def _fold_choices(forward: np.ndarray, tests: np.ndarray) -> np.ndarray:
    """``_least_skewed(_fold_b1(forward, trains))``, every choice the same, for
    ``_forward_rows`` output and the folds whose test rows the (folds x rows)
    mask ``tests`` holds, each fold testing at least one row.  A screen of
    moment sums settles most folds; the variables it leaves open go through
    :func:`_fold_b1`, grouped by the training size of their folds.

    The screen.  Each forward row is shifted by its mean c, y = x - c, and
    the sums of y, y^2 and y^3 over all N cells are taken (a non-finite cell
    adds 0 and is counted); a fold's training sums S_k are these less the
    sums over its test rows.  With n training rows and v = S1/n,
    m2 = S2/n - v^2, m3 = S3/n - v (3 S2/n - 2 v^2) and g = m3 / m2^1.5: b1
    over ((n-1)/n)^1.5, a factor that every kind of one fold shares.  A kind
    with a non-finite training cell is inadmissible, as in _fold_b1; the
    counts make that exact.

    The bound on |g - exact-path b1 / ((n-1)/n)^1.5| is set per row from the
    sums A_k of |y|^k over all N cells, with u = 2^-53 and a_k = A_k / n for
    the fewest training rows n of any fold, so that a_k bounds every fold's
    mean of |y|^k.

    * The screen's rounding.  A training sum is a total less a test sum, each
      over at most N terms of at most two rounded products, so it is off by
      at most (2N+4)u A_k.  Rounding y itself moves each value by at most
      u|y|, so m2 by at most 5u a2 and m3 by 25u a3.  With the dozen
      roundings that make m2 and m3, m2 is off by at most
      E2s = kappa (a2 + 3 a1^2) and m3 by
      E3s = kappa (a3 + 7 a1 (a2 + a1^2)), where kappa = (2.1N + 40)u.
    * The exact path's rounding (_skewness_rows).  Its mean of the raw
      training values is off by at most e = gamma (|c| + (1+kappa) a1),
      where gamma = (n'+8)u for the most training rows n' of any fold: the
      error of a sum scales with the sum of |x|, not of |x - c|.  Each
      term's other n'+5 roundings are relative, so its m2 is off by at most
      E2x = e^2 + gamma (U2 + e^2), where U2 = a2 + E2s bounds the true m2,
      and its m3 by E3x = 3 e U2 + e^3 + 4 gamma (8 (1+kappa) a3 + e^3), as
      the third absolute moment about the training mean is at most
      8 (1+kappa) a3.
    * Together, per cell.  With E2 = E2s + E2x, E3 = E3s + E3x and
      floor = m2 - E2s - E2, below the true m2 and both paths' computed m2,
      each path's m3 / m2^1.5 is within
      E3 / floor^1.5 + 1.5 (|m3| + E3s) E2 / floor^2.5 of the true one.
      64u (|g| + that) more covers the last roundings of both paths and of
      the bound.

    A (variable, fold) cell is settled when the admissible kind of least
    |g| + bound has |g| + bound below |g| - bound of every other admissible
    kind, strictly, so a tie never settles.  An admissible kind leaves its
    cell open where a NaN, which compares false, reaches the test, and:

    * where m2 <= 4 E2, as on a constant or two-valued training sample;
    * where A3 or N |c| + A1 reaches 2^1000, so that the exact path could
      overflow and scale the row down;
    * where floor <= 2^-300.  Above it, m2^1.5 is far from underflow, and
      the largest |y| exceeds 2^-175, so subnormal rounding stays hundreds
      of binary orders below the slack in kappa.

    A fold with an open cell is open.  Fewer than 3 training rows, where
    _fold_b1 gives NaN, need no case of their own: one value has m2 = 0, two
    have m3 = 0 under every kind, a tie, and where only none is admissible
    both sides choose it.
    """
    kinds, cells = len(TRANSFORM_KINDS), forward.shape[1]
    bad = ~np.isfinite(forward)
    tested = np.count_nonzero(tests, axis=1)
    size, at, starts = cells - tested, np.flatnonzero(tests) % cells, np.cumsum(tested) - tested

    def training(term):
        """``term``'s (rows x folds) sums over each fold's training cells."""
        return (np.add.reduce(term, axis=1, keepdims=True)
                - np.add.reduceat(term.take(at, axis=1), starts, axis=1))

    with np.errstate(all="ignore"):
        finite = np.where(bad, 0.0, forward)
        shift = (np.add.reduce(finite, axis=1, keepdims=True)
                 / np.maximum(cells - np.count_nonzero(bad, axis=1, keepdims=True), 1))
        y = (finite - shift) * ~bad
        square = y * y
        v, p = training(y) / size, training(square) / size
        m2 = p - v * v
        m3 = training(square * y) / size - v * (3 * p - 2 * v * v)
        admissible = training(bad.astype(float)) == 0
        # the bound's per-row terms
        magnitude, fewest = np.abs(y), size.min()
        total1 = np.add.reduce(magnitude, axis=1, keepdims=True)
        total2 = np.add.reduce(square, axis=1, keepdims=True)
        total3 = np.add.reduce(square * magnitude, axis=1, keepdims=True)
        a1, a2, a3 = total1 / fewest, total2 / fewest, total3 / fewest
        kappa, gamma = (2.1 * cells + 40) * _U, (size.max() + 8) * _U
        e2s = kappa * (a2 + 3 * a1 * a1)
        e3s = kappa * (a3 + 7 * a1 * (a2 + a1 * a1))
        e = gamma * (np.abs(shift) + (1 + kappa) * a1)
        u2 = a2 + e2s
        e2 = e2s + e * e + gamma * (u2 + e * e)
        e3 = e3s + 3 * e * u2 + e * e * e + 4 * gamma * (8 * (1 + kappa) * a3 + e * e * e)
        e2 = np.where((total3 < _HUGE) & (cells * np.abs(shift) + total1 < _HUGE), e2, math.inf)
        # and per cell
        floor = m2 - (e2s + e2)
        skew = np.abs(m3) / (m2 * np.sqrt(m2))
        bound = (e3 / floor + (np.abs(m3) + e3s) / floor * (1.5 * e2 / floor)) / np.sqrt(floor)
        bound += 64 * _U * (skew + bound)
        spread = np.where((m2 > 4 * e2) & (floor > _TINY), bound, math.inf)
        high = np.where(admissible, skew + spread, math.inf).reshape(kinds, -1, len(tests))
        low = np.where(admissible, skew - spread, math.inf).reshape(kinds, -1, len(tests))
        # settled where one kind, the best, is the only one whose low end does
        # not lie above the best high end
        settled = np.count_nonzero(~(low > high.min(axis=0)), axis=0) == 1
    chosen = high.argmin(axis=0)
    open_folds = np.flatnonzero(~settled.all(axis=0))
    for n in set(size[open_folds].tolist()):
        group = open_folds[size[open_folds] == n]
        rows = np.flatnonzero(~settled[:, group].all(axis=1))  # variables open in the group
        trains = (np.flatnonzero(~tests[group]) % cells).reshape(len(group), n)
        chosen[np.ix_(rows, group)] = _least_skewed(_fold_b1(
            forward.reshape(kinds, -1, cells)[:, rows].reshape(-1, cells), trains))
    return chosen


def calculate_transforms(training: Dataset) -> TransformTable:
    """Choose, per variable, the admissible transform of least |b1| skew; a
    missing or non-finite active numeric cell raises MissingValueError."""
    _instance(training, Dataset, SchemaError, "training data")
    schema, numeric = training.schema, training.schema.numeric
    values = training.values.take(numeric, axis=0)
    if not np.isfinite(values).all():
        training.require_no_missing("select transforms")
    b1 = _fold_b1(_forward_rows(values), np.arange(values.shape[1])[None])[..., 0]
    cells = np.where(np.isinf(b1), INADMISSIBLE,
                     np.where(np.isnan(b1), DEGENERATE, b1.astype(object))).T.tolist()
    scores = dict(zip(numeric, zip(_least_skewed(b1).tolist(), cells)))

    entries: dict[str, TransformEntry] = {}
    for i in schema.active:
        col = schema[i]
        if col.kind == CATEGORICAL:
            entries[col.name] = TransformEntry(col.name, NONE, None, {}, categorical=True)
            continue
        at, row = scores[i]
        best = row[at] if isinstance(row[at], float) else None
        entries[col.name] = TransformEntry(col.name, TRANSFORM_KINDS[at], best,
                                           dict(zip(TRANSFORM_KINDS, row)))
    return TransformTable(entries=entries, response=training.response_name)


def _least_skewed(b1: np.ndarray) -> np.ndarray:
    """The selection rule: the position along the first (kinds) axis of ``b1``
    of the least |b1|.  An inadmissible kind (+inf) and a degenerate one (NaN)
    both rank last; the first least wins, so ties go to the weaker transform
    and a variable with no b1 keeps the first."""
    return np.where(np.isnan(b1), np.inf, np.abs(b1)).argmin(axis=0)


def _domain_error(value: float, variable: str, row_id: int, kind: str) -> TransformDomainError:
    return TransformDomainError(f"value {float(value)!r} of variable {variable!r} in row "
                                f"{row_id} is outside the domain of the training-chosen "
                                f"{kind!r} transform")


def apply_transforms(table: TransformTable, ds: Dataset) -> Dataset:
    """Forward-transform every active numeric column; factors untouched.

    Raises a domain error naming the variable and the first row, then column,
    whose value lies outside the domain of the transform chosen on training
    data (say log was chosen and a test value is <= 0); a NaN cell stays NaN."""
    schema, entries = ds.schema, table.entries
    columns: dict[str, list[int]] = {}  # log and sqrt: the positions they apply to
    for i in schema.numeric:
        entry = entries.get(schema[i].name)
        if entry is None:
            raise SchemaError(f"transform table has no entry for variable {schema[i].name!r}")
        if entry.kind != NONE:
            columns.setdefault(entry.kind, []).append(i)
    out = ds.values.copy()
    outside = np.zeros(out.shape, dtype=bool)
    for kind, at in columns.items():
        outside[at] = ~_DOMAIN[kind](out[at])
    if outside.any():
        row, i = np.argwhere(outside.T)[0].tolist()  # the first row, then column
        raise _domain_error(out[i, row], schema[i].name, ds.ids[row], entries[schema[i].name].kind)
    for kind, at in columns.items():
        out[at] = _FORWARD[kind](out[at])
    return ds._derive(ds.ids, out)


def invert_predictions(table: TransformTable, predictions) -> list[float]:
    """Map predictions back to the original response scale."""
    if table.response not in table:
        raise SchemaError(f"transform table has no response entry {table.response!r}")
    kind = table.response_kind()
    # an overflow to inf is reported as E_PREDICT by PredictionSet, not as a warning
    with np.errstate(over="ignore"):
        return _INVERSE[kind](np.asarray(predictions, dtype=float)).tolist()
