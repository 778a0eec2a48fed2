"""Sampling regimes and the evaluation harness.

Fold generation is a pure function of (dataset content hash, plan): the
PCG32 stream is selected by the dataset fingerprint and seeded by the plan
seed, so identical inputs give identical folds on any machine, and two
models evaluated under the same plan see byte-identical splits.

A plan's folds are one (folds x rows) boolean mask of test rows over row
positions, from generation to scoring; a fold trains on the rows its mask
leaves out.  A :class:`FoldAssignment` holds the masks with the dataset's ids;
row ids appear only where its folds are read as (train ids, test ids)
tuples or written as export JSON (``report.fold_assignment_json_text``),
and in the :class:`~atlm.pipeline.PredictionSet` of each fold.

A call computes the fingerprint once and fits and scores in one pass a
plan's folds, or an experiment's runs as their stacked masks, each fold to
one :class:`FoldOutcome` in fold order.
Once per pass, each numeric row is transformed every way into one
(candidates x rows) matrix, and one ``transforms._fold_choices`` call picks
every fold's transforms: a screen of whole-pass moment sums, then the exact
b1 pass of ``transforms._fold_b1`` where the screen is unsure.  One
``_designs`` pass then gives every fold its design's candidate rows, in
build_design's order: the chosen numeric rows, and each factor's levels in
the order its training rows first hold them; and the fold's first error
that a fit does not raise.  ``_fit_group`` fits each group of folds of one
training size from their training and test positions: each fold with a
design gathers it from the matrix, in Fortran order, for
``linear._qr_solve``.  Only that gather, the solve and the product of the
fold's test rows with its coefficients run per fold; the inverse transform,
the finiteness check, the ids and actuals of the PredictionSets and the
metric reports run once per group.  Each fold equals a fit of its rows
through the public single-model API (``atlm_fit``, ``atlm_predict``), the
oracle of this path, failures included: the plan path words every per-fold
error in the public path's order, through the same helpers.  Inputs that
fail every fold are refused before any fit, in this order: a PlanError, then
no explanatory column (SchemaError), then a missing or non-finite active
cell (MissingValueError).  A failed fold (transform domain violation, a test
factor level that training lacks, ...) carries the error's code and message
instead of predictions; it is excluded from aggregation but never silently
dropped.  Leave-one-out test sets are singletons, on which the
variance-based measures are undefined, so its metrics are computed once
over the pooled predictions.  k-fold and holdout folds are scored as they
are predicted, one :func:`~atlm.metrics.report_stack` pass per group of every
stacked run, and their reports are aggregated.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dataset import CATEGORICAL, Dataset, _instance, _integer
from .errors import FitError, PlanError, SchemaError, ValidationError
from .linear import _check_design, _qr_solve, _unseen_level_error
from .metrics import MetricReport, MetricSummary, aggregate, report, report_stack
from .pipeline import (PredictionSet, _non_finite_error, _too_few_rows_error,
                       _too_narrow_error, pooled)
from .rng import Pcg32
from .transforms import (TRANSFORM_KINDS, _INVERSE, _domain_error, _fold_choices,
                         _forward_rows)

LOOCV = "loocv"
KFOLD = "kfold"
HOLDOUT = "holdout"

_MAX_SEED = (1 << 64) - 1


@dataclass(frozen=True)
class ValidationPlan:
    kind: str
    seed: int = 1
    k: int | None = None
    test_size: int | None = None
    repeats: int | None = None

    def __post_init__(self) -> None:
        for name in ("seed", "k", "test_size", "repeats"):
            value = getattr(self, name)
            if value is not None or name == "seed":
                object.__setattr__(self, name, _integer(name, value, PlanError))
        if not (0 <= self.seed <= _MAX_SEED):
            raise PlanError(f"seed must fit in 64 bits, got {self.seed}")
        if not isinstance(self.kind, str):
            raise PlanError(f"a plan kind must be text, got {self.kind!r}")
        if self.kind == LOOCV:
            if self.k is not None or self.test_size is not None or self.repeats is not None:
                raise PlanError("loocv takes no k/test_size/repeats")
        elif self.kind == KFOLD:
            if self.k is None or self.k < 2:
                raise PlanError(f"kfold needs k >= 2, got {self.k}")
            if self.test_size is not None or self.repeats is not None:
                raise PlanError("kfold takes no test_size/repeats")
        elif self.kind == HOLDOUT:
            if self.test_size is None or self.test_size < 1:
                raise PlanError(f"holdout needs test_size >= 1, got {self.test_size}")
            if self.repeats is None or self.repeats < 1:
                raise PlanError(f"holdout needs repeats >= 1, got {self.repeats}")
            if self.k is not None:
                raise PlanError("holdout takes no k")
        else:
            raise PlanError(f"unknown plan kind {self.kind!r}")

    def label(self) -> str:
        if self.kind == LOOCV:
            return "loocv"
        if self.kind == KFOLD:
            return f"kfold:{self.k}"
        return f"holdout:{self.test_size}x{self.repeats}"

    @classmethod
    def parse(cls, text: str, seed: int = 1) -> "ValidationPlan":
        """Parse ``loocv``, ``kfold:K`` or ``holdout:SxR``."""
        if not isinstance(text, str):
            raise PlanError(f"a plan must be text, got {text!r}")
        text = text.strip()
        if text == LOOCV:
            return cls(kind=LOOCV, seed=seed)
        if text.startswith("kfold:"):
            try:
                k = int(text.split(":", 1)[1])
            except ValueError:
                raise PlanError(f"bad kfold spec {text!r}") from None
            return cls(kind=KFOLD, seed=seed, k=k)
        if text.startswith("holdout:"):
            spec = text.split(":", 1)[1]
            parts = spec.split("x")
            if len(parts) != 2:
                raise PlanError(f"bad holdout spec {text!r}, expected holdout:SxR")
            try:
                size, repeats = int(parts[0]), int(parts[1])
            except ValueError:
                raise PlanError(f"bad holdout spec {text!r}") from None
            return cls(kind=HOLDOUT, seed=seed, test_size=size, repeats=repeats)
        raise PlanError(f"unknown plan {text!r}; expected loocv, kfold:K or holdout:SxR")


@dataclass(frozen=True, eq=False)
class FoldAssignment:
    """A plan's folds over a dataset: the dataset's row ``ids`` and the plan's
    (folds x rows) boolean ``tests`` mask over their positions, which
    :func:`generate_folds` makes read-only.  A fold trains on the rows its
    mask leaves out.  An output record, built by the package and not checked
    (see :mod:`atlm`)."""

    plan: ValidationPlan
    dataset_fingerprint: str
    ids: tuple[int, ...]
    tests: np.ndarray

    def __len__(self) -> int:
        return len(self.tests)

    def __eq__(self, other) -> bool:
        """Same plan, fingerprint, ids and test masks."""
        return isinstance(other, FoldAssignment) and (
            (self.plan, self.dataset_fingerprint, self.ids)
            == (other.plan, other.dataset_fingerprint, other.ids)
            and np.array_equal(self.tests, other.tests))

    @cached_property
    def folds(self) -> tuple:
        """Each fold as a (train ids, test ids) pair, both sides in the
        dataset's row order."""
        ids = np.array(self.ids, dtype=object)  # ints of any size, as they are
        return tuple((tuple(ids[~test].tolist()), tuple(ids[test].tolist()))
                     for test in self.tests)

    def to_json_dict(self) -> dict:
        return {
            "plan": self.plan.label(),
            "seed": self.plan.seed,
            "dataset_fingerprint": self.dataset_fingerprint,
            "folds": [{"train": train, "test": test} for train, test in self.folds],
        }


def _test_masks(ds: Dataset, plan: ValidationPlan, fingerprint: str) -> np.ndarray:
    """The plan's (folds x rows) boolean test masks, given ``fingerprint =
    ds.fingerprint()``; see the module docstring.  The shuffles permute row positions."""
    n = len(ds)
    if plan.kind == LOOCV:
        if n == 0:
            raise PlanError(f"loocv has no folds in the 0 rows of {ds.name!r}")
        return np.eye(n, dtype=bool)
    rng = Pcg32(plan.seed, stream=int(fingerprint[:16], 16))
    if plan.kind == KFOLD:
        if plan.k > n:
            raise PlanError(f"kfold k={plan.k} exceeds {n} rows of {ds.name!r}")
        order = list(range(n))
        rng.shuffle(order)
        base, extra = divmod(n, plan.k)
        fold_of = np.empty(n, dtype=np.intp)
        fold_of[order] = np.repeat(np.arange(plan.k), [base + (i < extra) for i in range(plan.k)])
        return fold_of == np.arange(plan.k)[:, None]
    if plan.test_size >= n:
        raise PlanError(
            f"holdout test_size={plan.test_size} must be below {n} rows of {ds.name!r}")
    orders = [list(range(n)) for _ in range(plan.repeats)]
    rng.shuffle(*orders)
    tests = np.zeros((plan.repeats, n), dtype=bool)
    tests[np.arange(plan.repeats)[:, None], [o[:plan.test_size] for o in orders]] = True
    return tests


def _fingerprint(ds: Dataset, plans: list) -> str:
    """``ds.fingerprint()``, once ``ds`` is a Dataset (else SchemaError) and each
    of ``plans`` a ValidationPlan (else PlanError)."""
    _instance(ds, Dataset, SchemaError, "a dataset")
    for plan in plans:
        if not isinstance(plan, ValidationPlan):
            raise PlanError(f"a plan must be of type ValidationPlan, got {type(plan).__name__}; "
                            f"ValidationPlan.parse reads plan text such as 'kfold:10'")
    return ds.fingerprint()


def generate_folds(ds: Dataset, plan: ValidationPlan) -> FoldAssignment:
    """The plan's folds over ``ds``, as its ids and the plan's read-only test masks."""
    fingerprint = _fingerprint(ds, [plan])
    tests = _test_masks(ds, plan, fingerprint)
    tests.flags.writeable = False
    return FoldAssignment(plan, fingerprint, ds.ids, tests)


@dataclass(frozen=True)
class FoldOutcome:
    """What one fold of a plan produced.

    A successful fold has ``predictions``, plus a metric ``report`` under
    k-fold and holdout plans.  A failed fold has the ``code`` and
    ``message`` of the error that stopped it, and no predictions.
    An output record, built by the package and not checked (see :mod:`atlm`).
    """

    fold: int
    predictions: PredictionSet | None = None
    report: MetricReport | None = None
    code: str | None = None
    message: str | None = None

    @property
    def failed(self) -> bool:
        return self.code is not None


@dataclass(frozen=True)
class ValidationResult:
    """A plan's fold outcomes over one dataset, with their pooled report (LOOCV
    only) and the summary of the scored reports: the folds' (k-fold and
    holdout), or the one pooled report (a single-sample summary).  An output
    record, built by the package and not checked (see :mod:`atlm`)."""

    dataset_name: str
    dataset_fingerprint: str
    plan: ValidationPlan
    outcomes: tuple[FoldOutcome, ...]
    pooled_report: MetricReport | None
    summary: MetricSummary

    @property
    def n_folds(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> tuple[FoldOutcome, ...]:
        return tuple(o for o in self.outcomes if o.failed)

    @property
    def n_succeeded(self) -> int:
        return self.n_folds - len(self.failures)


def _fit_plan(ds: Dataset, tests: np.ndarray) -> list[FoldOutcome]:
    """Every fold's outcome, as a fit of its rows through the public API gives it,
    once the caller has refused the inputs that fail every fold (_run_plans)."""
    schema, sizes = ds.schema, np.count_nonzero(~tests, axis=1)
    candidates, factors = _candidates(ds)
    chosen = _fold_choices(candidates[1:1 + len(TRANSFORM_KINDS) * len(schema.numeric)], tests)
    designs, errors = _designs(ds, candidates, factors, tests, sizes, chosen)
    kinds, outcomes = chosen[schema.numeric.index(schema.response)], [None] * len(tests)
    for size in set(sizes.tolist()):
        for outcome in _fit_group(ds, candidates, tests, np.flatnonzero(sizes == size),
                                  designs, errors, kinds):
            outcomes[outcome.fold] = outcome
    return outcomes


def _candidates(ds: Dataset):
    """``(candidates, factors)``: the (candidates x rows) matrix of the
    intercept, the ``_forward_rows`` rows and one indicator per factor level;
    and each factor's codes and first indicator."""
    schema, values = ds.schema, ds.values.take(ds.schema.numeric, axis=0)
    blocks, factors = [np.ones((1, len(ds))), _forward_rows(values)], {}
    for i, col in schema.explanatory:
        if col.kind == CATEGORICAL:
            codes, levels = ds.values[i].astype(np.intp), ds.levels[i]
            factors[i] = codes, sum(map(len, blocks))
            blocks.append(codes == np.arange(len(levels))[:, None])
    return np.concatenate(blocks, dtype=float), factors


def _designs(ds: Dataset, candidates: np.ndarray, factors: dict, tests: np.ndarray,
             sizes: np.ndarray, chosen: np.ndarray) -> tuple[list, list]:
    """``(designs, errors)`` per fold of the (folds x rows) test masks
    ``tests``, with training size ``sizes`` and its column of the (variables x
    folds) kinds ``chosen``: its design's candidate rows, in build_design's
    order, or None under 3 training rows or the design's width; and the first
    error of the public path that a fit does not raise, or None.  In that
    path's order: under 3 training rows, under the design's width, a test cell
    outside its chosen domain, or an unseen level.

    One pass serves every fold, and only failing folds are searched for the
    row and column their error names.  A factor's levels, in the order
    training first sees them, come from its training mask gathered in level
    order, one segment per level that a row holds."""
    schema, (folds, n), width = ds.schema, tests.shape, len(ds.schema.numeric)
    # a test value outside its chosen transform's domain is not finite; only the
    # rows holding such a value are checked
    nonfinite = ~np.isfinite(candidates[1:1 + len(TRANSFORM_KINDS) * width])
    at = np.flatnonzero(nonfinite.any(axis=0))
    # (kinds x variables x folds): a test row's value is not finite under the kind
    hit = (nonfinite[:, at] @ tests[:, at].T).reshape(-1, width, folds)
    outside = (hit & (chosen == np.arange(len(hit))[:, None, None])).any(axis=(0, 1))
    picks = 1 + chosen * width + np.arange(width)[:, None]  # candidate rows, as chosen
    slots = [np.zeros((folds, 1), dtype=picks.dtype)]  # the intercept; -1 marks no column
    unseen = {}  # fold: the error of its first factor with a level that training lacks
    for i, _ in schema.explanatory:
        if i not in factors:
            slots.append(picks[schema.numeric.index(i), :, None])
            continue
        codes, first_column = factors[i]
        counts = np.bincount(codes)
        held = np.flatnonzero(counts)
        # positions in level order, in the least dtype that holds n: the (folds x
        # rows) array below then takes a byte per cell, as a mask does, for n < 256
        order = np.argsort(codes, kind="stable").astype(np.min_scalar_type(n))
        # each held level's first training position, n if training lacks it
        first = np.minimum.reduceat(np.where(tests[:, order], n, order),
                                    (np.cumsum(counts) - counts)[held], axis=1)
        seen = first_column + held[np.argsort(first, axis=1, kind="stable")]
        present = np.count_nonzero(first < n, axis=1)
        for fold in np.flatnonzero(present < len(held)).tolist():
            # every row of a level that training lacks is a test row
            row = int(np.isin(codes, held[first[fold] == n]).argmax())
            unseen.setdefault(fold, _unseen_level_error(
                schema[i].name, ds.levels[i][codes[row]], ds.ids[row]))
        slots.append(np.where(np.arange(1, len(held)) < present[:, None], seen[:, 1:], -1))
    columns = np.concatenate(slots, axis=1)
    kept = columns >= 0
    lengths = np.count_nonzero(kept, axis=1)
    designed = (lengths <= sizes) & (sizes >= 3)
    # each later check overwrites an earlier one's error: the public path raises first
    errors = [unseen.get(fold) for fold in range(folds)]
    for fold in np.flatnonzero(outside).tolist():
        # (variables x rows): a test cell outside its chosen domain
        bad = nonfinite.reshape(-1, width, n)[chosen[:, fold], np.arange(width)] & tests[fold]
        row, v = np.argwhere(bad.T)[0].tolist()  # the first row, then column
        i = schema.numeric[v]
        errors[fold] = _domain_error(ds.values[i, row], schema[i].name, ds.ids[row],
                                     TRANSFORM_KINDS[chosen[v, fold]])
    for fold in np.flatnonzero(~designed).tolist():
        errors[fold] = (_too_few_rows_error(ds.name, sizes[fold]) if sizes[fold] < 3
                        else _too_narrow_error(ds.name, sizes[fold], lengths[fold]))
    flat, ends = columns[kept].tolist(), np.cumsum(lengths).tolist()
    return [tuple(flat[end - length:end]) if ok else None
            for end, length, ok in zip(ends, lengths.tolist(), designed.tolist())], errors


def _fit_group(ds: Dataset, candidates: np.ndarray, tests: np.ndarray, folds: np.ndarray,
               designs: list, errors: list, kinds: np.ndarray) -> Iterator[FoldOutcome]:
    """The outcomes of the ``folds`` of the (folds x rows) test masks ``tests``,
    which share one training size, from the plan's ``_designs`` entries and
    response kinds ``kinds``: a fold's FitError, else its ``_designs`` error,
    else its first non-finite prediction, else its predictions and, for 2 or
    more test rows, its report (None where a measure is undefined).

    The fit loop solves each fold's design, gathered from the block of its
    columns, which is taken once per distinct set of columns.  The predict
    loop multiplies each fold's test rows of the block by its coefficients
    into one (folds x test size) matrix, and one inverse call per response
    transform maps its rows back.  The ids and actuals are gathered once, and
    each finite row becomes a PredictionSet without the constructor's checks."""
    schema, width, n = ds.schema, len(ds.schema.numeric), len(ds)
    response = schema.numeric.index(schema.response)
    # the group's training and test positions, one row per fold
    trains = (np.flatnonzero(~tests[folds]) % n).reshape(len(folds), -1)
    tested = (np.flatnonzero(tests[folds]) % n).reshape(len(folds), -1)
    kinds, folds = kinds[folds], folds.tolist()
    blocks, fits, failed = {}, [], [errors[fold] for fold in folds]
    # each fold's training responses, under its chosen transform
    responses = candidates[(1 + kinds * width + response)[:, None], trains]
    for row, (fold, train, y) in enumerate(zip(folds, trains, responses)):
        columns = designs[fold]
        if columns is None:
            continue
        block = blocks.get(columns)
        if block is None:
            block = blocks[columns] = candidates.take(columns, axis=0)
        try:
            # gathered as (columns x rows), the design's transpose is in Fortran order
            coefficients, _ = _qr_solve(block.take(train, axis=1).T, y)
        except FitError as exc:  # the public path fits before it transforms the test rows
            failed[row] = exc
            continue
        if failed[row] is None:
            fits.append((row, block, coefficients))
    # each fold's predictions, one row per fold; a fold not fitted keeps NaN
    predicted = np.full(tested.shape, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails its fold below
        for row, block, coefficients in fits:
            # (rows x columns) in C order, as build_design's, so the bits match atlm_predict's
            predicted[row] = np.ascontiguousarray(block.take(tested[row], axis=1).T) @ coefficients
        for kind in set(kinds.tolist()):
            rows = kinds == kind
            predicted[rows] = _INVERSE[TRANSFORM_KINDS[kind]](predicted[rows])
    # the response is active, so every actual is finite
    actual, t, finite = ds.values[schema.response].take(tested), tested.shape[1], \
        np.isfinite(predicted)
    ids = tuple(map(ds.ids.__getitem__, tested.ravel().tolist()))
    for row, whole in enumerate(finite.all(axis=1).tolist()):
        if failed[row] is None and not whole:
            at = int(finite[row].argmin())
            failed[row] = _non_finite_error(ids[row * t + at], predicted[row, at], actual[row, at])
    reports = {}
    if t > 1:  # a test size of 1 is LOOCV's, scored once over the pooled predictions
        scored = [row for row, error in enumerate(failed) if error is None]
        reports = dict(zip(scored, report_stack(predicted[scored], actual[scored],
                                                ds.values[schema.response].take(trains[scored]))))
    for row, (fold, error) in enumerate(zip(folds, failed)):
        yield (FoldOutcome(fold, code=error.code, message=str(error)) if error else
               FoldOutcome(fold, PredictionSet._trusted(ids[row * t:row * t + t], predicted[row],
                                                        actual[row]), reports.get(row)))


def _run_plans(ds: Dataset, plans: list) -> Iterator[ValidationResult]:
    """Each plan's :func:`run_validation` result in turn, from one fingerprint
    and one ``_fit_plan`` pass over the plans' stacked masks.  Every PlanError
    comes first, then the refusals of inputs that fail every fold, in
    :func:`run_validation`'s order; then a plan raises what it alone would."""
    fingerprint = _fingerprint(ds, plans)
    masks = [_test_masks(ds, plan, fingerprint) for plan in plans]
    for plan, tests in zip(plans, masks):
        if plan.kind != LOOCV and tests.sum(axis=1).min() < 2:
            raise PlanError(f"plan {plan.label()} leaves test folds of 1 row in the {len(ds)} "
                            f"rows of {ds.name!r}; per-fold measures need at least 2, so use loocv")
    _check_design(ds)
    ds.require_no_missing("validate")
    # a single plan's masks are fitted as they are, not copied into a stack
    fitted = _fit_plan(ds, np.concatenate(masks) if len(masks) > 1 else masks[0])
    for plan, tests in zip(plans, masks):
        outcomes, fitted = fitted[:len(tests)], fitted[len(tests):]
        # each plan numbers its folds from 0
        outcomes = tuple(o if o.fold == i else replace(o, fold=i) for i, o in enumerate(outcomes))
        # a plan whose folds all failed has nothing to score, so it is refused first
        succeeded = [o for o in outcomes if not o.failed]
        if not succeeded:
            raise ValidationError(f"all {len(outcomes)} folds failed for {ds.name!r}; "
                                  f"first failure: {outcomes[0].message}")
        if plan.kind == LOOCV:
            # singleton test sets: score the pooled predictions once, with the
            # full response sample as the random-guess reference
            pooled_report = report(pooled([o.predictions for o in succeeded]), ds.response_column())
            reports = [pooled_report]
        else:
            pooled_report, reports = None, [o.report for o in succeeded]
            if None in reports:  # the first fold, in fold order, with an undefined measure
                first = succeeded[reports.index(None)]
                report(first.predictions, ds.response_column()[~tests[first.fold]])  # raises
        yield ValidationResult(ds.name, fingerprint, plan, outcomes, pooled_report,
                               aggregate(reports))


def run_validation(ds: Dataset, plan: ValidationPlan) -> ValidationResult:
    """Fit, predict and score every fold of the plan.

    A ``ds`` that is not a Dataset raises SchemaError, and a ``plan`` that is
    not a ValidationPlan PlanError.  Refused before any fit, in this order: a
    PlanError, such as a k-fold or holdout plan with a test fold of one row,
    where the per-fold measures need two; then no explanatory column
    (SchemaError); then a missing or non-finite active cell (MissingValueError).
    Then a ValidationError if every fold failed, else the MetricError of the
    first fold, in fold order, with an undefined measure."""
    return next(_run_plans(ds, [plan]))


@dataclass(frozen=True)
class CvRunSummary:
    """One run of :func:`repeat_cv_experiment`.  An output record, built by the
    package and not checked (see :mod:`atlm`)."""

    run: int
    seed: int
    re_star_mean: float
    re_star_stderr: float
    n_folds: int
    n_succeeded: int


def repeat_cv_experiment(ds: Dataset, k: int, runs: int,
                         base_seed: int = 1) -> tuple[CvRunSummary, ...]:
    """Independent k-fold runs with seeds base_seed, base_seed+1, ..., fitted in one
    pass; a bad run count or seed, then :func:`run_validation`'s refusals, come first.

    The run count has no upper bound, as a holdout plan's repeats have none.  The
    runs' plans and fold masks are held at once, so time and memory grow in
    proportion to ``runs``, and a count too large for memory ends in MemoryError
    rather than a PlanError: the largest count that fits depends on the dataset
    and the machine, so no bound stated here could be exact."""
    runs = _integer("runs", runs, PlanError)
    base_seed = _integer("base_seed", base_seed, PlanError)
    if runs < 2:
        raise PlanError(f"repeat experiment needs at least 2 runs, got {runs}")
    plans = [ValidationPlan(kind=KFOLD, seed=base_seed + run, k=k) for run in range(runs)]
    return tuple(CvRunSummary(run, result.plan.seed, result.summary.means["re_star"],
                              float(result.summary.stds["re_star"] / np.sqrt(result.n_succeeded)),
                              result.n_folds, result.n_succeeded)
                 for run, result in enumerate(_run_plans(ds, plans)))
