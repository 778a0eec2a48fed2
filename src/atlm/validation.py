"""Sampling regimes and the evaluation harness.

Fold generation is a pure function of (dataset content hash, plan): the
PCG32 stream is selected by the dataset fingerprint and seeded by the plan
seed, so identical inputs give identical folds on any machine, and two
models evaluated under the same plan see byte-identical splits.

Metric handling differs by regime.  Leave-one-out produces singleton test
sets on which the variance-based measures are undefined, so its metrics
are computed once over the pooled predictions of all folds; k-fold and
repeated holdout compute metrics per fold and aggregate them.

Every fold leaves one :class:`FoldOutcome`, in fold order.  A fold that
succeeds carries its predictions and, outside leave-one-out, its metric
report.  A fold that fails (transform domain violation, unseen factor
level, ...) carries the error's code and message instead; it is excluded
from aggregation but never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, split
from .errors import AtlmError, PlanError, ValidationError
from .linear import UNSEEN_ERROR
from .metrics import MetricReport, MetricSummary, aggregate, report
from .pipeline import PredictionSet, atlm_fit, atlm_predict, pooled
from .rng import Pcg32

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
        if not (0 <= self.seed <= _MAX_SEED):
            raise PlanError(f"seed must fit in 64 bits, got {self.seed}")
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


@dataclass(frozen=True)
class FoldAssignment:
    plan: ValidationPlan
    dataset_fingerprint: str
    folds: tuple

    def __len__(self) -> int:
        return len(self.folds)

    def to_json_dict(self) -> dict:
        return {
            "plan": self.plan.label(),
            "seed": self.plan.seed,
            "dataset_fingerprint": self.dataset_fingerprint,
            "folds": [{"train": list(train), "test": list(test)}
                      for train, test in self.folds],
        }


def generate_folds(ds: Dataset, plan: ValidationPlan) -> FoldAssignment:
    """Deterministic folds for the plan; see the module docstring."""
    n = len(ds)
    ids = list(ds.ids)
    fingerprint = ds.fingerprint()
    if plan.kind == LOOCV:
        return FoldAssignment(plan, fingerprint,
                              tuple((tuple(i for i in ids if i != t), (t,)) for t in ids))
    rng = Pcg32(plan.seed, stream=int(fingerprint[:16], 16))
    if plan.kind == KFOLD:
        if plan.k > n:
            raise PlanError(f"kfold k={plan.k} exceeds {n} rows of {ds.name!r}")
        shuffled = list(ids)
        rng.shuffle(shuffled)
        base, extra = divmod(n, plan.k)
        starts = [i * base + min(i, extra) for i in range(plan.k + 1)]
        tests = [set(shuffled[a:b]) for a, b in zip(starts, starts[1:])]
    else:
        if plan.test_size >= n:
            raise PlanError(
                f"holdout test_size={plan.test_size} must be below {n} rows of {ds.name!r}")
        tests = []
        for _ in range(plan.repeats):
            shuffled = list(ids)
            rng.shuffle(shuffled)
            tests.append(set(shuffled[:plan.test_size]))
    folds = tuple((tuple(i for i in ids if i not in test), tuple(i for i in ids if i in test))
                  for test in tests)
    return FoldAssignment(plan, fingerprint, folds)


@dataclass(frozen=True)
class FoldOutcome:
    """What one fold of a plan produced.

    A successful fold has ``predictions``, plus a metric ``report`` under
    k-fold and holdout plans.  A failed fold has the ``code`` and
    ``message`` of the error that stopped it, and no predictions.
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
    dataset_name: str
    dataset_fingerprint: str
    plan: ValidationPlan
    outcomes: tuple[FoldOutcome, ...]
    pooled_report: MetricReport | None
    summary: MetricSummary | None

    @property
    def n_folds(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> tuple[FoldOutcome, ...]:
        return tuple(o for o in self.outcomes if o.failed)

    @property
    def n_succeeded(self) -> int:
        return self.n_folds - len(self.failures)


def _run_fold(ds: Dataset, index: int, fold, plan: ValidationPlan,
              unseen_level: str) -> FoldOutcome:
    train_ids, test_ids = fold
    try:
        train, test = split(ds, train_ids, test_ids)
        predictions = atlm_predict(atlm_fit(train), test, unseen_level=unseen_level)
    except AtlmError as exc:
        return FoldOutcome(index, code=exc.code, message=str(exc))
    if plan.kind == LOOCV:
        return FoldOutcome(index, predictions)
    return FoldOutcome(index, predictions, report(predictions, train.response_column()))


def run_validation(ds: Dataset, plan: ValidationPlan, *,
                   unseen_level: str = UNSEEN_ERROR) -> ValidationResult:
    """Fit/predict/score every fold of the plan."""
    assignment = generate_folds(ds, plan)
    outcomes = tuple(_run_fold(ds, index, fold, plan, unseen_level)
                     for index, fold in enumerate(assignment.folds))
    succeeded = [o for o in outcomes if not o.failed]
    if not succeeded:
        raise ValidationError(
            f"all {len(outcomes)} folds failed for {ds.name!r}; "
            f"first failure: {outcomes[0].message}")

    pooled_report = None
    if plan.kind == LOOCV:
        # singleton test sets: score the pooled predictions once, with the
        # full response sample as the random-guess reference
        pooled_report = report(pooled([o.predictions for o in succeeded]),
                               ds.response_column())
        summary = aggregate([pooled_report])
    else:
        summary = aggregate([o.report for o in succeeded])

    return ValidationResult(
        dataset_name=ds.name,
        dataset_fingerprint=assignment.dataset_fingerprint,
        plan=plan,
        outcomes=outcomes,
        pooled_report=pooled_report,
        summary=summary,
    )


@dataclass(frozen=True)
class CvRunSummary:
    run: int
    seed: int
    re_star_mean: float
    re_star_stderr: float
    n_folds: int
    n_succeeded: int


def repeat_cv_experiment(ds: Dataset, k: int, runs: int, base_seed: int = 1, *,
                         unseen_level: str = UNSEEN_ERROR) -> tuple[CvRunSummary, ...]:
    """Independent k-fold runs with seeds base_seed, base_seed+1, ..."""
    if runs < 2:
        raise PlanError(f"repeat experiment needs at least 2 runs, got {runs}")
    summaries = []
    for run in range(runs):
        seed = base_seed + run
        plan = ValidationPlan(kind=KFOLD, seed=seed, k=k)
        result = run_validation(ds, plan, unseen_level=unseen_level)
        values = np.array([o.report.re_star for o in result.outcomes if not o.failed])
        stderr = 0.0 if values.size < 2 else float(values.std(ddof=1) / np.sqrt(values.size))
        summaries.append(CvRunSummary(
            run=run,
            seed=seed,
            re_star_mean=float(values.mean()),
            re_star_stderr=stderr,
            n_folds=result.n_folds,
            n_succeeded=result.n_succeeded,
        ))
    return tuple(summaries)
