from __future__ import annotations

import contextlib
import json
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atlm import linear, pipeline, transforms, validation
from atlm.bundled import load_builtin
from atlm.dataset import (CATEGORICAL, EXPLANATORY, IGNORED, NUMERIC, RESPONSE, ColumnSchema,
                          Dataset, load_csv, load_schema, split)
from atlm.errors import (AtlmError, FitError, MetricError, MissingValueError, PlanError,
                         SchemaError, ValidationError)
from atlm.linear import INTERCEPT, SINGULAR_FACTOR
from atlm.metrics import METRIC_FIELDS, MetricSummary, report
from atlm.pipeline import PredictionSet, atlm_fit, atlm_predict
from atlm.report import fold_assignment_json_text
from atlm.rng import Pcg32
from atlm.validation import (
    CvRunSummary,
    FoldAssignment,
    ValidationPlan,
    generate_folds,
    repeat_cv_experiment,
    run_validation,
)

from conftest import make_dataset
from perfbench import synth


def linear_dataset(n=12):
    """Structure-only helper for fold-generation tests."""
    xs = list(range(1, n + 1))
    return make_dataset({"x": xs, "y": [3 * v + 5 for v in xs]}, response="y",
                        name="linear")


def noiseless_dataset():
    """Exact linear data whose left-skewed shape keeps every per-fold
    transform choice at 'none', so the pipeline interpolates exactly."""
    xs = [1.0, 30, 34, 36, 38, 40, 41, 42, 43, 44, 45, 46]
    return make_dataset({"x": xs, "y": [3 * v + 5 for v in xs]}, response="y",
                        name="noiseless")


class TestPlan:
    def test_parse_forms(self):
        assert ValidationPlan.parse("loocv").kind == "loocv"
        plan = ValidationPlan.parse("kfold:10", seed=9)
        assert plan.k == 10 and plan.seed == 9
        plan = ValidationPlan.parse("holdout:10x30")
        assert plan.test_size == 10 and plan.repeats == 30

    @pytest.mark.parametrize("text", ["kfold:abc", "holdout:10", "holdout:axb",
                                      "bogus", "kfold:1"])
    def test_parse_rejects(self, text):
        with pytest.raises(PlanError):
            ValidationPlan.parse(text)

    @pytest.mark.parametrize("text", [None, 10, b"loocv"])
    def test_parse_needs_text(self, text):
        with pytest.raises(PlanError, match="a plan must be text"):
            ValidationPlan.parse(text)

    @pytest.mark.parametrize("fields", [
        {"kind": "kfold", "k": 2.5}, {"kind": "kfold", "k": True},
        {"kind": "holdout", "test_size": 2.5, "repeats": 3},
        {"kind": "holdout", "test_size": 2, "repeats": "3"},
        {"kind": "loocv", "seed": 1.5}, {"kind": "loocv", "seed": None},
        {"kind": "kfold", "k": 3, "seed": False},
    ], ids=repr)
    def test_a_non_integer_field_is_a_plan_error(self, fields):
        with pytest.raises(PlanError, match="must be an integer"):
            ValidationPlan(**fields)

    def test_numpy_integer_fields_are_accepted_as_ints(self):
        plan = ValidationPlan(kind="holdout", seed=np.uint64((1 << 64) - 1),
                              test_size=np.int32(2), repeats=np.int64(3))
        assert plan == ValidationPlan(kind="holdout", seed=(1 << 64) - 1, test_size=2, repeats=3)
        assert {type(v) for v in (plan.seed, plan.test_size, plan.repeats)} == {int}
        assert generate_folds(linear_dataset(5), plan).to_json_dict()["seed"] == (1 << 64) - 1

    def test_invariants_against_dataset(self):
        ds = linear_dataset(5)
        with pytest.raises(PlanError):
            generate_folds(ds, ValidationPlan(kind="kfold", k=200))
        with pytest.raises(PlanError):
            generate_folds(ds, ValidationPlan(kind="holdout", test_size=5, repeats=2))


def reference_folds(ds, plan):
    """The folds of a k-fold or holdout plan by scalar draws and set
    membership: shuffle the ids, cut test sets from the shuffled order, and
    keep the dataset's row order on both sides."""
    ids = tuple(ds.ids)
    rng = Pcg32(plan.seed, stream=int(ds.fingerprint()[:16], 16))

    def shuffled():
        items = list(ids)
        for i in range(len(items) - 1, 0, -1):
            j = rng.next_below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    if plan.kind == "kfold":
        order = shuffled()
        base, extra = divmod(len(ids), plan.k)
        starts = [i * base + min(i, extra) for i in range(plan.k + 1)]
        tests = [set(order[a:b]) for a, b in zip(starts, starts[1:])]
    else:
        tests = [set(shuffled()[:plan.test_size]) for _ in range(plan.repeats)]
    return tuple((tuple(i for i in ids if i not in test), tuple(i for i in ids if i in test))
                 for test in tests)


def ids_dataset(ids):
    """A linear dataset whose rows carry ``ids``; for positive ids every
    response is positive, so every fitted fold can be scored."""
    return Dataset.from_columns("gaps", linear_dataset(1).schema, ids,
                                [[float(i) for i in ids], [3.0 * i + 5 for i in ids]])


@st.composite
def split_plans(draw):
    """A dataset of 2 to 90 rows with gaps in its ids, and a k-fold or
    holdout plan that fits it."""
    n = draw(st.integers(2, 90))
    ds = ids_dataset(draw(st.permutations(range(n + 3)))[:n])
    seed = draw(st.integers(0, (1 << 64) - 1))
    if draw(st.booleans()):
        plan = ValidationPlan(kind="kfold", seed=seed, k=draw(st.integers(2, n)))
    else:
        plan = ValidationPlan(kind="holdout", seed=seed, test_size=draw(st.integers(1, n - 1)),
                              repeats=draw(st.integers(1, 12)))
    return ds, plan


class TestGenerateFolds:
    def test_loocv_definition(self):
        ds = linear_dataset(5)
        folds = generate_folds(ds, ValidationPlan(kind="loocv")).folds
        assert [t for _, t in folds] == [(0,), (1,), (2,), (3,), (4,)]
        for train, test in folds:
            assert set(train) | set(test) == set(ds.ids)
            assert not set(train) & set(test)

    def test_loocv_trains_on_every_other_row_in_dataset_order(self):
        ds = load_builtin("desharnais")  # dropped rows leave gaps in the ids
        folds = generate_folds(ds, ValidationPlan(kind="loocv")).folds
        assert folds == tuple((tuple(i for i in ds.ids if i != t), (t,)) for t in ds.ids)

    def test_kfold_sizes_on_63_rows(self):
        ds = load_builtin("cocomo81")
        assignment = generate_folds(ds, ValidationPlan(kind="kfold", k=10, seed=1))
        sizes = sorted((len(t) for _, t in assignment.folds), reverse=True)
        assert sizes == [7, 7, 7, 6, 6, 6, 6, 6, 6, 6]

    def test_kfold_partitions_rows(self):
        ds = linear_dataset(11)
        assignment = generate_folds(ds, ValidationPlan(kind="kfold", k=3, seed=4))
        combined = Counter()
        for _, test in assignment.folds:
            combined.update(test)
        assert combined == Counter(ds.ids)

    def test_holdout_sizes_on_desharnais(self):
        ds = load_builtin("desharnais")
        plan = ValidationPlan(kind="holdout", test_size=10, repeats=30, seed=1)
        assignment = generate_folds(ds, plan)
        assert len(assignment) == 30
        for train, test in assignment.folds:
            assert len(test) == 10 and len(train) == 64
            assert not set(train) & set(test)

    def test_determinism_across_calls(self):
        ds = linear_dataset(20)
        plan = ValidationPlan(kind="holdout", test_size=4, repeats=7, seed=123)
        a = generate_folds(ds, plan)
        b = generate_folds(ds, plan)
        assert a == b
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_different_seeds_differ(self):
        ds = linear_dataset(20)
        a = generate_folds(ds, ValidationPlan(kind="kfold", k=4, seed=1))
        b = generate_folds(ds, ValidationPlan(kind="kfold", k=4, seed=2))
        assert a.folds != b.folds

    @given(split_plans())
    @settings(max_examples=150, deadline=None)
    # ids below 0 and at or above 2**63: numpy converts them together to floats
    @example((ids_dataset([-5, 0, (1 << 63) + 1, 12, 3, 7]),
              ValidationPlan(kind="kfold", k=3, seed=2)))
    def test_equal_to_scalar_shuffles_of_the_ids(self, case):
        ds, plan = case
        assert generate_folds(ds, plan).folds == reference_folds(ds, plan)

    def test_fingerprint_selects_stream(self):
        a = generate_folds(linear_dataset(20), ValidationPlan(kind="kfold", k=4, seed=1))
        other = make_dataset({"x": list(range(20)), "y": list(range(20))},
                             response="y")
        b = generate_folds(other, ValidationPlan(kind="kfold", k=4, seed=1))
        assert a.folds != b.folds


@st.composite
def loocv_plans(draw):
    """A dataset of 1 to 90 rows with gaps in its ids, and a LOOCV plan."""
    n = draw(st.integers(1, 90))
    return (ids_dataset(draw(st.permutations(range(n + 3)))[:n]),
            ValidationPlan(kind="loocv", seed=draw(st.integers(0, (1 << 64) - 1))))


GOLDEN = Path(__file__).parent / "golden"


class TestFoldAssignment:
    @given(st.one_of(split_plans(), loocv_plans()))
    @settings(max_examples=200, deadline=None)
    @example((ids_dataset([7]), ValidationPlan(kind="loocv")))  # trains on []
    @example((ids_dataset([0, 2, 5, 9]), ValidationPlan(kind="kfold", k=4, seed=3)))
    @example((ids_dataset([4, 1, 8, 3, 6]),
              ValidationPlan(kind="holdout", test_size=4, repeats=3, seed=9)))
    @example((ids_dataset([-5, 0, (1 << 64) + 3, 12, -(1 << 70), 1 << 63]),
              ValidationPlan(kind="kfold", k=3, seed=2)))
    @example((ids_dataset([-5, 0, (1 << 64) + 3, 12, -(1 << 70), 1 << 63]),
              ValidationPlan(kind="loocv")))
    def test_json_text_equals_json_dumps(self, case):
        assignment = generate_folds(*case)
        assert fold_assignment_json_text(assignment) == \
            json.dumps(assignment.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def test_equal_for_one_dataset_and_plan_only(self):
        ds = load_builtin("desharnais")
        plan = ValidationPlan(kind="holdout", test_size=10, repeats=5, seed=3)
        a, b = generate_folds(ds, plan), generate_folds(ds, plan)
        assert a == b and a is not b
        assert a != generate_folds(ds, replace(plan, seed=4))
        assert a != generate_folds(load_builtin("maxwell"), plan)

    def test_test_masks_cannot_be_written(self):
        assignment = generate_folds(linear_dataset(6), ValidationPlan(kind="loocv"))
        with pytest.raises(ValueError, match="read-only"):
            assignment.tests[0, 1] = True

    @pytest.mark.parametrize("plan", ["loocv", "kfold:10", "holdout:10x30"])
    @pytest.mark.parametrize("name", ["cocomo81", "desharnais", "maxwell"])
    def test_folds_and_json_dict_equal_the_golden_export(self, name, plan):
        # export-folds writes these files without to_json_dict or folds, so
        # this ties both to the same bytes
        golden = (GOLDEN / f"export_folds_{plan.replace(':', '_')}_{name}.json").read_text()
        assignment = generate_folds(load_builtin(name), ValidationPlan.parse(plan))
        folds = json.loads(golden)["folds"]
        assert len(assignment) == len(folds)
        assert assignment.folds == tuple((tuple(f["train"]), tuple(f["test"])) for f in folds)
        assert json.dumps(assignment.to_json_dict(), indent=2, sort_keys=True) + "\n" == golden


class TestRunValidation:
    def test_perfect_linear_loocv_pooled(self):
        ds = noiseless_dataset()
        result = run_validation(ds, ValidationPlan(kind="loocv"))
        assert result.n_succeeded == 12
        assert result.pooled_report is not None
        assert result.pooled_report.mmre == pytest.approx(0.0, abs=1e-9)
        assert result.pooled_report.n == 12
        assert all(o.report is None for o in result.outcomes)

    def test_kfold_reports_per_fold(self):
        ds = noiseless_dataset()
        result = run_validation(ds, ValidationPlan(kind="kfold", k=3, seed=2))
        assert result.pooled_report is None
        assert sum(o.report is not None for o in result.outcomes) == 3
        assert result.summary.n_reports == 3

    @pytest.mark.parametrize("plan, n_reports", [("loocv", 1), ("kfold:3", 3),
                                                 ("holdout:4x2", 2)])
    def test_every_plan_carries_a_summary(self, plan, n_reports):
        # loocv summarises its one pooled report; the other plans their folds'
        result = run_validation(noiseless_dataset(), ValidationPlan.parse(plan))
        assert isinstance(result.summary, MetricSummary)
        assert result.summary.n_reports == n_reports
        assert result.summary.single_sample == (plan == "loocv")
        if plan == "loocv":
            assert result.summary.means == {
                m: getattr(result.pooled_report, m) for m in METRIC_FIELDS}

    def test_no_leakage_fingerprints(self):
        # the harness's fold 0 must be exactly a model fitted on fold 0's
        # training rows alone, scored on its test rows
        ds = load_builtin("cocomo81")
        plan = ValidationPlan(kind="kfold", k=10, seed=1)
        train_ids, test_ids = generate_folds(ds, plan).folds[0]
        train, test = split(ds, train_ids, test_ids)
        expected = atlm_predict(atlm_fit(train), test)
        assert run_validation(ds, plan).outcomes[0].predictions == expected

    def test_failed_folds_recorded_not_dropped(self):
        # one test row has x=0 while training x>0 chooses log: domain failure
        xs = [0.0] + [float(2 ** k) for k in range(1, 12)]
        ys = [100.0 + 3 * v for v in xs]
        ds = make_dataset({"x": xs, "y": ys}, response="y")
        plan = ValidationPlan(kind="kfold", k=4, seed=3)
        result = run_validation(ds, plan)
        assert result.n_folds == 4
        assert len(result.failures) >= 1
        codes = {f.code for f in result.failures}
        assert "E_DOMAIN" in codes
        assert result.n_succeeded == 4 - len(result.failures)
        assert result.summary.n_reports == result.n_succeeded

    def test_a_fold_whose_prediction_overflows_fails_alone(self):
        # the plan path words the error as the public PredictionSet does
        ds, plan = overflowing_case()
        folds = generate_folds(ds, plan).folds
        with no_public_fit():
            outcomes = run_validation(ds, plan).outcomes
        [failed] = [o for o in outcomes if o.failed]
        assert 11 in folds[failed.fold][1]
        assert (failed.code, failed.message) == (
            "E_PREDICT", "non-finite prediction or actual for row 11: (inf, 150.0)")
        assert [(o.predictions, o.code, o.message) for o in outcomes] == [
            fit_through_split(ds, fold) for fold in folds]

    def test_non_finite_cell_fails_its_folds_with_a_typed_error(self):
        xs = [float(v) for v in range(1, 13)]
        ys = [3 * v + 5 for v in xs]
        xs[5] = float("nan")
        ds = make_dataset({"x": xs, "y": ys}, response="y")
        # the row is in training or test of every fold, so every fold would
        # fail: the input is refused before any fit, a NaN as a missing value
        with mock.patch.object(validation, "_fit_plan") as fit, \
                pytest.raises(MissingValueError) as exc:
            run_validation(ds, ValidationPlan(kind="kfold", k=3, seed=1))
        assert str(exc.value) == ("validate: dataset 'test' has a missing value "
                                  "in column 'x', row 5")
        fit.assert_not_called()

    @pytest.mark.parametrize("name, plan", [("cocomo81", "kfold:10"), ("maxwell", "kfold:10"),
                                            ("desharnais", "holdout:10x5")])
    def test_stacked_scores_equal_one_report_per_fold(self, name, plan):
        ds = load_builtin(name)
        for seed in (1, 2):
            plan_ = ValidationPlan.parse(plan, seed=seed)
            folds = generate_folds(ds, plan_).folds
            for o in run_validation(ds, plan_).outcomes:
                if not o.failed:
                    train = split(ds, *folds[o.fold])[0]
                    assert o.report == report(o.predictions, train.response_column())

    FAULTS = (None, "constant actuals", "nonpositive prediction", "nonpositive actual")

    @given(k=st.integers(2, 6), faults=st.lists(st.sampled_from(FAULTS), min_size=6, max_size=6))
    @example(k=3, faults=["nonpositive actual", "constant actuals"] + [None] * 4)
    @settings(max_examples=40, deadline=None)
    def test_metric_error_comes_from_the_first_failing_fold(self, k, faults):
        # folds of 3 and of 2 test rows are scored in separate stacked passes;
        # under k=3, fold 0 has 5 test rows and folds 1 and 2 have 4
        ds = linear_dataset(13)
        plan = ValidationPlan(kind="kfold", k=k, seed=4)
        fault_of, expected = {}, None
        for fold, (train_ids, test_ids) in enumerate(generate_folds(ds, plan).folds):
            train, test = split(ds, train_ids, test_ids)
            fault_of[fold_key(test)] = faults[fold]
            try:
                report(PredictionSet(test.ids, *faulty(faults[fold], len(test))),
                       train.response_column())
            except MetricError as exc:
                expected = expected or str(exc)
        with faults_at_the_scorer(fault_of) as scored:
            if expected is None:
                assert run_validation(ds, plan).n_succeeded == k
            else:
                with pytest.raises(MetricError) as exc:
                    run_validation(ds, plan)
                assert str(exc.value) == expected
        assert sorted(scored) == sorted(fault_of)  # every fold went through the stacked scorer

    def test_all_folds_failing_is_an_error(self):
        # loocv on 3 rows leaves 2-row training sets: every fold degenerates
        bad = make_dataset({"x": [1, 2, 3], "y": [2, 4, 9]}, response="y")
        with pytest.raises(ValidationError):
            run_validation(bad, ValidationPlan(kind="loocv"))


def fold_key(test: Dataset) -> tuple:
    """A fold's key in a fault map: its test actuals in row order, which tell
    the folds of ``linear_dataset`` apart."""
    return tuple(test.response_column().tolist())


def faulty(fault: str | None, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(predicted, actual)`` of ``n`` test rows under ``fault``: actuals from 10
    to 20, predicted 10% high; then, unless ``fault`` is None, one measure undefined."""
    actual = np.linspace(10.0, 20.0, n)
    predicted = actual * 1.1
    if fault == "constant actuals":
        actual[:] = 7.0
    elif fault == "nonpositive prediction":
        predicted[-1] = -1.0
    elif fault == "nonpositive actual":
        actual[0] = 0.0
    return predicted, actual


@contextlib.contextmanager
def faults_at_the_scorer(fault_of: dict):
    """Patch validation's ``report_stack`` and ``report`` so that each fold is
    scored as ``faulty`` gives it under ``fault_of[fold_key]``; yields the list
    of the keys of the folds that ``report_stack`` was given."""
    stack, one, scored = validation.report_stack, validation.report, []

    def report_stack(predicted, actual, training):
        keys = list(map(tuple, actual.tolist()))
        scored.extend(keys)
        cases = [faulty(fault_of[key], len(key)) for key in keys]
        return stack(np.array([p for p, _ in cases]).reshape(predicted.shape),
                     np.array([a for _, a in cases]).reshape(actual.shape), training)

    def report(ps, training):
        key = tuple(ps.actual.tolist())
        return one(PredictionSet(ps.row_ids, *faulty(fault_of[key], len(key))), training)

    with mock.patch.object(validation, "report_stack", report_stack), \
            mock.patch.object(validation, "report", report):
        yield scored


def overflowing_case():
    """kfold:4 on 12 rows: training without x = 1e200 keeps x as it is and logs
    y, so the fold testing it predicts exp(b * 1e200) = inf."""
    xs = [float(v) for v in range(1, 12)] + [1e200]
    return (make_dataset({"x": xs, "y": Y12}, response="y"),
            ValidationPlan(kind="kfold", k=4, seed=1))


@contextlib.contextmanager
def no_public_fit():
    """Fail unless the block fits no fold through the public path, however that
    path is imported: none of the names that ``atlm_fit`` and ``atlm_predict``
    look up in ``pipeline`` at call time, after the missing-cell check, is called."""
    names = ("_too_few_rows_error", "calculate_transforms", "apply_transforms",
             "build_design", "fit_ols", "linear_predict")
    with contextlib.ExitStack() as stack:
        wrapped = [stack.enter_context(mock.patch.object(pipeline, name,
                                                         wraps=getattr(pipeline, name)))
                   for name in names]
        yield
    assert [name for name, m in zip(names, wrapped) if m.called] == []


def fit_through_split(ds, fold):
    """(predictions, code, message) of one fold fitted through the public
    split: the predictions, or the code and message of the error."""
    try:
        train, test = split(ds, *fold)
        return atlm_predict(atlm_fit(train), test), None, None
    except AtlmError as exc:
        return None, exc.code, str(exc)


#: how a generated numeric column's values are drawn
NUMBERS = {
    "positive": st.floats(0.01, 1e4),
    "with zeros": st.sampled_from([0.0, -0.0, 1.0, 2.5, 7.0, 40.0]),
    "signed": st.floats(-1e3, 1e3),
    "two-valued": st.sampled_from([3.0, 11.0]),
    "skewed": st.floats(-2.0, 8.0).map(math.exp),  # log or sqrt usually wins
}


@st.composite
def mixed_plans(draw):
    """A dataset of 4 to 24 rows with gapped ids and mixed columns: numeric
    ones with zeros, negatives, two values, one value or another column's
    values, or with a design label as name; factors with singleton levels;
    an ignored column; and a response that may leave a transform's domain.
    With any plan kind."""
    n = draw(st.integers(4, 24))
    ids = draw(st.permutations(range(n + 3)))[:n]
    schema, columns = [], []

    def add(kind, role, cells):
        schema.append(ColumnSchema(f"c{len(schema)}", kind, role))
        columns.append(cells)

    def numbers(shape):
        if shape == "constant":
            return [draw(NUMBERS["positive"])] * n
        cells = draw(st.lists(NUMBERS.get(shape, NUMBERS["skewed"]), min_size=n, max_size=n))
        if shape == "one nonpositive":  # outside log's domain, or sqrt's, in one row
            cells[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.0, -0.0, -1.0]))
        return cells

    for _ in range(draw(st.sampled_from([0, 1, 2, 3, 3]))):
        shape = draw(st.sampled_from([*NUMBERS, "one nonpositive", "constant", "copy"]))
        numeric = [c for c, col in zip(columns, schema) if col.kind == NUMERIC]
        add(NUMERIC, EXPLANATORY, list(draw(st.sampled_from(numeric))) if shape == "copy"
            and numeric else numbers(shape))
    for _ in range(draw(st.integers(0, 2))):
        add(CATEGORICAL, EXPLANATORY, draw(st.lists(st.sampled_from("abcd"), min_size=n,
                                                    max_size=n)))
    if draw(st.booleans()):
        add(NUMERIC, IGNORED, [None] * n)
    add(NUMERIC, RESPONSE, numbers(draw(st.sampled_from(
        ["positive", "skewed", "one nonpositive", "with zeros", "signed"]))))
    # a numeric column may be named as the design names the intercept or a
    # factor level: some folds' designs then hold that label twice, and fit
    if draw(st.integers(0, 3)) == 0:
        factors = [col.name for col in schema if col.kind == CATEGORICAL]
        at = draw(st.sampled_from([at for at, col in enumerate(schema)
                                   if col.kind == NUMERIC and col.role != IGNORED]))
        schema[at] = ColumnSchema(draw(st.sampled_from(
            [INTERCEPT, *(f"{f}={level}" for f in factors for level in "ab")])), NUMERIC,
            schema[at].role)
    ds = Dataset.from_columns("mixed", schema, ids, columns)
    kind = draw(st.sampled_from(["loocv", "kfold", "holdout"]))
    if kind == "loocv":
        return ds, ValidationPlan(kind=kind)
    if kind == "kfold":
        return ds, ValidationPlan(kind=kind, seed=draw(st.integers(0, 99)),
                                  k=draw(st.integers(2, n // 2)))
    return ds, ValidationPlan(kind=kind, seed=draw(st.integers(0, 99)),
                              test_size=draw(st.integers(2, n - 1)),
                              repeats=draw(st.integers(1, 6)))


#: 10 and 12 rows on which every fold's training rows choose log for x where
#: they hold no zero, and for y
X10 = [0.0, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 13.0, 30.0, 80.0]
Y10 = [1.0, 3.0, 4.0, 5.0, 7.0, 11.0, 17.0, 27.0, 61.0, 161.0]
Y12 = [2.0, 3.0, 4.0, 6.0, 9.0, 13.0, 20.0, 30.0, 45.0, 67.0, 100.0, 150.0]

LOOCV = ValidationPlan(kind="loocv")

#: a non-finite x, and a non-finite response with no explanatory column
NON_FINITE_X = make_dataset({"x": [*X10[1:], math.nan], "y": Y10}, response="y")
NON_FINITE_Y_ONLY = make_dataset({"y": [*Y10[1:], math.nan]}, response="y", name="yonly")

#: a fold that meets two errors at once, per pair: ((dataset, plan), the fold,
#: and the code and message of the error that the public path raises first)
COMPETING_ERRORS = {
    # row 0 holds x = 0 under log and the level z, which no other row holds
    "a domain error before an unseen level": (
        (make_dataset({"x": X10, "f": list("zababababa"), "y": Y10}, response="y",
                      categorical=("f",)), LOOCV), 0, "E_DOMAIN",
        "value 0.0 of variable 'x' in row 0 is outside the domain of the training-chosen "
        "'log' transform"),
    # row 0 holds 0 in x and -0.0 in w, both under log
    "the earlier of two domain columns": (
        (make_dataset({"x": X10, "w": [-0.0, *X10[2:], 200.0], "y": Y10}, response="y"),
         LOOCV), 0, "E_DOMAIN",
        "value 0.0 of variable 'x' in row 0 is outside the domain of the training-chosen "
        "'log' transform"),
    # fold 1 tests row 2, with w = -0.0, and row 5, with x = 0, both under log
    "the earlier of two domain rows": (
        (make_dataset({"x": [1.0, 1.5, 2.0, 3.0, 4.0, 0.0, 8.0, 13.0, 30.0, 80.0, 5.0, 21.0],
                       "w": [2.0, 3.0, -0.0, 4.0, 6.0, 9.0, 14.0, 22.0, 35.0, 60.0, 100.0,
                             170.0], "y": Y12}, response="y"),
         ValidationPlan(kind="kfold", k=3, seed=1)), 1, "E_DOMAIN",
        "value -0.0 of variable 'w' in row 2 is outside the domain of the training-chosen "
        "'log' transform"),
    # fold 0 tests row 2, with g's only w, and row 5, with f's only z
    "the earlier of two factors with an unseen level": (
        (make_dataset({"f": list("ababazababab"), "x": [float(v) for v in range(1, 13)],
                       "g": list("cdwdcdcdcdcd"), "y": Y12}, response="y",
                      categorical=("f", "g")),
         ValidationPlan(kind="kfold", k=3, seed=2)), 0, "E_UNSEEN_LEVEL",
        "factor 'f' has level 'z' in row 5 that was not seen in training"),
    # fold 0 trains on 4 rows with 4 levels of f, and tests x = 0 under log
    "a design wider than training before a domain error": (
        (make_dataset({"x": [0.0, 1.0, 2.0, 4.0, 8.0], "f": list("abcda"),
                       "y": [3.0, 5.0, 9.0, 17.0, 33.0]}, response="y", categorical=("f",)),
         LOOCV), 0, "E_FIT",
        "dataset 'test' has 4 rows but its schema implies 5 design columns; need at least "
        "as many rows"),
    # row 11 holds the level z, and its prediction overflows as in overflowing_case
    "an unseen level before a non-finite prediction": (
        (make_dataset({"x": [float(v) for v in range(1, 12)] + [1e200],
                       "f": list("abababababaz"), "y": Y12}, response="y", categorical=("f",)),
         LOOCV), 11, "E_UNSEEN_LEVEL",
        "factor 'f' has level 'z' in row 11 that was not seen in training"),
}


@given(st.one_of(split_plans(), split_plans().map(
    lambda case: (case[0], ValidationPlan(kind="loocv", seed=case[1].seed))), mixed_plans()))
# fold 0 tests x = 0 under the log chosen on its training rows: exp(-inf) = 0
# must fail the fold, not predict 0
@example((make_dataset({"x": X10, "y": Y10}, response="y"), LOOCV))
@example(COMPETING_ERRORS["a domain error before an unseen level"][0])
@example(COMPETING_ERRORS["the earlier of two domain columns"][0])
@example(COMPETING_ERRORS["the earlier of two domain rows"][0])
@example(COMPETING_ERRORS["the earlier of two factors with an unseen level"][0])
@example(COMPETING_ERRORS["a design wider than training before a domain error"][0])
@example(COMPETING_ERRORS["an unseen level before a non-finite prediction"][0])
# the two refusals
@example((make_dataset({"y": Y10}, response="y"), LOOCV))
@example((NON_FINITE_X, ValidationPlan(kind="kfold", k=3)))
@settings(max_examples=200, deadline=None)
def test_each_fold_equals_a_fit_of_its_exported_ids(case):
    # the harness selects transforms and gathers designs once per plan, on
    # row positions; the exported id tuples, fitted one fold at a time
    # through the public split, atlm_fit and atlm_predict, must give the
    # same fold: the same predictions, or the same failure code and message
    ds, plan = case
    folds = generate_folds(ds, plan).folds
    expected = [fit_through_split(ds, fold) for fold in folds]
    try:  # what run_validation refuses after every PlanError, before any fit
        linear._check_design(ds)
        ds.require_no_missing("validate")
        refusal = None
    except (SchemaError, MissingValueError) as exc:
        refusal = type(exc), str(exc)
        # a refusal hides no fold that the public path would fit
        assert all(predictions is None for predictions, _, _ in expected)
    try:
        outcomes = run_validation(ds, plan).outcomes
    except PlanError:
        assert plan.kind != "loocv" and min(len(test) for _, test in folds) == 1
    except (SchemaError, MissingValueError) as exc:
        assert (type(exc), str(exc)) == refusal
    except ValidationError:
        assert refusal is None
        assert all(predictions is None for predictions, _, _ in expected)
    except MetricError:  # a fold's measures are undefined, but it was fitted
        assert refusal is None
    else:
        assert refusal is None
        assert [(o.predictions, o.code, o.message) for o in outcomes] == expected
    if refusal is None:  # the fits themselves, whatever scoring makes of them
        outcomes = validation._fit_plan(ds, validation._test_masks(ds, plan, ds.fingerprint()))
        assert [(o.predictions, o.code, o.message) for o in outcomes] == expected


@pytest.mark.parametrize("pair", COMPETING_ERRORS)
def test_a_fold_with_two_errors_fails_with_the_public_path_s_first(pair):
    (ds, plan), fold, code, message = COMPETING_ERRORS[pair]
    outcome = validation._fit_plan(ds, validation._test_masks(ds, plan, ds.fingerprint()))[fold]
    assert (outcome.code, outcome.message) == (code, message)
    assert fit_through_split(ds, generate_folds(ds, plan).folds[fold]) == (None, code, message)


def test_a_fit_error_comes_before_the_errors_of_the_test_rows():
    # row 0 of its case meets a domain error and an unseen level, which the
    # public path raises only after a fit that succeeds
    (ds, plan), _, _, _ = COMPETING_ERRORS["a domain error before an unseen level"]
    singular = mock.Mock(side_effect=FitError(SINGULAR_FACTOR))
    with mock.patch.object(linear, "_qr_solve", singular), \
            mock.patch.object(validation, "_qr_solve", singular):
        outcomes = validation._fit_plan(ds, validation._test_masks(ds, plan, ds.fingerprint()))
        expected = [fit_through_split(ds, fold) for fold in generate_folds(ds, plan).folds]
    assert [(o.predictions, o.code, o.message) for o in outcomes] == expected
    assert expected[0] == (None, "E_FIT", SINGULAR_FACTOR)


@given(mixed_plans())
@settings(max_examples=100, deadline=None)
def test_each_plan_path_prediction_set_passes_the_constructor_checks(case):
    # the plan path builds its PredictionSets without the constructor's checks
    ds, plan = case
    tests = validation._test_masks(ds, plan, ds.fingerprint())
    for o in validation._fit_plan(ds, tests):
        if not o.failed:
            ps = o.predictions
            assert ps == PredictionSet(ps.row_ids, ps.predicted, ps.actual)
            assert isinstance(ps.row_ids, tuple)
            for values in (ps.predicted, ps.actual):
                assert values.dtype == np.float64 and values.shape == (len(ps),)


def clashing_dataset(name):
    """12 rows whose numeric column is named ``name``, a label the design
    gives the intercept or a level of factor f in some folds."""
    xs = [1.0, 2.0, 4.0, 8.0, 3.0, 5.0, 9.0, 6.0, 7.0, 10.0, 12.0, 11.0]
    return make_dataset({name: xs, "f": ["a", "b"] * 6, "y": [3 * x + 1 for x in xs]},
                        response="y", categorical=("f",))


@given(mixed_plans())
@example((clashing_dataset("intercept"), ValidationPlan(kind="loocv")))
@example((clashing_dataset("f=b"), ValidationPlan(kind="kfold", k=4)))
@example((clashing_dataset("f=a"), ValidationPlan(kind="loocv")))
@settings(max_examples=150, deadline=None)
def test_renaming_every_column_changes_no_fold(case):
    # a fit is keyed by design position, so a column named as the design
    # names the intercept or a factor level fits as under any other name.
    # Both fit the original's folds: the fingerprint, which seeds the
    # shuffles, reads the names.  Messages name columns; codes are compared
    ds, plan = case
    renamed = replace(ds, schema=[replace(col, name=f"r{i}") for i, col in enumerate(ds.schema)])
    tests = validation._test_masks(ds, plan, ds.fingerprint())
    original, other = (validation._fit_plan(d, tests) for d in (ds, renamed))
    assert [(o.predictions, o.code) for o in original] == \
        [(o.predictions, o.code) for o in other]


def two_training_rows_case():
    """kfold:2 on 5 rows: fold 0 trains on 2 rows, fold 1 on 3."""
    ds = make_dataset({"x": [1.0, 2.0, 4.0, 8.0, 16.0], "y": [3.0, 5.0, 9.0, 17.0, 33.0]},
                      response="y")
    return ds, ValidationPlan(kind="kfold", k=2, seed=1)


@given(mixed_plans(), st.integers(2, 3), st.integers(0, 99))
@example(two_training_rows_case(), 2, 1)
@settings(max_examples=100, deadline=None)
def test_a_stacked_pass_equals_its_plans_fitted_alone(case, count, seed):
    # an experiment fits the masks of all its runs in one pass; the plan-wide
    # candidates, screen and designs must leave each fold as its plan alone gives it
    ds, plan = case
    masks = [validation._test_masks(ds, replace(plan, seed=seed + i), ds.fingerprint())
             for i in range(count)]
    stacked = validation._fit_plan(ds, np.concatenate(masks))
    alone, start = [], 0
    for tests in masks:
        alone += [replace(o, fold=start + o.fold)
                  for o in validation._fit_plan(ds, tests)]
        start += len(tests)
    assert [(o.fold, o.predictions, o.code, o.message) for o in stacked] == \
        [(o.fold, o.predictions, o.code, o.message) for o in alone]


def test_a_fold_with_two_training_rows_fails_on_the_plan_path():
    # _designs gives a fold with under 3 training rows no design and words its
    # error, while the fold of 3 rows fits in the pass
    ds, plan = two_training_rows_case()
    tests = validation._test_masks(ds, plan, ds.fingerprint())
    assert np.count_nonzero(~tests, axis=1).tolist() == [2, 3]
    with no_public_fit():
        outcomes = validation._fit_plan(ds, tests)
    assert outcomes[0].code == "E_DEGENERATE" and not outcomes[1].failed
    folds = generate_folds(ds, plan).folds
    assert [(o.predictions, o.code, o.message) for o in outcomes] == \
        [fit_through_split(ds, fold) for fold in folds]


def exact_pass_calls(ds, plans):
    """Per plan, the (forward rows, training positions) of each call that
    ``transforms._fold_choices`` makes to ``transforms._fold_b1``."""
    forward = transforms._forward_rows(ds.values.take(ds.schema.numeric, axis=0))
    calls = []
    with mock.patch.object(transforms, "_fold_b1", wraps=transforms._fold_b1) as exact:
        for plan in plans:
            exact.reset_mock()
            transforms._fold_choices(forward, validation._test_masks(ds, plan, ds.fingerprint()))
            calls.append([call.args for call in exact.call_args_list])
    return calls


def test_the_screen_settles_every_fold_but_those_with_a_two_valued_variable(tmp_path):
    # the benchmark's leave-one-out CSV and the paper's tenfold runs on
    # desharnais and maxwell need no exact pass at all
    csv_path, schema_path = synth.write(synth.generate(1), tmp_path)
    user = load_csv(csv_path, load_schema(schema_path))
    assert exact_pass_calls(user, [ValidationPlan(kind="loocv")]) == [[]]
    tenfold = [ValidationPlan(kind="kfold", k=10, seed=seed) for seed in range(1, 31)]
    for name in ("desharnais", "maxwell"):
        assert exact_pass_calls(load_builtin(name), tenfold) == [[]] * 30, name
    # on cocomo81 it leaves exactly the folds where a variable's training values
    # are two-valued, and every transform's |b1| ties up to rounding: lexp's
    # in 57 folds, vexp's in 2
    ds = load_builtin("cocomo81")
    plans = [ValidationPlan(kind="loocv"), *tenfold,
             *(ValidationPlan(kind="holdout", test_size=10, repeats=30, seed=seed)
               for seed in range(1, 6))]
    numeric = ds.values.take(ds.schema.numeric, axis=0)
    forward = transforms._forward_rows(numeric).reshape(3, len(numeric), len(ds))
    two_valued, left, names = [], [], set()
    for plan, calls in zip(plans, exact_pass_calls(ds, plans)):
        trains = [np.flatnonzero(~test)
                  for test in validation._test_masks(ds, plan, ds.fingerprint())]
        two_valued.append({tuple(t.tolist()) for t in trains
                           if min(np.unique(row[t]).size for row in numeric) == 2})
        left.append({tuple(train) for _, group in calls for train in group.tolist()})
        # each call gets the three forward rows of each variable that is two-valued
        # in one of its folds, and no other row
        for rows, group in calls:
            variables = [v for v, row in enumerate(numeric)
                         if any(np.unique(row[train]).size == 2 for train in group)]
            assert np.array_equal(rows, forward[:, variables].reshape(-1, len(ds)))
            names.update(ds.schema[ds.schema.numeric[v]].name for v in variables)
    assert left == two_valued
    assert sum(map(len, two_valued)) == 59 and len(plans) == 36
    assert set(names) == {"lexp", "vexp"}


def sparse_factor_dataset():
    """12 rows whose factor declares level "c", held by no row, and holds "d"
    at position 7 alone; "b" is seen first, so it is the usual reference level."""
    codes = [1.0, 0.0, 1.0, 4.0, 0.0, 1.0, 4.0, 3.0, 0.0, 1.0, 4.0, 0.0]
    xs = [1.0, 2.0, 4.0, 8.0, 3.0, 5.0, 9.0, 6.0, 7.0, 10.0, 12.0, 11.0]
    ys = [3 * x + 1 + 4 * c + (-1) ** i for i, (x, c) in enumerate(zip(xs, codes))]
    schema = [ColumnSchema("f", CATEGORICAL), ColumnSchema("x", NUMERIC),
              ColumnSchema("y", NUMERIC, RESPONSE)]
    return Dataset("sparse", schema, tuple(range(3, 15)), np.array([codes, xs, ys]),
                   (("a", "b", "c", "d", "e"), (), ()))


@pytest.mark.parametrize("plan", ["loocv", "kfold:3", "kfold:4", "holdout:3x8"])
def test_a_level_held_by_no_row_or_one_row_keeps_every_fold(plan):
    # the plan path orders each factor's levels from one segment per level a
    # row holds; a declared level that no row holds has no segment
    ds = sparse_factor_dataset()
    for seed in (1, 2, 3):
        plan_ = ValidationPlan.parse(plan, seed=seed)
        folds = generate_folds(ds, plan_).folds
        outcomes = validation._fit_plan(ds, validation._test_masks(ds, plan_, ds.fingerprint()))
        expected = [fit_through_split(ds, fold) for fold in folds]
        assert [(o.predictions, o.code, o.message) for o in outcomes] == expected
        assert {code for _, code, _ in expected} == {None, "E_UNSEEN_LEVEL"}


def test_no_fold_is_fitted_a_second_time(tmp_path):
    # the plan path words every fold's failure itself: no fold reaches the
    # public atlm_fit or atlm_predict
    csv_path, schema_path = synth.write(synth.generate(1), tmp_path)
    cases = [(load_csv(csv_path, load_schema(schema_path)), LOOCV), overflowing_case(),
             two_training_rows_case()]
    cases += [(load_builtin(name), ValidationPlan(kind="kfold", k=10, seed=seed))
              for name in ("cocomo81", "desharnais", "maxwell") for seed in range(1, 11)]
    with no_public_fit():
        failed = [[o.code for o in run_validation(ds, plan).outcomes if o.failed]
                  for ds, plan in cases]
    assert failed[:3] == [["E_UNSEEN_LEVEL", "E_DOMAIN"], ["E_PREDICT"], ["E_DEGENERATE"]]


def test_the_planted_folds_fail_as_through_the_public_split(tmp_path):
    # the csv-loocv benchmark's two planted folds carry the public path's code and message
    synthetic = synth.generate(1)
    csv_path, schema_path = synth.write(synthetic, tmp_path)
    ds = load_csv(csv_path, load_schema(schema_path))
    folds = generate_folds(ds, LOOCV).folds
    failed = {o.fold: (o.code, o.message) for o in run_validation(ds, LOOCV).outcomes
              if o.failed}
    assert {fold: code for fold, (code, _) in failed.items()} == synthetic.expected_failures
    assert failed == {fold: fit_through_split(ds, folds[fold])[1:] for fold in failed}


@pytest.mark.parametrize("ds, plan, error, message", [
    (NON_FINITE_Y_ONLY, ValidationPlan(kind="kfold", k=10), PlanError,
     "plan kfold:10 leaves test folds of 1 row"),
    (NON_FINITE_Y_ONLY, LOOCV, SchemaError, "dataset 'yonly' has no explanatory columns"),
    (NON_FINITE_X, LOOCV, MissingValueError,
     "validate: dataset 'test' has a missing value in column 'x', row 9"),
])
def test_the_refusals_come_after_every_plan_error_and_in_order(ds, plan, error, message):
    # each input also meets every refusal after the one it raises
    with mock.patch.object(validation, "_fit_plan") as fit, pytest.raises(error) as exc:
        run_validation(ds, plan)
    assert str(exc.value).startswith(message)
    fit.assert_not_called()


class TestRepeatCv:
    def test_same_seed_identical(self):
        ds = linear_dataset(20)
        a = repeat_cv_experiment(ds, k=4, runs=2, base_seed=5)
        b = repeat_cv_experiment(ds, k=4, runs=2, base_seed=5)
        assert a == b

    def test_seeds_derived_from_base(self):
        ds = linear_dataset(20)
        runs = repeat_cv_experiment(ds, k=4, runs=3, base_seed=7)
        assert [r.seed for r in runs] == [7, 8, 9]

    def test_noiseless_data_has_no_spread(self):
        ds = noiseless_dataset()
        runs = repeat_cv_experiment(ds, k=4, runs=4, base_seed=1)
        means = [r.re_star_mean for r in runs]
        assert np.std(means) == pytest.approx(0.0, abs=1e-12)

    def test_needs_at_least_two_runs(self):
        with pytest.raises(PlanError):
            repeat_cv_experiment(linear_dataset(), k=3, runs=1)

    def test_a_non_integer_run_count_is_a_plan_error(self):
        with pytest.raises(PlanError, match="runs must be an integer, got 2.5"):
            repeat_cv_experiment(linear_dataset(), k=3, runs=2.5)

    @pytest.mark.parametrize("name", ["cocomo81", "maxwell"])
    def test_each_run_equals_run_validation_of_its_plan(self, name):
        # the runs are fitted in one pass, from one fingerprint
        ds = load_builtin(name)
        with mock.patch.object(Dataset, "fingerprint", autospec=True,
                               side_effect=Dataset.fingerprint) as fingerprint, \
                mock.patch.object(validation, "_fit_plan", wraps=validation._fit_plan) as fit:
            runs = repeat_cv_experiment(ds, k=10, runs=4, base_seed=3)
        assert (fingerprint.call_count, fit.call_count) == (1, 1)
        expected = []
        for run in range(4):
            result = run_validation(ds, ValidationPlan(kind="kfold", k=10, seed=3 + run))
            expected.append(CvRunSummary(
                run, 3 + run, result.summary.means["re_star"],
                float(result.summary.stds["re_star"] / np.sqrt(result.n_succeeded)),
                result.n_folds, result.n_succeeded))
        assert runs == tuple(expected)

    FAULTS = TestRunValidation.FAULTS

    @given(k=st.integers(2, 6), runs=st.integers(2, 4),
           faults=st.lists(st.sampled_from(FAULTS), min_size=24, max_size=24))
    @example(k=3, runs=2, faults=[None, "constant actuals"] + [None] * 4
             + ["nonpositive prediction"] + [None] * 17)
    @settings(max_examples=40, deadline=None)
    def test_the_first_failing_run_raises_what_run_validation_raises_for_it(
            self, k, runs, faults):
        # 40 rows give every fold of every run its own test rows, which key the faults.
        # Under k=3, fold 0 of every run has 14 test rows and folds 1 and 2 have 13,
        # so the runs' folds 0 share one stacked pass, before any other fold
        ds = linear_dataset(40)
        plans = [ValidationPlan(kind="kfold", k=k, seed=4 + run) for run in range(runs)]
        fault_of = {fold_key(split(ds, *ids)[1]): faults[run * 6 + fold]
                    for run, plan in enumerate(plans)
                    for fold, ids in enumerate(generate_folds(ds, plan).folds)}
        assert len(fault_of) == runs * k
        expected = None
        with faults_at_the_scorer(fault_of):
            for plan in plans:
                try:
                    run_validation(ds, plan)
                except (MetricError, ValidationError) as exc:
                    expected = exc
                    break
        with faults_at_the_scorer(fault_of) as scored:
            if expected is None:
                assert len(repeat_cv_experiment(ds, k=k, runs=runs, base_seed=4)) == runs
            else:
                with pytest.raises(AtlmError) as exc:
                    repeat_cv_experiment(ds, k=k, runs=runs, base_seed=4)
                assert (type(exc.value), str(exc.value)) == (type(expected), str(expected))
        # every fold of every run reached the patched scorer
        assert sorted(scored) == sorted(fault_of)

    @pytest.mark.parametrize("ds", [NON_FINITE_Y_ONLY, NON_FINITE_X],
                             ids=["no-explanatory-column", "a-non-finite-cell"])
    def test_an_input_that_fails_every_fold_is_refused_before_any_fit(self, ds):
        # as run_validation refuses it
        with pytest.raises(AtlmError) as alone:
            run_validation(ds, ValidationPlan(kind="kfold", k=3, seed=1))
        with mock.patch.object(validation, "_fit_plan") as fit, \
                pytest.raises(AtlmError) as experiment:
            repeat_cv_experiment(ds, k=3, runs=2)
        fit.assert_not_called()
        assert isinstance(alone.value, (SchemaError, MissingValueError))
        assert (type(experiment.value), str(experiment.value)) == \
            (type(alone.value), str(alone.value))

    def test_a_seed_past_64_bits_is_refused_before_any_fit(self):
        # run 5 would take seed 2**64; every plan is made before the one pass
        with mock.patch.object(validation, "_fit_plan") as fit, \
                pytest.raises(PlanError, match=f"seed must fit in 64 bits, got {2**64}$"):
            repeat_cv_experiment(load_builtin("cocomo81"), k=10, runs=30, base_seed=2**64 - 5)
        fit.assert_not_called()
