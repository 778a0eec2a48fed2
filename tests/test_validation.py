from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from atlm.bundled import load_builtin
from atlm.dataset import split
from atlm.errors import PlanError, ValidationError
from atlm.pipeline import atlm_fit, atlm_predict
from atlm.validation import (
    FoldAssignment,
    ValidationPlan,
    generate_folds,
    repeat_cv_experiment,
    run_validation,
)

from conftest import make_dataset


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

    def test_invariants_against_dataset(self):
        ds = linear_dataset(5)
        with pytest.raises(PlanError):
            generate_folds(ds, ValidationPlan(kind="kfold", k=200))
        with pytest.raises(PlanError):
            generate_folds(ds, ValidationPlan(kind="holdout", test_size=5, repeats=2))


class TestGenerateFolds:
    def test_loocv_definition(self):
        ds = linear_dataset(5)
        folds = generate_folds(ds, ValidationPlan(kind="loocv")).folds
        assert [t for _, t in folds] == [(0,), (1,), (2,), (3,), (4,)]
        for train, test in folds:
            assert set(train) | set(test) == set(ds.ids)
            assert not set(train) & set(test)

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

    def test_fingerprint_selects_stream(self):
        a = generate_folds(linear_dataset(20), ValidationPlan(kind="kfold", k=4, seed=1))
        other = make_dataset({"x": list(range(20)), "y": list(range(20))},
                             response="y")
        b = generate_folds(other, ValidationPlan(kind="kfold", k=4, seed=1))
        assert a.folds != b.folds


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

    def test_non_finite_cell_fails_its_folds_with_a_typed_error(self):
        xs = [float(v) for v in range(1, 13)]
        ys = [3 * v + 5 for v in xs]
        xs[5] = float("nan")
        ds = make_dataset({"x": xs, "y": ys}, response="y")
        # the row is in training or test of every fold, so every fold fails
        with pytest.raises(ValidationError, match="non-finite value nan"):
            run_validation(ds, ValidationPlan(kind="kfold", k=3, seed=1))

    def test_all_folds_failing_is_an_error(self):
        # loocv on 3 rows leaves 2-row training sets: every fold degenerates
        bad = make_dataset({"x": [1, 2, 3], "y": [2, 4, 9]}, response="y")
        with pytest.raises(ValidationError):
            run_validation(bad, ValidationPlan(kind="loocv"))


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
