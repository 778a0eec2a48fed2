from __future__ import annotations

import numpy as np
import pytest

from atlm.errors import FitError, SchemaError, UnseenLevelError
from atlm.linear import (
    DesignMatrix,
    INTERCEPT,
    UNSEEN_AS_REFERENCE,
    build_design,
    fit_ols,
    predict,
)
from atlm.rng import Pcg32

from conftest import make_dataset


def normal_equations_oracle(x, y):
    """Independent dense solve of (X'X) b = X'y."""
    return np.linalg.solve(x.T @ x, x.T @ y)


def random_system(rng: Pcg32, n, p):
    def u():
        return rng.next_uint32() / 2**32 * 4.0 - 2.0
    x = np.array([[1.0] + [u() for _ in range(p - 1)] for _ in range(n)])
    y = np.array([u() for _ in range(n)])
    return x, y


class TestBuildDesign:
    def test_factor_dummies_with_reference_first_seen(self):
        ds = make_dataset({"f": ["a", "b", "a", "c"], "y": [1, 2, 3, 4]},
                          response="y", categorical=("f",))
        design = build_design(ds)
        assert design.labels == (INTERCEPT, "f=b", "f=c")
        assert design.matrix[:, 1].tolist() == [0, 1, 0, 0]
        assert design.matrix[:, 2].tolist() == [0, 0, 0, 1]
        assert design.factor_levels["f"] == ("a", "b", "c")

    def test_all_numeric_has_intercept_plus_columns(self, exact_linear):
        design = build_design(exact_linear)
        assert design.labels == (INTERCEPT, "x")
        assert (design.matrix[:, 0] == 1.0).all()

    def test_unseen_level_is_an_error(self):
        train = make_dataset({"f": ["a", "b", "a"], "y": [1, 2, 3]},
                             response="y", categorical=("f",))
        design = build_design(train)
        test = make_dataset({"f": ["d"], "y": [1]}, response="y", categorical=("f",))
        with pytest.raises(UnseenLevelError, match="'d'"):
            build_design(test, levels=design.factor_levels)

    def test_unseen_level_as_reference_policy(self):
        train = make_dataset({"f": ["a", "b", "a"], "y": [1, 2, 3]},
                             response="y", categorical=("f",))
        design = build_design(train)
        test = make_dataset({"f": ["d", "b"], "y": [1, 1]}, response="y",
                            categorical=("f",))
        out = build_design(test, levels=design.factor_levels,
                           unseen_level=UNSEEN_AS_REFERENCE)
        assert out.matrix[0].tolist() == [1.0, 0.0]  # treated as the reference level
        assert out.matrix[1].tolist() == [1.0, 1.0]


class TestFitOls:
    def test_exact_linear_data(self):
        x = np.column_stack([np.ones(3), [1.0, 2.0, 3.0]])
        design = DesignMatrix(labels=(INTERCEPT, "x"), matrix=x, factor_levels={})
        model = fit_ols(design, [2.0, 4.0, 6.0])
        assert model.coefficients[INTERCEPT] == pytest.approx(0.0, abs=1e-10)
        assert model.coefficients["x"] == pytest.approx(2.0, abs=1e-10)
        assert not model.aliased

    def test_duplicate_column_aliased_predictions_unchanged(self):
        base = np.column_stack([np.ones(3), [1.0, 2.0, 3.0]])
        dup = np.column_stack([base, [1.0, 2.0, 3.0]])
        y = [2.0, 4.0, 6.0]
        full = fit_ols(DesignMatrix((INTERCEPT, "x"), base, {}), y)
        dupped = fit_ols(DesignMatrix((INTERCEPT, "x", "x2"), dup, {}), y)
        assert dupped.aliased & {"x", "x2"}
        beta = dupped.coefficient_vector()
        assert dup @ beta == pytest.approx((base @ full.coefficient_vector()).tolist(),
                                           rel=1e-10)

    def test_matches_normal_equations_oracle(self):
        rng = Pcg32(7, stream=1)
        x, y = random_system(rng, 5, 3)
        design = DesignMatrix(("intercept", "a", "b"), x, {})
        model = fit_ols(design, y)
        oracle = normal_equations_oracle(x, y)
        assert model.coefficient_vector() == pytest.approx(oracle.tolist(), rel=1e-8)

    def test_too_few_rows(self):
        x = np.ones((1, 1))
        with pytest.raises(FitError):
            fit_ols(DesignMatrix((INTERCEPT,), x, {}), [1.0])

    def test_residual_orthogonality(self):
        rng = Pcg32(11, stream=2)
        for _ in range(20):
            x, y = random_system(rng, 12, 4)
            design = DesignMatrix(tuple(f"c{i}" for i in range(4)), x, {})
            model = fit_ols(design, y)
            residual = y - x @ model.coefficient_vector()
            scale = np.linalg.norm(x) * np.linalg.norm(y)
            assert np.abs(x.T @ residual).max() <= 1e-8 * scale

    def test_permutation_invariance(self):
        rng = Pcg32(13, stream=3)
        x, y = random_system(rng, 10, 3)
        design = DesignMatrix(("intercept", "a", "b"), x, {})
        model = fit_ols(design, y)
        perm = [3, 1, 4, 0, 9, 8, 7, 2, 5, 6]
        shuffled = fit_ols(DesignMatrix(("intercept", "a", "b"), x[perm], {}), y[perm])
        for label in ("intercept", "a", "b"):
            assert shuffled.coefficients[label] == pytest.approx(
                model.coefficients[label], abs=1e-10)

    def test_linear_combination_column_leaves_predictions_unchanged(self):
        # the deliberately redundant-feature case: extra = a + b
        rng = Pcg32(17, stream=4)
        x, y = random_system(rng, 15, 3)
        extra = x[:, 1] + x[:, 2]
        wide = np.column_stack([x, extra])
        slim_model = fit_ols(DesignMatrix(("intercept", "a", "b"), x, {}), y)
        wide_model = fit_ols(DesignMatrix(("intercept", "a", "b", "ab"), wide, {}), y)
        slim_pred = x @ slim_model.coefficient_vector()
        wide_pred = wide @ wide_model.coefficient_vector()
        assert wide_pred == pytest.approx(slim_pred.tolist(), rel=1e-8, abs=1e-8)


class TestPredict:
    def test_linear_evaluation(self, exact_linear):
        design = build_design(exact_linear)
        model = fit_ols(design, exact_linear.response_column(), response_name="y")
        test = make_dataset({"x": [10], "y": [0]}, response="y")
        assert predict(model, test) == pytest.approx([20.0], rel=1e-10)

    def test_interpolates_consistent_system(self, factor_dataset):
        design = build_design(factor_dataset)
        y = np.asarray(factor_dataset.response_column())
        model = fit_ols(design, y, response_name="y")
        assert predict(model, factor_dataset) == pytest.approx(y.tolist(), rel=1e-8)

    def test_schema_mismatch_detected(self, exact_linear):
        design = build_design(exact_linear)
        model = fit_ols(design, exact_linear.response_column(), response_name="y")
        other = make_dataset({"z": [1.0], "y": [0]}, response="y")
        with pytest.raises(SchemaError):
            predict(model, other)
