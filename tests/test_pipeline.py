from __future__ import annotations

import math

import numpy as np
import pytest

from atlm.bundled import load_builtin
from atlm.dataset import split
from atlm.errors import (
    DegenerateSampleError,
    FitError,
    MissingValueError,
    PredictionError,
    TransformDomainError,
)
from atlm.pipeline import PredictionSet, atlm_fit, atlm_predict, pooled
from atlm.transforms import LOG, NONE

from conftest import make_dataset


class TestFit:
    def test_exponential_response_selects_log_and_fits_exactly(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        ds = make_dataset({"x": xs, "y": [math.exp(v) for v in xs]}, response="y")
        model = atlm_fit(ds)
        assert model.transforms["y"].kind == LOG
        assert model.transforms["x"].kind == NONE
        predictions = atlm_predict(model, ds)
        residual = np.linalg.norm(predictions.predicted - predictions.actual)
        assert residual < 1e-8

    def test_all_categorical_explanatory(self):
        ds = make_dataset(
            {"f": ["a", "b", "c", "a", "b", "c", "a", "b"],
             "y": [10, 20, 30, 11, 19, 31, 9, 21]},
            response="y", categorical=("f",))
        model = atlm_fit(ds)
        assert model.transforms["f"].kind == NONE
        assert set(model.linear.design_labels) == {"intercept", "f=b", "f=c"}

    def test_two_rows_degenerate(self):
        ds = make_dataset({"x": [1, 2], "y": [3, 4]}, response="y")
        with pytest.raises(DegenerateSampleError):
            atlm_fit(ds)

    def test_missing_values_rejected(self):
        ds = make_dataset({"x": [1, None, 3, 4], "y": [1, 2, 3, 4]}, response="y")
        with pytest.raises(MissingValueError):
            atlm_fit(ds)

    @pytest.mark.parametrize("bad, what", [(float("nan"), "a missing value"),
                                           (float("inf"), "non-finite value inf")],
                             ids=["nan", "inf"])
    def test_non_finite_values_rejected(self, exact_linear, bad, what):
        ds = make_dataset({"x": [1, bad, 3, 4], "y": [1, 2, 3, 4]}, response="y")
        with pytest.raises(MissingValueError, match=what):
            atlm_fit(ds)
        test = make_dataset({"x": [bad], "y": [1.0]}, response="y")
        with pytest.raises(MissingValueError, match=what):
            atlm_predict(atlm_fit(exact_linear), test)

    def test_too_few_rows_for_design(self):
        ds = make_dataset(
            {"f": ["a", "b", "c", "d"], "x": [1, 2, 3, 4], "y": [1, 2, 3, 4]},
            response="y", categorical=("f",))
        # design needs 1 + 1 + 3 = 5 columns but only 4 rows exist
        with pytest.raises(FitError):
            atlm_fit(ds)


class TestPredict:
    def test_exact_linear_recovery(self, exact_linear):
        model = atlm_fit(exact_linear)
        test = make_dataset({"x": [7.0], "y": [14.0]}, response="y")
        predictions = atlm_predict(model, test)
        assert predictions.predicted[0] == pytest.approx(14.0, rel=1e-10)
        assert predictions.actual[0] == 14.0

    def test_training_set_identity(self):
        # square full-rank design (intercept + 3 dummies over 4 rows), so the
        # fit interpolates exactly on the transformed scale and inverting
        # recovers the actuals no matter which transform was selected
        ds = make_dataset({"f": ["a", "b", "c", "d"], "y": [12, 19, 16, 38]},
                          response="y", categorical=("f",))
        model = atlm_fit(ds)
        predictions = atlm_predict(model, ds)
        assert predictions.predicted == pytest.approx(
            np.asarray(ds.response_column()), rel=1e-8)

    def test_actuals_are_raw_originals(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        ds = make_dataset({"x": xs, "y": [math.exp(v) for v in xs]}, response="y")
        model = atlm_fit(ds)
        predictions = atlm_predict(model, ds)
        assert predictions.actual.tolist() == [math.exp(v) for v in xs]

    def test_domain_error_names_row(self):
        train = make_dataset({"x": [1, 2, 3, 4, 100], "y": [2, 4, 6, 8, 200]},
                             response="y")
        model = atlm_fit(train)
        assert model.transforms["x"].kind == LOG
        test = make_dataset({"x": [-1.0], "y": [5.0]}, response="y")
        with pytest.raises(TransformDomainError, match="row 0"):
            atlm_predict(model, test)

    @pytest.mark.filterwarnings("error")
    def test_overflow_on_inversion_is_a_prediction_error(self):
        # log response: a linear predictor of 1000 overflows exp()
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        ds = make_dataset({"x": xs, "y": [math.exp(v) for v in xs]}, response="y")
        model = atlm_fit(ds)
        test = make_dataset({"x": [1000.0], "y": [1.0]}, response="y")
        with pytest.raises(PredictionError):
            atlm_predict(model, test)

    def test_end_to_end_determinism(self):
        ds = load_builtin("cocomo81")
        train, test = split(ds, ds.ids[:53], ds.ids[53:])
        first = atlm_predict(atlm_fit(train), test)
        second = atlm_predict(atlm_fit(train), test)
        assert first == second  # bit-identical rows


def test_pooled_preserves_order():
    a = PredictionSet((0,), [1.0], [2.0])
    b = PredictionSet((5,), [3.0], [4.0])
    assert pooled([a, b]).row_ids == (0, 5)


@pytest.mark.parametrize("row_ids, predicted, actual", [
    ((1, 2), [1.0, 3.0], [2.0]),  # actual too short
    ((1, 2, 3), [1.0, 2.0, 3.0], [1.0, 2.5]),
    ((1, 2), [1.0, 2.0], [1.0, 2.0, 3.0]),  # actual too long
    ((1, 2, 3), [1.0, 2.0], [1.0, 2.0]),  # fewer values than ids
    ((1,), [[1.0]], [1.0]),  # 2-D
    ((1,), 1.0, 1.0),  # 0-D
], ids=["short-actual", "short-both", "long-actual", "extra-id", "2-d", "0-d"])
def test_prediction_set_rejects_misaligned_arrays(row_ids, predicted, actual):
    with pytest.raises(PredictionError, match="do not fit"):
        PredictionSet(row_ids, predicted, actual)


@pytest.mark.parametrize("row_ids, predicted, actual, message", [
    ((1,), ["a"], [1], "predicted must be numbers, got ['a']"),
    ((1, 2), [1.0, [2.0, 3.0]], [1.0, 2.0], "predicted must be numbers, got [1.0, [2.0, 3.0]]"),
    ((1,), [1.0], np.array([2.0 + 1j]), "actual must be numbers, got array([2.+1.j])"),
    (3, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "row_ids must be a sequence, got 3"),
    (None, [1.0], [1.0], "row_ids must be a sequence, got None"),
], ids=["text", "ragged", "complex", "int-row-ids", "no-row-ids"])
def test_prediction_set_refuses_what_is_not_a_sequence_of_numbers(row_ids, predicted, actual,
                                                                  message):
    with pytest.raises(PredictionError) as caught:
        PredictionSet(row_ids, predicted, actual)
    assert str(caught.value) == message


def test_prediction_set_rejects_non_finite():
    with pytest.raises(Exception):
        PredictionSet((0,), [float("inf")], [1.0])
