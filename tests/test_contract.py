"""The constructors and entry points of the package's user API end bad input
in a typed error.

Each call starts valid; one argument is then replaced by a malformed value.
The call must succeed or raise an :class:`~atlm.errors.AtlmError`: no bare
``TypeError``, ``ValueError`` or ``AttributeError`` may leave it.  An argument
of the wrong type raises the error class that belongs to it: SchemaError for a
dataset or a schema path, ParseError for a data path, PlanError for a plan,
RecipeError for a recipe or a recipe path, PredictionError for a model,
MetricError for a prediction set or a list of reports and DegenerateSampleError
for a sample to score.
"""

from __future__ import annotations

import json
import tempfile
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from atlm import metrics
from atlm.bundled import builtin_recipe, load_builtin, load_builtin_raw
from atlm.dataset import (ColumnSchema, Dataset, PrepRecipe, apply_recipe, load_csv, load_schema,
                          split)
from atlm.errors import (AtlmError, ConfigError, DegenerateSampleError, FitError, MetricError,
                         ParseError, PlanError, PredictionError, RecipeError, SchemaError)
from atlm.linear import DesignMatrix, fit_ols
from atlm.pipeline import AtlmModel, PredictionSet, atlm_fit, atlm_predict
from atlm.transforms import (TransformTable, apply_transforms, calculate_transforms,
                             invert_predictions, skewness_b1)
from atlm.validation import ValidationPlan, generate_folds, repeat_cv_experiment, run_validation

SCHEMA = (ColumnSchema("x", "numeric"), ColumnSchema("f", "categorical"),
          ColumnSchema("y", "numeric", "response"))
VALUES = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0], [3.0, 5.0, 7.0]])
DATASET = Dataset("d", SCHEMA, (0, 1, 2), VALUES, ((), ("a", "b"), ()))
COCOMO81 = load_builtin("cocomo81")
KFOLD3 = ValidationPlan(kind="kfold", k=3)
PREDICTIONS = PredictionSet((0, 1, 2), [1.0, 2.0, 4.0], [1.5, 2.5, 3.0])
DATA = files("atlm") / "data"
#: a valid recipe file, removed with its directory when the process exits
RECIPE_DIR = tempfile.TemporaryDirectory()
RECIPE = Path(RECIPE_DIR.name) / "d.recipe"
RECIPE.write_text(json.dumps({"drop_row_ids": [1], "notes": ["n"]}))

#: each callable with the keyword arguments of a valid call
CALLS = {
    "Dataset": (Dataset, {"name": "d", "schema": SCHEMA, "ids": (0, 1, 2), "values": VALUES,
                          "levels": ((), ("a", "b"), ())}),
    "Dataset.from_columns": (Dataset.from_columns, {
        "name": "d", "schema": SCHEMA, "ids": (0, 1, 2),
        "columns": [[1.0, 2.0, 3.0], ["a", "b", "a"], [3.0, 5.0, 7.0]]}),
    "ColumnSchema": (ColumnSchema, {"name": "x", "kind": "numeric", "role": "response"}),
    "PrepRecipe": (PrepRecipe, {"drop_rows_with_missing": True, "drop_row_ids": (1, 4),
                                "cast_to_categorical": ("x",), "ignore_columns": ("f",),
                                "notes": ("n",)}),
    "PrepRecipe.from_json_file": (PrepRecipe.from_json_file, {"path": RECIPE}),
    "PredictionSet": (PredictionSet, {"row_ids": (0, 1), "predicted": [1.0, 2.0],
                                      "actual": np.array([1.5, 2.5])}),
    "ValidationPlan(loocv)": (ValidationPlan, {"kind": "loocv", "seed": 3}),
    "ValidationPlan(kfold)": (ValidationPlan, {"kind": "kfold", "seed": 3, "k": 2}),
    "ValidationPlan(holdout)": (ValidationPlan, {"kind": "holdout", "seed": 3,
                                                 "test_size": 1, "repeats": 2}),
    "split": (split, {"ds": DATASET, "train_ids": (0, 2), "test_ids": [1]}),
    "run_validation": (run_validation, {"ds": COCOMO81, "plan": KFOLD3}),
    "generate_folds": (generate_folds, {"ds": COCOMO81, "plan": KFOLD3}),
    # two runs: a run count of 2**70 is an integer whose plans would not fit in memory
    "repeat_cv_experiment": (lambda ds, k, base_seed: repeat_cv_experiment(ds, k, 2, base_seed),
                             {"ds": COCOMO81, "k": 3, "base_seed": 1}),
    "atlm_fit": (atlm_fit, {"training": COCOMO81}),
    "atlm_predict": (atlm_predict, {"model": atlm_fit(COCOMO81), "test": COCOMO81}),
    "calculate_transforms": (calculate_transforms, {"training": COCOMO81}),
    "skewness_b1": (skewness_b1, {"values": [1.0, 2.0, 4.0]}),
    "apply_recipe": (apply_recipe, {"raw": load_builtin_raw("desharnais"),
                                    "recipe": builtin_recipe("desharnais")}),
    "load_csv": (load_csv, {"path": str(DATA / "cocomo81.csv"),
                            "schema": load_schema(str(DATA / "cocomo81.schema"))}),
    "load_schema": (load_schema, {"path": DATA / "maxwell.schema"}),
    "load_builtin": (load_builtin, {"name": "maxwell"}),
    "load_builtin_raw": (load_builtin_raw, {"name": "maxwell"}),
    "builtin_recipe": (builtin_recipe, {"name": "maxwell"}),
    **{name: (getattr(metrics, name), {"ps": PREDICTIONS})
       for name in ("mmre", "mar", "lsd", "re_star")},
    "pred": (metrics.pred, {"ps": PREDICTIONS, "x": 25.0}),
    "sa": (metrics.sa, {"ps": PREDICTIONS, "training_response": [1.0, 3.0]}),
    "report": (metrics.report, {"ps": PREDICTIONS, "training_response": [1.0, 3.0]}),
    "aggregate": (metrics.aggregate, {"reports": [metrics.report(PREDICTIONS, [1.0, 3.0])] * 2}),
}

#: (callable, argument, the error class that belongs to it) of each entry
#: point: a value of the wrong type raises that class
ARGUMENT_ERRORS = [
    *((call, "ds", SchemaError)
      for call in ("split", "run_validation", "generate_folds", "repeat_cv_experiment")),
    ("run_validation", "plan", PlanError), ("generate_folds", "plan", PlanError),
    ("atlm_fit", "training", SchemaError), ("atlm_predict", "model", PredictionError),
    ("atlm_predict", "test", SchemaError), ("calculate_transforms", "training", SchemaError),
    ("apply_recipe", "raw", SchemaError), ("apply_recipe", "recipe", RecipeError),
    ("load_csv", "path", ParseError), ("load_schema", "path", SchemaError),
    ("PrepRecipe.from_json_file", "path", RecipeError),
    ("skewness_b1", "values", DegenerateSampleError),
    *((call, "ps", MetricError)
      for call in ("mmre", "pred", "mar", "lsd", "re_star", "sa", "report")),
    ("aggregate", "reports", MetricError),
]

#: a numpy array of a dtype or a shape that no argument takes
wrong_arrays = hnp.arrays(
    st.sampled_from([np.dtype(t) for t in ("U3", "c16", "O", "?", "f8", "i8")]),
    st.sampled_from([(), (0,), (2,), (3,), (2, 2), (1, 3, 1), (3, 3)]))

malformed = st.one_of(
    st.none(), st.text(max_size=4), st.floats(), st.booleans(),
    st.lists(st.lists(st.integers(-2, 3) | st.floats() | st.text(max_size=1), max_size=3),
             min_size=1, max_size=3),
    wrong_arrays, st.just(2**70))


#: (callable, argument to replace, malformed value)
cases = st.sampled_from(sorted(CALLS)).flatmap(
    lambda call: st.tuples(st.just(call), st.sampled_from(sorted(CALLS[call][1])), malformed))


@given(cases)
@settings(max_examples=600, deadline=None)
@example(("Dataset", "schema", None))
@example(("Dataset", "values", [[1.0, 2.0, 3.0], [0.0], [3.0, 5.0, 7.0]]))
@example(("Dataset.from_columns", "columns", None))
@example(("ColumnSchema", "name", ["a"]))
@example(("ColumnSchema", "kind", np.array(["a", "b"])))
@example(("PrepRecipe", "drop_row_ids", ("a",)))
@example(("PrepRecipe", "ignore_columns", ["y"]))
@example(("PredictionSet", "predicted", ["a", "b"]))
@example(("PredictionSet", "row_ids", 2**70))
@example(("PredictionSet", "actual", np.array([1.5, 2.5j])))
@example(("ValidationPlan(kfold)", "kind", np.array(["a", "b"])))
@example(("split", "train_ids", [[0]]))
@example(("run_validation", "plan", "loocv"))
@example(("run_validation", "ds", None))
@example(("generate_folds", "ds", None))
@example(("generate_folds", "plan", "kfold:10"))
@example(("repeat_cv_experiment", "ds", None))
@example(("repeat_cv_experiment", "base_seed", "1"))
@example(("atlm_fit", "training", None))
@example(("atlm_predict", "test", None))
@example(("atlm_predict", "model", None))
@example(("calculate_transforms", "training", None))
@example(("apply_recipe", "raw", None))
@example(("apply_recipe", "recipe", None))
@example(("load_csv", "path", 5))
@example(("PrepRecipe.from_json_file", "path", None))
@example(("skewness_b1", "values", "ab"))
@example(("skewness_b1", "values", [[1, 2], [3, 5]]))
@example(("skewness_b1", "values", np.array([1.0, 2j, 3.0])))
@example(("load_schema", "path", None))
@example(("load_builtin", "name", ["maxwell"]))
@example(("mar", "ps", None))
@example(("sa", "ps", None))
@example(("sa", "training_response", np.array([1.0, 2j])))
@example(("report", "ps", None))
@example(("aggregate", "reports", [1, 2]))
@example(("aggregate", "reports", None))
def test_a_malformed_argument_succeeds_or_raises_an_atlm_error(case):
    call, name, value = case
    function, valid = CALLS[call]
    function(**valid)
    try:
        function(**{**valid, name: value})
    except AtlmError:
        pass


@pytest.mark.parametrize("call, name, error", ARGUMENT_ERRORS)
@pytest.mark.parametrize("value", [None, "text", 5, [1, 2]], ids=["None", "text", "int", "list"])
def test_an_argument_of_the_wrong_type_raises_its_own_error_class(call, name, error, value):
    function, valid = CALLS[call]
    with pytest.raises(error):
        function(**{**valid, name: value})


@pytest.mark.parametrize("call, name", [("PrepRecipe", "set_response"), ("load_csv", "name")])
def test_a_keyword_the_call_does_not_take_is_a_type_error(call, name):
    # a recipe keeps the schema's response, and a loaded dataset is named by its file's stem
    function, valid = CALLS[call]
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        function(**{**valid, name: "y"})


def without(table: TransformTable, variable: str) -> TransformTable:
    """``table`` less the entry of ``variable``."""
    return TransformTable({k: e for k, e in table.entries.items() if k != variable}, table.response)


TABLE = calculate_transforms(DATASET)
EMPTY = PredictionSet((), [], [])
MODEL = CALLS["atlm_predict"][1]["model"]

#: (call, error class, message) of refusals that no other test reaches
REFUSALS = {
    "loocv with k": (lambda: ValidationPlan(kind="loocv", k=3), PlanError,
                     "loocv takes no k/test_size/repeats"),
    "kfold with repeats": (lambda: ValidationPlan(kind="kfold", k=3, repeats=2), PlanError,
                           "kfold takes no test_size/repeats"),
    "holdout with k": (lambda: ValidationPlan(kind="holdout", test_size=1, repeats=2, k=2),
                       PlanError, "holdout takes no k"),
    "an unknown column": (lambda: DATASET.column_index("z"), SchemaError,
                          "no column named 'z' in dataset 'd'"),
    # a recipe keeps the schema's response: one that ignores or casts it leaves a
    # schema that the Dataset constructor refuses
    "an ignored response": (lambda: apply_recipe(DATASET, PrepRecipe(ignore_columns=("y",))),
                            SchemaError, "dataset 'd' must have exactly one response column, "
                                         "found 0"),
    "a response cast to a factor": (
        lambda: apply_recipe(DATASET, PrepRecipe(cast_to_categorical=("y",))), SchemaError,
        "response column 'y' must be numeric"),
    "a table without a variable": (lambda: apply_transforms(without(TABLE, "x"), DATASET),
                                   SchemaError, "transform table has no entry for variable 'x'"),
    "a table without the response": (lambda: invert_predictions(without(TABLE, "y"), [1.0]),
                                     SchemaError, "transform table has no response entry 'y'"),
    "a response of another length": (
        lambda: fit_ols(DesignMatrix(("intercept",), np.ones((3, 1)), {}), [1.0, 2.0]),
        FitError, "design has 3 rows but response has 2"),
    "no design columns": (lambda: fit_ols(DesignMatrix((), np.ones((3, 0)), {}), [1.0, 2.0, 3.0]),
                          FitError, "no usable design columns"),
    "an unknown bundled dataset": (
        lambda: load_builtin_raw("nope"), ConfigError,
        "unknown bundled dataset 'nope'; available: cocomo81, desharnais, maxwell"),
    "a model without a transform table": (
        lambda: atlm_predict(AtlmModel(MODEL.linear, MODEL.linear), COCOMO81), PredictionError,
        "a model's transforms must be of type TransformTable, got FittedLinearModel"),
    "a model without a linear fit": (
        lambda: atlm_predict(AtlmModel(MODEL.transforms, None), COCOMO81), PredictionError,
        "a model's linear fit must be of type FittedLinearModel, got NoneType"),
    "pred of no rows": (lambda: metrics.pred(EMPTY), MetricError, "empty prediction set"),
    "mar of no rows": (lambda: metrics.mar(EMPTY), MetricError, "empty prediction set"),
    "sa of no rows": (lambda: metrics.sa(EMPTY, [1.0]), MetricError, "empty prediction set"),
}


@pytest.mark.parametrize("refusal", REFUSALS)
def test_each_refusal_raises_its_error_class_and_message(refusal):
    call, error, message = REFUSALS[refusal]
    with pytest.raises(AtlmError) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)
