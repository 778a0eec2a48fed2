"""The constructors of the package's user API end bad input in a typed error.

Each call starts valid; one argument is then replaced by a malformed value.
The call must succeed or raise an :class:`~atlm.errors.AtlmError`: no bare
``TypeError``, ``ValueError`` or ``AttributeError`` may leave it.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from atlm.dataset import ColumnSchema, Dataset, PrepRecipe, split
from atlm.errors import AtlmError
from atlm.pipeline import PredictionSet
from atlm.validation import ValidationPlan

SCHEMA = (ColumnSchema("x", "numeric"), ColumnSchema("f", "categorical"),
          ColumnSchema("y", "numeric", "response"))
VALUES = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0], [3.0, 5.0, 7.0]])
DATASET = Dataset("d", SCHEMA, (0, 1, 2), VALUES, ((), ("a", "b"), ()))

#: each callable with the keyword arguments of a valid call
CALLS = {
    "Dataset": (Dataset, {"name": "d", "schema": SCHEMA, "ids": (0, 1, 2), "values": VALUES,
                          "levels": ((), ("a", "b"), ()), "source_rows": -1}),
    "Dataset.from_columns": (Dataset.from_columns, {
        "name": "d", "schema": SCHEMA, "ids": (0, 1, 2),
        "columns": [[1.0, 2.0, 3.0], ["a", "b", "a"], [3.0, 5.0, 7.0]], "source_rows": 5}),
    "ColumnSchema": (ColumnSchema, {"name": "x", "kind": "numeric", "role": "response"}),
    "PrepRecipe": (PrepRecipe, {"drop_rows_with_missing": True, "drop_row_ids": (1, 4),
                                "cast_to_categorical": ("x",), "set_response": "y",
                                "ignore_columns": ("f",), "notes": ("n",)}),
    "PredictionSet": (PredictionSet, {"row_ids": (0, 1), "predicted": [1.0, 2.0],
                                      "actual": np.array([1.5, 2.5])}),
    "ValidationPlan(loocv)": (ValidationPlan, {"kind": "loocv", "seed": 3}),
    "ValidationPlan(kfold)": (ValidationPlan, {"kind": "kfold", "seed": 3, "k": 2}),
    "ValidationPlan(holdout)": (ValidationPlan, {"kind": "holdout", "seed": 3,
                                                 "test_size": 1, "repeats": 2}),
    "split": (lambda train_ids, test_ids: split(DATASET, train_ids, test_ids),
              {"train_ids": (0, 2), "test_ids": [1]}),
}

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
def test_a_malformed_argument_succeeds_or_raises_an_atlm_error(case):
    call, name, value = case
    function, valid = CALLS[call]
    function(**valid)
    try:
        function(**{**valid, name: value})
    except AtlmError:
        pass
