from __future__ import annotations

import pytest

from atlm.dataset import CATEGORICAL, ColumnSchema, Dataset, EXPLANATORY, NUMERIC, RESPONSE


def make_dataset(columns: dict, response: str, *, name: str = "test",
                 categorical: tuple = (), ignored: tuple = ()) -> Dataset:
    """Build a Dataset from {column: values}; values must be equal length."""
    schema = []
    for col in columns:
        kind = CATEGORICAL if col in categorical else NUMERIC
        role = RESPONSE if col == response else ("ignored" if col in ignored else EXPLANATORY)
        schema.append(ColumnSchema(col, kind, role))
    n = len(next(iter(columns.values())))
    cells = [[str(v) for v in values] if c in categorical else
             [None if v is None else float(v) for v in values]
             for c, values in columns.items()]
    return Dataset.from_columns(name, schema, range(n), cells)


@pytest.fixture
def exact_linear():
    """y = 2x over symmetric x, so no transform beats 'none' and OLS is exact."""
    xs = [1, 2, 3, 4, 5, 6, 7]
    return make_dataset({"x": xs, "y": [2 * v for v in xs]}, response="y")


@pytest.fixture
def factor_dataset():
    """Exact-fit system: y = 10 + 2x + 5*(f=b) + 20*(f=c)."""
    return make_dataset(
        {"f": ["a", "b", "a", "c", "b", "a"], "x": [1, 2, 3, 4, 5, 6],
         "y": [12, 19, 16, 38, 25, 22]},
        response="y", categorical=("f",))
