"""Bundled benchmark datasets and their default preparation recipes.

The CSV/schema pairs live in ``atlm/data``.  They are read by a plain path
under the package directory, built once at import; like the loaders, which
open a path, this needs the package installed as files.
Recipes encode the documented preparation steps; where a published step is
ambiguous the recipe carries a note that propagates into evaluation reports.

The bundled files are reconstructions of the public effort datasets,
assembled to match their published shape and statistics; cell-level values
may differ from the originals.  Anyone using them for research rather than
benchmarking this package should fetch the original distributions.
"""

from __future__ import annotations

from pathlib import Path

from .dataset import Dataset, PrepRecipe, apply_recipe, load_csv, load_schema
from .errors import ConfigError

_DATA = Path(__file__).with_name("data")

_RECIPES = {
    "cocomo81": PrepRecipe(
        notes=(
            "cocomo81: 63 projects; 15 cost-driver multipliers and lines of "
            "code as numeric inputs, development mode as a factor, effort in "
            "person-months as the response.",
        ),
    ),
    "desharnais": PrepRecipe(
        drop_rows_with_missing=True,
        drop_row_ids=(25, 32, 39),
        cast_to_categorical=("Language",),
        ignore_columns=("Project",),
        notes=(
            "desharnais: 81 raw projects; the 4 rows with missing experience "
            "values are dropped.",
            "outlier assumption: the published preparation also removes 3 "
            "outlier rows without listing them; this recipe drops the three "
            "largest-effort projects (row ids 25, 32, 39).",
            "Language is cast to a factor; the Project identifier is ignored; "
            "PointsNonAdjust stays in even though it is the sum of "
            "Transactions and Entities.",
        ),
    ),
    "maxwell": PrepRecipe(
        cast_to_categorical=("app", "har", "dba", "ifc", "source", "telonuse"),
        notes=(
            "maxwell: 62 projects; the six nominal attributes are cast to "
            "factors, the fifteen 1-5 productivity factors stay numeric, "
            "effort in hours is the response.",
        ),
    ),
}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_RECIPES))


def builtin_recipe(name: str) -> PrepRecipe:
    _check(name)
    return _RECIPES[name]


def load_builtin_raw(name: str) -> Dataset:
    """The bundled file as shipped, before any preparation."""
    _check(name)
    schema = load_schema(_DATA / f"{name}.schema")
    return load_csv(_DATA / f"{name}.csv", schema)


def load_builtin(name: str) -> Dataset:
    """The bundled dataset with its default recipe applied."""
    return apply_recipe(load_builtin_raw(name), builtin_recipe(name))


def _check(name: str) -> None:
    if not isinstance(name, str) or name not in _RECIPES:
        raise ConfigError(
            f"unknown bundled dataset {name!r}; available: {', '.join(builtin_names())}")
