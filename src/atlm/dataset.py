"""In-memory tabular datasets, CSV ingestion, and preparation recipes.

A :class:`Dataset` is immutable and columnar: one (columns x rows) matrix
holds every column, so per-fold work is whole-array operations, and every
change returns a new instance that folds can share.  Rows keep the
identifiers they were assigned when the raw file was loaded (0-based line
order), which is what fold assignments, prediction sets, and recipes refer
to.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    AtlmError,
    MissingValueError,
    ParseError,
    RecipeError,
    SchemaError,
    SplitError,
)

NUMERIC = "numeric"
CATEGORICAL = "categorical"
EXPLANATORY = "explanatory"
RESPONSE = "response"
IGNORED = "ignored"

_KINDS = (NUMERIC, CATEGORICAL)
_ROLES = (EXPLANATORY, RESPONSE, IGNORED)

#: cell spellings treated as missing when loading CSV files
MISSING_TOKENS = ("", "?", "NA")


def format_number(value: float) -> str:
    """Shortest decimal text that round-trips the float exactly."""
    return repr(float(value))


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str
    role: str = EXPLANATORY

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be nonempty")
        if self.kind not in _KINDS:
            raise SchemaError(f"unknown column kind {self.kind!r} for {self.name!r}")
        if self.role not in _ROLES:
            raise SchemaError(f"unknown column role {self.role!r} for {self.name!r}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Named columns plus a numeric response, stored as one matrix.

    ``values`` is a (columns x rows) float64 array in schema order holding a
    numeric column's numbers or a factor's codes into its ``levels`` tuple;
    missing cells are NaN and set in ``missing``.  ``ids`` are the original
    row identifiers; ``source_rows`` is the row count of the loaded file,
    which recipe row references are validated against.
    """

    name: str
    schema: tuple[ColumnSchema, ...]
    ids: tuple[int, ...]
    values: np.ndarray
    missing: np.ndarray
    levels: tuple[tuple[str, ...], ...]
    source_rows: int = -1

    def __post_init__(self) -> None:
        names = [c.name for c in self.schema]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {self.name!r}")
        responses = [c for c in self.schema if c.role == RESPONSE]
        if len(responses) != 1:
            raise SchemaError(
                f"dataset {self.name!r} must have exactly one response column, "
                f"found {len(responses)}")
        if responses[0].kind != NUMERIC:
            raise SchemaError(f"response column {responses[0].name!r} must be numeric")
        if not (self.values.shape == self.missing.shape == (len(names), len(self.ids))
                and len(self.levels) == len(names)):
            raise SchemaError(f"column arrays of {self.name!r} do not fit its schema")
        if len(set(self.ids)) != len(self.ids):
            raise SchemaError("row ids must be unique")
        if self.source_rows < 0:
            object.__setattr__(self, "source_rows", len(self.ids))

    @classmethod
    def from_columns(cls, name: str, schema, ids, columns,
                     source_rows: int = -1) -> "Dataset":
        """Build from one sequence of cells per schema column: numbers, or
        strings for factors; None where missing.  Codes follow first appearance."""
        schema, ids = tuple(schema), tuple(ids)
        rows = [_codes(cells) if col.kind == CATEGORICAL else (cells, ())
                for col, cells in zip(schema, columns)]
        values = np.array([row for row, _ in rows], dtype=float)  # None becomes NaN
        missing = np.isnan(values)
        for i in np.flatnonzero(missing.any(axis=1)).tolist():
            missing[i] = [v is None for v in columns[i]]  # a NaN cell is not a gap
        return cls(name, schema, ids, values, missing,
                   tuple(levels for _, levels in rows), source_rows)

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        return isinstance(other, Dataset) and (
            (self.name, self.schema, self.ids, self.source_rows, self.rows)
            == (other.name, other.schema, other.ids, other.source_rows, other.rows))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {c.name: i for i, c in enumerate(self.schema)}

    @cached_property
    def _positions(self) -> dict[int, int]:
        return {rid: i for i, rid in enumerate(self.ids)}

    @property
    def response_name(self) -> str:
        return next(c.name for c in self.schema if c.role == RESPONSE)

    def column_index(self, name: str) -> int:
        if name not in self._index:
            raise SchemaError(f"no column named {name!r} in dataset {self.name!r}")
        return self._index[name]

    def column_schema(self, name: str) -> ColumnSchema:
        return self.schema[self.column_index(name)]

    def column(self, name: str) -> tuple:
        """The column's cells: floats or level strings, None where missing."""
        i = self.column_index(name)
        cells, levels = self.values[i].tolist(), self.levels[i]  # no levels: numeric
        if levels or self.missing[i].any():
            cells = [None if gap else levels[int(v)] if levels else v
                     for v, gap in zip(cells, self.missing[i].tolist())]
        return tuple(cells)

    @property
    def rows(self) -> tuple[tuple[object, ...], ...]:
        return tuple(zip(*(self.column(c.name) for c in self.schema)))

    def response_column(self) -> np.ndarray:
        return self.values[self.column_index(self.response_name)]

    def active_columns(self) -> tuple[ColumnSchema, ...]:
        """Schema columns that take part in modelling (not ignored)."""
        return tuple(c for c in self.schema if c.role != IGNORED)

    def has_missing(self) -> bool:
        return self._first_gap(non_finite=False) is not None

    def fingerprint(self) -> str:
        """SHA-256 over schema and cell content (display name excluded)."""
        h = hashlib.sha256()
        for c in self.schema:
            h.update(f"{c.name}|{c.kind}|{c.role}\n".encode())
        columns = [["?" if v is None else format_number(v) if c.kind == NUMERIC else v
                    for v in self.column(c.name)] for c in self.schema]
        for rid, cells in zip(self.ids, zip(*columns)):
            h.update(f"{rid}:{','.join(cells)}\n".encode())
        return h.hexdigest()

    def require_no_missing(self, context: str) -> None:
        """Reject a missing cell, or a non-finite numeric cell, in an active column."""
        gap = self._first_gap(non_finite=True)
        if gap is not None:
            name, rid, value = gap
            what = "a missing value" if value is None else f"the non-finite value {value!r}"
            raise MissingValueError(
                f"{context}: dataset {self.name!r} has {what} "
                f"in column {name!r}, row {rid}")

    def _first_gap(self, non_finite: bool):
        """(column, row id, cell) of the first missing cell of an active column,
        row by row, or None; with ``non_finite`` NaN and infinite cells count too."""
        active = [i for i, c in enumerate(self.schema) if c.role != IGNORED]
        gaps = ~np.isfinite(self.values[active]) if non_finite else self.missing[active]
        rows = gaps.any(axis=0)
        if not rows.any():
            return None
        row = int(rows.argmax())
        name = self.schema[active[int(gaps[:, row].argmax())]].name
        return name, self.ids[row], self.column(name)[row]

    def _take(self, ids) -> "Dataset":
        """The rows with these ids, in this order."""
        ids = tuple(ids)
        at = np.fromiter(map(self._positions.__getitem__, ids), dtype=np.intp, count=len(ids))
        return replace(self, ids=ids, values=self.values.take(at, axis=1),
                       missing=self.missing.take(at, axis=1))


def _codes(cells) -> tuple[list, tuple[str, ...]]:
    """Factor cells as codes (None where missing) into levels in order of appearance."""
    levels = tuple(dict.fromkeys(v for v in cells if v is not None))
    index = {level: k for k, level in enumerate(levels)}
    return [index.get(v) for v in cells], levels


def _read_text(path: Path, error: type[AtlmError], what: str) -> str:
    """The file's UTF-8 text; no such file, a directory or bad bytes raise ``error``."""
    if not path.is_file():
        raise error(f"{what} file not found: {path}")
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text at byte {exc.start}: {exc.reason}") from None


def load_schema(path: str | Path) -> tuple[ColumnSchema, ...]:
    """Read a sidecar schema: one ``name kind role`` line per column."""
    path = Path(path)
    columns = []
    for lineno, line in enumerate(_read_text(path, SchemaError, "schema").splitlines(),
                                  start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise SchemaError(f"{path}:{lineno}: expected 'name kind role', got {line!r}")
        columns.append(ColumnSchema(*parts))
    if not columns:
        raise SchemaError(f"{path}: schema defines no columns")
    return tuple(columns)


def load_csv(path: str | Path, schema: tuple[ColumnSchema, ...],
             name: str | None = None) -> Dataset:
    """Load a comma-separated UTF-8 file with a header row.

    The header must contain exactly the schema's column names (any order).
    Numeric cells must parse as finite numbers; empty, ``?`` and ``NA``
    cells become missing markers to be resolved by a recipe.
    """
    path = Path(path)
    text = _read_text(path, ParseError, "data")
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        wanted = [c.name for c in schema]
        if sorted(header) != sorted(wanted):
            missing = set(wanted) - set(header)
            extra = set(header) - set(wanted)
            raise SchemaError(
                f"{path}: header does not match schema"
                + (f"; missing {sorted(missing)}" if missing else "")
                + (f"; unexpected {sorted(extra)}" if extra else ""))
        order = [header.index(n) for n in wanted]
        columns: list[list] = [[] for _ in schema]
        fields = [(cells.append, col.name, col.kind == NUMERIC, src)
                  for cells, col, src in zip(columns, schema, order)]
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} cells, "
                                 f"got {len(record)}")
            for append, column, numeric, src in fields:
                text = record[src].strip()
                if text in MISSING_TOKENS:
                    append(None)
                elif numeric:
                    try:
                        value = float(text)
                    except ValueError:
                        raise ParseError(
                            f"{path}:{lineno}: column {column!r}: "
                            f"cannot parse {text!r} as a number") from None
                    if not math.isfinite(value):
                        raise ParseError(
                            f"{path}:{lineno}: column {column!r}: "
                            f"non-finite value {text!r}")
                    append(value)
                else:
                    append(text)
    n = len(columns[0]) if columns else 0
    return Dataset.from_columns(name if name is not None else path.stem, schema,
                                range(n), columns, source_rows=n)


def write_csv(ds: Dataset, path: str | Path) -> None:
    """Serialize; numeric cells use shortest round-tripping decimals."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in ds.schema])
        for row in ds.rows:
            writer.writerow(["" if v is None else
                             format_number(v) if isinstance(v, float) else str(v)
                             for v in row])


def write_schema(schema: tuple[ColumnSchema, ...], path: str | Path) -> None:
    lines = [f"{c.name} {c.kind} {c.role}" for c in schema]
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class PrepRecipe:
    """Documented preparation steps applied to a raw dataset.

    ``drop_row_ids`` refer to row ids of the originally loaded file;
    ids that were already dropped are skipped (re-applying a recipe is a
    no-op), ids outside the original file are an error.  ``notes`` travel
    into evaluation reports so reproduction assumptions stay visible.
    """

    drop_rows_with_missing: bool = False
    drop_row_ids: tuple[int, ...] = ()
    cast_to_categorical: tuple[str, ...] = ()
    set_response: str | None = None
    ignore_columns: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    @classmethod
    def from_json_file(cls, path: str | Path) -> "PrepRecipe":
        path = Path(path)
        try:
            raw = json.loads(_read_text(path, RecipeError, "recipe"))
        except json.JSONDecodeError as exc:
            raise RecipeError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise RecipeError(f"{path}: a recipe must be a JSON object")
        unknown = set(raw) - set(_RECIPE_FIELDS)
        if unknown:
            raise RecipeError(f"{path}: unknown recipe fields {sorted(unknown)}")
        for key, value in raw.items():
            if not _has_type(value, _RECIPE_FIELDS[key]):
                raise RecipeError(f"{path}: field {key!r} has the wrong type: {value!r}")
        return cls(**{key: tuple(value) if isinstance(value, list) else value
                      for key, value in raw.items()})


#: each recipe field's JSON type: a type, a tuple of types, or [type] for a list
_RECIPE_FIELDS = {"drop_rows_with_missing": bool, "drop_row_ids": [int],
                  "cast_to_categorical": [str], "set_response": (str, type(None)),
                  "ignore_columns": [str], "notes": [str]}


def _has_type(value, want) -> bool:
    if isinstance(want, list):
        return isinstance(value, list) and all(_has_type(v, want[0]) for v in value)
    return isinstance(value, want) and (want is bool or not isinstance(value, bool))


def apply_recipe(raw: Dataset, recipe: PrepRecipe) -> Dataset:
    """Drop rows, re-type and ignore columns, designate the response."""
    known = {c.name for c in raw.schema}
    for col in (*recipe.cast_to_categorical, *recipe.ignore_columns):
        if col not in known:
            raise RecipeError(f"recipe references unknown column {col!r}")
    if recipe.set_response is not None and recipe.set_response not in known:
        raise RecipeError(f"recipe response column {recipe.set_response!r} not found")
    for rid in recipe.drop_row_ids:
        if not (0 <= rid < raw.source_rows):
            raise RecipeError(
                f"recipe drops row id {rid}, but the raw dataset only had "
                f"rows 0..{raw.source_rows - 1}")

    drop = set(recipe.drop_row_ids)
    ds = raw._take(rid for rid in raw.ids if rid not in drop)

    schema = list(raw.schema)
    casts = set(recipe.cast_to_categorical)
    ignores = set(recipe.ignore_columns)
    for i, col in enumerate(schema):
        kind = CATEGORICAL if col.name in casts else col.kind
        role = col.role
        if col.name in ignores:
            role = IGNORED
        if recipe.set_response is not None:
            if col.name == recipe.set_response:
                role = RESPONSE
            elif role == RESPONSE:
                role = EXPLANATORY
        schema[i] = ColumnSchema(col.name, kind, role)

    values, levels = ds.values.copy(), list(ds.levels)
    for i in [i for i, (c, old) in enumerate(zip(schema, raw.schema)) if c.kind != old.kind]:
        values[i], levels[i] = _codes([None if v is None else _category_label(v)
                                       for v in ds.column(schema[i].name)])
    ds = replace(ds, schema=tuple(schema), values=values, levels=tuple(levels))

    if recipe.drop_rows_with_missing:
        gaps = ds.missing.any(axis=0).tolist()
        ds = ds._take(rid for rid, gap in zip(ds.ids, gaps) if not gap)

    gap = ds._first_gap(non_finite=False)
    if gap is not None:
        raise RecipeError(
            f"prepared dataset still has a missing value in column "
            f"{gap[0]!r}, row {gap[1]}; drop the row or ignore the column")
    return ds


def _category_label(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return format_number(value)


def split(ds: Dataset, train_ids, test_ids) -> tuple[Dataset, Dataset]:
    """Partition rows by id into (train, test), preserving the id order."""
    train_ids = tuple(train_ids)
    test_ids = tuple(test_ids)
    if not train_ids or not test_ids:
        raise SplitError("train and test id lists must both be nonempty")
    train, test = set(train_ids), set(test_ids)
    overlap = train & test
    if overlap:
        raise SplitError(f"train and test ids overlap: {sorted(overlap)}")
    if len(train) != len(train_ids) or len(test) != len(test_ids):
        raise SplitError("duplicate ids in split")
    unknown = (train | test) - ds._positions.keys()
    if unknown:
        raise SplitError(f"ids not present in dataset {ds.name!r}: "
                         f"{[i for i in (*train_ids, *test_ids) if i in unknown]}")
    return ds._take(train_ids), ds._take(test_ids)
