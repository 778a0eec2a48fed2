"""In-memory tabular datasets, CSV ingestion, and preparation recipes.

A :class:`Dataset` is immutable: every operation that changes anything
returns a new instance, so datasets can be shared freely across folds.
Rows keep the identifiers they were assigned when the raw file was loaded
(0-based line order), which is what fold assignments, prediction sets, and
recipes refer to.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

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


@dataclass(frozen=True)
class Dataset:
    """Named columns of numeric or categorical cells plus a numeric response.

    ``ids`` are the original row identifiers; ``source_rows`` remembers how
    many rows the originally loaded file had, which is the universe that
    recipe row references are validated against.
    """

    name: str
    schema: tuple[ColumnSchema, ...]
    ids: tuple[int, ...]
    rows: tuple[tuple[object, ...], ...]
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
        if len(self.ids) != len(self.rows):
            raise SchemaError("row ids and rows must have equal length")
        if len(set(self.ids)) != len(self.ids):
            raise SchemaError("row ids must be unique")
        width = len(self.schema)
        for rid, row in zip(self.ids, self.rows):
            if len(row) != width:
                raise SchemaError(f"row {rid} has {len(row)} cells, expected {width}")
        if self.source_rows < 0:
            object.__setattr__(self, "source_rows", len(self.rows))

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def response_name(self) -> str:
        return next(c.name for c in self.schema if c.role == RESPONSE)

    def column_index(self, name: str) -> int:
        for i, c in enumerate(self.schema):
            if c.name == name:
                return i
        raise SchemaError(f"no column named {name!r} in dataset {self.name!r}")

    def column_schema(self, name: str) -> ColumnSchema:
        return self.schema[self.column_index(name)]

    def column(self, name: str) -> tuple:
        i = self.column_index(name)
        return tuple(row[i] for row in self.rows)

    def response_column(self) -> tuple:
        return self.column(self.response_name)

    def active_columns(self) -> tuple[ColumnSchema, ...]:
        """Schema columns that take part in modelling (not ignored)."""
        return tuple(c for c in self.schema if c.role != IGNORED)

    def has_missing(self) -> bool:
        active = [self.column_index(c.name) for c in self.active_columns()]
        return any(row[i] is None for row in self.rows for i in active)

    def fingerprint(self) -> str:
        """SHA-256 over schema and cell content (display name excluded)."""
        h = hashlib.sha256()
        for c in self.schema:
            h.update(f"{c.name}|{c.kind}|{c.role}\n".encode())
        for rid, row in zip(self.ids, self.rows):
            cells = ",".join(_canonical_cell(v) for v in row)
            h.update(f"{rid}:{cells}\n".encode())
        return h.hexdigest()

    def require_no_missing(self, context: str) -> None:
        """Reject a missing cell, or a non-finite numeric cell, in an active column."""
        active = [(c.name, self.column_index(c.name), c.kind == NUMERIC)
                  for c in self.active_columns()]
        for rid, row in zip(self.ids, self.rows):
            for name, i, numeric in active:
                value = row[i]
                if value is None or (numeric and not math.isfinite(value)):
                    what = ("a missing value" if value is None
                            else f"the non-finite value {value!r}")
                    raise MissingValueError(
                        f"{context}: dataset {self.name!r} has {what} "
                        f"in column {name!r}, row {rid}")


def _canonical_cell(value) -> str:
    if value is None:
        return "?"
    if isinstance(value, float):
        return format_number(value)
    return str(value)


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
        rows = []
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} cells, "
                                 f"got {len(record)}")
            cells = []
            for col, src in zip(schema, order):
                text = record[src].strip()
                if text in MISSING_TOKENS:
                    cells.append(None)
                elif col.kind == NUMERIC:
                    try:
                        value = float(text)
                    except ValueError:
                        raise ParseError(
                            f"{path}:{lineno}: column {col.name!r}: "
                            f"cannot parse {text!r} as a number") from None
                    if not math.isfinite(value):
                        raise ParseError(
                            f"{path}:{lineno}: column {col.name!r}: "
                            f"non-finite value {text!r}")
                    cells.append(value)
                else:
                    cells.append(text)
            rows.append(tuple(cells))
    return Dataset(
        name=name if name is not None else path.stem,
        schema=tuple(schema),
        ids=tuple(range(len(rows))),
        rows=tuple(rows),
        source_rows=len(rows),
    )


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
        known = {"drop_rows_with_missing", "drop_row_ids", "cast_to_categorical",
                 "set_response", "ignore_columns", "notes"}
        unknown = set(raw) - known
        if unknown:
            raise RecipeError(f"{path}: unknown recipe fields {sorted(unknown)}")
        return cls(
            drop_rows_with_missing=bool(raw.get("drop_rows_with_missing", False)),
            drop_row_ids=tuple(raw.get("drop_row_ids", ())),
            cast_to_categorical=tuple(raw.get("cast_to_categorical", ())),
            set_response=raw.get("set_response"),
            ignore_columns=tuple(raw.get("ignore_columns", ())),
            notes=tuple(raw.get("notes", ())),
        )


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
    kept = [(rid, row) for rid, row in zip(raw.ids, raw.rows) if rid not in drop]

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

    cast_idx = [i for i, c in enumerate(raw.schema) if c.name in casts and c.kind == NUMERIC]
    if cast_idx:
        converted = []
        for rid, row in kept:
            cells = list(row)
            for i in cast_idx:
                if cells[i] is not None:
                    cells[i] = _category_label(cells[i])
            converted.append((rid, tuple(cells)))
        kept = converted

    if recipe.drop_rows_with_missing:
        width = range(len(schema))
        kept = [(rid, row) for rid, row in kept
                if not any(row[i] is None for i in width)]

    prepared = Dataset(
        name=raw.name,
        schema=tuple(schema),
        ids=tuple(rid for rid, _ in kept),
        rows=tuple(row for _, row in kept),
        source_rows=raw.source_rows,
    )
    active = [(c.name, prepared.column_index(c.name)) for c in prepared.active_columns()]
    for rid, row in zip(prepared.ids, prepared.rows):
        for colname, i in active:
            if row[i] is None:
                raise RecipeError(
                    f"prepared dataset still has a missing value in column "
                    f"{colname!r}, row {rid}; drop the row or ignore the column")
    return prepared


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
    overlap = set(train_ids) & set(test_ids)
    if overlap:
        raise SplitError(f"train and test ids overlap: {sorted(overlap)}")
    if len(set(train_ids)) != len(train_ids) or len(set(test_ids)) != len(test_ids):
        raise SplitError("duplicate ids in split")
    by_id = dict(zip(ds.ids, ds.rows))
    unknown = [i for i in (*train_ids, *test_ids) if i not in by_id]
    if unknown:
        raise SplitError(f"ids not present in dataset {ds.name!r}: {unknown}")

    def take(ids):
        return replace(ds, ids=ids, rows=tuple(by_id[i] for i in ids))

    return take(train_ids), take(test_ids)
