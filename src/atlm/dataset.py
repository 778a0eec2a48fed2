"""In-memory tabular datasets, CSV ingestion, and preparation recipes.

A :class:`Dataset` is immutable and columnar: one (columns x rows) matrix
holds every column, a missing cell as NaN, so per-fold work is whole-array
operations, and every change returns a new instance that folds can share.
Every dataset, loaded or derived (prepared, split or transformed), is built
by the :class:`Dataset` constructor and so passes all of its checks.
Rows keep the identifiers they were assigned when the raw file was loaded
(0-based line order).  Inside the library a row is its position in the
matrix, and a set of rows is an array of positions or a boolean mask over
them.  Ids appear only at the edges: exported fold JSON, the public
:func:`split`, a :class:`~atlm.pipeline.PredictionSet`, a recipe's
``drop_row_ids`` and error messages.

A dataset's columns are a :class:`Schema`: a tuple of :class:`ColumnSchema`
that also holds the positions every layer indexes the matrix by (name to
position, the active, numeric and explanatory columns, the response) and
whether it is well formed.  They are worked out once, when the schema is
built; every dataset derived from it (splits, transformed copies) carries
the same schema object, so no per-fold step looks a column up by name or
works the positions out again.

:func:`load_csv` reads a plain file with one ``np.loadtxt`` pass, and any
other file with ``csv.reader``, the reference for every value and error
message.  :func:`apply_recipe` returns its input when the recipe changes nothing.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass, replace
from numbers import Integral, Real
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

#: what a factor's levels may be: tuple and list come before the Sequence ABC,
#: whose isinstance check costs about 0.5 us
_SEQUENCES = (tuple, list, Sequence)


def format_number(value: float) -> str:
    """Shortest decimal text that round-trips the float exactly."""
    return repr(float(value))


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str
    role: str = EXPLANATORY

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SchemaError(f"column name must be nonempty text, got {self.name!r}")
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise SchemaError(f"unknown column kind {self.kind!r} for {self.name!r}")
        if not isinstance(self.role, str) or self.role not in _ROLES:
            raise SchemaError(f"unknown column role {self.role!r} for {self.name!r}")


class Schema(tuple):
    """Columns in order, with the positions each layer indexes by.

    ``index`` maps a column name to its position; ``active`` holds the
    positions of the columns that take part in modelling (not ignored),
    ``numeric`` those of the active numeric columns (response included) and
    ``explanatory`` the ``(position, column)`` pairs of the active columns
    other than the response.  ``response`` is the response's position, or
    None when the names repeat or there is not exactly one numeric response;
    :meth:`check` then says which.
    """

    def __new__(cls, columns):
        if isinstance(columns, Schema):  # immutable, so shared as it is
            return columns
        try:
            self = super().__new__(cls, columns)
            if not all(isinstance(c, ColumnSchema) for c in self):
                raise TypeError
        except TypeError:
            raise SchemaError(f"a schema must be a sequence of ColumnSchema, "
                              f"got {columns!r}") from None
        self.index = {c.name: i for i, c in enumerate(self)}
        self.active = tuple(i for i, c in enumerate(self) if c.role != IGNORED)
        self.numeric = tuple(i for i in self.active if self[i].kind == NUMERIC)
        self.explanatory = tuple((i, self[i]) for i in self.active
                                 if self[i].role != RESPONSE)
        responses = [i for i in self.active if self[i].role == RESPONSE]
        well_formed = (len(self.index) == len(self) and len(responses) == 1
                       and self[responses[0]].kind == NUMERIC)
        self.response = responses[0] if well_formed else None
        return self

    def check(self, dataset: str) -> None:
        """Raise SchemaError, naming the dataset, unless the schema is well formed."""
        if self.response is not None:
            return
        if len(self.index) != len(self):
            raise SchemaError(f"duplicate column names in {dataset!r}")
        responses = [c for c in self if c.role == RESPONSE]
        if len(responses) != 1:
            raise SchemaError(
                f"dataset {dataset!r} must have exactly one response column, "
                f"found {len(responses)}")
        raise SchemaError(f"response column {responses[0].name!r} must be numeric")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Named columns plus a numeric response, stored as one matrix.

    ``values`` is a read-only float64 copy of the (columns x rows) array it
    is given (bool, integer or float cells), so no write to the caller's
    array reaches it.  In schema order, it holds a numeric column's numbers
    or a factor's codes into its ``levels``, a sequence (not a string) of
    distinct strings, stored as a tuple (empty for a numeric column); a missing
    cell is NaN.  A ``schema`` given as a plain sequence of columns is stored
    as a :class:`Schema`.  ``name`` is text.  ``ids`` are the original row
    identifiers, distinct and stored as ints.  Every dataset the package
    returns, loaded or derived, is built here.
    """

    name: str
    schema: Schema
    ids: tuple[int, ...]
    values: np.ndarray
    levels: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise SchemaError(f"a dataset name must be text, got {self.name!r}")
        object.__setattr__(self, "schema", Schema(self.schema))
        self.schema.check(self.name)
        try:
            values = np.asarray(self.values)
        except ValueError:  # ragged
            raise SchemaError(f"column arrays of {self.name!r} do not fit its schema") from None
        if values.dtype.kind not in "biuf":  # bool, integer or float
            raise SchemaError(f"cells of {self.name!r} must be numbers, not {values.dtype}")
        # a copy, so the caller's array stays writeable and no later write to it,
        # through any view, changes the cells or the fingerprint
        object.__setattr__(self, "values", values.astype(float))
        self.values.flags.writeable = False
        for field in ("ids", "levels"):
            try:
                object.__setattr__(self, field, tuple(getattr(self, field)))
            except TypeError:
                raise SchemaError(f"{field} of {self.name!r} must be a sequence, "
                                  f"got {getattr(self, field)!r}") from None
        width = len(self.schema)
        if not (self.values.shape == (width, len(self.ids)) and len(self.levels) == width):
            raise SchemaError(f"column arrays of {self.name!r} do not fit its schema")
        if not set(map(type, self.ids)) <= {int}:  # numpy integers convert; a bool fails
            object.__setattr__(self, "ids", tuple(_integer("a row id", i, SchemaError)
                                                  for i in self.ids))
        if len(set(self.ids)) != len(self.ids):
            raise SchemaError("row ids must be unique")
        # which factors' codes are each NaN or an integer in 0..L-1 for their L
        # levels, worked out in one pass over every factor's cells
        factors = [i for i, col in enumerate(self.schema) if col.kind == CATEGORICAL]
        codes = self.values[factors].T
        sizes = [len(names) if isinstance(names, _SEQUENCES) else 0
                 for names in map(self.levels.__getitem__, factors)]
        fits = np.isnan(codes) | (codes >= 0) & (codes < sizes) & (np.floor(codes) == codes)
        fitting = dict(zip(factors, fits.all(axis=0).tolist()))
        for i, col in enumerate(self.schema):
            names = self.levels[i]
            if isinstance(names, str) or not isinstance(names, _SEQUENCES):
                raise SchemaError(f"levels of column {col.name!r} of {self.name!r} must be "
                                  f"a sequence of strings, got {names!r}")
            if col.kind != CATEGORICAL:
                if len(names):
                    raise SchemaError(f"numeric column {col.name!r} of {self.name!r} has levels")
                continue
            strange = [level for level in names if not isinstance(level, str)]
            if strange:
                raise SchemaError(f"factor {col.name!r} of {self.name!r} has the level "
                                  f"{strange[0]!r}, which is not text")
            if len(set(names)) < len(names) or not fitting[i]:
                raise SchemaError(f"factor {col.name!r} of {self.name!r} repeats a "
                                  f"level name or has a code outside its {len(names)} levels")
        object.__setattr__(self, "levels", tuple(map(tuple, self.levels)))

    @classmethod
    def from_columns(cls, name: str, schema, ids, columns) -> "Dataset":
        """Build from one sequence of cells per schema column: numbers, None or
        NaN where missing; or, for a factor, strings, None where missing.  Codes
        follow first appearance.  Any other cell is a SchemaError."""
        schema = Schema(schema)
        try:
            ids, columns = tuple(ids), [tuple(cells) for cells in columns]
        except TypeError:
            raise SchemaError(f"ids and columns of {name!r} must be sequences") from None
        if any(len(cells) != len(ids) for cells in columns):
            raise SchemaError(f"column arrays of {name!r} do not fit its schema")
        for col, cells in zip(schema, columns):
            for rid, cell in zip(ids, cells):
                if cell is None:
                    continue
                if col.kind == NUMERIC and not isinstance(cell, (Real, np.bool_)):
                    raise SchemaError(f"numeric column {col.name!r} of {name!r} holds "
                                      f"{cell!r} in row {rid}, which is not a number")
                if col.kind == CATEGORICAL and not isinstance(cell, str):
                    raise SchemaError(f"factor {col.name!r} of {name!r} has the level "
                                      f"{cell!r}, which is not text")
        return cls(name, schema, ids, *_matrix(schema, columns))

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        """Same name, schema, ids, levels and cells; missing (NaN) cells match."""
        return isinstance(other, Dataset) and (
            (self.name, self.schema, self.ids, self.levels)
            == (other.name, other.schema, other.ids, other.levels)
            and np.array_equal(self.values, other.values, equal_nan=True))

    @property
    def response_name(self) -> str:
        return self.schema[self.schema.response].name

    def column_index(self, name: str) -> int:
        if name not in self.schema.index:
            raise SchemaError(f"no column named {name!r} in dataset {self.name!r}")
        return self.schema.index[name]

    def column(self, name: str) -> tuple:
        """The column's cells: floats or level strings, None where missing."""
        i = self.column_index(name)
        cells, levels = self.values[i].tolist(), self.levels[i]  # no levels: numeric
        gaps = np.isnan(self.values[i])
        if levels or gaps.any():
            cells = [None if gap else levels[int(v)] if levels else v
                     for v, gap in zip(cells, gaps.tolist())]
        return tuple(cells)

    def response_column(self) -> np.ndarray:
        return self.values[self.schema.response]

    def fingerprint(self) -> str:
        """SHA-256 over schema and cell content (display name excluded).

        The hashed text is one ``name|kind|role`` line per column, then one
        ``id:cell,cell,...`` line per row, a number as :func:`format_number`
        writes it, a factor as its level and a missing cell as ``?``.  Each
        distinct bit pattern of the matrix is formatted once, so ``-0.0`` and
        ``0.0`` keep their own text, and a factor's cells are its codes'
        entries of an object array of its levels."""
        values = self.values
        # return_index makes numpy sort stably, as the plan path does; its default
        # quicksort left a long-running process's peak RSS 0.2-0.4 MB higher
        bits, _, inverse = np.unique(values.view(np.int64), return_index=True,
                                     return_inverse=True)
        numbers = bits.view(float)
        texts = np.array(list(map(float.__repr__, numbers.tolist())), dtype=object)
        texts[np.isnan(numbers)] = "?"
        # numpy 2 shapes the inverse as the input, numpy 1 flattens it in C order
        cells = texts[inverse.reshape(values.shape)]
        for i, levels in enumerate(self.levels):
            if levels:  # a factor: codes into its levels, NaN where missing
                gaps = np.isnan(values[i])
                cells[i] = np.array([*levels, "?"], dtype=object)[
                    np.where(gaps, len(levels), values[i]).astype(np.intp)]
        text = "".join([f"{c.name}|{c.kind}|{c.role}\n" for c in self.schema]
                       + list(map("{}:{}\n".format, self.ids, map(",".join, cells.T.tolist()))))
        return hashlib.sha256(text.encode()).hexdigest()

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
        """(column, row id, cell) of the first missing (NaN) cell of an active
        column, row by row, or None; with ``non_finite`` an infinite cell counts too."""
        active = self.schema.active
        values = self.values.take(active, axis=0)
        filled = np.isfinite(values) if non_finite else ~np.isnan(values)
        if filled.all():
            return None
        row = int(filled.all(axis=0).argmin())
        name = self.schema[active[int(filled[:, row].argmin())]].name
        return name, self.ids[row], self.column(name)[row]


def _integer(name: str, value, error: type[AtlmError]) -> int:
    """``value`` as an int, numpy integers too; a bool, or a value that
    ``operator.index`` refuses, raises ``error``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")


def _instance(value, kind: type, error: type[AtlmError], what: str):
    """``value``, which must be a ``kind``; anything else raises ``error``."""
    if not isinstance(value, kind):
        raise error(f"{what} must be of type {kind.__name__}, got {type(value).__name__}")
    return value


def _path(path, error: type[AtlmError], what: str) -> Path:
    """``path``, text or an ``os.PathLike``, as a Path; anything else raises ``error``."""
    if not isinstance(path, (str, os.PathLike)):
        raise error(f"a {what} path must be text or a path, got {type(path).__name__}")
    return Path(path)


def _matrix(schema, columns) -> tuple[np.ndarray, tuple]:
    """``values`` and ``levels`` of a dataset from one sequence of cells per
    column: numbers, or strings for factors; None, or a NaN number, where missing."""
    rows = [_codes(cells) if col.kind == CATEGORICAL else (cells, ())
            for col, cells in zip(schema, columns)]
    values = np.array([row for row, _ in rows], dtype=float)  # None becomes NaN
    return values, tuple(levels for _, levels in rows)


def _codes(cells) -> tuple[list, tuple[str, ...]]:
    """Factor cells as codes (None where missing) into levels in order of appearance."""
    index = dict.fromkeys(cells)
    levels = tuple(level for level in index if level is not None)
    index.update(zip(levels, range(len(levels))))  # None stays None
    return list(map(index.__getitem__, cells)), levels


def _read_text(path: Path, error: type[AtlmError], what: str) -> str:
    """The file's UTF-8 text; no such file, a directory or bad bytes raise ``error``."""
    if not path.is_file():
        raise error(f"{what} file not found: {path}")
    try:
        # less one leading byte-order mark, as Excel writes; the mark is decoded
        # with the rest, so a bad byte's offset counts from the file's first byte
        return path.read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text at byte {exc.start}: {exc.reason}") from None


def load_schema(path: str | Path) -> Schema:
    """Read a sidecar schema: one ``name kind role`` line per column."""
    path = _path(path, SchemaError, "schema")
    columns = []
    for lineno, line in enumerate(_read_text(path, SchemaError, "schema").splitlines(),
                                  start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise SchemaError(f"{path}:{lineno}: expected 'name kind role', got {line!r}")
        try:
            columns.append(ColumnSchema(*parts))
        except SchemaError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from None
    if not columns:
        raise SchemaError(f"{path}: schema defines no columns")
    return Schema(columns)


def load_csv(path: str | Path, schema: tuple[ColumnSchema, ...]) -> Dataset:
    """Load a comma-separated UTF-8 file with a header row as a dataset named
    by the file's stem.

    The header must contain exactly the schema's column names (any order).
    Numeric cells must parse as finite numbers; empty, ``?`` and ``NA``
    cells become missing markers to be resolved by a recipe.  A bad record
    or cell raises ParseError naming the first one, row by row.

    A plain file, with no quote, carriage return, NUL or two commas in a row,
    at least one data line and no line longer than ``csv.field_size_limit()``,
    is read by one ``np.loadtxt`` pass, which gives every cell the value the
    csv path gives it.  Any other file, and a plain one with a cell that pass
    refuses, a missing marker or a non-finite number, is read by ``csv.reader``:
    the path that reads every file and words every error.  There, cells are
    parsed a whole column at a time.  ``float`` ignores surrounding whitespace
    and no missing marker parses as a number, so a numeric column that
    ``float`` takes whole needs no stripping; only a column where it fails is
    stripped and tested for markers cell by cell.
    """
    path, schema = _path(path, ParseError, "data"), Schema(schema)
    text = _read_text(path, ParseError, "data")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError(f"{path}:1: {exc}") from None
    header = [h.strip() for h in header]
    wanted = [c.name for c in schema]
    if sorted(header) != sorted(wanted):
        missing = set(wanted) - set(header)
        extra = set(header) - set(wanted)
        repeated = {h for h in header if header.count(h) > 1}
        raise SchemaError(
            f"{path}: header does not match schema"
            + (f"; missing {sorted(missing)}" if missing else "")
            + (f"; unexpected {sorted(extra)}" if extra else "")
            + (f"; repeated {sorted(repeated)}" if repeated else ""))
    fields = [(col.name, col.kind == NUMERIC, header.index(col.name)) for col in schema]
    plain = _read_plain(text, fields) if _is_plain(text) else None
    if plain is not None:
        values, levels = plain
    else:  # the csv path
        try:
            body = [record for record in reader if record]
            if set(map(len, body)) - {len(header)}:
                raise ValueError("a record of the wrong width")
            cells = list(zip(*body)) or [()] * len(header)
            columns = [_parse_column(cells[src], numeric) for _name, numeric, src in fields]
            values, levels = _matrix(schema, columns)
            # each missing marker is one NaN, so a column whose non-finite cells
            # outnumber its markers holds a number that is not finite
            counts = np.count_nonzero(~np.isfinite(values), axis=1).tolist()
            if any(n and n != column.count(None) for n, column in zip(counts, columns)):
                raise ValueError("a number that is not finite")
        except (ValueError, csv.Error):
            # name the first bad record or cell from a fresh reader; a record that
            # the reader itself refuses is a bad record too
            reader = csv.reader(io.StringIO(text, newline=""))
            next(reader)
            _raise_first_bad_cell(path, reader, len(header), fields)
            raise
    return Dataset(path.stem, schema, tuple(range(values.shape[1])), values, levels)


def _is_plain(text: str) -> bool:
    """Whether numpy's C reader may read the file: not where it could split a
    record otherwise than csv.reader (a quote, a carriage return, a NUL), where
    a line, and so a field, could pass the csv size limit, or where no line
    follows the header (numpy warns).  Nor where two commas make an empty cell,
    which it would refuse in a numeric column after a wasted attempt; on a
    200-row file a vector pass finds them in less than half the time of a
    substring search.  A line is measured in encoded bytes, never fewer than
    its characters, which the limit counts."""
    if "\n" not in text.rstrip("\n") or '"' in text or "\r" in text or "\0" in text:
        return False
    data = np.frombuffer(text.encode(), np.uint8)
    comma = data == ord(",")
    if (comma[1:] & comma[:-1]).any():
        return False
    if len(data) <= csv.field_size_limit():  # no line is longer than the whole text
        return True
    # each gap between newlines, the text's ends counting as newlines, is a line and its end
    gaps = np.diff(np.flatnonzero(data == ord("\n")), prepend=-1, append=len(data))
    return int(gaps.max()) - 1 <= csv.field_size_limit()


def _read_plain(text: str, fields):
    """``values`` and ``levels`` from one ``np.loadtxt`` pass over plain text,
    whose records are its non-empty lines split at commas, as csv.reader splits
    them; or None where the pass refuses a record or cell, or reads a missing
    marker or a non-finite number.  It strips what ``str.strip`` strips, and
    reads only ASCII numbers without underscores, each to the float ``float``
    gives.  A factor's cells are stripped and coded as on the csv path."""
    try:
        # a schema that repeats a name repeats a field name, which np.dtype
        # refuses: the csv path reads that file, and the constructor names the fault
        dtype = np.dtype([(f"f{src}", float if numeric else object)
                          for src, numeric in sorted((s, n) for _name, n, s in fields)])
        table = np.loadtxt(io.StringIO(text), dtype=dtype, delimiter=",", skiprows=1,
                           comments=None, quotechar=None, ndmin=1)
    except ValueError:
        return None
    values, levels = np.empty((len(fields), len(table))), []
    for row, (_name, numeric, src) in zip(values, fields):
        if numeric:
            row[:], names = table[f"f{src}"], ()
        else:  # a marker's code is None, a NaN in the row
            row[:], names = _codes(_parse_column(table[f"f{src}"].tolist(), False))
        levels.append(names)
    # a missing marker is a NaN, and so is a NaN, inf or overflowing number
    return (values, tuple(levels)) if np.isfinite(values).all() else None


def _parse_column(cells, numeric: bool) -> list:
    """A column's cells as numbers if ``numeric``, else as stripped text; None
    for a missing marker.  A numeric cell that does not parse raises ValueError."""
    if numeric:
        try:
            return list(map(float, cells))
        except ValueError:  # a missing marker, or a bad cell
            pass
    texts = map(str.strip, cells)
    if numeric:
        return [None if text in MISSING_TOKENS else float(text) for text in texts]
    return [None if text in MISSING_TOKENS else text for text in texts]


def _raise_first_bad_cell(path: Path, records, width: int, fields) -> None:
    """Raise ParseError for the first record that the csv reader refuses, has the
    wrong width or holds a non-finite numeric cell; records count from line 2."""
    lineno = 1
    try:
        for lineno, record in enumerate(records, start=2):
            if not record:
                continue
            if len(record) != width:
                raise ParseError(f"{path}:{lineno}: expected {width} cells, got {len(record)}")
            for column, numeric, src in fields:
                text = record[src].strip()
                if not numeric or text in MISSING_TOKENS:
                    continue
                try:
                    value = float(text)
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: column {column!r}: "
                                     f"cannot parse {text!r} as a number") from None
                if not math.isfinite(value):
                    raise ParseError(f"{path}:{lineno}: column {column!r}: "
                                     f"non-finite value {text!r}")
    except csv.Error as exc:  # raised while reading the record after ``lineno``
        raise ParseError(f"{path}:{lineno + 1}: {exc}") from None


@dataclass(frozen=True)
class PrepRecipe:
    """Documented preparation steps applied to a raw dataset.

    Each of ``drop_row_ids`` must be the id of a row that the dataset the
    recipe is applied to holds; any other id is an error, so a recipe that
    drops rows cannot be applied to its own result.  ``notes`` travel into
    evaluation reports so reproduction assumptions stay visible.

    ``drop_rows_with_missing`` is a bool; every other field is a list or
    tuple of text, or of integers for ``drop_row_ids``, stored as a tuple (row
    ids as ints).  Anything else is a RecipeError.  The response is the one
    the schema names: a recipe does not move it.
    """

    drop_rows_with_missing: bool = False
    drop_row_ids: tuple[int, ...] = ()
    cast_to_categorical: tuple[str, ...] = ()
    ignore_columns: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for key, want in _RECIPE_FIELDS.items():
            value = getattr(self, key)
            if not _has_type(value, want):
                raise RecipeError(f"field {key!r} has the wrong type: {value!r}")
            if isinstance(want, list):
                object.__setattr__(self, key, tuple(map(operator.index, value)) if want == [int]
                                   else tuple(value))

    @classmethod
    def from_json_file(cls, path: str | Path) -> "PrepRecipe":
        path = _path(path, RecipeError, "recipe")
        try:
            raw = json.loads(_read_text(path, RecipeError, "recipe"))
        except json.JSONDecodeError as exc:
            raise RecipeError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise RecipeError(f"{path}: a recipe must be a JSON object")
        unknown = set(raw) - set(_RECIPE_FIELDS)
        if unknown:
            raise RecipeError(f"{path}: unknown recipe fields {sorted(unknown)}")
        try:
            return cls(**raw)
        except RecipeError as exc:
            raise RecipeError(f"{path}: {exc}") from None


#: each recipe field's type: a type, or [type] for a list or tuple of that type
_RECIPE_FIELDS = {"drop_rows_with_missing": bool, "drop_row_ids": [int],
                  "cast_to_categorical": [str], "ignore_columns": [str], "notes": [str]}


def _has_type(value, want) -> bool:
    if isinstance(want, list):
        return isinstance(value, (list, tuple)) and all(_has_type(v, want[0]) for v in value)
    if want is int:  # numpy integers too
        return isinstance(value, Integral) and not isinstance(value, bool)
    return isinstance(value, want) and (want is bool or not isinstance(value, bool))


def apply_recipe(raw: Dataset, recipe: PrepRecipe) -> Dataset:
    """Drop rows, cast columns to factors and ignore columns.

    A recipe that keeps the schema and drops and casts nothing, such as
    ``PrepRecipe()`` or one that only holds notes, returns ``raw`` itself (a
    dataset is immutable).  Either way, a missing cell left in an active column
    is a RecipeError that names it.  A recipe that ignores the response, or
    casts it to a factor, leaves a schema the :class:`Dataset` constructor
    refuses with a SchemaError."""
    _instance(raw, Dataset, SchemaError, "a raw dataset")
    _instance(recipe, PrepRecipe, RecipeError, "a recipe")
    known = raw.schema.index
    for col in (*recipe.cast_to_categorical, *recipe.ignore_columns):
        if col not in known:
            raise RecipeError(f"recipe references unknown column {col!r}")
    held = set(raw.ids)
    for rid in recipe.drop_row_ids:
        if rid not in held:
            raise RecipeError(f"recipe drops row id {rid}, which dataset {raw.name!r} "
                              f"does not hold")

    schema = list(raw.schema)
    casts = set(recipe.cast_to_categorical)
    ignores = set(recipe.ignore_columns)
    for i, col in enumerate(schema):
        kind = CATEGORICAL if col.name in casts else col.kind
        role = IGNORED if col.name in ignores else col.role
        if (kind, role) != (col.kind, col.role):
            schema[i] = ColumnSchema(col.name, kind, role)
    if schema == list(raw.schema):  # unchanged: share the schema and its positions
        schema = raw.schema

    ds = raw  # when nothing changes: a dataset is immutable, so it is shared as it is
    if schema is not raw.schema or recipe.drop_row_ids or recipe.drop_rows_with_missing:
        # the result is built once, from the kept rows' cells; a cast's levels
        # follow first appearance among the rows that the drop list keeps
        drop = set(recipe.drop_row_ids)
        rows = np.flatnonzero([rid not in drop for rid in raw.ids])
        values, levels = raw.values[:, rows], list(raw.levels)
        for i in [i for i, (c, old) in enumerate(zip(schema, raw.schema)) if c.kind != old.kind]:
            cells = [None if math.isnan(v) else v for v in values[i].tolist()]
            labels = {v: v if v is None else _category_label(v) for v in dict.fromkeys(cells)}
            values[i], levels[i] = _codes(list(map(labels.__getitem__, cells)))
        if recipe.drop_rows_with_missing:
            full = ~np.isnan(values).any(axis=0)
            rows, values = rows[full], values[:, full]
        ds = Dataset(raw.name, schema, tuple(map(raw.ids.__getitem__, rows.tolist())), values,
                     tuple(levels))

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
    _instance(ds, Dataset, SchemaError, "a dataset")
    train_ids, test_ids = _split_ids(train_ids), _split_ids(test_ids)
    if not train_ids or not test_ids:
        raise SplitError("train and test id lists must both be nonempty")
    train, test = set(train_ids), set(test_ids)
    overlap = train & test
    if overlap:
        raise SplitError(f"train and test ids overlap: {sorted(overlap)}")
    if len(train) != len(train_ids) or len(test) != len(test_ids):
        raise SplitError("duplicate ids in split")
    position = {rid: i for i, rid in enumerate(ds.ids)}
    if not (train <= position.keys() and test <= position.keys()):
        raise SplitError(f"ids not present in dataset {ds.name!r}: "
                         f"{[i for i in (*train_ids, *test_ids) if i not in position]}")
    # take keeps each half's matrix in C order
    return tuple(replace(ds, ids=ids, values=ds.values.take([position[i] for i in ids], axis=1))
                 for ids in (train_ids, test_ids))


def _split_ids(ids) -> tuple[int, ...]:
    try:
        ids = tuple(ids)
    except TypeError:
        raise SplitError(f"split ids must be a sequence, got {ids!r}") from None
    return tuple(_integer("a row id", i, SplitError) for i in ids)
