from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atlm.bundled import builtin_recipe, load_builtin, load_builtin_raw
from atlm.dataset import (
    CATEGORICAL,
    MISSING_TOKENS,
    ColumnSchema,
    Dataset,
    NUMERIC,
    RESPONSE,
    PrepRecipe,
    apply_recipe,
    format_number,
    load_csv,
    load_schema,
    split,
)
from atlm.errors import (
    AtlmError,
    MissingValueError,
    ParseError,
    RecipeError,
    SchemaError,
    SplitError,
)
from atlm.report import to_json_text
from atlm.transforms import apply_transforms, calculate_transforms
from atlm.validation import ValidationPlan, generate_folds

from conftest import make_dataset
from perfbench import synth


SMALL_SCHEMA = (
    ColumnSchema("kloc", NUMERIC),
    ColumnSchema("mode", CATEGORICAL),
    ColumnSchema("effort", NUMERIC, "response"),
)


def write_small_csv(tmp_path, text):
    path = tmp_path / "small.csv"
    path.write_text(text)
    return path


def test_load_csv_roundtrip_values(tmp_path):
    path = write_small_csv(tmp_path, "kloc,mode,effort\n1.5,org,10\n2,emb,20\n3,org,30\n")
    ds = load_csv(path, SMALL_SCHEMA)
    assert len(ds) == 3
    assert len(ds.schema) == 3
    assert ds.column("kloc") == (1.5, 2.0, 3.0)
    assert ds.column("mode") == ("org", "emb", "org")
    assert ds.response_name == "effort"


def test_load_csv_header_order_insensitive(tmp_path):
    path = write_small_csv(tmp_path, "effort,kloc,mode\n10,1,org\n20,2,emb\n")
    ds = load_csv(path, SMALL_SCHEMA)
    assert ds.column("kloc") == (1.0, 2.0)


def test_load_csv_bad_numeric_cell_names_location(tmp_path):
    path = write_small_csv(tmp_path, "kloc,mode,effort\n1,org,10\nabc,emb,20\n")
    with pytest.raises(ParseError, match="kloc"):
        load_csv(path, SMALL_SCHEMA)


def test_load_csv_unknown_header(tmp_path):
    path = write_small_csv(tmp_path, "kloc,mode,cost\n1,org,10\n")
    with pytest.raises(SchemaError):
        load_csv(path, SMALL_SCHEMA)


def test_load_csv_missing_markers(tmp_path):
    path = write_small_csv(tmp_path, "kloc,mode,effort\n1,org,10\n,emb,20\n3,?,30\n")
    ds = load_csv(path, SMALL_SCHEMA)
    assert ds.column("kloc")[1] is None
    assert ds.column("mode")[2] is None
    with pytest.raises(MissingValueError, match="missing value in column 'kloc', row 1"):
        ds.require_no_missing("fit")


@pytest.mark.parametrize("header, names, reason", [
    ("x,y,y", ("x", "y"), "; repeated ['y']"),
    ("x,x,y", ("x", "x2", "y"), "; missing ['x2']; repeated ['x']"),
], ids=["repeated-only", "missing-and-repeated"])
def test_a_repeated_header_name_is_named(tmp_path, header, names, reason):
    path = write_small_csv(tmp_path, header + "\n1,2,3\n")
    schema = [ColumnSchema(n, NUMERIC) for n in names[:-1]]
    schema.append(ColumnSchema(names[-1], NUMERIC, RESPONSE))
    for loader in (load_csv, reference_load_csv):
        with pytest.raises(SchemaError) as caught:
            loader(path, schema)
        assert str(caught.value) == f"{path}: header does not match schema{reason}"


def test_a_schema_that_repeats_a_name_is_refused_by_the_constructor(tmp_path):
    path = write_small_csv(tmp_path, "x,x,y\n1,2,3\n")
    schema = [ColumnSchema("x", NUMERIC), ColumnSchema("x", NUMERIC),
              ColumnSchema("y", NUMERIC, RESPONSE)]
    for loader in (load_csv, reference_load_csv):
        with pytest.raises(SchemaError) as caught:
            loader(path, schema)
        assert str(caught.value) == "duplicate column names in 'small'"


def reference_load_csv(path, schema, name=None) -> Dataset:
    """The cell-by-cell loader: strip, missing test, ``float`` and
    ``math.isfinite`` for each cell, record by record.  An error of the csv
    reader is a ParseError naming the line of the record it was reading."""
    path = Path(path)
    text = path.read_bytes().decode("utf-8")
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        records = []
        try:
            for record in reader:
                records.append(record)
        except csv.Error as exc:
            records.append(ParseError(f"{path}:{len(records) + 1}: {exc}"))
        records = iter(records)
        try:
            header = next(records)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if isinstance(header, ParseError):
            raise header
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
        order = [header.index(n) for n in wanted]
        columns = [[] for _ in schema]
        for lineno, record in enumerate(records, start=2):
            if isinstance(record, ParseError):
                raise record
            if not record:
                continue
            if len(record) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} cells, "
                                 f"got {len(record)}")
            for cells, col, src in zip(columns, schema, order):
                text = record[src].strip()
                if text in MISSING_TOKENS:
                    cells.append(None)
                elif col.kind == NUMERIC:
                    try:
                        value = float(text)
                    except ValueError:
                        raise ParseError(f"{path}:{lineno}: column {col.name!r}: "
                                         f"cannot parse {text!r} as a number") from None
                    if not math.isfinite(value):
                        raise ParseError(f"{path}:{lineno}: column {col.name!r}: "
                                         f"non-finite value {text!r}")
                    cells.append(value)
                else:
                    cells.append(text)
    n = len(columns[0]) if columns else 0
    return Dataset.from_columns(name if name is not None else path.stem, schema,
                                range(n), columns)


#: whitespace ``str.strip`` removes; ``float`` refuses the separators \x1c-\x1f
PADS = st.sampled_from(["", "", " ", "  ", "\t", "\u2003", "\xa0", "\x1c", "\x1f "])
NUMBERS = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
           | st.integers(-10 ** 20, 10 ** 20).map(str)
           | st.sampled_from(["-0", ".5", "1e5", "1_000", "+3", "0x10", "\u0661\u0662"]))
NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e999"])
MISSING = st.sampled_from(MISSING_TOKENS + ("na", "N/A"))
LABELS = st.sampled_from(["a", "b", "c,d", 'say "hi"', "é", "1.0", "x\ny"])
#: labels that need no quotes
PLAIN_LABELS = st.sampled_from(["a", "b", "é", "1.0", "#x", "a b"])


def quoted(cell: str, force: bool) -> str:
    if force or any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


@st.composite
def csv_files(draw):
    """(CSV text, schema): padded numbers and labels, padded missing markers,
    blank lines and quoted cells, with CRLF or LF line ends.  In half the
    files a cell may also be NaN, infinite or unparseable, or a record short
    or long.  Half the files are plain, as numpy's C reader takes them: LF line
    ends and no quoted cell."""
    def one_in(k: int) -> bool:
        return draw(st.integers(1, k)) == 1

    faulty, plain = draw(st.booleans()), draw(st.booleans())
    labels = PLAIN_LABELS if plain else LABELS
    kinds = draw(st.lists(st.sampled_from([NUMERIC, CATEGORICAL]), max_size=3))
    schema = [ColumnSchema(f"c{i}", kind) for i, kind in enumerate(kinds)]
    schema.append(ColumnSchema("y", NUMERIC, RESPONSE))
    order = draw(st.permutations(schema))
    lines = [",".join(draw(PADS) + col.name + draw(PADS) for col in order)]
    for _ in range(draw(st.integers(0, 8))):
        if one_in(8):
            lines.append("")
        cells = []
        for col in order:
            if faulty and one_in(12):
                text = draw(NON_FINITE | labels)
            elif one_in(24 if plain else 6):  # a marker sends a plain file to csv.reader
                text = draw(MISSING)
            else:
                text = draw(NUMBERS if col.kind == NUMERIC else labels)
            cells.append(quoted(draw(PADS) + text + draw(PADS), not plain and one_in(8)))
        if faulty and one_in(10):
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        lines.append(",".join(cells))
    end = "\n" if plain else draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end])), tuple(schema)


def load_both(text: str, schema) -> tuple:
    """What each loader gives for the file: a Dataset, or (error type, message)."""
    outcomes = []
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "data.csv")
        path.write_bytes(text.encode("utf-8"))
        for loader in (load_csv, reference_load_csv):
            try:
                outcomes.append(loader(path, schema))
            except (AtlmError, csv.Error) as exc:
                outcomes.append((type(exc), str(exc)))
    return tuple(outcomes)


SCHEMA_XFY = (ColumnSchema("x", NUMERIC), ColumnSchema("f", CATEGORICAL),
              ColumnSchema("y", NUMERIC, RESPONSE))
SCHEMA_Y = (ColumnSchema("y", NUMERIC, RESPONSE),)


@given(csv_files())
@settings(max_examples=300, deadline=None)
@example(("", SCHEMA_XFY))  # empty
@example(("x,f,y\n", SCHEMA_XFY))  # header only
@example(("x,f,y\r\n 1 , a ,\t2\r\n\r\n\x1c3\x1c,?, 4e0 \r\n", SCHEMA_XFY))
@example(("x,f,y\n1,a,2\n NA ,\" \",?\n 3,b, 4\n", SCHEMA_XFY))  # padded markers
@example(('x,f,y\n1,"c,d",2\n"2",,"3"\n', SCHEMA_XFY))  # quoted cells
@example(("x,f,y\n1,a\nnan,a,2\n", SCHEMA_XFY))  # a short row, then a bad cell
@example(("x,f,y\nnan,a,2\n1,a\n", SCHEMA_XFY))  # a bad cell, then a short row
@example(("x,f,y\n1,a,inf\n1e999,a,2\n", SCHEMA_XFY))  # the later column, the earlier row
@example(("x,f,y\n1,a,NA\n1,a,abc\n2,a,nan\n", SCHEMA_XFY))  # a marker, then bad cells
@example(("x,f,y\n?,a,1\nNA,a,2\nnan,a,3\n", SCHEMA_XFY))  # two markers, then a nan number
# plain LF files, which numpy's C reader reads first
@example(("x,f,y\n1,a,2\n \t\n3,b,4\n", SCHEMA_XFY))  # a whitespace-only line
@example(("y\n1\n \t\n2\n", SCHEMA_Y))  # ... which is a missing cell in one column
@example(("x,f,y\n\x1c1\x1c,a,\xa02\xa0\n\x1f 3,b,4\u2003\n", SCHEMA_XFY))  # padded numbers
@example(("x,f,y\n1_000,a,2\n", SCHEMA_XFY))
@example(("x,f,y\n0x10,a,2\n", SCHEMA_XFY))
@example(("x,f,y\n\u0661\u0662,a,2\n", SCHEMA_XFY))  # Arabic-Indic digits
@example(("x,f,y\n1,a,2\n3,b,1e999\n", SCHEMA_XFY))
@example(("x,f,y\n1,NA,2\n3, ? ,4\n", SCHEMA_XFY))  # factor markers
@example(("x,f,y\n1,#a,2\n2,b # c,3\n", SCHEMA_XFY))  # a level holding #
@example(("x,f,y\n\n\n", SCHEMA_XFY))  # a header, then only blank lines
def test_load_csv_equals_the_cell_by_cell_loader(file):
    text, schema = file
    fast, reference = load_both(text, schema)
    assert fast == reference
    if isinstance(fast, Dataset):
        assert fast.values.tobytes() == reference.values.tobytes()  # -0.0 and NaN bits too


@pytest.fixture
def loadtxt_calls(monkeypatch) -> list:
    """One entry per ``np.loadtxt`` call made while the test runs."""
    calls, loadtxt = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: calls.append(1) or
                        loadtxt(*args, **kwargs))
    return calls


@pytest.mark.parametrize("text, c_reads", [
    ("x,f,y\n1,a,2\n\n3,b,4", 1),  # plain: one np.loadtxt pass
    ("x,f,y\n1,a,2\n3,b,4e999\n", 1),  # ... which a non-finite number sends on
    ('x,f,y\n1,"a",2\n', 0),  # a quote
    ("x,f,y\r\n1,a,2\r\n", 0),  # a carriage return
    ("x,f,y\n1,a\x00,2\n", 0),  # a NUL
    ("x,f,y\n1,,2\n", 0),  # an empty cell between two commas
    ("x,f,y\n,a,2\n", 1),  # an empty first cell, which np.loadtxt refuses
    ("x,f,y\n1,a,", 1),  # an empty last cell
    ("x,f,y\n\n", 0),  # no data line
    ("x,f,y\n1,a," + "9" * csv.field_size_limit() + "\n", 0),  # a line past the csv size limit
    # short lines whose total is past the limit, which bounds a field, not the file
    pytest.param("x,f,y\n" + "1,a,2\n3,b,4\n" * (csv.field_size_limit() // 12 + 1), 1,
                 id="short-lines-past-the-limit"),
])
def test_numpy_reads_only_plain_text(loadtxt_calls, text, c_reads):
    fast, reference = load_both(text, SCHEMA_XFY)
    assert fast == reference
    assert len(loadtxt_calls) == c_reads


@pytest.mark.parametrize("name, c_reads", [("cocomo81", 1), ("desharnais", 0), ("maxwell", 1)])
def test_only_the_bundled_file_with_empty_cells_goes_to_the_csv_reader(loadtxt_calls, name,
                                                                       c_reads):
    load_builtin_raw(name)
    assert len(loadtxt_calls) == c_reads


def test_a_bad_cell_is_named_before_a_later_record_stops_the_reader():
    huge = '"' + "9" * (csv.field_size_limit() + 1) + '"'
    fast, reference = load_both(f"x,f,y\n1,a,abc\n{huge},a,2\n", SCHEMA_XFY)
    assert fast == reference
    assert fast[0] is ParseError and fast[1].endswith(":2: column 'y': cannot parse 'abc' as a number")
    fast, reference = load_both(f"x,f,y\n1,a,3\n{huge},a,2\n", SCHEMA_XFY)
    assert fast == reference
    # with no bad cell before it, the reader's own error is named with its line
    assert fast[0] is ParseError
    assert fast[1].endswith(f":3: field larger than field limit ({csv.field_size_limit()})")


def test_a_header_the_reader_refuses_is_a_parse_error():
    huge = '"' + "x" * (csv.field_size_limit() + 1) + '"'
    fast, reference = load_both(f"{huge},f,y\n1,a,3\n", SCHEMA_XFY)
    assert fast == reference
    assert fast[0] is ParseError
    assert fast[1].endswith(f":1: field larger than field limit ({csv.field_size_limit()})")


def _columns(*specs):
    return [ColumnSchema(*spec.split()) for spec in specs]


@pytest.mark.parametrize("schema, message", [
    (_columns("x numeric response", "y numeric response"),
     "dataset 'bad' must have exactly one response column, found 2"),
    (_columns("x numeric explanatory", "y numeric explanatory"),
     "dataset 'bad' must have exactly one response column, found 0"),
    (_columns("x numeric explanatory", "x numeric response"),
     "duplicate column names in 'bad'"),
    (_columns("x numeric explanatory", "y categorical response"),
     "response column 'y' must be numeric"),
    (_columns("short numeric explanatory", "y numeric response"),
     "column arrays of 'bad' do not fit its schema"),
])
def test_schema_errors_keep_their_text(schema, message):
    # one cell per column, none in a column named "short"
    cells = [[] if c.name == "short" else ["a"] if c.kind == CATEGORICAL else [1.0]
             for c in schema]
    with pytest.raises(SchemaError) as caught:
        Dataset.from_columns("bad", schema, (0,), cells)
    assert str(caught.value) == message


@pytest.mark.parametrize("codes, levels", [
    ([0, 1, 2, 0, 1, 2, 0, 1, 2, 0], ("a", "a", "b")),
    ([0, 1, 5, 0, 1, 2, 0, 1, 2, 0], ("a", "b", "c")),
    ([0, 1, -1, 0, 1, 2, 0, 1, 2, 0], ("a", "b", "c")),
    ([0, 1, 1.5, 0, 1, 2, 0, 1, 2, 0], ("a", "b", "c")),
], ids=["repeated-name", "code-past-the-levels", "negative-code", "fractional-code"])
def test_a_factor_needs_distinct_levels_that_its_codes_index(codes, levels):
    # only a hand-built Dataset can break this; build_design keys levels by
    # name and indexes them by code, so such a factor used to fit with no
    # reference level or end in an IndexError
    xs = [1.0, 2.0, 4.0, 8.0, 3.0, 5.0, 9.0, 6.0, 7.0, 10.0]
    with pytest.raises(SchemaError) as caught:
        Dataset("bad", _columns("f categorical explanatory", "x numeric explanatory",
                                "y numeric response"), tuple(range(10)),
                np.array([codes, xs, [3 * x + 1 for x in xs]]), (levels, (), ()))
    assert str(caught.value) == ("factor 'f' of 'bad' repeats a level name or has a code "
                                 "outside its 3 levels")


def first_factor_fault(factors) -> str | None:
    """The factor checks as the constructor made them, one factor at a time in
    column order: a level that is not text, then a repeated level or a code
    that is not NaN or in ``range(len(levels))``; the first fault's message."""
    for k, (codes, levels) in enumerate(factors):
        strange = [level for level in levels if not isinstance(level, str)]
        if strange:
            return f"factor 'f{k}' of 'd' has the level {strange[0]!r}, which is not text"
        if (len(set(levels)) < len(levels)
                or not {c for c in codes if not math.isnan(c)} <= set(range(len(levels)))):
            return (f"factor 'f{k}' of 'd' repeats a level name or has a code outside its "
                    f"{len(levels)} levels")
    return None


#: a code in range, past it, negative, fractional, a signed zero, infinite or missing
FACTOR_CODES = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, -1.0, 0.5, math.inf, -math.inf,
                                math.nan])


@given(st.lists(st.tuples(st.lists(FACTOR_CODES, min_size=4, max_size=4),
                          st.lists(st.sampled_from(["a", "b", "c", 1]), max_size=3)),
                min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
# the second factor's non-text level comes after the first factor's stray code
@example([([0.0, 1.0, 2.0, 0.0], ["a", "b"]), ([0.0] * 4, [1])])
@example([([math.nan, 0.0, -0.0, 1.0], ["a", "b"]), ([0.0, 1.0, 0.0, 0.0], ["a", "b"])])
def test_the_factor_checks_name_the_first_fault_that_the_cell_by_cell_rule_finds(factors):
    # the constructor checks every factor's codes in one array pass
    schema = [*(ColumnSchema(f"f{k}", CATEGORICAL) for k in range(len(factors))),
              ColumnSchema("y", NUMERIC, RESPONSE)]
    values = np.array([*(codes for codes, _ in factors), [1.0, 2.0, 3.0, 4.0]])
    levels = (*(tuple(names) for _, names in factors), ())
    fault = first_factor_fault(factors)
    if fault is None:
        assert Dataset("d", schema, range(4), values, levels).levels == levels
        return
    with pytest.raises(SchemaError) as caught:
        Dataset("d", schema, range(4), values, levels)
    assert str(caught.value) == fault


@pytest.mark.parametrize("levels, message", [
    ((("a", "b"), ("q",), ()), "numeric column 'x' of 'bad' has levels"),
    ((("a", 1), (), ()), "factor 'f' of 'bad' has the level 1, which is not text"),
    (((None, "b"), (), ()), "factor 'f' of 'bad' has the level None, which is not text"),
], ids=["levels-of-a-numeric-column", "an-int-level", "a-None-level"])
def test_levels_belong_to_factors_and_are_text(levels, message):
    # such a dataset used to build, and then column(), fingerprint() or a fit
    # raised IndexError or TypeError
    with pytest.raises(SchemaError) as caught:
        Dataset("bad", _columns("f categorical explanatory", "x numeric explanatory",
                                "y numeric response"), (0, 1),
                np.array([[0.0, 1.0], [1.0, 2.0], [3.0, 4.0]]), levels)
    assert str(caught.value) == message


def test_each_levels_entry_is_a_sequence_of_text_stored_as_a_tuple():
    schema = _columns("f categorical explanatory", "x numeric explanatory", "y numeric response")
    values = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
    # None used to raise TypeError, and a string was read as its characters
    for levels, entry in [((("q",), None, ()), "None"), (("q", (), ()), "'q'")]:
        column = "f" if entry == "'q'" else "x"
        with pytest.raises(SchemaError) as caught:
            Dataset("bad", schema, (0, 1), values, levels)
        assert str(caught.value) == (f"levels of column {column!r} of 'bad' must be a "
                                     f"sequence of strings, got {entry}")
    # a list used to be kept as it was, so the dataset was not equal to this one
    given_lists = Dataset("d", schema, (0, 1), values, [["q"], [], ()])
    assert given_lists.levels == (("q",), (), ())
    assert given_lists == Dataset("d", schema, (0, 1), values, (("q",), (), ()))


def test_row_ids_are_stored_as_ints():
    schema = _columns("x numeric explanatory", "y numeric response")
    values = np.array([[1.0, 2.0, 3.0, 4.0, 5.0], [3.0, 5.0, 6.0, 9.0, 11.0]])
    ds = Dataset("d", schema, tuple(np.arange(5)), values, ((), ()))
    assert ds.ids == (0, 1, 2, 3, 4) and {type(i) for i in ds.ids} == {int}
    # numpy ids used to reach the export, which json could not write
    folds = generate_folds(ds, ValidationPlan(kind="loocv"))
    assert json.loads(to_json_text(folds.to_json_dict()))["folds"][0] == \
        {"train": [1, 2, 3, 4], "test": [0]}
    for bad in [4.0, "4", True, np.True_]:
        with pytest.raises(SchemaError) as caught:
            Dataset("d", schema, (0, 1, 2, 3, bad), values, ((), ()))
        assert str(caught.value) == f"a row id must be an integer, got {bad!r}"


TWO_COLUMNS = _columns("x numeric explanatory", "y numeric response")
THREE_ROWS = np.array([[1.0, 2.0, 3.0], [3.0, 5.0, 7.0]])


@pytest.mark.parametrize("change, message", [
    ({"ids": None}, "ids of 'd' must be a sequence, got None"),
    ({"levels": None}, "levels of 'd' must be a sequence, got None"),
    ({"name": 5}, "a dataset name must be text, got 5"),
    ({"schema": None}, "a schema must be a sequence of ColumnSchema, got None"),
    ({"schema": 5}, "a schema must be a sequence of ColumnSchema, got 5"),
    ({"values": [[1.0, 2.0, 3.0], [3.0]]}, "column arrays of 'd' do not fit its schema"),
], ids=["ids-none", "levels-none", "name-int", "schema-none", "schema-int", "ragged-values"])
def test_malformed_constructor_arguments_are_schema_errors(change, message):
    fields = {"name": "d", "schema": TWO_COLUMNS, "ids": (0, 1, 2), "values": THREE_ROWS,
              "levels": ((), ())}
    with pytest.raises(SchemaError) as caught:
        Dataset(**{**fields, **change})
    assert str(caught.value) == message


@pytest.mark.parametrize("call, error, message", [
    (lambda ds: split(ds, [[0]], [1]), SplitError, "a row id must be an integer, got [0]"),
    (lambda ds: split(ds, 5, [1]), SplitError, "split ids must be a sequence, got 5"),
    (lambda ds: Dataset.from_columns("d", None, (0,), [[1.0], [2.0]]), SchemaError,
     "a schema must be a sequence of ColumnSchema, got None"),
    (lambda ds: Dataset.from_columns("d", TWO_COLUMNS, None, [[1.0], [2.0]]), SchemaError,
     "ids and columns of 'd' must be sequences"),
    (lambda ds: Dataset.from_columns("d", TWO_COLUMNS, (0,), None), SchemaError,
     "ids and columns of 'd' must be sequences"),
    (lambda ds: ColumnSchema(5, NUMERIC), SchemaError,
     "column name must be nonempty text, got 5"),
    (lambda ds: ColumnSchema(["a"], NUMERIC), SchemaError,
     "column name must be nonempty text, got ['a']"),
], ids=["split-nested-ids", "split-int-ids", "from-columns-schema-none",
        "from-columns-ids-none", "from-columns-columns-none", "column-name-int",
        "column-name-list"])
def test_malformed_calls_are_typed_errors(factor_dataset, call, error, message):
    with pytest.raises(error) as caught:
        call(factor_dataset)
    assert str(caught.value) == message


@pytest.mark.parametrize("cells, message", [
    ([[1, 2], [1.0, 2.0], [3.0, 4.0]], "factor 'f' of 'bad' has the level 1, which is not text"),
    # a level that cannot be a dictionary key
    ([[["a"], "b"], [1.0, 2.0], [3.0, 4.0]],
     "factor 'f' of 'bad' has the level ['a'], which is not text"),
    ([["a", "b"], [1.0, "b"], [3.0, 4.0]],
     "numeric column 'x' of 'bad' holds 'b' in row 8, which is not a number"),
    ([["a", "b"], [1.0, 2.0], [[3.0], 4.0]],
     "numeric column 'y' of 'bad' holds [3.0] in row 7, which is not a number"),
], ids=["int-factor-cells", "list-factor-cell", "text-in-a-numeric-column",
        "a-list-in-the-response"])
def test_from_columns_refuses_cells_of_the_wrong_kind(cells, message):
    with pytest.raises(SchemaError) as caught:
        Dataset.from_columns("bad", _columns("f categorical explanatory",
                                             "x numeric explanatory", "y numeric response"),
                             (7, 8), cells)
    assert str(caught.value) == message


def test_from_columns_takes_any_real_number_or_bool():
    ds = Dataset.from_columns("ok", _columns("x numeric explanatory", "y numeric response"),
                              (0, 1, 2), [[True, np.bool_(False), None],
                                          [np.float32(1.5), np.int8(2), math.nan]])
    assert ds.column("x") == (1.0, 0.0, None) and ds.column("y") == (1.5, 2.0, None)


def test_a_missing_factor_cell_needs_no_level():
    codes = np.array([[0.0, math.nan, 1.0], [1.0, 2.0, 3.0]])
    ds = Dataset("gap", _columns("f categorical explanatory", "y numeric response"), (0, 1, 2),
                 codes, (("a", "b"), ()))
    assert ds.column("f") == ("a", None, "b")


def test_a_loaded_factor_given_to_the_constructor_is_still_checked():
    # a loaded dataset's levels, given to the public constructor, are
    # checked as any
    ds = load_builtin("maxwell")
    i = next(i for i, levels in enumerate(ds.levels) if levels)
    levels = list(ds.levels)
    levels[i] = (levels[i][0],) * len(levels[i])
    with pytest.raises(SchemaError) as caught:
        dataclasses.replace(ds, levels=tuple(levels))
    assert str(caught.value) == (f"factor {ds.schema[i].name!r} of 'maxwell' repeats a level "
                                 f"name or has a code outside its {len(levels[i])} levels")


#: the first 16 hex digits of each loaded dataset's fingerprint: raw, then prepared
LOADED_FINGERPRINTS = {"cocomo81": ("41a5588aaa4b7b40", "41a5588aaa4b7b40"),
                       "desharnais": ("7d0c20e8010af06f", "d722de66e31ca02e"),
                       "maxwell": ("ac5105568589e727", "12ba43d45c6b7899"),
                       "synth": ("03f78463298ba4bf",)}


@pytest.mark.parametrize("name", LOADED_FINGERPRINTS)
def test_loaded_datasets_pass_every_constructor_check(name, tmp_path):
    # load_csv and apply_recipe build their datasets through the constructor, so a
    # rebuild of the same fields equals them, and they hold their own read-only copy
    if name == "synth":
        csv_path, schema_path = synth.write(synth.generate(1), tmp_path)
        loaded = [load_csv(csv_path, load_schema(schema_path))]
    else:
        loaded = [load_builtin_raw(name), load_builtin(name)]
    for ds, fingerprint in zip(loaded, LOADED_FINGERPRINTS[name], strict=True):
        checked = Dataset(ds.name, ds.schema, ds.ids, ds.values, ds.levels)
        assert checked == ds and ds.fingerprint()[:16] == fingerprint
        assert ds.values.dtype == np.float64 and ds.values.base is None
        assert not ds.values.flags.writeable


@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.bool_])
def test_number_cells_of_any_dtype_are_stored_as_float64(dtype):
    # int64 cells used to end in a TypeError from the fingerprint's
    # float.__repr__, and float32 ones were kept as they were
    schema = _columns("f categorical explanatory", "y numeric response")
    cells = np.array([[0, 1, 1, 0, 1], [1, 0, 1, 1, 0]]).astype(dtype)
    ds = Dataset("d", schema, tuple(range(5)), cells, (("a", "b"), ()))
    reference = Dataset("d", schema, tuple(range(5)), cells.astype(float), (("a", "b"), ()))
    assert ds.values.dtype == np.float64
    assert ds == reference and ds.fingerprint() == reference.fingerprint()


@pytest.mark.parametrize("cells", [np.array([["a", "b"], ["1", "2"]]),
                                   np.array([[0.0, 1.0], [1.0, "2"]], dtype=object)])
def test_text_cells_are_a_schema_error(cells):
    with pytest.raises(SchemaError) as caught:
        Dataset("bad", _columns("x numeric explanatory", "y numeric response"), (0, 1), cells,
                ((), ()))
    assert str(caught.value) == f"cells of 'bad' must be numbers, not {cells.dtype}"


def test_a_nan_number_is_a_missing_cell():
    cells = {"x": [1.0, math.nan, 3.0, None, 5.0], "y": [5.0, 6.0, 7.0, 8.0, 9.0]}
    nan = make_dataset(cells, response="y")
    gap = make_dataset({**cells, "x": [1.0, None, 3.0, None, 5.0]}, response="y")
    assert nan == gap
    text = ("x|numeric|explanatory\ny|numeric|response\n"
            "0:1.0,5.0\n1:?,6.0\n2:3.0,7.0\n3:?,8.0\n4:5.0,9.0\n")
    assert nan.fingerprint() == gap.fingerprint() == hashlib.sha256(text.encode()).hexdigest()
    assert nan.column("x") == (1.0, None, 3.0, None, 5.0)
    with pytest.raises(MissingValueError) as caught:
        nan.require_no_missing("fit")
    assert str(caught.value) == ("fit: dataset 'test' has a missing value in column 'x', "
                                 "row 1")
    assert apply_recipe(nan, PrepRecipe(drop_rows_with_missing=True)).ids == (0, 2, 4)
    # in a file, "nan" is still a bad number and not a missing marker
    fast, reference = load_both("x,f,y\n?,a,1\nNA,a,2\nnan,a,3\n", SCHEMA_XFY)
    assert fast == reference
    assert fast[0] is ParseError and fast[1].endswith(":4: column 'x': non-finite value 'nan'")


def test_schema_requires_single_numeric_response():
    with pytest.raises(SchemaError):
        make_dataset({"x": [1, 2], "y": [1, 2]}, response="nope")
    with pytest.raises(SchemaError):
        Dataset.from_columns("bad", (ColumnSchema("y", CATEGORICAL, "response"),),
                             (0,), (("a",),))


def test_reloading_the_same_cells_gives_an_equal_dataset(tmp_path):
    ds = make_dataset({"x": [0.1, 2.0000000001, 3e17], "f": ["u", "v", "u"],
                       "y": [1.25, None, 3.125]},
                      response="y", categorical=("f",))
    csv_path = tmp_path / "out.csv"
    schema_path = tmp_path / "out.schema"
    csv_path.write_text("x,f,y\n0.1,u,1.25\n2.0000000001,v,\n3e17,u,3.125\n")
    schema_path.write_text("x numeric explanatory\nf categorical explanatory\n"
                           "y numeric response\n")
    again = load_csv(csv_path, load_schema(schema_path), name=ds.name)
    assert again == ds  # a missing cell is NaN in both, and equal
    assert again.fingerprint() == ds.fingerprint()
    for changed in (dataclasses.replace(ds, name="other"),
                    dataclasses.replace(ds, levels=(ds.levels[0], ("v", "u"), ds.levels[2])),
                    dataclasses.replace(ds, values=ds.values + (ds.values == 0.1)),
                    dataclasses.replace(ds, ids=(0, 1, 5))):
        assert changed != ds


def reference_fingerprint(ds: Dataset) -> str:
    """SHA-256 fed one line per column and per row, cell by cell."""
    h = hashlib.sha256()
    for c in ds.schema:
        h.update(f"{c.name}|{c.kind}|{c.role}\n".encode())
    columns = [["?" if v is None else format_number(v) if c.kind == NUMERIC else v
                for v in ds.column(c.name)] for c in ds.schema]
    for rid, cells in zip(ds.ids, zip(*columns)):
        h.update(f"{rid}:{','.join(cells)}\n".encode())
    return h.hexdigest()


@st.composite
def datasets_with_gaps(draw):
    """Numeric and factor columns with missing cells, NaN and infinite
    numbers, level text with commas and non-ASCII, and ids with gaps."""
    n = draw(st.integers(0, 12))
    ids = draw(st.permutations(range(2 * n)))[:n]
    kinds = draw(st.lists(st.sampled_from([NUMERIC, CATEGORICAL]), min_size=1, max_size=4))
    schema = [ColumnSchema(f"c{i}", kind) for i, kind in enumerate(kinds)]
    schema.append(ColumnSchema("y", NUMERIC, RESPONSE))
    numbers = st.none() | st.floats()
    levels = st.none() | st.sampled_from(["a", "b,c", "é", "?", "1.0"])
    columns = [draw(st.lists(levels if c.kind == CATEGORICAL else numbers,
                             min_size=n, max_size=n)) for c in schema]
    return Dataset.from_columns("gaps", schema, ids, columns)


def gaps_dataset(*columns) -> Dataset:
    """Rows 0, 1, ... of the columns, the last one the response; a column
    holding text is a factor."""
    schema = [ColumnSchema(f"c{i}", CATEGORICAL if str in map(type, cells) else NUMERIC)
              for i, cells in enumerate(columns[:-1])]
    return Dataset.from_columns("gaps", [*schema, ColumnSchema("y", NUMERIC, RESPONSE)],
                                range(len(columns[0])), columns)


@given(datasets_with_gaps())
@example(gaps_dataset([-0.0, 0.0, 1.0, 0.0, -0.0], [0.0, 2.0, -0.0, 3.0, 4.0]))
@example(gaps_dataset([5e-324, 1e16, 1e22, math.inf, -math.inf], [1e16, 2.0, 3.0, 4.0, 5.0]))
@example(gaps_dataset([math.nan, None, math.nan], [1.0, 2.0, 3.0]))  # every cell missing
@example(gaps_dataset(["b", None, "a", "b"], [1.0, 2.0, 1.0, None]))  # a factor with a gap
@settings(max_examples=150, deadline=None)
def test_fingerprint_equals_the_cell_by_cell_hash(ds):
    assert ds.fingerprint() == reference_fingerprint(ds)


def test_fingerprint_reads_a_fortran_ordered_matrix_by_rows():
    cells = np.array([[0.5, -0.0, 3.0, 0.0], [1.0, math.nan, 1.0, 0.0],
                      [2.0, 7.0, 9.5, 1e22]])
    schema = _columns("x numeric explanatory", "f categorical explanatory", "y numeric response")
    ds = Dataset("f", schema, (4, 0, 2, 1), np.asfortranarray(cells), ((), ("a", "b"), ()))
    assert ds.fingerprint() == reference_fingerprint(ds)
    assert ds.fingerprint() == Dataset("c", schema, (4, 0, 2, 1), cells,
                                       ((), ("a", "b"), ())).fingerprint()


def test_fingerprint_ignores_display_name():
    a = make_dataset({"x": [1, 2, 3], "y": [1, 2, 3]}, response="y", name="a")
    b = make_dataset({"x": [1, 2, 3], "y": [1, 2, 3]}, response="y", name="b")
    assert a.fingerprint() == b.fingerprint()
    c = make_dataset({"x": [1, 2, 4], "y": [1, 2, 3]}, response="y", name="a")
    assert c.fingerprint() != a.fingerprint()


class TestApplyRecipe:
    def test_identity_recipe_keeps_rows(self, factor_dataset):
        # a recipe that changes nothing returns the dataset it was given
        assert apply_recipe(factor_dataset, PrepRecipe()) is factor_dataset

    def test_a_notes_only_recipe_returns_the_raw_dataset_as_it_was(self):
        raw = load_builtin_raw("cocomo81")
        prepared = apply_recipe(raw, builtin_recipe("cocomo81"))
        assert prepared is raw
        assert prepared.fingerprint()[:16] == LOADED_FINGERPRINTS["cocomo81"][1]

    def test_set_response_moves_role(self, factor_dataset):
        out = apply_recipe(factor_dataset, PrepRecipe(set_response="x"))
        assert out.response_name == "x"
        assert out.schema[out.column_index("y")].role == "explanatory"

    def test_drop_and_cast(self):
        ds = make_dataset({"lang": [1, 2, 3, 1], "y": [5, 6, 7, 8]}, response="y")
        recipe = PrepRecipe(drop_row_ids=(1,), cast_to_categorical=("lang",))
        out = apply_recipe(ds, recipe)
        assert out.ids == (0, 2, 3)
        assert out.column("lang") == ("1", "3", "1")
        assert out.schema[out.column_index("lang")].kind == CATEGORICAL

    def test_cast_levels_follow_the_rows_the_drop_list_keeps(self):
        # the level "3" is seen only in a row dropped for its missing cell, and stays
        ds = make_dataset({"lang": [1, 2, 3, 2], "x": [1, 2, None, 4], "y": [5, 6, 7, 8]},
                          response="y")
        out = apply_recipe(ds, PrepRecipe(drop_row_ids=(0,), cast_to_categorical=("lang",),
                                          drop_rows_with_missing=True))
        assert (out.ids, out.levels[0], out.column("lang")) == ((1, 3), ("2", "3"), ("2", "2"))

    def test_drop_missing_rows(self):
        ds = make_dataset({"x": [1, None, 3, 4], "y": [5, 6, 7, 8]}, response="y")
        out = apply_recipe(ds, PrepRecipe(drop_rows_with_missing=True))
        assert out.ids == (0, 2, 3)
        assert not np.isnan(out.values).any()

    def test_missing_left_behind_is_an_error(self):
        ds = make_dataset({"x": [1, None, 3], "y": [5, 6, 7]}, response="y")
        with pytest.raises(RecipeError) as caught:
            apply_recipe(ds, PrepRecipe())
        assert str(caught.value) == ("prepared dataset still has a missing value in column "
                                     "'x', row 1; drop the row or ignore the column")

    def test_ignored_column_may_keep_missing(self):
        ds = make_dataset({"x": [1, None, 3], "z": [1, 2, 3], "y": [5, 6, 7]},
                          response="y")
        out = apply_recipe(ds, PrepRecipe(ignore_columns=("x",)))
        out.require_no_missing("fit")
        assert out.column("x")[1] is None

    def test_unknown_column_is_an_error(self, factor_dataset):
        with pytest.raises(RecipeError):
            apply_recipe(factor_dataset, PrepRecipe(cast_to_categorical=("nope",)))

    def test_any_row_the_dataset_holds_can_be_dropped(self):
        ds = Dataset("d", TWO_COLUMNS, (10, 11, 12), THREE_ROWS, ((), ()))
        assert apply_recipe(ds, PrepRecipe(drop_row_ids=(12, 10))).ids == (11,)
        with pytest.raises(RecipeError) as caught:
            apply_recipe(ds, PrepRecipe(drop_row_ids=(10, 2)))
        assert str(caught.value) == "recipe drops row id 2, which dataset 'd' does not hold"

    def test_a_row_only_the_other_half_of_a_split_holds_is_refused(self):
        # the test half's ids are all row numbers of the loaded file, and a row
        # of the training half used to be skipped there without a word
        ds = load_builtin("desharnais")
        _train, test = split(ds, ds.ids[:40], ds.ids[40:])
        with pytest.raises(RecipeError) as caught:
            apply_recipe(test, PrepRecipe(drop_row_ids=(ds.ids[41], ds.ids[0], ds.ids[1])))
        assert str(caught.value) == (f"recipe drops row id {ds.ids[0]}, which dataset "
                                     f"'desharnais' does not hold")

    def test_nonexistent_row_id_is_an_error(self, factor_dataset):
        with pytest.raises(RecipeError):
            apply_recipe(factor_dataset, PrepRecipe(drop_row_ids=(99,)))

    def test_a_recipe_that_drops_rows_cannot_be_applied_to_its_own_result(self):
        ds = make_dataset({"x": [1, 2, 3, 4, None], "y": [5, 6, 7, 8, 9]},
                          response="y")
        once = apply_recipe(ds, PrepRecipe(drop_rows_with_missing=True, drop_row_ids=(0, 3, 1)))
        assert once.ids == (2,)
        with pytest.raises(RecipeError) as caught:
            apply_recipe(once, PrepRecipe(drop_row_ids=(0, 3, 1)))
        assert str(caught.value) == "recipe drops row id 0, which dataset 'test' does not hold"
        builtin = load_builtin("desharnais")
        with pytest.raises(RecipeError, match="drops row id 25, which dataset 'desharnais'"):
            apply_recipe(builtin, builtin_recipe("desharnais"))

    def test_a_recipe_that_drops_no_row_id_gives_its_own_result_again(self):
        ds = make_dataset({"lang": [1, 2, 3, 1, 2], "x": [1, 2, 3, 4, None], "z": [1, 1, 2, 2, 3],
                           "y": [5, 6, 7, 8, 9]}, response="y")
        recipe = PrepRecipe(drop_rows_with_missing=True, cast_to_categorical=("lang",),
                            ignore_columns=("z",))
        once = apply_recipe(ds, recipe)
        assert once.ids == (0, 1, 2, 3) and once.schema[0].kind == CATEGORICAL
        assert apply_recipe(once, recipe) == once

    @given(st.lists(st.none() | st.floats() | st.sampled_from([0.0, -0.0, 1.0, 2.5]),
                    max_size=12))
    @settings(max_examples=150, deadline=None)
    @example([-0.0, 0.0, None, -0.0])  # one level "0"
    @example([float("nan"), 1.0, float("nan"), None])  # NaN is missing, as None is
    def test_cast_labels_equal_the_cell_by_cell_labels(self, cells):
        ds = make_dataset({"x": cells, "y": range(len(cells))}, response="y")
        out = apply_recipe(ds, PrepRecipe(cast_to_categorical=("x",), ignore_columns=("x",)))
        cells = [None if v is None or math.isnan(v) else v for v in cells]  # NaN is missing
        labels = [None if v is None else str(int(v)) if v.is_integer() else repr(v)
                  for v in cells]
        assert out.column("x") == tuple(labels)
        assert out.levels[0] == tuple(dict.fromkeys(v for v in labels if v is not None))
        assert out.schema[0].kind == CATEGORICAL


@pytest.mark.parametrize("fields, message", [
    ({"drop_row_ids": ("a",)}, "field 'drop_row_ids' has the wrong type: ('a',)"),
    ({"drop_row_ids": 5}, "field 'drop_row_ids' has the wrong type: 5"),
    ({"drop_row_ids": (1.5,)}, "field 'drop_row_ids' has the wrong type: (1.5,)"),
    ({"drop_row_ids": [np.True_]}, "field 'drop_row_ids' has the wrong type: [np.True_]"),
    ({"notes": 5}, "field 'notes' has the wrong type: 5"),
    ({"notes": "abc"}, "field 'notes' has the wrong type: 'abc'"),
    ({"drop_rows_with_missing": "x"}, "field 'drop_rows_with_missing' has the wrong type: 'x'"),
    ({"set_response": "x", "ignore_columns": ["z", "x"]},
     "the response 'x' is also an ignored column"),
], ids=["text-row-id", "int-row-ids", "float-row-id", "numpy-bool-row-id", "int-notes",
        "text-notes", "text-flag", "ignored-response"])
def test_a_recipe_checks_its_own_fields(fields, message):
    with pytest.raises(RecipeError) as caught:
        PrepRecipe(**fields)
    assert str(caught.value) == message


def test_recipe_sequences_are_stored_as_tuples_and_row_ids_as_ints():
    recipe = PrepRecipe(drop_row_ids=[np.int64(3), 1], cast_to_categorical=["lang"],
                        ignore_columns=["x"], notes=["n"])
    assert recipe == PrepRecipe(drop_row_ids=(3, 1), cast_to_categorical=("lang",),
                                ignore_columns=("x",), notes=("n",))
    assert [type(rid) for rid in recipe.drop_row_ids] == [int, int]
    assert hash(recipe) == hash(dataclasses.replace(recipe))


class TestRecipeFile:
    def test_fields_load_as_tuples(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"drop_rows_with_missing": true, "drop_row_ids": [3, 1], '
                        '"cast_to_categorical": ["lang"], "set_response": "y", '
                        '"ignore_columns": [], "notes": ["n"]}')
        assert PrepRecipe.from_json_file(path) == PrepRecipe(
            drop_rows_with_missing=True, drop_row_ids=(3, 1),
            cast_to_categorical=("lang",), set_response="y", notes=("n",))

    @pytest.mark.parametrize("text", [
        "5", "[]", '"recipe"', "null",
        '{"drop_rows_with_missing": 1}',
        '{"drop_row_ids": "ab"}', '{"drop_row_ids": [1.5]}', '{"drop_row_ids": [true]}',
        '{"cast_to_categorical": "mode"}', '{"cast_to_categorical": [1]}',
        '{"set_response": 3}', '{"set_response": ["y"]}',
        '{"ignore_columns": null}', '{"notes": [null]}',
    ])
    def test_wrong_shape_is_a_recipe_error(self, tmp_path, text):
        path = tmp_path / "r.json"
        path.write_text(text)
        with pytest.raises(RecipeError, match="r.json"):
            PrepRecipe.from_json_file(path)

    @pytest.mark.parametrize("text, message", [
        ('{"drop_row_ids": [1.5]}', "field 'drop_row_ids' has the wrong type: [1.5]"),
        ('{"notes": [null]}', "field 'notes' has the wrong type: [None]"),
        ('{"mode": 1}', "unknown recipe fields ['mode']"),
        ('{"set_response": "x", "ignore_columns": ["x"]}',
         "the response 'x' is also an ignored column"),
    ])
    def test_a_file_error_is_the_constructor_error_after_the_path(self, tmp_path, text,
                                                                  message):
        path = tmp_path / "r.json"
        path.write_text(text)
        with pytest.raises(RecipeError) as caught:
            PrepRecipe.from_json_file(path)
        assert str(caught.value) == f"{path}: {message}"


BOM = b"\xef\xbb\xbf"
INPUT_FILES = {"csv": "x,mode,y\n1,a,2\n2,b,3\n3,a,5\n4,b,4\n",
               "schema": "x numeric explanatory\nmode categorical explanatory\n"
                         "y numeric response\n",
               "recipe": '{"cast_to_categorical": ["x"], "notes": ["n"]}'}


@pytest.mark.parametrize("marked", list(INPUT_FILES))
def test_a_leading_byte_order_mark_is_dropped(tmp_path, marked):
    # Excel saves "CSV UTF-8" with a byte-order mark before the header

    def load(directory, bom):
        directory.mkdir()
        for kind, text in INPUT_FILES.items():
            (directory / f"d.{kind}").write_bytes((bom if kind == marked else b"") + text.encode())
        raw = load_csv(directory / "d.csv", load_schema(directory / "d.schema"))
        return apply_recipe(raw, PrepRecipe.from_json_file(directory / "d.recipe"))

    plain, with_mark = load(tmp_path / "plain", b""), load(tmp_path / "marked", BOM)
    assert with_mark == plain and with_mark.fingerprint() == plain.fingerprint()
    assert [col.name for col in with_mark.schema] == ["x", "mode", "y"]


@pytest.mark.parametrize("kind, loader, error", [
    ("csv", lambda path: load_csv(path, SMALL_SCHEMA), ParseError),
    ("schema", load_schema, SchemaError),
    ("recipe", PrepRecipe.from_json_file, RecipeError),
])
def test_a_bad_byte_after_a_byte_order_mark_is_reported_at_its_file_offset(
        tmp_path, kind, loader, error):
    path = tmp_path / f"d.{kind}"
    path.write_bytes(BOM + b"x,y\n1,\xff\n")  # the 0xff is the file's tenth byte
    with pytest.raises(error) as exc:
        loader(path)
    assert str(exc.value) == f"{path}: not UTF-8 text at byte 9: invalid start byte"


@pytest.mark.parametrize("line, message", [
    ("y numeric Response", "unknown column role 'Response' for 'y'"),
    ("y Numeric response", "unknown column kind 'Numeric' for 'y'"),
])
def test_a_schema_line_error_names_its_file_and_line(tmp_path, line, message):
    path = tmp_path / "d.schema"
    path.write_text(f"# effort data\nx numeric explanatory\n\n{line}\n")
    with pytest.raises(SchemaError) as exc:
        load_schema(path)
    assert str(exc.value) == f"{path}:4: {message}"


class TestSplit:
    def test_cardinalities(self):
        ds = make_dataset({"x": list(range(10)), "y": list(range(10))}, response="y")
        train, test = split(ds, tuple(range(8)), (8, 9))
        assert len(train) == 8 and len(test) == 2
        assert train.schema == ds.schema == test.schema

    def test_overlap_rejected(self, factor_dataset):
        with pytest.raises(SplitError):
            split(factor_dataset, (0, 1, 2), (2, 3))

    def test_unknown_id_rejected(self, factor_dataset):
        with pytest.raises(SplitError):
            split(factor_dataset, (0, 1), (99,))

    def test_duplicate_ids_rejected(self, factor_dataset):
        with pytest.raises(SplitError, match="duplicate ids in split"):
            split(factor_dataset, (0, 1, 1), (2, 3))

    def test_dataset_rejects_duplicate_row_ids(self):
        with pytest.raises(SchemaError, match="row ids must be unique"):
            Dataset.from_columns("bad", [ColumnSchema("y", NUMERIC, "response")],
                                 (0, 1, 0), [[1.0, 2.0, 3.0]])

    def test_derived_datasets_pass_every_constructor_check(self):
        # split and apply_transforms build their datasets through the constructor,
        # so a rebuild of the same fields equals them and keeps the one schema
        ds = load_builtin("maxwell")
        train, test = split(ds, ds.ids[5:], ds.ids[:5])
        transformed = apply_transforms(calculate_transforms(train), test)
        for part in (train, test, transformed):
            assert dataclasses.replace(part) == part
        assert (train.schema, test.schema, transformed.schema) == (ds.schema,) * 3

    def test_cells_cannot_be_written(self):
        # a write after generate_folds would change every later fit, while the
        # exported fingerprint still named the old content
        cells = np.array([[1.0, 2.0, 3.0, 4.0], [9.0, 8.0, 7.0, 6.0]])
        ds = Dataset("d", [ColumnSchema("x", NUMERIC), ColumnSchema("y", NUMERIC, RESPONSE)],
                     (0, 1, 2, 3), cells, ((), ()))
        train, test = split(ds, (3, 0), (2, 1))
        transformed = apply_transforms(calculate_transforms(ds), test)
        for part in (ds, dataclasses.replace(ds), train, test, transformed):
            with pytest.raises(ValueError, match="read-only"):
                part.values[0, 0] = 5.0
            with pytest.raises(ValueError, match="read-only"):
                part.response_column()[:] = 0.0
        # the caller's own array stays writeable, and the dataset owns a copy,
        # also of a read-only view of it
        frozen = cells.view()
        frozen.flags.writeable = False
        views = Dataset("v", ds.schema, ds.ids, frozen, ds.levels)
        fingerprint = ds.fingerprint()
        cells[0, 0] = 5.0
        for part in (ds, views):
            assert part.values[0, 0] == 1.0 and part.fingerprint() == fingerprint

    def test_cells_preserved_exactly(self):
        ds = make_dataset({"x": [1.5, 2.5, 3.5, 4.5], "y": [9, 8, 7, 6]}, response="y")
        train, test = split(ds, (3, 0), (2, 1))
        def cells(part):
            return dict(zip(part.ids, zip(part.column("x"), part.column("y"))))
        assert {**cells(train), **cells(test)} == cells(ds)
        # order follows the id lists
        assert train.ids == (3, 0)
        assert (train.column("x")[0], train.column("y")[0]) == cells(ds)[3]


class TestBundled:
    def test_cocomo81_shape(self):
        ds = load_builtin("cocomo81")
        assert len(ds) == 63
        numeric = [c for c in ds.schema if c.kind == NUMERIC and c.role == "explanatory"]
        assert len(numeric) == 16  # 15 cost drivers + lines of code
        assert ds.schema[ds.column_index("mode")].kind == CATEGORICAL
        assert ds.response_name == "effort"

    def test_desharnais_preparation(self):
        raw = load_builtin_raw("desharnais")
        assert len(raw) == 81
        prepared = apply_recipe(raw, builtin_recipe("desharnais"))
        assert len(prepared) == 74  # 81 - 4 missing - 3 outliers
        assert prepared.schema[prepared.column_index("Language")].kind == CATEGORICAL
        assert prepared.schema[prepared.column_index("Project")].role == "ignored"
        prepared.require_no_missing("fit")

    def test_maxwell_shape(self):
        ds = load_builtin("maxwell")
        assert len(ds) == 62
        factors = [c.name for c in ds.schema if c.kind == CATEGORICAL]
        assert factors == ["app", "har", "dba", "ifc", "source", "telonuse"]

    def test_test_size_ten_split_on_desharnais(self):
        ds = load_builtin("desharnais")
        test_ids = ds.ids[:10]
        train_ids = ds.ids[10:]
        train, test = split(ds, train_ids, test_ids)
        assert len(train) == 64 and len(test) == 10
