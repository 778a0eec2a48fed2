from __future__ import annotations

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atlm.bundled import builtin_recipe, load_builtin, load_builtin_raw
from atlm.dataset import (
    CATEGORICAL,
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
from atlm.errors import MissingValueError, ParseError, RecipeError, SchemaError, SplitError
from atlm.transforms import apply_transforms, calculate_transforms

from conftest import make_dataset


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
])
def test_schema_errors_keep_their_text(schema, message):
    cells = [["a"] if c.kind == CATEGORICAL else [1.0] for c in schema]
    with pytest.raises(SchemaError) as caught:
        Dataset.from_columns("bad", schema, (0,), cells)
    assert str(caught.value) == message


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
                    dataclasses.replace(ds, levels=(("v", "u"),) + ds.levels[1:]),
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


@given(datasets_with_gaps())
@settings(max_examples=150, deadline=None)
def test_fingerprint_equals_the_cell_by_cell_hash(ds):
    assert ds.fingerprint() == reference_fingerprint(ds)


def test_fingerprint_ignores_display_name():
    a = make_dataset({"x": [1, 2, 3], "y": [1, 2, 3]}, response="y", name="a")
    b = make_dataset({"x": [1, 2, 3], "y": [1, 2, 3]}, response="y", name="b")
    assert a.fingerprint() == b.fingerprint()
    c = make_dataset({"x": [1, 2, 4], "y": [1, 2, 3]}, response="y", name="a")
    assert c.fingerprint() != a.fingerprint()


class TestApplyRecipe:
    def test_identity_recipe_keeps_rows(self, factor_dataset):
        out = apply_recipe(factor_dataset, PrepRecipe())
        assert out == factor_dataset

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

    def test_drop_missing_rows(self):
        ds = make_dataset({"x": [1, None, 3, 4], "y": [5, 6, 7, 8]}, response="y")
        out = apply_recipe(ds, PrepRecipe(drop_rows_with_missing=True))
        assert out.ids == (0, 2, 3)
        assert not out.missing.any()

    def test_missing_left_behind_is_an_error(self):
        ds = make_dataset({"x": [1, None, 3], "y": [5, 6, 7]}, response="y")
        with pytest.raises(RecipeError, match="missing"):
            apply_recipe(ds, PrepRecipe())

    def test_ignored_column_may_keep_missing(self):
        ds = make_dataset({"x": [1, None, 3], "z": [1, 2, 3], "y": [5, 6, 7]},
                          response="y")
        out = apply_recipe(ds, PrepRecipe(ignore_columns=("x",)))
        out.require_no_missing("fit")
        assert out.column("x")[1] is None

    def test_unknown_column_is_an_error(self, factor_dataset):
        with pytest.raises(RecipeError):
            apply_recipe(factor_dataset, PrepRecipe(cast_to_categorical=("nope",)))

    def test_nonexistent_row_id_is_an_error(self, factor_dataset):
        with pytest.raises(RecipeError):
            apply_recipe(factor_dataset, PrepRecipe(drop_row_ids=(99,)))

    def test_idempotent_once_drops_applied(self):
        ds = make_dataset({"x": [1, 2, 3, 4, None], "y": [5, 6, 7, 8, 9]},
                          response="y")
        recipe = PrepRecipe(drop_rows_with_missing=True, drop_row_ids=(1,))
        once = apply_recipe(ds, recipe)
        twice = apply_recipe(once, recipe)
        assert once == twice


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
        # split and apply_transforms build their datasets without the checks
        ds = load_builtin("maxwell")
        train, test = split(ds, ds.ids[5:], ds.ids[:5])
        transformed = apply_transforms(calculate_transforms(train), test)
        for part in (train, test, transformed):
            assert dataclasses.replace(part) == part
        assert (train.schema, test.schema, transformed.schema) == (ds.schema,) * 3

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
