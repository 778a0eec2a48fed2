from __future__ import annotations

import pytest

from atlm.bundled import builtin_recipe, load_builtin, load_builtin_raw
from atlm.dataset import (
    CATEGORICAL,
    ColumnSchema,
    Dataset,
    NUMERIC,
    PrepRecipe,
    apply_recipe,
    load_csv,
    load_schema,
    split,
    write_csv,
    write_schema,
)
from atlm.errors import ParseError, RecipeError, SchemaError, SplitError

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
    assert ds.rows[1][0] is None
    assert ds.rows[2][1] is None
    assert ds.has_missing()


def test_schema_requires_single_numeric_response():
    with pytest.raises(SchemaError):
        make_dataset({"x": [1, 2], "y": [1, 2]}, response="nope")
    with pytest.raises(SchemaError):
        Dataset.from_columns("bad", (ColumnSchema("y", CATEGORICAL, "response"),),
                             (0,), (("a",),))


def test_serialize_reload_is_identity(tmp_path):
    ds = make_dataset({"x": [0.1, 2.0000000001, 3e17], "f": ["u", "v", "u"],
                       "y": [1.25, 2.5, 3.125]},
                      response="y", categorical=("f",))
    csv_path = tmp_path / "out.csv"
    schema_path = tmp_path / "out.schema"
    write_csv(ds, csv_path)
    write_schema(ds.schema, schema_path)
    again = load_csv(csv_path, load_schema(schema_path), name=ds.name)
    assert again == ds
    assert again.fingerprint() == ds.fingerprint()


def test_fingerprint_ignores_display_name():
    a = make_dataset({"x": [1, 2, 3], "y": [1, 2, 3]}, response="y", name="a")
    b = make_dataset({"x": [1, 2, 3], "y": [1, 2, 3]}, response="y", name="b")
    assert a.fingerprint() == b.fingerprint()
    c = make_dataset({"x": [1, 2, 4], "y": [1, 2, 3]}, response="y", name="a")
    assert c.fingerprint() != a.fingerprint()


class TestApplyRecipe:
    def test_identity_recipe_keeps_rows(self, factor_dataset):
        out = apply_recipe(factor_dataset, PrepRecipe())
        assert out.rows == factor_dataset.rows
        assert out.ids == factor_dataset.ids

    def test_set_response_moves_role(self, factor_dataset):
        out = apply_recipe(factor_dataset, PrepRecipe(set_response="x"))
        assert out.response_name == "x"
        assert out.column_schema("y").role == "explanatory"

    def test_drop_and_cast(self):
        ds = make_dataset({"lang": [1, 2, 3, 1], "y": [5, 6, 7, 8]}, response="y")
        recipe = PrepRecipe(drop_row_ids=(1,), cast_to_categorical=("lang",))
        out = apply_recipe(ds, recipe)
        assert out.ids == (0, 2, 3)
        assert out.column("lang") == ("1", "3", "1")
        assert out.column_schema("lang").kind == CATEGORICAL

    def test_drop_missing_rows(self):
        ds = make_dataset({"x": [1, None, 3, 4], "y": [5, 6, 7, 8]}, response="y")
        out = apply_recipe(ds, PrepRecipe(drop_rows_with_missing=True))
        assert out.ids == (0, 2, 3)
        assert not out.has_missing()

    def test_missing_left_behind_is_an_error(self):
        ds = make_dataset({"x": [1, None, 3], "y": [5, 6, 7]}, response="y")
        with pytest.raises(RecipeError, match="missing"):
            apply_recipe(ds, PrepRecipe())

    def test_ignored_column_may_keep_missing(self):
        ds = make_dataset({"x": [1, None, 3], "z": [1, 2, 3], "y": [5, 6, 7]},
                          response="y")
        out = apply_recipe(ds, PrepRecipe(ignore_columns=("x",)))
        assert not out.has_missing()

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

    def test_cells_preserved_exactly(self):
        ds = make_dataset({"x": [1.5, 2.5, 3.5, 4.5], "y": [9, 8, 7, 6]}, response="y")
        train, test = split(ds, (3, 0), (2, 1))
        merged = {**dict(zip(train.ids, train.rows)), **dict(zip(test.ids, test.rows))}
        assert merged == dict(zip(ds.ids, ds.rows))
        # order follows the id lists
        assert train.ids == (3, 0)
        assert train.rows[0] == ds.rows[3]


class TestBundled:
    def test_cocomo81_shape(self):
        ds = load_builtin("cocomo81")
        assert len(ds) == 63
        numeric = [c for c in ds.schema if c.kind == NUMERIC and c.role == "explanatory"]
        assert len(numeric) == 16  # 15 cost drivers + lines of code
        assert ds.column_schema("mode").kind == CATEGORICAL
        assert ds.response_name == "effort"

    def test_desharnais_preparation(self):
        raw = load_builtin_raw("desharnais")
        assert len(raw) == 81
        prepared = apply_recipe(raw, builtin_recipe("desharnais"))
        assert len(prepared) == 74  # 81 - 4 missing - 3 outliers
        assert prepared.column_schema("Language").kind == CATEGORICAL
        assert prepared.column_schema("Project").role == "ignored"
        assert not prepared.has_missing()

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
