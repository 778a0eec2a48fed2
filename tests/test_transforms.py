from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atlm import transforms
from atlm.errors import DegenerateSampleError, MissingValueError, TransformDomainError
from atlm.transforms import (
    DEGENERATE,
    INADMISSIBLE,
    LOG,
    NONE,
    SQRT,
    TRANSFORM_KINDS,
    _fold_b1,
    _fold_choices,
    _forward_rows,
    _least_skewed,
    _skewness_rows,
    apply_transforms,
    calculate_transforms,
    invert_predictions,
    skewness_b1,
)

from conftest import make_dataset


def oracle_b1(xs):
    """Straight-from-definition b1, moments summed in literal order."""
    n = len(xs)
    mean = 0.0
    for x in xs:
        mean += x
    mean /= n
    m2 = 0.0
    for x in xs:
        m2 += (x - mean) ** 2
    m2 /= n
    m3 = 0.0
    for x in xs:
        m3 += (x - mean) ** 3
    m3 /= n
    return (m3 / m2 ** 1.5) * ((n - 1) / n) ** 1.5


class TestSkewness:
    def test_symmetric_sample_is_zero(self):
        assert skewness_b1([1, 2, 3]) == 0.0

    def test_constant_sample_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            skewness_b1([1, 1, 1])

    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(3, 40))
    # the mean of these 0.1s does not round back to 0.1, so the computed
    # variance is positive
    @example(0.1, 3)
    @example(0.1, 7)
    def test_every_constant_sample_is_degenerate(self, value, n):
        with pytest.raises(DegenerateSampleError):
            skewness_b1([value] * n)

    def test_too_short_sample_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            skewness_b1([1, 2])

    def test_a_sample_whose_moments_overflow_is_scaled_down(self):
        xs = [1.0, 2.0, 3.0, 4.0, 100.0]
        for factor in (2.0 ** 400, 2.0 ** 1000):  # the cubes, or the squares too, overflow
            assert skewness_b1([x * factor for x in xs]) == pytest.approx(
                skewness_b1(xs), rel=1e-14)

    def test_frozen_oracle_value(self):
        # value computed by oracle_b1 before the implementation was written
        assert skewness_b1([1, 2, 3, 4, 100]) == pytest.approx(
            1.0715500375854998, rel=1e-12)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=3, max_size=40))
    def test_matches_definition_oracle(self, xs):
        spread = max(xs) - min(xs)
        if spread == 0 or spread < 1e-9 * max(1.0, abs(xs[0])):
            return
        assert skewness_b1(xs) == pytest.approx(oracle_b1(xs), rel=1e-9, abs=1e-9)


class TestCalculateTransforms:
    def test_log_selected_for_exponential_column(self):
        col = [math.e, math.e ** 2, math.e ** 2, math.e ** 3, math.e ** 9]
        ds = make_dataset({"v": col, "y": [1, 2, 3, 4, 5]}, response="y")
        table = calculate_transforms(ds)
        entry = table["v"]
        assert entry.kind == LOG
        # frozen oracle values for all three candidates
        assert entry.skewness_all[NONE] == pytest.approx(1.073304086817844, rel=1e-12)
        assert entry.skewness_all[LOG] == pytest.approx(0.94529288459462, rel=1e-12)
        assert entry.skewness_all[SQRT] == pytest.approx(1.0714950504102143, rel=1e-12)

    def test_zero_skew_ties_break_to_none(self):
        ds = make_dataset({"v": [1, 2, 3], "y": [1, 2, 3]}, response="y")
        assert calculate_transforms(ds)["v"].kind == NONE

    def test_negative_values_exclude_log_and_sqrt(self):
        ds = make_dataset({"v": [-1, 2, 3, 4, 50], "y": [1, 2, 3, 4, 5]}, response="y")
        entry = calculate_transforms(ds)["v"]
        assert entry.kind == NONE
        assert entry.skewness_all[LOG] == INADMISSIBLE
        assert entry.skewness_all[SQRT] == INADMISSIBLE

    def test_zero_values_exclude_log_only(self):
        ds = make_dataset({"v": [0, 2, 3, 4, 50], "y": [1, 2, 3, 4, 5]}, response="y")
        entry = calculate_transforms(ds)["v"]
        assert entry.skewness_all[LOG] == INADMISSIBLE
        assert isinstance(entry.skewness_all[SQRT], float)

    def test_constant_column_marked_degenerate_not_fatal(self):
        ds = make_dataset({"v": [5, 5, 5, 5], "y": [1, 2, 3, 4]}, response="y")
        entry = calculate_transforms(ds)["v"]
        assert entry.kind == NONE
        assert entry.skewness_chosen is None
        assert entry.skewness_all[NONE] == DEGENERATE

    def test_constant_column_with_a_nonzero_computed_variance_is_degenerate(self):
        ds = make_dataset({"x": [0.1] * 7, "y": [1, 2, 3, 4, 5, 6, 8]}, response="y")
        entry = calculate_transforms(ds)["x"]
        assert entry.kind == NONE and entry.skewness_chosen is None
        assert set(entry.skewness_all.values()) == {DEGENERATE}

    def test_a_dataset_without_rows_is_degenerate_not_fatal(self):
        table = calculate_transforms(make_dataset({"x": [], "y": []}, response="y"))
        for name in ("x", "y"):
            assert table[name].kind == NONE
            assert set(table[name].skewness_all.values()) == {DEGENERATE}

    def test_categorical_gets_none(self, factor_dataset):
        entry = calculate_transforms(factor_dataset)["f"]
        assert entry.kind == NONE and entry.categorical

    def test_response_included(self, exact_linear):
        table = calculate_transforms(exact_linear)
        assert "y" in table and table.response == "y"

    @given(st.lists(st.floats(min_value=0.001, max_value=1e5), min_size=4, max_size=30))
    @settings(max_examples=60)
    def test_selection_optimality(self, col):
        if max(col) - min(col) < 1e-6:
            return
        ds = make_dataset({"v": col, "y": list(range(1, len(col) + 1))}, response="y")
        entry = calculate_transforms(ds)["v"]
        chosen_abs = abs(entry.skewness_all[entry.kind])
        for kind in TRANSFORM_KINDS:
            value = entry.skewness_all[kind]
            if isinstance(value, float):
                assert chosen_abs <= abs(value) + 1e-15

    @pytest.mark.parametrize("cell", [math.inf, -math.inf, math.nan, None])
    def test_a_missing_or_non_finite_numeric_cell_is_a_missing_value_error(self, cell):
        # an inf cell used to give every kind a NaN b1, and so "none"
        ds = make_dataset({"v": [1.0, 2.0, cell, 4.0], "y": [1, 2, 3, 5]}, response="y")
        with pytest.raises(MissingValueError, match="column 'v', row 2$"):
            calculate_transforms(ds)

    def test_determinism_bit_for_bit(self):
        ds = make_dataset({"v": [1.1, 2.7, 9.9, 4.2, 88.0], "y": [3, 1, 4, 1, 5]},
                          response="y")
        t1 = calculate_transforms(ds)
        t2 = calculate_transforms(ds)
        assert t1 == t2


def scalar_least_skewed(b1s) -> tuple[int, float | None]:
    """The selection rule as a scan over one variable's b1 per kind, a float
    or the reason it has none: the position and value of the least |b1|,
    ties to the earlier kind; 0 and None if no kind has a b1."""
    best_at, best = 0, None
    for at, value in enumerate(b1s):
        if isinstance(value, float) and (best is None or abs(value) < abs(best)):
            best_at, best = at, value
    return best_at, best


#: a b1 or the reason for none; the few magnitudes make exact and +-equal ties common
B1_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.25, -1.25, DEGENERATE, INADMISSIBLE]),
    st.floats(-10.0, 10.0))


@given(st.lists(st.lists(B1_CELLS, min_size=3, max_size=3), min_size=1, max_size=6))
@example([[INADMISSIBLE] * 3])
@example([[DEGENERATE, INADMISSIBLE, DEGENERATE]])
@example([[0.5, -0.5, 0.5], [-1.25, INADMISSIBLE, 1.25], [DEGENERATE, 0.0, -0.0]])
def test_the_array_rule_equals_the_scalar_scan(variables):
    # (kinds x variables), +inf where a kind is inadmissible and NaN where it is
    # degenerate, as _fold_b1 gives them
    b1 = np.array([[v if isinstance(v, float) else math.inf if v == INADMISSIBLE else math.nan
                    for v in var] for var in variables]).T
    chosen = _least_skewed(b1)
    assert (_least_skewed(b1[:, :, None])[:, 0] == chosen).all()  # a trailing folds axis
    for var, at in zip(variables, chosen.tolist()):
        assert (at, var[at] if isinstance(var[at], float) else None) == scalar_least_skewed(var)


def fixed_table(kinds: dict, response: str):
    from atlm.transforms import TransformEntry, TransformTable
    entries = {name: TransformEntry(name, kind, None, {}) for name, kind in kinds.items()}
    return TransformTable(entries=entries, response=response)


def test_transform_entries_are_immutable():
    entry = calculate_transforms(make_dataset({"v": [1.1, 2.7, 9.9, 4.2], "y": [3, 1, 4, 5]},
                                              response="y"))["v"]
    with pytest.raises(AttributeError):
        entry.kind = NONE


class TestApplyInvert:
    def test_all_none_is_identity(self, factor_dataset):
        table = fixed_table({"f": NONE, "x": NONE, "y": NONE}, response="y")
        out = apply_transforms(table, factor_dataset)
        assert out == factor_dataset

    def test_log_column_exact(self):
        ds = make_dataset({"x": [1, 2, 3], "y": [1.0, math.e, math.e ** 2]},
                          response="y")
        table = calculate_transforms(ds)
        assert table["y"].kind == LOG
        out = apply_transforms(table, ds)
        assert out.column("y") == pytest.approx([0.0, 1.0, 2.0], abs=1e-15)

    def test_sqrt_column_exact(self):
        ds = make_dataset({"x": [0, 4, 9, 16], "y": [1, 200, 30, 10]}, response="y")
        table = fixed_table({"x": SQRT, "y": NONE}, response="y")
        out = apply_transforms(table, ds)
        assert out.column("x") == pytest.approx([0.0, 2.0, 3.0, 4.0], abs=0)

    def test_domain_violation_names_variable_and_row(self):
        train = make_dataset({"x": [1, 2, 3, 4, 100], "y": [1, 2, 3, 4, 5]},
                             response="y")
        table = calculate_transforms(train)
        assert table["x"].kind == LOG
        test = make_dataset({"x": [5, 0], "y": [1, 2]}, response="y")
        with pytest.raises(TransformDomainError, match="'x'.*row 1"):
            apply_transforms(table, test)

    @pytest.mark.parametrize("a, b, where", [
        ([1, 2, 0], [4, -1, -1], "'b' in row 1"),  # the earlier row wins across kinds
        ([1, 0, 2], [4, -1, 9], "'a' in row 1"),  # then the earlier column
    ])
    def test_domain_violation_reports_the_first_bad_cell(self, a, b, where):
        table = fixed_table({"a": LOG, "b": SQRT, "y": NONE}, response="y")
        test = make_dataset({"a": a, "b": b, "y": [1, 2, 3]}, response="y")
        with pytest.raises(TransformDomainError, match=where):
            apply_transforms(table, test)

    def test_missing_cells_are_passed_over(self):
        table = fixed_table({"a": LOG, "b": SQRT, "y": NONE}, response="y")
        test = make_dataset({"a": [1, None, math.e], "b": [4, 9, None], "y": [1, 2, 3]},
                            response="y")
        out = apply_transforms(table, test)
        assert out.column("a") == (0.0, None, 1.0)
        assert out.column("b") == (2.0, 3.0, None)

    def test_invert_identity_exp_square(self):
        def with_kind(kind):
            return fixed_table({"x": NONE, "y": kind}, response="y")

        assert invert_predictions(with_kind(NONE), [5, 7]) == [5.0, 7.0]
        assert invert_predictions(with_kind(LOG), [0, 1]) == pytest.approx(
            [1.0, math.e], rel=1e-15)
        # squaring is the inverse of sqrt; negatives square to positive effort
        assert invert_predictions(with_kind(SQRT), [3, -2]) == [9.0, 4.0]

    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=3, max_size=25))
    @settings(max_examples=60)
    def test_response_round_trip(self, ys):
        if max(ys) - min(ys) < 1e-6:
            return
        ds = make_dataset({"x": list(range(len(ys))), "y": ys}, response="y")
        table = calculate_transforms(ds)
        transformed = apply_transforms(table, ds)
        back = invert_predictions(table, transformed.column("y"))
        assert back == pytest.approx(list(ds.column("y")), rel=1e-12)

    def test_forward_inverse_pairing(self):
        for kind, x in ((NONE, -3.5), (LOG, 2.25), (SQRT, 7.0)):
            ds = make_dataset({"x": [x], "y": [1.0]}, response="y")
            forward = apply_transforms(fixed_table({"x": kind, "y": NONE}, "y"), ds)
            y = forward.column("x")[0]
            back = invert_predictions(fixed_table({"x": kind, "y": kind}, "y"), [y])
            assert back[0] == pytest.approx(x, rel=1e-12)


_REFERENCE = {NONE: lambda v: v, LOG: np.log, SQRT: np.sqrt}


def two_pass_apply_transforms(table, ds) -> np.ndarray:
    """The transformed cells by the earlier two-pass domain check: per kind a
    test of the whole block, and only when it fails :func:`two_pass_check_domain`."""
    schema, entries = ds.schema, table.entries
    columns = {LOG: [], SQRT: []}
    for i in schema.numeric:
        if entries[schema[i].name].kind in columns:
            columns[entries[schema[i].name].kind].append(i)
    columns = {kind: at for kind, at in columns.items() if at}
    out = ds.values.copy()
    for kind, at in columns.items():
        part = out[at]
        if not _TWO_PASS_DOMAIN[kind](part).all():  # a value outside, or a missing cell
            two_pass_check_domain(table, ds, columns)
        out[at] = _REFERENCE[kind](part)
    return out


def two_pass_check_domain(table, ds, columns: dict) -> None:
    """Raise for the first row, then column, whose value (not a missing NaN
    cell) lies outside the domain of the transform chosen for its column."""
    outside = np.zeros(ds.values.shape, dtype=bool)
    for kind, at in columns.items():
        outside[at] = ~_TWO_PASS_DOMAIN[kind](ds.values[at])
    outside &= ~np.isnan(ds.values)
    if outside.any():
        row = int(outside.any(axis=0).argmax())
        i = int(outside[:, row].argmax())
        name = ds.schema[i].name
        raise TransformDomainError(
            f"value {float(ds.values[i, row])!r} of variable {name!r} in row "
            f"{ds.ids[row]} is outside the domain of the training-chosen "
            f"{table[name].kind!r} transform")


_TWO_PASS_DOMAIN = {LOG: lambda a: a > 0.0, SQRT: lambda a: a >= 0.0}


#: cells on and around the domains' edges, NaN (missing) included
DOMAIN_CELLS = st.sampled_from([math.nan, 0.0, -0.0, 1.0, -1.0]) | st.floats()


@st.composite
def kind_tables(draw):
    """(table, dataset): up to four numeric columns and the response, each
    with a random kind, an ignored column that no transform touches, and a
    factor, over cells that are NaN, zero, negative or positive."""
    n = draw(st.integers(1, 6))
    names = [f"v{i}" for i in range(draw(st.integers(0, 4)))] + ["y"]
    cells = {name: draw(st.lists(DOMAIN_CELLS, min_size=n, max_size=n)) for name in names}
    cells["ignored"] = [-1.0] * n
    cells["f"] = draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))
    ds = make_dataset(cells, response="y", categorical=("f",), ignored=("ignored",))
    kinds = {name: draw(st.sampled_from(TRANSFORM_KINDS)) for name in names}
    return fixed_table({**kinds, "f": NONE}, response="y"), ds


@given(kind_tables())
@settings(max_examples=300, deadline=None)
@example((fixed_table({"a": LOG, "b": SQRT, "y": NONE}, "y"),
          make_dataset({"a": [1.0, math.nan, -0.0], "b": [math.nan, -1.0, -0.0],
                        "y": [1.0, 2.0, 3.0]}, response="y")))
def test_the_one_pass_domain_check_equals_the_two_pass_check(case):
    table, ds = case
    try:
        expected = two_pass_apply_transforms(table, ds)
    except TransformDomainError as exc:
        with pytest.raises(TransformDomainError) as caught:
            apply_transforms(table, ds)
        assert str(caught.value) == str(exc)
    else:
        assert apply_transforms(table, ds).values.tobytes() == expected.tobytes()


@st.composite
def numeric_columns(draw):
    """A few equal-length numeric columns: positive, two-valued, constant,
    holding zeros and negatives so that log and sqrt can be inadmissible, or
    at the edges of float arithmetic: a large offset, moments that overflow
    or underflow, steps of one ulp, one huge outlier."""
    n = draw(st.integers(min_value=3, max_value=25))

    def cells(elements):
        return st.lists(elements, min_size=n, max_size=n)

    def lognormal(scale):
        return cells(st.floats(-2.0, 2.0)).map(lambda c: [math.exp(v) * scale for v in c])

    two_valued = st.tuples(st.floats(0.01, 1e4), st.floats(0.01, 1e4),
                           cells(st.booleans())).map(
        lambda t: [t[0] if pick else t[1] for pick in t[2]])
    constant = st.floats(min_value=-1e3, max_value=1e3).map(lambda v: [v] * n)
    column = st.one_of(
        cells(st.floats(min_value=0.001, max_value=1e6)),
        two_valued,
        constant,
        cells(st.sampled_from([0.0, 0.5, 1.0, 3.0, 40.0])),
        cells(st.floats(min_value=-1e3, max_value=1e3)),
        cells(st.floats(min_value=1e100, max_value=1e300)),  # moments overflow
        cells(st.floats(-3.0, 3.0)).map(lambda c: [1e9 + v for v in c]),
        lognormal(1e150),  # overflow
        lognormal(1e-160),  # underflow
        cells(st.integers(0, 8)).map(lambda c: [1.0 + k * 2.0 ** -52 for k in c]),
        st.tuples(cells(st.floats(0.5, 100.0)), st.integers(0, n - 1)).map(
            lambda t: [1e12 if i == t[1] else v for i, v in enumerate(t[0])]),
    )
    return [draw(column) for _ in range(draw(st.integers(min_value=2, max_value=5)))]


def _frame(columns):
    names = [f"v{i}" for i in range(len(columns))]
    return make_dataset(dict(zip(names, columns)), response=names[-1]), names


class TestColumnarExactness:
    """The whole-array paths equal the scalar reference with ==, not approx."""

    @given(numeric_columns())
    @settings(max_examples=150, deadline=None)
    def test_every_b1_equals_skewness_b1_of_the_transformed_column(self, columns):
        ds, names = _frame(columns)
        table = calculate_transforms(ds)
        for name, values in zip(names, columns):
            x = np.asarray(values, dtype=float)
            domain = {NONE: True, LOG: bool(np.all(x > 0)), SQRT: bool(np.all(x >= 0))}
            for kind in TRANSFORM_KINDS:
                got = table[name].skewness_all[kind]
                if not domain[kind]:
                    assert got == INADMISSIBLE
                    continue
                try:
                    want = skewness_b1(_REFERENCE[kind](x))
                except DegenerateSampleError:
                    want = DEGENERATE
                assert got == want, (name, kind)
                assert type(got) is type(want)

    @given(numeric_columns())
    @settings(max_examples=150, deadline=None)
    def test_skewness_rows_is_skewness_b1_of_each_row_or_nan(self, columns):
        a = np.array(columns, dtype=float)
        got = _skewness_rows(a)
        assert got.dtype == np.float64 and got.shape == (len(columns),)
        # numpy sums rows that are not contiguous in another order
        assert np.array_equal(_skewness_rows(np.asfortranarray(a)), got, equal_nan=True)
        for value, column in zip(got.tolist(), columns):
            try:
                assert value == skewness_b1(column)
            except DegenerateSampleError:
                assert math.isnan(value)

    @given(numeric_columns(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_fold_b1_equals_skewness_b1_of_each_fold_across_chunks(self, columns, data):
        n = len(columns[0])
        size = data.draw(st.integers(0, n), label="training size")
        folds = data.draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True).map(sorted),
            min_size=1, max_size=6), label="training positions")
        cells = data.draw(st.sampled_from([1, 5, 64, 1 << 15]), label="cells per pass")
        values = np.array(columns, dtype=float)
        with mock.patch.object(transforms, "_STACK_CELLS", cells):
            got = _fold_b1(_forward_rows(values), np.array(folds, dtype=np.intp).reshape(len(folds), size))
        assert got.shape == (len(TRANSFORM_KINDS), len(columns), len(folds))
        for fold, train in enumerate(folds):
            for variable, row in enumerate(values):
                x = row[train]
                domain = {NONE: True, LOG: bool(np.all(x > 0)), SQRT: bool(np.all(x >= 0))}
                for at, kind in enumerate(TRANSFORM_KINDS):
                    value = got[at, variable, fold]
                    if not domain[kind]:
                        assert value == math.inf, (fold, variable, kind)
                        continue
                    try:
                        want = skewness_b1(_REFERENCE[kind](x))
                    except DegenerateSampleError:
                        assert math.isnan(value), (fold, variable, kind)
                        continue
                    assert value == want, (fold, variable, kind)

    @given(numeric_columns(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_fold_choices_equal_the_exact_rule_on_every_fold(self, columns, data):
        forward, width = _forward_rows(np.array(columns, dtype=float)), len(columns)
        n = forward.shape[1]
        tests = np.array(data.draw(st.lists(
            st.lists(st.booleans(), min_size=n, max_size=n).filter(any),
            min_size=1, max_size=8), label="test masks"))
        want = np.array([_least_skewed(_fold_b1(forward, np.flatnonzero(~test)[None]))[:, 0]
                         for test in tests]).T
        assert _fold_choices(forward, tests).tolist() == want.tolist()
        # each variable alone too, so that another's open cells leave its folds to the screen
        for variable in range(width):
            assert (_fold_choices(forward[variable::width], tests).tolist()
                    == want[variable:variable + 1].tolist()), variable

    @given(numeric_columns())
    @settings(max_examples=150, deadline=None)
    def test_apply_equals_the_ufunc_of_each_value(self, columns):
        ds, names = _frame(columns)
        kinds = {name: LOG if min(values) > 0 else SQRT if min(values) >= 0 else NONE
                 for name, values in zip(names, columns)}
        out = apply_transforms(fixed_table(kinds, response=names[-1]), ds)
        for name, values in zip(names, columns):
            want = tuple(float(_REFERENCE[kinds[name]](v)) for v in values)
            assert out.column(name) == want, name
