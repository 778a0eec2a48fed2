from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atlm.errors import DegenerateSampleError, TransformDomainError
from atlm.transforms import (
    DEGENERATE,
    INADMISSIBLE,
    LOG,
    NONE,
    SQRT,
    TRANSFORM_KINDS,
    apply_transforms,
    calculate_transforms,
    inverse_values,
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

    def test_too_short_sample_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            skewness_b1([1, 2])

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

    def test_determinism_bit_for_bit(self):
        ds = make_dataset({"v": [1.1, 2.7, 9.9, 4.2, 88.0], "y": [3, 1, 4, 1, 5]},
                          response="y")
        t1 = calculate_transforms(ds)
        t2 = calculate_transforms(ds)
        assert t1 == t2


def fixed_table(kinds: dict, response: str):
    from atlm.transforms import TransformEntry, TransformTable
    entries = {name: TransformEntry(name, kind, None, {}) for name, kind in kinds.items()}
    return TransformTable(entries=entries, response=response)


class TestApplyInvert:
    def test_all_none_is_identity(self, factor_dataset):
        table = fixed_table({"f": NONE, "x": NONE, "y": NONE}, response="y")
        out = apply_transforms(table, factor_dataset)
        assert out.rows == factor_dataset.rows

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
            assert inverse_values(kind, [y])[0] == pytest.approx(x, rel=1e-12)


_REFERENCE = {NONE: lambda v: v, LOG: np.log, SQRT: np.sqrt}


@st.composite
def numeric_columns(draw):
    """A few equal-length numeric columns: positive, two-valued, or holding
    zeros and negatives so that log and sqrt can be inadmissible."""
    n = draw(st.integers(min_value=3, max_value=25))

    def cells(elements):
        return st.lists(elements, min_size=n, max_size=n)

    two_valued = st.tuples(st.floats(0.01, 1e4), st.floats(0.01, 1e4),
                           cells(st.booleans())).map(
        lambda t: [t[0] if pick else t[1] for pick in t[2]])
    column = st.one_of(
        cells(st.floats(min_value=0.001, max_value=1e6)),
        two_valued,
        cells(st.sampled_from([0.0, 0.5, 1.0, 3.0, 40.0])),
        cells(st.floats(min_value=-1e3, max_value=1e3)),
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
    def test_apply_equals_the_ufunc_of_each_value(self, columns):
        ds, names = _frame(columns)
        kinds = {name: LOG if min(values) > 0 else SQRT if min(values) >= 0 else NONE
                 for name, values in zip(names, columns)}
        out = apply_transforms(fixed_table(kinds, response=names[-1]), ds)
        for name, values in zip(names, columns):
            want = tuple(float(_REFERENCE[kinds[name]](v)) for v in values)
            assert out.column(name) == want, name
