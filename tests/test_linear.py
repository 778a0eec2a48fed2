from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from atlm import linear
from atlm.dataset import CATEGORICAL, ColumnSchema, Dataset, NUMERIC, RESPONSE
from atlm.errors import FitError, MissingValueError, SchemaError, UnseenLevelError
from atlm.linear import (
    DesignMatrix,
    INTERCEPT,
    NON_FINITE_COEFFICIENT,
    RANK_TOL,
    SINGULAR_FACTOR,
    build_design,
    fit_ols,
    predict,
)
from atlm.rng import Pcg32

from conftest import make_dataset


def normal_equations_oracle(x, y):
    """Independent dense solve of (X'X) b = X'y."""
    return np.linalg.solve(x.T @ x, x.T @ y)


def random_system(rng: Pcg32, n, p):
    def u():
        return rng.next_uint32() / 2**32 * 4.0 - 2.0
    x = np.array([[1.0] + [u() for _ in range(p - 1)] for _ in range(n)])
    y = np.array([u() for _ in range(n)])
    return x, y


class TestBuildDesign:
    def test_factor_dummies_with_reference_first_seen(self):
        ds = make_dataset({"f": ["a", "b", "a", "c"], "y": [1, 2, 3, 4]},
                          response="y", categorical=("f",))
        design = build_design(ds)
        assert design.labels == (INTERCEPT, "f=b", "f=c")
        assert design.matrix[:, 1].tolist() == [0, 1, 0, 0]
        assert design.matrix[:, 2].tolist() == [0, 0, 0, 1]
        assert design.factor_levels["f"] == ("a", "b", "c")

    def test_all_numeric_has_intercept_plus_columns(self, exact_linear):
        design = build_design(exact_linear)
        assert design.labels == (INTERCEPT, "x")
        assert (design.matrix[:, 0] == 1.0).all()

    @pytest.mark.parametrize("columns, label", [
        ({"intercept": [1, 5, 2, 8]}, "intercept"),
        ({"f": ["a", "b", "a", "c"], "f=b": [1, 5, 2, 8]}, "f=b"),
        ({"f": ["a", "b", "a", "c"], "f=b=c": [1, 5, 2, 8], "f=b": ["u", "c", "u", "v"]},
         "f=b=c"),
    ])
    def test_two_design_columns_with_one_label_fit_as_the_renamed_dataset(self, columns,
                                                                           label):
        # a fit is keyed by design position, so a label may name two columns
        factors = tuple(c for c, cells in columns.items() if isinstance(cells[0], str))
        ds = make_dataset({**columns, "y": [1, 2, 3, 4]}, response="y", categorical=factors)
        renamed = replace(ds, schema=[replace(col, name=f"r{i}")
                                      for i, col in enumerate(ds.schema)])
        design, renamed_design = build_design(ds), build_design(renamed)
        assert design.labels.count(label) == 2
        assert design.matrix.tobytes() == renamed_design.matrix.tobytes()
        model = fit_ols(design, ds.response_column())
        renamed_model = fit_ols(renamed_design, renamed.response_column())
        assert (model.coefficients, model.aliased) == \
            (renamed_model.coefficients, renamed_model.aliased)
        assert predict(model, ds).tobytes() == predict(renamed_model, renamed).tobytes()

    def test_unseen_level_is_an_error(self):
        train = make_dataset({"f": ["a", "b", "a"], "y": [1, 2, 3]},
                             response="y", categorical=("f",))
        design = build_design(train)
        test = make_dataset({"f": ["d"], "y": [1]}, response="y", categorical=("f",))
        with pytest.raises(UnseenLevelError, match="'d'"):
            build_design(test, levels=design.factor_levels)

    def test_a_missing_factor_cell_is_a_missing_value_error(self, factor_dataset):
        # row id 7 is the second row; build_design at fit and at predict time
        # name it rather than casting NaN to a code
        schema = (ColumnSchema("f", CATEGORICAL), ColumnSchema("x", NUMERIC),
                  ColumnSchema("y", NUMERIC, RESPONSE))
        gappy = Dataset.from_columns("gappy", schema, (3, 7, 9),
                                     [["a", None, "b"], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        model = fit_ols(build_design(factor_dataset), factor_dataset.response_column())
        with np.errstate(all="raise"):
            with pytest.raises(MissingValueError, match="'gappy'.* factor 'f', row 7$"):
                build_design(gappy)
            with pytest.raises(MissingValueError, match="factor 'f', row 7$"):
                predict(model, gappy)


class TestFitOls:
    def test_exact_linear_data(self):
        x = np.column_stack([np.ones(3), [1.0, 2.0, 3.0]])
        design = DesignMatrix(labels=(INTERCEPT, "x"), matrix=x, factor_levels={})
        model = fit_ols(design, [2.0, 4.0, 6.0])
        labels = model.design_labels
        assert model.coefficients[labels.index(INTERCEPT)] == pytest.approx(0.0, abs=1e-10)
        assert model.coefficients[labels.index("x")] == pytest.approx(2.0, abs=1e-10)
        assert not model.aliased

    def test_duplicate_column_aliased_predictions_unchanged(self):
        base = np.column_stack([np.ones(3), [1.0, 2.0, 3.0]])
        dup = np.column_stack([base, [1.0, 2.0, 3.0]])
        y = [2.0, 4.0, 6.0]
        full = fit_ols(DesignMatrix((INTERCEPT, "x"), base, {}), y)
        dupped = fit_ols(DesignMatrix((INTERCEPT, "x", "x2"), dup, {}), y)
        assert dupped.aliased & {1, 2}  # the positions of x and x2
        beta = dupped.coefficients
        assert dup @ beta == pytest.approx((base @ full.coefficients).tolist(), rel=1e-10)

    def test_matches_normal_equations_oracle(self):
        rng = Pcg32(7, stream=1)
        x, y = random_system(rng, 5, 3)
        design = DesignMatrix(("intercept", "a", "b"), x, {})
        model = fit_ols(design, y)
        oracle = normal_equations_oracle(x, y)
        assert model.coefficients == pytest.approx(tuple(oracle.tolist()), rel=1e-8)

    def test_too_few_rows(self):
        x = np.ones((1, 1))
        with pytest.raises(FitError):
            fit_ols(DesignMatrix((INTERCEPT,), x, {}), [1.0])

    def test_residual_orthogonality(self):
        rng = Pcg32(11, stream=2)
        for _ in range(20):
            x, y = random_system(rng, 12, 4)
            design = DesignMatrix(tuple(f"c{i}" for i in range(4)), x, {})
            model = fit_ols(design, y)
            residual = y - x @ model.coefficients
            scale = np.linalg.norm(x) * np.linalg.norm(y)
            assert np.abs(x.T @ residual).max() <= 1e-8 * scale

    def test_permutation_invariance(self):
        rng = Pcg32(13, stream=3)
        x, y = random_system(rng, 10, 3)
        design = DesignMatrix(("intercept", "a", "b"), x, {})
        model = fit_ols(design, y)
        perm = [3, 1, 4, 0, 9, 8, 7, 2, 5, 6]
        shuffled = fit_ols(DesignMatrix(("intercept", "a", "b"), x[perm], {}), y[perm])
        for label in ("intercept", "a", "b"):
            at = model.design_labels.index(label)
            assert shuffled.coefficients[at] == pytest.approx(model.coefficients[at], abs=1e-10)

    def test_linear_combination_column_leaves_predictions_unchanged(self):
        # the deliberately redundant-feature case: extra = a + b
        rng = Pcg32(17, stream=4)
        x, y = random_system(rng, 15, 3)
        extra = x[:, 1] + x[:, 2]
        wide = np.column_stack([x, extra])
        slim_model = fit_ols(DesignMatrix(("intercept", "a", "b"), x, {}), y)
        wide_model = fit_ols(DesignMatrix(("intercept", "a", "b", "ab"), wide, {}), y)
        slim_pred = x @ slim_model.coefficients
        wide_pred = wide @ wide_model.coefficients
        assert wide_pred == pytest.approx(slim_pred.tolist(), rel=1e-8, abs=1e-8)

    def test_wide_design_interpolates_with_the_extra_columns_aliased(self):
        rng = Pcg32(19, stream=5)
        x, y = random_system(rng, 3, 5)
        labels = tuple(f"c{i}" for i in range(5))
        model = fit_ols(DesignMatrix(labels, x, {}), y)
        # rank 3: two of the five columns aliased, with a coefficient of 0
        assert len(model.aliased) == 2 and len(model.coefficients) == 5
        assert [model.coefficients[at] for at in model.aliased] == [0.0, 0.0]
        assert x @ model.coefficients == pytest.approx(y.tolist(), rel=1e-8)

    @pytest.mark.parametrize("eps, rank", [(1e-9, 2), (1e-5, 3)])
    def test_a_nearly_collinear_column_is_aliased_only_below_the_rank_tolerance(self, eps,
                                                                                rank):
        # [1, x, x + eps b]: the third pivot is about 1e-9 of the first at eps =
        # 1e-9, which a tolerance of 1e-7 aliases and one of 1e-10 would keep,
        # and about 1e-5 of it at eps = 1e-5, which any tolerance near 1e-7 keeps
        rng = Pcg32(23, stream=6)
        x, b = random_system(rng, 20, 2)
        near = np.column_stack([x, x[:, 1] + eps * b])
        model = fit_ols(DesignMatrix(("intercept", "x", "near"), near, {}), b)
        assert len(model.coefficients) - len(model.aliased) == rank

    @pytest.mark.parametrize("where", ["design", "response"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_a_fit_error(self, where, bad):
        x = np.column_stack([np.ones(4), [1.0, 2.0, 3.0, 5.0]])
        y = np.array([2.0, 4.0, 6.0, 9.0])
        (x if where == "design" else y)[2, ...] = bad
        with pytest.raises(FitError, match="non-finite") as caught:
            fit_ols(DesignMatrix((INTERCEPT, "x"), x, {}), y)
        assert caught.value.code == "E_FIT"


def scipy_fit(design: DesignMatrix, y):
    """The fit through ``scipy.linalg.qr`` and ``solve_triangular``: the
    reference that ``fit_ols``'s direct LAPACK calls must match bit for bit.
    Returns (coefficients, aliased): a coefficient per column, 0.0 where
    aliased, and the set of aliased positions; raises FitError where it must."""
    x, y = design.matrix, np.asarray(y, dtype=float)
    n, p = x.shape
    if n < 2:
        raise FitError("need at least 2 rows to fit")
    q, r, piv = scipy.linalg.qr(x, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] <= 0.0:
        raise FitError("no usable design columns")
    rank = int(np.count_nonzero((diag >= RANK_TOL * diag[0]) & (diag > 0.0)))
    try:
        beta = scipy.linalg.solve_triangular(r[:rank, :rank], (q.T @ y)[:rank])
    except np.linalg.LinAlgError:
        raise FitError(SINGULAR_FACTOR) from None
    if not np.isfinite(beta).all():
        raise FitError(NON_FINITE_COEFFICIENT)
    coefficients = [0.0] * p
    for i in range(rank):
        coefficients[piv[i]] = float(beta[i])
    return tuple(coefficients), frozenset(int(piv[i]) for i in range(rank, p))


@st.composite
def designs(draw):
    """(design, y): full rank, with a duplicated column, intercept plus 0/1
    dummies (some all zero), or wider than it is tall."""
    shape = draw(st.sampled_from(["full", "collinear", "dummies", "wide"]))
    n = draw(st.integers(min_value=1 if shape == "wide" else 2, max_value=30))
    p = draw(st.integers(n + 1, n + 5) if shape == "wide" else st.integers(1, min(n, 8)))
    values = st.floats(min_value=-1e4, max_value=1e4)
    if shape == "dummies":
        x = draw(arrays(float, (n, p), elements=st.sampled_from([0.0, 1.0])))
        x[:, 0] = 1.0
    else:
        x = draw(arrays(float, (n, p), elements=values))
    if shape == "collinear" and p >= 2:
        x[:, -1] = x[:, draw(st.integers(0, p - 2))]
    y = draw(arrays(float, n, elements=values))
    return DesignMatrix(tuple(f"c{i}" for i in range(p)), x, {}), y


def two_by_two(rows, y):
    return DesignMatrix(("c0", "c1"), np.array(rows), {}), np.array(y)


class TestFitOlsMatchesScipy:
    @given(designs())
    # a subnormal leading pivot: its rank threshold underflows to 0
    @example(two_by_two([[5e-324, 5e-324], [5e-324, 5e-324]], [0.0, 0.0]))
    @example(two_by_two([[5e-324, 0.0], [5e-324, 5e-324]], [6.0, 6.0]))
    @settings(max_examples=300, deadline=None)
    def test_coefficients_aliasing_and_errors_are_identical(self, case):
        design, y = case
        try:
            want = scipy_fit(design, y)
        except FitError as exc:
            with pytest.raises(FitError) as caught:
                fit_ols(design, y)
            assert str(caught.value) == str(exc)
            return
        model = fit_ols(design, y)
        assert model.coefficients == want[0]
        assert model.aliased == want[1]

    def test_a_design_wide_enough_for_blocked_steps(self):
        # LAPACK blocks the factorisation only past about 128 columns, and
        # the blocks, set by the workspace size, change the rounding
        rng = Pcg32(23, stream=6)
        x, y = random_system(rng, 200, 160)
        design = DesignMatrix(tuple(f"c{i}" for i in range(160)), x, {})
        model = fit_ols(design, y)
        assert (model.coefficients, model.aliased) == scipy_fit(design, y)


class TestLapackLoader:
    def test_the_routines_come_from_the_extension_file_loaded_on_its_own(self):
        assert linear._flapack_file() is not None
        pairs = zip(linear._lapack(),
                    scipy.linalg.get_lapack_funcs(("geqp3", "orgqr", "trtrs"), dtype=float))
        # the same wrappers (their docstrings name the routine), as separate objects
        assert all(r is not s and r.__doc__ == s.__doc__ for r, s in pairs)

    def test_a_missed_lookup_falls_back_to_get_lapack_funcs(self, monkeypatch):
        rng = Pcg32(29, stream=7)
        systems = [random_system(rng, n, p) for n, p in ((12, 4), (40, 9), (200, 160))]
        systems.append((np.column_stack([np.ones(6), np.arange(6.0), 2 * np.arange(6.0)]),
                        np.arange(6.0) ** 2))  # one column aliased
        fits = []
        for lookup in (linear._flapack_file, lambda: None):
            monkeypatch.setattr(linear, "_flapack_file", lookup)
            linear._lapack.cache_clear()
            try:
                routines = linear._lapack()
                fits.append([fit_ols(DesignMatrix(tuple(f"c{i}" for i in range(x.shape[1])),
                                                  x, {}), y) for x, y in systems])
            finally:
                linear._lapack.cache_clear()
        assert routines == tuple(scipy.linalg.get_lapack_funcs(("geqp3", "orgqr", "trtrs"),
                                                               dtype=float))
        direct, fallback = fits
        assert [(m.coefficients, m.aliased) for m in direct] == \
            [(m.coefficients, m.aliased) for m in fallback]
        assert direct[-1].aliased

    @pytest.mark.parametrize("rows, columns", [(200, 160), (40, 9), (64, 64), (6, 6), (20, 90)],
                             ids=["tall", "tall-small", "square", "square-small", "wide"])
    def test_the_cached_workspace_sizes_equal_a_fresh_query(self, rows, columns):
        geqp3, orgqr, _ = linear._lapack()
        design = np.asfortranarray(random_system(Pcg32(rows, stream=columns), rows, columns)[0])
        factor_work = int(geqp3(design, lwork=-1)[3][0])
        qr, _, tau, _, _ = geqp3(design, lwork=factor_work)
        q_work = int(orgqr(qr[:, :min(rows, columns)], tau, lwork=-1)[1][0])
        assert linear._workspace(rows, columns) == (factor_work, q_work)


class TestPredict:
    def test_linear_evaluation(self, exact_linear):
        design = build_design(exact_linear)
        model = fit_ols(design, exact_linear.response_column())
        test = make_dataset({"x": [10], "y": [0]}, response="y")
        assert predict(model, test) == pytest.approx([20.0], rel=1e-10)

    def test_interpolates_consistent_system(self, factor_dataset):
        design = build_design(factor_dataset)
        y = np.asarray(factor_dataset.response_column())
        model = fit_ols(design, y)
        assert predict(model, factor_dataset) == pytest.approx(y.tolist(), rel=1e-8)

    def test_schema_mismatch_detected(self, exact_linear):
        design = build_design(exact_linear)
        model = fit_ols(design, exact_linear.response_column())
        other = make_dataset({"z": [1.0], "y": [0]}, response="y")
        with pytest.raises(SchemaError):
            predict(model, other)
