from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from atlm.errors import MetricError
from atlm.metrics import (
    METRIC_FIELDS,
    MetricReport,
    aggregate,
    lsd,
    mar,
    mmre,
    pred,
    re_star,
    report,
    report_stack,
    sa,
)
from atlm.pipeline import PredictionSet


def ps(predicted, actual):
    return PredictionSet(tuple(range(len(actual))), predicted, actual)


# literal re-implementations used as oracles
def oracle_mmre(predicted, actual):
    total = 0.0
    for p, a in zip(predicted, actual):
        total += abs(p - a) / a
    return total / len(actual)


def oracle_pred25(predicted, actual):
    hits = 0
    for p, a in zip(predicted, actual):
        if abs(p - a) / a <= 0.25:
            hits += 1
    return hits / len(actual)


def oracle_var(xs):
    mean = sum(xs) / len(xs)
    return sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)


def oracle_re_star(predicted, actual):
    residuals = [p - a for p, a in zip(predicted, actual)]
    return oracle_var(residuals) / oracle_var(actual)


def oracle_lsd(predicted, actual):
    e = [math.log(a) - math.log(p) for p, a in zip(predicted, actual)]
    s2 = oracle_var(e)
    return math.sqrt(sum((v + s2 / 2.0) ** 2 for v in e) / (len(e) - 1))


def oracle_sa(predicted, actual, train):
    mar_value = sum(abs(p - a) for p, a in zip(predicted, actual)) / len(actual)
    total = 0.0
    for a in actual:
        for t in train:
            total += abs(a - t)
    mar_p0 = total / (len(actual) * len(train))
    return 1.0 - mar_value / mar_p0


class TestMmre:
    def test_perfect_prediction(self):
        assert mmre(ps([5, 9], [5, 9])) == 0.0

    def test_hand_computed(self):
        assert mmre(ps([110, 180], [100, 200])) == pytest.approx(0.1, rel=1e-12)
        assert mmre(ps([100], [50])) == pytest.approx(1.0, rel=1e-12)

    def test_nonpositive_actual_rejected(self):
        with pytest.raises(MetricError):
            mmre(ps([1.0], [0.0]))


class TestPred:
    def test_perfect(self):
        assert pred(ps([7, 7, 7], [7, 7, 7]), 25) == 1.0

    def test_hand_computed_with_inclusive_boundary(self):
        value = pred(ps([100, 120, 126, 200], [100, 100, 100, 100]), 25)
        assert value == 0.5  # relative errors 0, 0.20, 0.26, 1.0

    def test_boundary_is_inclusive(self):
        assert pred(ps([125], [100]), 25) == 1.0

    @pytest.mark.parametrize("threshold", [0, -25.0, float("nan"), "25", None, True,
                                           np.bool_(True)])
    def test_threshold_must_be_positive(self, threshold):
        with pytest.raises(MetricError) as exc:
            pred(ps([1], [1]), threshold)
        assert str(exc.value) == (
            f"pred threshold must be a positive number, got {threshold!r}")


class TestReStar:
    def test_perfect_prediction_is_zero(self):
        assert re_star(ps([1, 2, 3], [1, 2, 3])) == 0.0

    def test_mean_predictor_is_exactly_one(self):
        actual = [3.0, 9.0, 4.5, 11.25]
        constant = sum(actual) / len(actual)
        assert re_star(ps([constant] * 4, actual)) == pytest.approx(1.0, abs=1e-12)

    def test_constant_shift_is_zero(self):
        actual = [1.0, 5.0, 2.0]
        assert re_star(ps([a + 7 for a in actual], actual)) == 0.0

    def test_constant_actuals_rejected(self):
        with pytest.raises(MetricError):
            re_star(ps([1, 2], [4, 4]))

    def test_constant_actuals_whose_mean_does_not_round_back_are_rejected(self):
        assert np.var([0.1] * 3, ddof=1) > 0.0  # the case an exact-zero variance test misses
        with pytest.raises(MetricError, match="constant actuals"):
            re_star(ps([0.2, 0.3, 0.4], [0.1] * 3))

    def test_actuals_whose_variance_underflows_are_rejected(self):
        actual = [1e-170, 2e-170]  # distinct, but the squared deviations underflow
        assert np.var(actual, ddof=1) == 0.0
        with pytest.raises(MetricError, match="constant actuals"):
            re_star(ps([1.0, 2.0], actual))

    @given(st.floats(min_value=0.01, max_value=1e5), st.integers(3, 30), st.data())
    @example(0.1, 3, None)
    @settings(max_examples=100, deadline=None)
    def test_constant_non_representable_actuals_are_rejected_in_both_paths(self, value, n,
                                                                           data):
        actual = np.full(n, value)
        assume(np.var(actual, ddof=1) != 0.0)
        predicted = ([value * 2.0] * n if data is None else
                     data.draw(arrays(float, n, elements=st.floats(0.01, 1e5))))
        with pytest.raises(MetricError, match="constant actuals"):
            re_star(ps(predicted, actual))
        training = np.array([value, value + 1])
        assert report_stack(np.array([predicted]), actual[None], training[None]) == [None]
        with pytest.raises(MetricError, match="re_star undefined for constant actuals"):
            report(ps(predicted, actual), training)

    @given(st.lists(st.floats(min_value=1, max_value=1e4), min_size=3, max_size=12),
           st.floats(min_value=0.1, max_value=100))
    @settings(max_examples=50)
    def test_scale_and_shift_invariance(self, actual, c):
        if max(actual) - min(actual) < 1e-6:
            return
        predicted = [a * 1.1 + 3 for a in actual]
        base = re_star(ps(predicted, actual))
        scaled = re_star(ps([p * c for p in predicted], [a * c for a in actual]))
        shifted = re_star(ps([p + c for p in predicted], [a + c for a in actual]))
        assert scaled == pytest.approx(base, rel=1e-9)
        assert shifted == pytest.approx(base, rel=1e-9)


class TestLsd:
    def test_perfect_prediction_is_zero(self):
        assert lsd(ps([2, 5, 9], [2, 5, 9])) == 0.0

    def test_constant_factor_closed_form(self):
        # predicted = 2*actual gives constant e_i = -ln 2, s2 = 0,
        # so lsd = |ln 2| * sqrt(n/(n-1)); frozen from the oracle run
        actual = [10.0, 20.0, 30.0, 40.0]
        value = lsd(ps([2 * a for a in actual], actual))
        assert value == pytest.approx(0.8003774225686291, rel=1e-12)

    def test_matches_definition_oracle(self):
        predicted = [12.0, 7.5, 33.0, 9.0, 41.0]
        actual = [10.0, 9.0, 30.0, 11.0, 44.0]
        assert lsd(ps(predicted, actual)) == pytest.approx(
            oracle_lsd(predicted, actual), rel=1e-12)

    def test_nonpositive_prediction_rejected(self):
        with pytest.raises(MetricError):
            lsd(ps([-1, 2], [1, 2]))

    @given(st.lists(st.floats(min_value=0.5, max_value=1e4), min_size=2, max_size=10),
           st.floats(min_value=0.1, max_value=50))
    @settings(max_examples=50)
    def test_common_scaling_invariance(self, actual, c):
        predicted = [a * 1.3 for a in actual]
        base = lsd(ps(predicted, actual))
        scaled = lsd(ps([p * c for p in predicted], [a * c for a in actual]))
        assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)


class TestSa:
    def test_perfect_predictor_is_one(self):
        assert sa(ps([4, 9], [4, 9]), [1, 2, 3]) == 1.0

    def test_hand_enumerated_example(self):
        value = sa(ps([12, 24], [10, 20]), [10, 30])
        assert value == pytest.approx(0.7, rel=1e-12)  # 1 - 3/10

    def test_identical_everything_rejected(self):
        with pytest.raises(MetricError):
            sa(ps([5], [5]), [5, 5])

    @pytest.mark.parametrize("train", [[math.inf, 1.0], [1.0, math.nan], [-math.inf, 2.0]])
    def test_a_non_finite_training_response_is_rejected(self, train):
        # an infinite MAR_P0 made sa a perfect 1.0, and a NaN one made it NaN
        case = ps([12, 24], [10, 20])
        for score in (sa, report):
            with pytest.raises(MetricError) as exc:
                score(case, train)
            assert str(exc.value) == "sa needs a finite training response sample"

    @pytest.mark.parametrize("train, why", [
        ([[1.0, 2.0], [3.0, 4.0]], "shape (2, 2)"),
        ([[1.0], [2.0]], "shape (2, 1)"),
        (5.0, "shape ()"),
        ([[1.0, 2.0], [3.0]], "a ragged or non-numeric one"),
    ])
    def test_a_training_response_that_is_not_1d_is_rejected(self, train, why):
        # sa broadcast a 2-D sample and report flattened it, so the two
        # disagreed; a scalar was an IndexError in sa and a sample in report
        case = ps([1.0, 2.0], [1.5, 2.5])
        for score in (sa, report):
            with pytest.raises(MetricError) as exc:
                score(case, train)
            assert str(exc.value) == f"sa needs a 1-D training response sample, got {why}"

    @given(st.lists(st.floats(min_value=1, max_value=1e3), min_size=2, max_size=8),
           st.lists(st.floats(min_value=1, max_value=1e3), min_size=2, max_size=8))
    @settings(max_examples=50)
    def test_never_exceeds_one(self, actual, train):
        predicted = [a * 1.5 + 1 for a in actual]
        if max(actual + train) - min(actual + train) < 1e-9:
            return
        assert sa(ps(predicted, actual), train) <= 1.0


class TestAggregate:
    def one_report(self, value):
        return report(ps([value * 1.1, value * 0.9], [value, value * 1.02]),
                      [value, value * 2])

    def test_single_report_flagged(self):
        summary = aggregate([self.one_report(10.0)])
        assert summary.single_sample
        assert summary.stds["mmre"] == 0.0
        assert summary.means["mmre"] == self.one_report(10.0).mmre

    def test_hand_computed_mean_std(self):
        reports = [self.one_report(10.0), self.one_report(40.0)]
        summary = aggregate(reports)
        values = [r.re_star for r in reports]
        assert summary.means["re_star"] == pytest.approx(sum(values) / 2, rel=1e-12)
        expected_std = math.sqrt(sum((v - sum(values) / 2) ** 2 for v in values))
        assert summary.stds["re_star"] == pytest.approx(expected_std, rel=1e-12)

    def test_identical_reports_have_zero_std(self):
        reports = [self.one_report(10.0)] * 30
        summary = aggregate(reports)
        assert all(s == pytest.approx(0.0, abs=1e-12) for s in summary.stds.values())

    def test_two_value_example(self):
        # aggregate over re* values {0.2, 0.4} -> 0.3 +/- sqrt(0.02)
        values = np.array([0.2, 0.4])
        assert values.mean() == pytest.approx(0.3, rel=1e-15)
        assert values.std(ddof=1) == pytest.approx(0.14142135623730953, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            aggregate([])

    @staticmethod
    def summary_of(values):
        """The summary of one report per value, holding it in every measure."""
        return aggregate([MetricReport(2, *[float(v)] * 6) for v in values])

    def test_a_finite_row_whose_squares_overflow_is_scaled_down(self):
        # re_star of the two folds of a kfold:2 plan on a CSV with a 134 among ones
        values = [2.1778071482939906e+174, 1.0005]
        summary = self.summary_of(values)
        assert summary.means["re_star"] == float(np.mean(values))
        assert summary.stds["re_star"] == pytest.approx((values[0] - values[1]) / math.sqrt(2),
                                                        rel=1e-15)

    def test_a_row_whose_sum_overflows_is_scaled_down(self):
        summary = self.summary_of([1.5e308, 1.5e308, 1.5e308])
        assert (summary.means["mar"], summary.stds["mar"]) == (1.5e308, 0.0)

    @given(st.lists(st.floats(-1e10, 1e10).filter(lambda v: v == 0 or abs(v) > 1e-100),
                    min_size=1, max_size=12),
           st.integers(0, 1100))
    @settings(max_examples=200)
    def test_a_power_of_two_scales_the_summary_exactly(self, values, exponent):
        """A finite summary keeps the bits of numpy's mean and std, and values
        scaled by 2**exponent give it scaled by 2**exponent, also where their
        squares or their sum overflow."""
        with np.errstate(over="ignore"):
            scaled = np.ldexp(values, exponent)
        assume(np.isfinite(scaled).all())
        base, big = self.summary_of(values), self.summary_of(scaled)
        std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        assert (base.means["sa"], base.stds["sa"]) == (float(np.mean(values)), std)
        with np.errstate(over="ignore"):  # a std past the float range is inf on both sides
            assert big.means["sa"] == np.ldexp(base.means["sa"], exponent)
            assert big.stds["sa"] == np.ldexp(base.stds["sa"], exponent)


@np.errstate(over="ignore", invalid="ignore")
def per_field_mean_std(values):
    """One measure's mean and std as one 1-D array of its values gives them,
    with a row whose sum or squares overflow scaled down by a power of two."""
    mean, std = values.mean(), values.std(ddof=1) if values.size > 1 else 0.0
    if not (np.isfinite(mean) and np.isfinite(std)) and np.isfinite(values).all():
        exponent = int(np.frexp(np.abs(values).max())[1])
        mean, std = (np.ldexp(v, exponent) for v in per_field_mean_std(np.ldexp(values, -exponent)))
    return float(mean), float(std)


class TestAggregateStack:
    @given(st.lists(st.lists(st.one_of(st.floats(), st.floats(-1e10, 1e10),
                                       st.floats(1e300, 1.7e308)), min_size=6, max_size=6),
                    min_size=1, max_size=15))
    @settings(max_examples=300)
    def test_equals_one_array_per_measure_bit_for_bit(self, rows):
        """The (measures x reports) matrix gives each measure the bits of its
        own 1-D array, overflow fallback, infinities and NaNs included."""
        reports = [MetricReport(2, *row) for row in rows]
        summary = aggregate(reports)
        for name in METRIC_FIELDS:
            mean, std = per_field_mean_std(np.array([getattr(r, name) for r in reports]))
            assert summary.means[name].hex() == mean.hex()
            assert summary.stds[name].hex() == std.hex()


class TestMicroCorpusOracleEquivalence:
    """Smaller in-module version of the exhaustive acceptance corpus."""

    def test_all_pairs_n2(self):
        values = range(1, 10)
        train = [2.0, 7.0]
        for p1 in values:
            for a1 in values:
                for p2 in values:
                    a2 = (p1 + p2 + a1) % 9 + 1
                    predicted = [float(p1), float(p2)]
                    actual = [float(a1), float(a2)]
                    case = ps(predicted, actual)
                    assert mmre(case) == pytest.approx(
                        oracle_mmre(predicted, actual), rel=1e-12)
                    assert pred(case, 25) == oracle_pred25(predicted, actual)
                    if a1 != a2:
                        assert re_star(case) == pytest.approx(
                            oracle_re_star(predicted, actual), rel=1e-12)
                    assert lsd(case) == pytest.approx(
                        oracle_lsd(predicted, actual), rel=1e-12, abs=1e-12)
                    assert sa(case, train) == pytest.approx(
                        oracle_sa(predicted, actual, train), rel=1e-12)

    def test_mar_matches(self):
        predicted = [3.0, 8.0, 1.0]
        actual = [1.0, 9.0, 4.0]
        assert mar(ps(predicted, actual)) == pytest.approx(2.0, rel=1e-15)


def definitions(predicted, actual, train) -> MetricReport:
    """The six single-set functions, in report order."""
    case = ps(predicted, actual)
    return MetricReport(len(case), mmre(case), pred(case, 25.0), lsd(case), re_star(case),
                        sa(case, train), mar(case))


def row_errors(predicted, actual, training) -> list:
    """Each row's MetricError text from the definitions, or None where they hold."""
    errors = []
    for row in zip(predicted, actual, training):
        try:
            definitions(*row)
        except MetricError as exc:
            errors.append(str(exc))
        else:
            errors.append(None)
    return errors


positive = st.floats(min_value=0.01, max_value=1e5)


@st.composite
def stack(draw, n=st.integers(2, 30)):
    """A (rows x n) predicted and actual stack with a (rows x m) training stack."""
    rows, n, m = draw(st.integers(1, 12)), draw(n), draw(st.integers(1, 20))
    return tuple(draw(arrays(float, (rows, width), elements=positive, fill=st.nothing()))
                 for width in (n, n, m))


class TestReportStack:
    """report_stack is the six definitions, row by row, bit for bit, with None
    for each row where one of them raises."""

    @given(st.lists(stack(), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_each_row_equals_the_definitions(self, groups):
        # groups of different sizes, each scored in its own stacked pass
        for predicted, actual, training in groups:
            errors = row_errors(predicted, actual, training)
            event("valid" if not any(errors) else next(filter(None, errors)))
            assert report_stack(predicted, actual, training) == [
                None if error else definitions(*row)
                for error, row in zip(errors, zip(predicted, actual, training))]

    FAULTS = ("nonpositive actual", "nonpositive prediction", "constant actuals",
              "actual and training identical", "empty training response",
              "non-finite training response", "fewer than 2 rows", "underflowing variance")

    @pytest.mark.parametrize("fault", FAULTS)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_failing_rows_are_none_and_report_raises_the_first(self, fault, data):
        predicted, actual, training = data.draw(
            stack(n=st.integers(0, 1) if fault == "fewer than 2 rows" else st.integers(2, 12)))
        rows, n = actual.shape
        bad = data.draw(st.lists(st.integers(0, rows - 1), min_size=1, unique=True))
        value = data.draw(st.sampled_from([0.0, -1.0, 3.5]))
        if fault == "empty training response":
            training = np.empty((rows, 0))
        for row in bad:
            if fault == "nonpositive actual":
                actual[row, data.draw(st.integers(0, n - 1))] = min(value, 0.0)
            elif fault == "nonpositive prediction":
                predicted[row, data.draw(st.integers(0, n - 1))] = min(value, 0.0)
            elif fault == "constant actuals":
                actual[row] = 3.5
            elif fault == "underflowing variance":  # distinct, but every squared deviation is 0
                actual[row] = np.arange(1, n + 1) * 1e-170
            elif fault == "actual and training identical":
                actual[row] = training[row] = 3.5
            elif fault == "non-finite training response":
                training[row, data.draw(st.integers(0, training.shape[1] - 1))] = \
                    data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        errors = row_errors(predicted, actual, training)
        assert all(errors[row] is not None for row in bad)
        undefined = [fold_report is None for fold_report in report_stack(predicted, actual,
                                                                          training)]
        assert undefined == [error is not None for error in errors]
        first = undefined.index(True)
        with pytest.raises(MetricError) as exc:
            report(ps(predicted[first], actual[first]), training[first])
        assert str(exc.value) == errors[first]

    def test_a_stack_of_one_equals_report(self):
        case, train = ps([12.0, 24.0, 7.0], [10.0, 20.0, 9.0]), np.array([10.0, 30.0])
        assert report_stack(case.predicted[None], case.actual[None], train[None]) == [
            report(case, train)]

    def test_report_keeps_an_overflowing_measure(self):
        # the residual 1e170 squares to inf; pyproject makes the RuntimeWarning
        # of an overflow an error, so this also checks that report ignores it
        case, train = ps([1e170, 2.0, 3.0], [1.0, 2.0, 4.0]), np.array([1.0, 5.0])
        stacked = report_stack(case.predicted[None], case.actual[None], train[None])
        assert report(case, train) == stacked[0] and stacked[0].re_star == math.inf

    OVERFLOWS = {  # (predicted, actual, training response)
        "residual squares": ([1e170, 2.0, 3.0], [1.0, 2.0, 4.0], [1.0, 5.0]),
        "residual sums": ([1.7e308, 1.7e308, 3.0], [1.0, 2.0, 4.0], [1.0, 5.0]),
        "random-guess residuals": ([2.0, 3.0], [1e308, 2.0], [-1e308, 1.0]),
    }

    @pytest.mark.parametrize("case", OVERFLOWS.values(), ids=list(OVERFLOWS))
    def test_each_definition_keeps_an_overflowing_measure(self, case):
        predicted, actual, train = map(np.array, case)
        one = ps(predicted, actual)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [mmre(one), pred(one), lsd(one), re_star(one), sa(one, train), mar(one)]
            reports = [report(one, train),
                       report_stack(predicted[None], actual[None], train[None])[0]]
        assert not all(map(math.isfinite, values))
        for expected in reports:  # hex() also matches a NaN with a NaN
            assert [v.hex() for v in values] == [getattr(expected, f).hex()
                                                 for f in METRIC_FIELDS]

    def test_pred_keeps_an_overflowing_relative_error(self):
        # -1.7e308 - 1.7e308 overflows; lsd rejects the negative prediction
        one = ps([-1.7e308, 2.0, 3.0], [1.7e308, 2.0, 4.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (mmre(one), pred(one)) == (math.inf, 2 / 3)
            with pytest.raises(MetricError, match="lsd undefined"):
                report(one, np.array([1.0, 5.0]))
