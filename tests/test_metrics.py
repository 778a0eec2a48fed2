from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atlm.errors import MetricError
from atlm.metrics import aggregate, lsd, mar, mmre, pred, re_star, report, sa
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

    def test_threshold_must_be_positive(self):
        with pytest.raises(MetricError):
            pred(ps([1], [1]), 0)


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
