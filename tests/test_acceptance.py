"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS line when it
holds (failures surface as ordinary pytest failures).  Benchmark criteria
compare aggregate means against the published mean +/- one published
standard deviation for the corresponding experiment; the remaining criteria
are exact-tolerance oracle and determinism checks.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from atlm.bundled import builtin_names, builtin_recipe, load_builtin
from atlm.cli import main
from atlm.errors import MetricError
from atlm.linear import DesignMatrix, fit_ols
from atlm.metrics import lsd, mmre, pred, re_star, sa
from atlm.pipeline import PredictionSet
from atlm.rng import Pcg32
from atlm.transforms import TRANSFORM_KINDS, calculate_transforms
from atlm.validation import (
    ValidationPlan,
    generate_folds,
    repeat_cv_experiment,
    run_validation,
)

from conftest import make_dataset

BENCHMARK_SEED = 1  # every benchmark criterion runs with this seed


def assert_in_envelope(summary, envelope, label):
    for metric, (mean, sd) in envelope.items():
        got = summary.means[metric]
        assert mean - sd <= got <= mean + sd, (
            f"{label}: {metric} = {got:.4f} outside {mean} +/- {sd}")


def test_criterion_1_constant_predictor_re_star_is_one():
    for name in builtin_names():
        ds = load_builtin(name)
        assignment = generate_folds(ds, ValidationPlan(kind="kfold", k=5, seed=3))
        from atlm.dataset import split
        for train_ids, test_ids in assignment.folds:
            train, test = split(ds, train_ids, test_ids)
            constant = float(np.mean(train.response_column()))
            actuals = test.response_column()
            if max(actuals) == min(actuals):
                continue
            ps = PredictionSet(test.ids, [constant] * len(test), actuals)
            assert re_star(ps) == pytest.approx(1.0, abs=1e-12), name
    print("ACCEPTANCE 1 (constant-predictor RE* calibration = 1.0): PASS")


def test_criterion_2_cocomo81_holdout_benchmark():
    ds = load_builtin("cocomo81")
    plan = ValidationPlan(kind="holdout", test_size=10, repeats=30,
                          seed=BENCHMARK_SEED)
    result = run_validation(ds, plan)
    assert result.n_succeeded == 30
    assert_in_envelope(result.summary, {
        "lsd": (0.54, 0.15),
        "mmre": (0.44, 0.13),
        "pred25": (0.43, 0.18),
        "re_star": (0.30, 0.27),
    }, "cocomo81 holdout:10x30")
    print("ACCEPTANCE 2 (cocomo81 repeated holdout within published envelope): PASS")


def test_criterion_3_desharnais_holdout_benchmark():
    recipe = builtin_recipe("desharnais")
    assert any("outlier assumption" in note for note in recipe.notes)
    ds = load_builtin("desharnais")
    plan = ValidationPlan(kind="holdout", test_size=10, repeats=30,
                          seed=BENCHMARK_SEED)
    result = run_validation(ds, plan)
    assert result.n_succeeded == 30
    assert_in_envelope(result.summary, {
        "lsd": (0.47, 0.10),
        "mmre": (0.39, 0.12),
        "pred25": (0.44, 0.14),
        "re_star": (0.85, 0.96),
    }, "desharnais holdout:10x30")
    print("ACCEPTANCE 3 (desharnais repeated holdout within published envelope, "
          "outlier assumption documented): PASS")


def test_criterion_4_tenfold_benchmark():
    envelopes = {
        "cocomo81": {"lsd": (0.54, 0.2), "mmre": (0.45, 0.26),
                     "pred25": (0.41, 0.25), "re_star": (0.68, 1.1)},
        "maxwell": {"lsd": (0.58, 0.2), "mmre": (0.48, 0.17),
                    "pred25": (0.37, 0.12), "re_star": (0.53, 0.8)},
    }
    for name, envelope in envelopes.items():
        ds = load_builtin(name)
        plan = ValidationPlan(kind="kfold", k=10, seed=BENCHMARK_SEED)
        result = run_validation(ds, plan)
        assert result.n_succeeded == result.n_folds == 10
        assert_in_envelope(result.summary, envelope, f"{name} kfold:10")
    print("ACCEPTANCE 4 (single tenfold CV within published envelopes): PASS")


def test_criterion_5_tenfold_run_variation():
    ds = load_builtin("cocomo81")
    runs = repeat_cv_experiment(ds, k=10, runs=30, base_seed=BENCHMARK_SEED)
    means = [r.re_star_mean for r in runs]
    spread = float(np.std(means, ddof=1))
    assert spread > 0.0, "between-run spread must be nonzero"
    low, high = 0.68 - 1.1, 0.68 + 1.1
    inside = sum(1 for m in means if low <= m <= high)
    assert inside >= 25, f"only {inside}/30 run means inside the envelope"
    print(f"ACCEPTANCE 5 (tenfold run variation: spread {spread:.3f}, "
          f"{inside}/30 in envelope): PASS")


def test_criterion_6_ols_oracle_equivalence():
    rng = Pcg32(2718, stream=31)

    def uniform(lo, hi):
        return lo + (hi - lo) * rng.next_uint32() / 2**32

    checked = 0
    while checked < 200:
        p = 2 + rng.next_below(7)          # 2..8 columns
        n = p + 2 + rng.next_below(29 - p)  # p+2..30 rows
        x = np.empty((n, p))
        x[:, 0] = 1.0
        for i in range(n):
            for j in range(1, p):
                x[i, j] = uniform(-2.0, 2.0)
        if np.linalg.cond(x) >= 1e8:
            continue
        y = np.array([uniform(-5.0, 5.0) for _ in range(n)])
        labels = tuple(f"c{j}" for j in range(p))
        model = fit_ols(DesignMatrix(labels, x, {}), y)
        beta = np.array(model.coefficients)
        oracle = np.linalg.solve(x.T @ x, x.T @ y)
        assert np.linalg.norm(beta - oracle) <= 1e-8 * max(np.linalg.norm(oracle), 1.0)

        # duplicate one column: predictions must match the full-rank system
        dup_col = 1 + rng.next_below(p - 1)
        wide = np.column_stack([x, x[:, dup_col]])
        wide_model = fit_ols(DesignMatrix(labels + ("dup",), wide, {}), y)
        full_pred = x @ beta
        wide_pred = wide @ wide_model.coefficients
        scale = max(float(np.abs(full_pred).max()), 1.0)
        assert np.abs(wide_pred - full_pred).max() <= 1e-8 * scale
        checked += 1
    print("ACCEPTANCE 6 (200 OLS systems match normal-equations oracle, "
          "duplicated columns leave predictions unchanged): PASS")


# ---------------------------------------------------------------------------
# criterion 7: metric oracles over a micro-corpus of small prediction sets


def _oracle_var(xs):
    m = sum(xs) / len(xs)
    return sum((x - m) ** 2 for x in xs) / (len(xs) - 1)


def _oracle_mmre(p, a):
    return sum(abs(x - y) / y for x, y in zip(p, a)) / len(a)


def _oracle_pred25(p, a):
    return sum(1 for x, y in zip(p, a) if abs(x - y) / y <= 0.25) / len(a)


def _oracle_re_star(p, a):
    if len(a) < 2 or max(a) == min(a):
        return None
    return _oracle_var([x - y for x, y in zip(p, a)]) / _oracle_var(a)


def _oracle_lsd(p, a):
    if len(a) < 2:
        return None
    e = [math.log(y) - math.log(x) for x, y in zip(p, a)]
    s2 = _oracle_var(e)
    return math.sqrt(sum((v + s2 / 2.0) ** 2 for v in e) / (len(e) - 1))


def _oracle_sa(p, a, train):
    mar_value = sum(abs(x - y) for x, y in zip(p, a)) / len(a)
    mar_p0 = sum(abs(y - t) for y in a for t in train) / (len(a) * len(train))
    if mar_p0 == 0.0:
        return None
    return 1.0 - mar_value / mar_p0


def _check_metric(impl, oracle_value):
    if oracle_value is None:
        with pytest.raises(MetricError):
            impl()
    else:
        assert impl() == pytest.approx(oracle_value, rel=1e-12, abs=1e-12)


def test_criterion_7_metric_micro_corpus():
    """Exhaustive n=1 and n=2 over values {1..9}; a deterministic PCG32
    sample of 800 cases per size for n in 3..6."""
    trainings = [(1.0,), (2.0, 7.0), (3.0, 3.0, 9.0), (1.0, 2.0, 3.0, 4.0)]
    rng = Pcg32(424242, stream=77)
    cases = 0

    def run_case(predicted, actual):
        nonlocal cases
        ps = PredictionSet(tuple(range(len(actual))), predicted, actual)
        train = trainings[cases % len(trainings)]
        _check_metric(lambda: mmre(ps), _oracle_mmre(predicted, actual))
        _check_metric(lambda: pred(ps, 25), _oracle_pred25(predicted, actual))
        _check_metric(lambda: re_star(ps), _oracle_re_star(predicted, actual))
        _check_metric(lambda: lsd(ps), _oracle_lsd(predicted, actual))
        _check_metric(lambda: sa(ps, train), _oracle_sa(predicted, actual, train))
        cases += 1

    values = [float(v) for v in range(1, 10)]
    for p1 in values:
        for a1 in values:
            run_case([p1], [a1])
    for p1 in values:
        for a1 in values:
            for p2 in values:
                for a2 in (1.0, 4.0, 9.0):
                    run_case([p1, p2], [a1, a2])
    for n in (3, 4, 5, 6):
        for _ in range(800):
            predicted = [values[rng.next_below(9)] for _ in range(n)]
            actual = [values[rng.next_below(9)] for _ in range(n)]
            run_case(predicted, actual)
    print(f"ACCEPTANCE 7 (metric oracle equivalence over {cases} "
          f"micro-corpus cases): PASS")


def test_criterion_8_transform_selection_minimizes_skewness():
    """100 synthetic columns: lognormal-shaped, squared-uniform-shaped, and
    symmetric generators in rotation; the chosen transform must minimize
    |b1| among admissible candidates every single time."""

    def oracle_b1(xs):
        n = len(xs)
        m = sum(xs) / n
        m2 = sum((x - m) ** 2 for x in xs) / n
        m3 = sum((x - m) ** 3 for x in xs) / n
        return (m3 / m2 ** 1.5) * ((n - 1) / n) ** 1.5

    rng = Pcg32(31337, stream=8)

    def gauss():
        u1 = max(rng.next_uint32() / 2**32, 1e-12)
        u2 = rng.next_uint32() / 2**32
        return math.sqrt(-2 * math.log(u1)) * math.cos(2 * math.pi * u2)

    generators = (
        lambda: math.exp(1.5 * gauss()),          # lognormal-shaped
        lambda: (rng.next_uint32() / 2**32) ** 2 * 50 + 0.1,  # squared-uniform
        lambda: gauss() * 10 + 100,               # symmetric
    )
    forward = {"none": lambda v: v, "log": math.log, "sqrt": math.sqrt}

    for i in range(100):
        column = [generators[i % 3]() for _ in range(40)]
        ds = make_dataset({"v": column, "y": list(range(1, 41))}, response="y")
        entry = calculate_transforms(ds)["v"]
        admissible = {}
        for kind in TRANSFORM_KINDS:
            if kind == "log" and min(column) <= 0:
                continue
            if kind == "sqrt" and min(column) < 0:
                continue
            admissible[kind] = abs(oracle_b1([forward[kind](v) for v in column]))
        best = min(admissible.values())
        assert admissible[entry.kind] == pytest.approx(best, rel=1e-9), (
            f"column {i}: chose {entry.kind} ({admissible})")
    print("ACCEPTANCE 8 (transform choice minimizes |b1| in 100/100 columns): PASS")


def test_criterion_9_reproduce_determinism(tmp_path):
    dirs = (tmp_path / "run1", tmp_path / "run2")
    for d in dirs:
        assert main(["reproduce", "table1", "--out", str(d)]) == 0
    for filename in ("table1.txt", "table1.json"):
        a = (dirs[0] / filename).read_bytes()
        b = (dirs[1] / filename).read_bytes()
        assert a == b, f"{filename} differs between runs"

    fold_files = (tmp_path / "f1.json", tmp_path / "f2.json")
    for f in fold_files:
        assert main(["export-folds", "--dataset", "cocomo81",
                     "--plan", "kfold:10", "--seed", "42", "--out", str(f)]) == 0
    assert fold_files[0].read_bytes() == fold_files[1].read_bytes()

    payload = json.loads(fold_files[0].read_text())
    assert len(payload["folds"]) == 10
    print("ACCEPTANCE 9 (byte-identical reproduce outputs and fold JSON): PASS")
