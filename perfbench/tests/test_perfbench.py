"""Tests of the benchmark's own code: generator, span arithmetic and output checks.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import oracle, synth, tracing  # noqa: E402
from perfbench.run import Command, Runner, Timing, Workload, paper_cv  # noqa: E402


def _cells(text: str):
    lines = text.splitlines()
    header = lines[0].split(",")
    return {name: [line.split(",")[i] for line in lines[1:]] for i, name in enumerate(header)}


# --- generator -------------------------------------------------------------

def test_generator_is_deterministic_for_a_seed():
    assert synth.generate(5) == synth.generate(5)
    assert synth.generate(5).csv_text != synth.generate(6).csv_text


def test_generator_plants_one_zero_and_one_singleton_level():
    data = synth.generate(7)
    cells = _cells(data.csv_text)
    assert len(cells["effort"]) == data.n_rows == synth.N_ROWS
    zero_rows = [i for i, v in enumerate(cells[synth.ZERO_COLUMN]) if v == "0"]
    singleton_rows = [i for i, v in enumerate(cells[synth.SINGLETON_FACTOR])
                      if v == synth.SINGLETON_LEVEL]
    assert len(zero_rows) == 1 and len(singleton_rows) == 1
    assert data.expected_failures == {zero_rows[0]: "E_DOMAIN",
                                      singleton_rows[0]: "E_UNSEEN_LEVEL"}


def test_generator_writes_values_at_effort_data_precision():
    cells = _cells(synth.generate(8).csv_text)
    for name in (*synth.COUNTS, synth.RESPONSE):
        assert all(v.isdigit() for v in cells[name]), name
    for name in synth.RATINGS:
        assert all(len(v.split(".")[1]) == 2 for v in cells[name]), name
    for name in (*synth.COUNTS, *synth.RATINGS, synth.RESPONSE):
        assert len(set(cells[name])) >= synth.MIN_DISTINCT, name


# --- spans -----------------------------------------------------------------

def test_self_time_subtracts_the_time_children_cover():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("c", 6.0, 7.0, 2),
        ("d", 8.5, 12.0, 2),  # runs past its parent's end: only 8.5-9 counts
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.5, 1.0, 3.5])
    self_s, calls = tracing.totals_by_name(spans + [("a", 11.0, 11.5, -1)])
    assert self_s["a"] == pytest.approx(3.5) and calls["a"] == 2


def test_overlapping_children_are_not_counted_twice():
    spans = [("root", 0.0, 10.0, -1), ("x", 2.0, 6.0, 0), ("y", 4.0, 8.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_wraps_by_identity_and_restores(tmp_path):
    import atlm.cli
    import atlm.transforms
    original = atlm.transforms.calculate_transforms
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert atlm.cli.calculate_transforms is atlm.transforms.calculate_transforms
        assert atlm.cli.calculate_transforms is not original
        out = tmp_path / "inspect.json"
        assert atlm.cli.main(["inspect", "--dataset", "cocomo81", "--format", "json",
                              "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    assert atlm.transforms.calculate_transforms is original
    assert atlm.cli.calculate_transforms is original
    names = [span[0] for span in tracer.spans]
    assert names[0] == "cli.main" and "transforms.calculate_transforms" in names
    assert all(parent < index for index, (*_, parent) in enumerate(tracer.spans))
    assert tracer.counts["report.to_json_text.bytes"] == len(out.read_bytes())
    assert tracer.missing == []


def test_tracer_reports_a_missing_target(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS",
                        (("gone.f", "atlm.transforms", "no_such_function", None, None),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["gone.f"]


def test_a_traced_pass_leaves_out_the_commands_its_checks_run(tmp_path):
    """Pass 16 at workload seed 1 holds a rare maxwell level out of one fold's
    training rows, so the check runs export-folds to confirm the failure."""
    import atlm.cli
    runner = Runner(atlm.cli)
    runner.workload = paper_cv(tmp_path, 1, runner.run_json)
    tracer = tracing.Tracer()
    runner.untraced = tracer.paused
    tracer.install()
    try:
        runner.run_pass(16)
    finally:
        tracer.uninstall()
    assert runner.problems == []
    assert runner.failed_folds == 1
    assert runner.commands == 4  # three evaluate commands and the check's export-folds
    assert sum(span[0] == "cli.main" for span in tracer.spans) == 3


def test_pass_cost_divides_by_the_reference_time_around_each_pass():
    timing = Timing(pass_s=[2.0, 3.0], before_s=[1.0, 1.0], after_s=[1.0, 2.0])
    assert timing.costs == pytest.approx([2.0, 2.0])


# --- output checks ---------------------------------------------------------

def _envelope_payload(means):
    return {"aggregate": {"metrics": {m: {"mean": v} for m, v in means.items()}}}


def test_envelope_check_rejects_a_summary_outside_the_envelope():
    inside = {m: mean for m, (mean, sd) in oracle.ENVELOPES["maxwell"].items()}
    assert oracle.check_envelope("maxwell", _envelope_payload(inside)) == []
    outside = dict(inside, mmre=0.48 + 0.17 + 0.01)
    assert oracle.check_envelope("maxwell", _envelope_payload(outside))


def test_kfold_report_check_rejects_folds_that_do_not_add_up():
    good = {"dataset": "x", "n_folds": 10, "n_succeeded": 9, "aggregate": {"n_reports": 9},
            "failures": [{"fold": 3, "code": "E_UNSEEN_LEVEL"}]}
    assert oracle.check_kfold_report(good, 10) == []
    assert oracle.check_kfold_report(dict(good, failures=[]), 10)
    assert oracle.check_kfold_report(dict(good, aggregate={"n_reports": 10}), 10)


_FACTOR_CSV = "x,f,y\n1,a,3\n2,b,4\n3,a,5\n4,c,6\n"


def _unseen(row, level):
    return {"failures": [{"fold": 0, "code": "E_UNSEEN_LEVEL",
                          "message": f"factor 'f' has level '{level}' in row {row} "
                                     f"that was not seen in training"}]}


def test_unseen_level_check_accepts_only_a_genuinely_unseen_level():
    folds = {"folds": [{"train": [0, 1, 2], "test": [3]}]}
    assert oracle.check_unseen_failures(_unseen(3, "c"), folds, _FACTOR_CSV) == []
    seen_in_training = {"folds": [{"train": [1, 2, 3], "test": [0]}]}
    assert oracle.check_unseen_failures(_unseen(0, "a"), seen_in_training, _FACTOR_CSV)
    assert oracle.check_unseen_failures(_unseen(2, "a"), folds, _FACTOR_CSV)  # not held out
    other = {"failures": [{"fold": 0, "code": "E_FIT", "message": "singular"}]}
    assert oracle.check_unseen_failures(other, folds, _FACTOR_CSV)


@pytest.fixture(scope="module")
def small_loocv(tmp_path_factory):
    """atlm's leave-one-out report on a synthetic CSV, and the reference."""
    import atlm.cli
    data = synth.generate(3)
    work = tmp_path_factory.mktemp("loocv")
    csv_path, schema_path = synth.write(data, work)
    out = work / "out.json"
    assert atlm.cli.main(["evaluate", "--dataset", str(csv_path), "--schema", str(schema_path),
                          "--plan", "loocv", "--format", "json", "--out", str(out)]) == 0
    reference = oracle.loocv_reference(data.csv_text, data.schema_text)
    return data, json.loads(out.read_text()), reference


def test_loocv_check_accepts_the_program_output(small_loocv):
    data, payload, reference = small_loocv
    assert oracle.check_loocv(payload, reference, data.expected_failures) == []


def test_loocv_check_rejects_a_changed_metric(small_loocv):
    data, payload, reference = small_loocv
    corrupt = json.loads(json.dumps(payload))
    corrupt["pooled"]["lsd"] *= 1 + 1e-6
    assert oracle.check_loocv(corrupt, reference, data.expected_failures)


def test_loocv_check_rejects_a_missing_failure(small_loocv):
    data, payload, reference = small_loocv
    corrupt = json.loads(json.dumps(payload))
    corrupt["failures"] = corrupt["failures"][1:]
    assert oracle.check_loocv(corrupt, reference, data.expected_failures)


def _folds(folds):
    return {"folds": [{"train": list(train), "test": list(test)} for train, test in folds]}


def test_partition_check_accepts_a_kfold_split():
    ids = list(range(7))
    tests = [[0, 3, 5], [1, 4], [2, 6]]
    folds = [([i for i in ids if i not in t], t) for t in tests]
    assert oracle.check_partition(_folds(folds), "kfold:3", 7) == []


@pytest.mark.parametrize("plan, folds", [
    ("kfold:3", [([1, 2, 3, 4, 5, 6], [0]), ([0, 3, 4, 5, 6], [1, 2]),
                 ([0, 1, 2, 6], [3, 4, 5, 6])]),  # 6 tested twice, sizes 1/2/4
    ("kfold:2", [([3, 4, 5, 6], [0, 1, 2]), ([0, 1, 2], [3, 4, 5])]),  # 6 never tested
    ("loocv", [([1, 2], [0]), ([0, 2], [1]), ([0, 1], [1])]),  # 2 never held out
    ("holdout:2x2", [([2, 3, 4, 5, 6], [0, 1]), ([0, 1, 3, 4, 5, 6], [2])]),  # short test
])
def test_partition_check_rejects_a_corrupted_split(plan, folds):
    n_rows = 3 if plan == "loocv" else 7
    assert oracle.check_partition(_folds(folds), plan, n_rows)


def _inspect_payload(columns):
    variables = {}
    for name, values in columns.items():
        variables[name] = {"categorical": False, "kind": oracle.choose(values),
                           "skewness": oracle.transform_skews(values)}
    variables["f"] = {"categorical": True, "kind": "none", "skewness": {}}
    return {"variables": variables}


def test_inspect_check_rejects_a_wrong_choice_and_a_wrong_skew():
    rng = np.random.default_rng(0)
    columns = {"size": np.rint(rng.lognormal(4.0, 1.0, 50)) + 1.0,
               "rating": np.round(rng.uniform(0.7, 1.6, 50), 2) - 1.0}
    payload = _inspect_payload(columns)
    assert payload["variables"]["size"]["kind"] == "log"
    assert payload["variables"]["rating"]["skewness"]["log"] == "inadmissible"
    assert oracle.check_inspect(payload, columns) == []

    wrong_kind = _inspect_payload(columns)
    wrong_kind["variables"]["size"]["kind"] = "none"
    assert oracle.check_inspect(wrong_kind, columns)
    wrong_skew = _inspect_payload(columns)
    wrong_skew["variables"]["size"]["skewness"]["sqrt"] += 1e-6
    assert oracle.check_inspect(wrong_skew, columns)


def test_b1_matches_the_central_moment_form():
    x = np.array([1.0, 2.0, 2.5, 4.0, 9.0, 11.0])
    n = x.size
    d = x - x.mean()
    g1 = np.mean(d ** 3) / np.mean(d ** 2) ** 1.5
    assert oracle.b1(x) == pytest.approx(g1 * ((n - 1) / n) ** 1.5, rel=1e-12)
    assert oracle.b1([2.0, 2.0, 2.0]) is None


class _CountingCli:
    """Writes the same output on every run and counts the runs."""

    def __init__(self):
        self.calls = 0

    def main(self, argv):
        self.calls += 1
        Path(argv[-1]).write_text("{}")
        return 0


def test_timed_passes_spread_launches_between_passes_and_leave_them_out(tmp_path):
    out = tmp_path / "out.json"
    command = Command(["inspect", "--out", str(out)], out, lambda payload: [], 0)
    cli = _CountingCli()
    runner = Runner(cli)
    runner.workload = Workload(lambda index: [command], [], lambda: [], "command")
    runs_at_launch = []

    def launch():
        runs_at_launch.append(cli.calls)
        time.sleep(0.05)
        return 1.0

    timing = runner.timed_passes(0.2, 0, launch, 4)
    assert timing.launch_s == [1.0] * 4
    assert runs_at_launch[0] >= 1 and runs_at_launch == sorted(runs_at_launch)
    assert len(set(runs_at_launch)) > 1  # not all made in one gap
    assert max(timing.pass_s) < 0.05  # the launches' sleep is not in any pass


class _FlakyCli:
    """Writes a different output on every run of the same command."""

    def __init__(self):
        self.calls = 0

    def main(self, argv):
        self.calls += 1
        Path(argv[-1]).write_text(json.dumps({"run": self.calls}))
        return 0


def test_runner_rejects_an_output_that_does_not_repeat(tmp_path):
    out = tmp_path / "out.json"
    command = Command(["inspect", "--out", str(out)], out, lambda payload: [], 0)
    runner = Runner(_FlakyCli())
    runner.workload = Workload(lambda index: [command], [], lambda: [], "command")
    runner.run_pass(0)
    assert runner.problems == []
    runner.repeat_once(0)
    assert len(runner.problems) == 1 and "differs" in runner.problems[0]
    runner.repeat_once(0)  # already repeated: not run again
    assert runner.commands == 2
