"""Byte-for-byte comparison against the checked-in outputs in tests/golden.

The acceptance envelopes are wide, so a refactor could move every metric
inside them without failing a test.  These files pin the exact bytes;
tests/golden/README.md says how to regenerate them and when that is allowed.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from atlm.cli import main

GOLDEN = Path(__file__).parent / "golden"

REPRODUCE_OUTPUTS = {
    "table1": ("table1.txt", "table1.json"),
    "table2": ("table2.txt", "table2.json"),
    "figure1": ("figure1.csv",),
}


@pytest.mark.parametrize("experiment", sorted(REPRODUCE_OUTPUTS))
def test_reproduce_matches_golden(experiment, tmp_path, capsys):
    assert main(["reproduce", experiment, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in REPRODUCE_OUTPUTS[experiment]:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("dataset", ["cocomo81", "desharnais", "maxwell"])
def test_inspect_json_matches_golden(dataset, tmp_path):
    name = f"inspect_{dataset}.json"
    assert main(["inspect", "--dataset", dataset, "--format", "json",
                 "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("dataset", ["cocomo81", "desharnais", "maxwell"])
def test_inspect_table_matches_golden(dataset, tmp_path):
    name = f"inspect_{dataset}.txt"
    assert main(["inspect", "--dataset", dataset, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_evaluate_kfold_table_matches_golden(tmp_path):
    name = "evaluate_kfold_10_desharnais.txt"
    assert main(["evaluate", "--dataset", "desharnais", "--plan", "kfold:10",
                 "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("dataset", ["cocomo81", "desharnais", "maxwell"])
def test_evaluate_loocv_json_matches_golden(dataset, tmp_path):
    name = f"evaluate_loocv_{dataset}.json"
    assert main(["evaluate", "--dataset", dataset, "--plan", "loocv", "--format", "json",
                 "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("plan", ["loocv", "kfold:10", "holdout:10x30"])
@pytest.mark.parametrize("dataset", ["cocomo81", "desharnais", "maxwell"])
def test_export_folds_matches_golden(dataset, plan, tmp_path):
    name = f"export_folds_{plan.replace(':', '_')}_{dataset}.json"
    assert main(["export-folds", "--dataset", dataset, "--plan", plan, "--seed", "1",
                 "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
