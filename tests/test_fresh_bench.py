"""``scripts/fresh_bench.py``'s verdict on a command's outputs, loaded by its path."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fresh_bench.py"


@pytest.fixture(scope="module")
def fresh_bench():
    spec = importlib.util.spec_from_file_location("fresh_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # sha256 of b""


@pytest.mark.parametrize("launches, identical", [
    ([{"status": 0, "sha256": "a"}] * 4, True),
    ([{"status": 0, "sha256": "a"}] * 3 + [{"status": 0, "sha256": "b"}], False),
    # every launch failed: the same empty output each time is no verdict
    ([{"status": 1, "sha256": EMPTY}] * 4, False),
    ([{"status": 0, "sha256": EMPTY}] * 3 + [{"status": 2, "sha256": EMPTY}], False),
], ids=["same-bytes", "other-bytes", "all-failed", "one-failed"])
def test_outputs_are_identical_only_if_every_launch_exited_0(fresh_bench, launches,
                                                              identical):
    assert fresh_bench.outputs_identical(launches) is identical
