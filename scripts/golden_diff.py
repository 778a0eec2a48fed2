"""Fold-by-fold differences behind the golden outputs, a git revision against the working tree.

Usage:
    python scripts/golden_diff.py REV

Every fitted fold behind ``tests/golden`` is fitted by the ``atlm`` of
``REV`` (extracted with ``git archive`` into a temporary directory) and by
the one in the working tree's ``src/``: the folds of ``reproduce table1``,
``table2`` and ``figure1``, and of ``evaluate --plan loocv`` on each bundled
dataset and on the CSV that ``perfbench.synth.generate(1)`` gives (written
to a temporary directory, as the csv-loocv benchmark workload writes it),
and of ``evaluate --plan kfold:10 --seed 1`` on that CSV, whose failing folds
hold more than one test row; plus the whole-dataset transform table of each
``inspect`` file.  Each side
runs in its own interpreter.  Predictions, metric reports, failure codes and
failure messages come from ``run_validation``, the path the golden files are
written by; each fold's transforms come from ``atlm_fit`` on its training rows.

For each fold that changed, one line gives the variables whose transform
changed and the change of failure code, or of the failure message where the
code is the same, or the report fields that changed where only the fold's
metric report moved, or else the largest relative change of a prediction twice:
over the test rows whose explanatory numeric values all occur among the
fold's training rows ("held values"), and over the rows with a value that
none of them holds ("a new value").  A class with no rows
is left out.  The last line counts the changed folds, and reads ``no fold
changed`` when there are none.  ``export-folds`` fits nothing and is left
to ``tests/test_golden.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ("cocomo81", "desharnais", "maxwell")


def dump() -> dict:
    """Every golden fold of the ``atlm`` on ``sys.path``: ``{label: {fold:
    [kinds, predictions, code, new, message, report]}}``, kinds as ``{variable:
    kind}``, ``new`` flagging each test row that holds a new value, and the
    report as ``{field: float.hex text}`` (a NaN then equals itself), None
    under LOOCV and on a failed fold."""
    from atlm import cli
    from atlm.bundled import load_builtin
    from atlm.dataset import load_csv, load_schema, split
    from atlm.errors import AtlmError
    from atlm.pipeline import atlm_fit
    from atlm.transforms import calculate_transforms
    from atlm.validation import ValidationPlan, generate_folds, run_validation
    sys.path.append(str(ROOT))
    from perfbench import synth

    def kinds(table) -> dict:
        return {name: entry.kind for name, entry in table.entries.items()}

    def new_values(train, test) -> list:
        new = np.zeros(len(test), dtype=bool)
        for i in test.schema.numeric:
            if i != test.schema.response:
                new |= ~np.isin(test.values[i], train.values[i])
        return new.tolist()

    runs = [(f"reproduce {experiment}", name, plan, cli.REPRODUCE_SEED)
            for experiment, (names, plan) in sorted(cli._REPRODUCE_PLANS.items())
            for name in names]
    runs += [("reproduce figure1", "cocomo81", "kfold:10", cli.REPRODUCE_SEED + run)
             for run in range(cli.FIGURE1_RUNS)]
    runs += [("evaluate", name, "loocv", 1) for name in BUNDLED]
    datasets = {name: load_builtin(name) for name in BUNDLED}
    with tempfile.TemporaryDirectory() as work:
        csv_path, schema_path = synth.write(synth.generate(1), Path(work))
        datasets["synth"] = load_csv(csv_path, load_schema(schema_path))
    runs += [("evaluate", "synth", "loocv", 1), ("evaluate", "synth", "kfold:10", 1)]
    out = {f"inspect {name}": {"all rows": [kinds(calculate_transforms(datasets[name])),
                                            [], None, [], None, None]} for name in BUNDLED}
    for command, name, plan_text, seed in runs:
        ds, plan = datasets[name], ValidationPlan.parse(plan_text, seed=seed)
        outcomes = run_validation(ds, plan).outcomes
        folds = {}
        for fold, (outcome, ids) in enumerate(zip(outcomes, generate_folds(ds, plan).folds)):
            train, test = split(ds, *ids)
            try:
                fitted = kinds(atlm_fit(train).transforms)
            except AtlmError:
                fitted = None
            predicted = [] if outcome.failed else outcome.predictions.predicted.tolist()
            scores = outcome.report and {f: float(v).hex()
                                         for f, v in outcome.report.to_json_dict().items()}
            folds[str(fold)] = [fitted, predicted, outcome.code, new_values(train, test),
                                outcome.message, scores]
        out[f"{command} {name} {plan_text} seed {seed}"] = folds
    return out


def run(args: list[str], what: str, **kwargs) -> subprocess.CompletedProcess:
    """``args`` run to completion; on failure, exit 1 with one ``golden_diff:``
    line naming ``what`` and giving the last line of its stderr."""
    done = subprocess.run(args, capture_output=True, **kwargs)
    if done.returncode:
        stderr = done.stderr if isinstance(done.stderr, str) else done.stderr.decode()
        why = stderr.strip().splitlines() or [f"exit status {done.returncode}"]
        raise SystemExit(f"golden_diff: {what} failed: {why[-1]}")
    return done


def run_side(src: Path, name: str) -> dict:
    done = run([sys.executable, __file__, "--dump"], f"--dump of {name}", text=True,
               env={**os.environ, "PYTHONPATH": str(src)})
    return json.loads(done.stdout)


def relative_change(pairs) -> float:
    return max((abs(b - a) / abs(a) if a else abs(b) for a, b in pairs if a != b), default=0.0)


def largest_changes(old: list, new: list, flags: list) -> str:
    """The largest relative prediction change on rows with held values and
    on rows with a new value, leaving out a class with no rows."""
    parts = []
    for name, flag in (("rows with held values", False), ("rows with a new value", True)):
        pairs = [(a, b) for a, b, f in zip(old, new, flags) if f == flag]
        if pairs:
            parts.append(f"{relative_change(pairs):.3g} on {name}")
    return "largest relative prediction change " + (", ".join(parts) or "on no rows")


def main(argv: list[str]) -> int:
    if argv == ["--dump"]:
        print(json.dumps(dump()))
        return 0
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        archive = run(["git", "-C", str(ROOT), "archive", argv[0], "src"],
                      f"git archive {argv[0]}").stdout
        run(["tar", "x", "-C", work], "tar", input=archive)
        before = run_side(Path(work, "src"), argv[0])
    after = run_side(ROOT / "src", "the working tree")
    changed = total = 0
    for label in sorted(before.keys() | after.keys()):
        old_folds, new_folds = before.get(label, {}), after.get(label, {})
        for fold in sorted(old_folds.keys() | new_folds.keys(), key=lambda f: (len(f), f)):
            total += 1
            old, new = old_folds.get(fold), new_folds.get(fold)
            if old == new:
                continue
            changed += 1
            if old is None or new is None:
                print(f"{label} fold {fold}: only {'after' if old is None else 'before'}")
                continue
            (old_kinds, old_pred, old_code, _, old_message, old_report), \
                (new_kinds, new_pred, new_code, flags, new_message, new_report) = old, new
            old_kinds, new_kinds = old_kinds or {}, new_kinds or {}  # None: atlm_fit failed
            moved = ", ".join(f"{v} {old_kinds.get(v)}->{new_kinds.get(v)}"
                              for v in sorted(old_kinds.keys() | new_kinds.keys())
                              if old_kinds.get(v) != new_kinds.get(v))
            old_report, new_report = old_report or {}, new_report or {}
            scores = ", ".join(f for f in sorted(old_report.keys() | new_report.keys())
                               if old_report.get(f) != new_report.get(f))
            change = (f"code {old_code}->{new_code}" if old_code != new_code
                      else f"message {old_message!r}->{new_message!r}"
                      if old_message != new_message
                      else f"report changed: {scores}" if old_pred == new_pred and scores
                      else largest_changes(old_pred, new_pred, flags))
            print(f"{label} fold {fold}: transforms {moved or 'unchanged'}; {change}")
    print(f"{changed} of {total} folds changed" if changed
          else f"no fold changed: {total} folds compared, {argv[0]} against the working tree")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
