"""Output checks that do not rely on ``atlm``.

Each check takes the program's parsed JSON output and returns a list of
problems; an empty list means the output is correct.  The reference values
come from this file: the published envelopes, a b1 skewness written as
m3 / s^3, ``numpy.linalg.lstsq`` and the error measures as defined in the
paper's protocol.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

#: published tenfold-CV mean and standard deviation (Whigham, Owen &
#: MacDonell, ACM TOSEM 24(3), 2015); a summary must lie in mean +/- sd
ENVELOPES = {
    "cocomo81": {"lsd": (0.54, 0.2), "mmre": (0.45, 0.26),
                 "pred25": (0.41, 0.25), "re_star": (0.68, 1.1)},
    "maxwell": {"lsd": (0.58, 0.2), "mmre": (0.48, 0.17),
                "pred25": (0.37, 0.12), "re_star": (0.53, 0.8)},
}

#: project counts of the prepared bundled datasets as published
BUNDLED_ROWS = {"cocomo81": 63, "desharnais": 74, "maxwell": 62}

#: relative tolerance between two floating-point evaluations of one formula
REL_TOL = 1e-9

_FORWARD = {"none": lambda x: x, "log": np.log, "sqrt": np.sqrt}
_INVERSE = {"none": lambda x: x, "log": np.exp, "sqrt": np.square}
_ADMISSIBLE = {"none": lambda x: True,
               "log": lambda x: bool(np.all(x > 0.0)),
               "sqrt": lambda x: bool(np.all(x >= 0.0))}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def b1(values) -> float | None:
    """Sample skewness m3 / s^3 with s the n-1 standard deviation; None if undefined."""
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 3:
        return None
    d = x - x.mean()
    s2 = float(d @ d) / (n - 1)
    if s2 == 0.0:
        return None
    return float(np.sum(d ** 3) / n / s2 ** 1.5)


def transform_skews(values) -> dict:
    """b1 of each candidate transform, or "inadmissible" / "degenerate"."""
    x = np.asarray(values, dtype=float)
    skews: dict[str, object] = {}
    for kind, forward in _FORWARD.items():
        if not _ADMISSIBLE[kind](x):
            skews[kind] = "inadmissible"
            continue
        value = b1(forward(x))
        skews[kind] = "degenerate" if value is None else value
    return skews


def choose(values) -> str:
    """The admissible candidate of least |b1|; earlier candidates win ties."""
    best, best_abs = "none", None
    for kind, value in transform_skews(values).items():
        if isinstance(value, float) and (best_abs is None or abs(value) < best_abs):
            best, best_abs = kind, abs(value)
    return best


def pooled_measures(predicted, actual, reference) -> dict:
    """MMRE, PRED(25), LSD, RE*, SA and MAR of one prediction set.

    ``reference`` is the response sample a random guesser draws from (SA's
    MAR_P0 is the mean of |actual_i - reference_j| over all pairs).
    """
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    err = p - a
    rel = np.abs(err) / a
    mar = float(np.mean(np.abs(err)))
    e = np.log(a) - np.log(p)
    s2 = float(np.var(e, ddof=1))
    mar_p0 = float(np.mean(np.abs(a[:, None] - np.asarray(reference, dtype=float)[None, :])))
    return {
        "n": int(a.size),
        "mmre": float(np.mean(rel)),
        "pred25": float(np.mean(rel <= 0.25)),
        "lsd": math.sqrt(float(np.sum((e + s2 / 2.0) ** 2)) / (a.size - 1)),
        "re_star": float(np.var(err, ddof=1) / np.var(a, ddof=1)),
        "sa": 1.0 - mar / mar_p0,
        "mar": mar,
    }


@dataclass(frozen=True)
class LoocvReference:
    failures: dict
    pooled: dict


def _read_csv(csv_text: str) -> tuple[list, list]:
    """Header and data rows; a row's 0-based position is its id."""
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader)
    return header, [r for r in reader if r]


def _parse(csv_text: str, schema_text: str):
    schema = [line.split() for line in schema_text.splitlines()
              if line.strip() and not line.startswith("#")]
    header, rows = _read_csv(csv_text)
    cells = {name: [r[i] for r in rows] for i, name in enumerate(header)}
    return schema, cells, len(rows)


def loocv_reference(csv_text: str, schema_text: str) -> LoocvReference:
    """Leave-one-out fit and score of a CSV, recomputed from scratch."""
    schema, cells, n = _parse(csv_text, schema_text)
    response = next(name for name, _, role in schema if role == "response")
    numeric = {name: np.array(cells[name], dtype=float)
               for name, kind, role in schema if kind == "numeric" and role != "ignored"}
    factors = {name: cells[name] for name, kind, role in schema
               if kind == "categorical" and role != "ignored"}
    drivers = [name for name in numeric if name != response]
    y = numeric[response]

    failures, predicted, actual = {}, [], []
    for i in range(n):
        train = np.arange(n) != i
        kinds = {name: choose(col[train]) for name, col in numeric.items()}
        if any(kinds[name] != "none" and not _ADMISSIBLE[kinds[name]](col[i:i + 1])
               for name, col in numeric.items()):
            failures[i] = "E_DOMAIN"
            continue
        levels = {name: list(dict.fromkeys(v for j, v in enumerate(col) if j != i))
                  for name, col in factors.items()}
        if any(col[i] not in levels[name] for name, col in factors.items()):
            failures[i] = "E_UNSEEN_LEVEL"
            continue
        design = [np.ones(n)]
        design += [_FORWARD[kinds[name]](numeric[name]) for name in drivers]
        design += [np.array([v == level for v in col], dtype=float)
                   for name, col in factors.items() for level in levels[name][1:]]
        x = np.column_stack(design)
        beta = np.linalg.lstsq(x[train], _FORWARD[kinds[response]](y[train]), rcond=None)[0]
        predicted.append(float(_INVERSE[kinds[response]](x[i] @ beta)))
        actual.append(y[i])
    return LoocvReference(failures=failures,
                          pooled=pooled_measures(predicted, actual, y))


def check_loocv(payload: dict, reference: LoocvReference, expected_failures: dict) -> list[str]:
    """An ``evaluate --plan loocv`` report against the recomputation."""
    problems = []
    got = {f["fold"]: f["code"] for f in payload.get("failures", [])}
    if got != expected_failures:
        problems.append(f"loocv failed folds {got} != generator's {expected_failures}")
    if reference.failures != expected_failures:
        problems.append(f"recomputed failed folds {reference.failures} != "
                        f"generator's {expected_failures}")
    pooled = payload.get("pooled") or {}
    for name, want in reference.pooled.items():
        have = pooled.get(name)
        if not isinstance(have, (int, float)) or not _close(have, want):
            problems.append(f"loocv pooled {name} = {have!r}, recomputed {want!r}")
    return problems


def check_kfold_report(payload: dict, k: int) -> list[str]:
    """Fold accounting of an ``evaluate --plan kfold:K`` report."""
    name = payload.get("dataset")
    succeeded, failed = payload.get("n_succeeded"), len(payload.get("failures", ()))
    problems = []
    if payload.get("n_folds") != k or succeeded + failed != k:
        problems.append(f"{name}: {succeeded} succeeded + {failed} failed of "
                        f"{payload.get('n_folds')} folds, expected {k}")
    if payload["aggregate"]["n_reports"] != succeeded:
        problems.append(f"{name}: aggregate over {payload['aggregate']['n_reports']} "
                        f"reports, {succeeded} folds succeeded")
    return problems


_UNSEEN = re.compile(r"factor '(?P<factor>[^']+)' has level '(?P<level>[^']+)' "
                     r"in row (?P<row>\d+)")


def _level(cell: str) -> str:
    try:
        value = float(cell)
    except ValueError:
        return cell.strip()
    return str(int(value)) if value.is_integer() else repr(value)


def check_unseen_failures(payload: dict, folds_payload: dict, csv_text: str) -> list[str]:
    """Each failed fold holds out a row whose factor level no training row has.

    ``folds_payload`` is ``export-folds`` output for the same plan and seed,
    and ``csv_text`` the raw data file, whose row ids are line order.
    """
    header, rows = _read_csv(csv_text)
    problems = []
    for failure in payload.get("failures", ()):
        match = _UNSEEN.search(failure["message"])
        if failure["code"] != "E_UNSEEN_LEVEL" or not match:
            problems.append(f"fold {failure['fold']}: unexpected failure {failure['code']}")
            continue
        fold = folds_payload["folds"][failure["fold"]]
        row, level = int(match["row"]), match["level"]
        column = header.index(match["factor"])
        if (row not in fold["test"] or _level(rows[row][column]) != level
                or any(_level(rows[r][column]) == level for r in fold["train"])):
            problems.append(f"fold {failure['fold']}: level {level!r} of row {row} is "
                            f"not unseen in that fold's training rows")
    return problems


def check_envelope(name: str, payload: dict) -> list[str]:
    """A tenfold summary against the published mean +/- one sd."""
    problems = []
    means = payload["aggregate"]["metrics"]
    for metric, (mean, sd) in ENVELOPES[name].items():
        got = means[metric]["mean"]
        if not mean - sd <= got <= mean + sd:
            problems.append(f"{name} kfold:10 {metric} = {got:.4f} outside {mean} +/- {sd}")
    return problems


def check_partition(payload: dict, plan: str, n_rows: int) -> list[str]:
    """Exported folds split one set of ``n_rows`` ids as the plan prescribes."""
    folds = [(list(f["train"]), list(f["test"])) for f in payload["folds"]]
    if not folds:
        return [f"{plan}: no folds exported"]
    universe = set(folds[0][0]) | set(folds[0][1])
    problems = []
    if len(universe) != n_rows:
        problems.append(f"{plan}: folds cover {len(universe)} ids, expected {n_rows}")
    for i, (train, test) in enumerate(folds):
        if len(set(train)) != len(train) or len(set(test)) != len(test):
            problems.append(f"{plan} fold {i}: duplicate ids")
        if set(train) & set(test) or set(train) | set(test) != universe:
            problems.append(f"{plan} fold {i}: train and test do not partition the ids")
    sizes = [len(test) for _, test in folds]
    if plan == "loocv":
        expected = [1] * n_rows
    elif plan.startswith("kfold:"):
        k = int(plan.split(":")[1])
        base, extra = divmod(n_rows, k)
        expected = [base + 1] * extra + [base] * (k - extra)
    else:
        size, repeats = (int(v) for v in plan.split(":")[1].split("x"))
        expected = [size] * repeats
    if sorted(sizes) != sorted(expected):
        problems.append(f"{plan}: test sizes {Counter(sizes)} != {Counter(expected)}")
    if plan != "loocv" and not plan.startswith("holdout:"):
        tested = [i for _, test in folds for i in test]
        if len(tested) != len(set(tested)) or set(tested) != universe:
            problems.append(f"{plan}: test sets do not partition the ids")
    if plan == "loocv" and sorted(i for _, test in folds for i in test) != sorted(universe):
        problems.append("loocv: not every id is held out exactly once")
    return problems


def check_inspect(payload: dict, columns: dict) -> list[str]:
    """Each numeric variable's transform has the least |b1| and matching skews.

    ``columns`` maps variable name to its prepared values.
    """
    problems = []
    for name, entry in payload["variables"].items():
        if entry["categorical"]:
            continue
        skews = transform_skews(columns[name])
        for kind, want in skews.items():
            have = entry["skewness"].get(kind)
            same = (have == want if isinstance(want, str)
                    else isinstance(have, float) and _close(have, want))
            if not same:
                problems.append(f"{name}: b1[{kind}] = {have!r}, recomputed {want!r}")
        finite = [abs(v) for v in skews.values() if isinstance(v, float)]
        chosen = skews.get(entry["kind"])
        if finite and not (isinstance(chosen, float)
                           and abs(chosen) <= min(finite) * (1 + REL_TOL) + 1e-12):
            problems.append(f"{name}: chose {entry['kind']} but |b1| is least for another "
                            f"transform ({skews})")
    return problems


def csv_columns(csv_text: str, row_ids) -> dict:
    """Raw CSV cells of the given 0-based data rows, as floats where they parse."""
    header, rows = _read_csv(csv_text)
    columns = {}
    for i, name in enumerate(header):
        try:
            columns[name] = np.array([float(rows[r][i]) for r in row_ids])
        except ValueError:
            continue  # a text column; only numeric variables are checked
    return columns
