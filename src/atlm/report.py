"""Rendering of evaluation results as JSON, CSV, and aligned text tables."""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .dataset import format_number
from .metrics import METRIC_FIELDS, MetricReport
from .transforms import TRANSFORM_KINDS, TransformTable
from .validation import FoldAssignment, ValidationResult

#: column order used by the aligned summary tables
TABLE_METRICS = (("lsd", "LSD"), ("mmre", "MMRE"),
                 ("pred25", "PRED(25)"), ("re_star", "RE*"))


def result_to_json_dict(result: ValidationResult, notes=()) -> dict:
    folds = []
    for o in result.outcomes:
        if o.failed:
            folds.append({"fold": o.fold, "failed": o.code, "message": o.message})
        elif o.report is not None:
            folds.append({"fold": o.fold, **o.report.to_json_dict()})
        else:
            folds.append({"fold": o.fold, "n": len(o.predictions)})
    return {
        "dataset": result.dataset_name,
        "dataset_fingerprint": result.dataset_fingerprint,
        "plan": result.plan.label(),
        "seed": result.plan.seed,
        "n_folds": result.n_folds,
        "n_succeeded": result.n_succeeded,
        "aggregate": result.summary.to_json_dict() if result.summary else None,
        "pooled": result.pooled_report.to_json_dict() if result.pooled_report else None,
        "folds": folds,
        "failures": [{"fold": f.fold, "code": f.code, "message": f.message}
                     for f in result.failures],
        "notes": list(notes),
    }


def to_json_text(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    for a payload whose dict keys are all strings (any other key is a
    TypeError).

    Dicts and lists (tuples too) are laid out as that call lays them out:
    one item per line, indented two spaces per level, items separated by
    ``","`` and keys, sorted, by ``": "``; empty ones as ``{}`` and ``[]``.
    Scalars come from the C routines the json module uses: strings escaped
    to ASCII, finite floats by ``float.__repr__``, ints by ``int.__repr__``,
    and bool, None, NaN and the infinities by ``JSONEncoder``, which raises
    TypeError for a type JSON has no form for.  The payload must hold no
    cycle."""
    return _render(payload, "\n") + "\n"


_ENCODER = json.JSONEncoder()


def _scalar(value) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    return _ENCODER.encode(value)


def _render(value, pad: str) -> str:
    """``value`` as JSON text, its nested lines indented by ``pad`` (a
    newline and the current indent)."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            [f"{encode_basestring_ascii(k)}: {_render(v, inner)}"
             for k, v in sorted(value.items())]) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_render(v, inner) for v in value]) + pad + "]"
    return _scalar(value)


def fold_assignment_json_text(assignment: FoldAssignment) -> str:
    """``to_json_text(assignment.to_json_dict())``, byte for byte, written
    from the assignment's ids and test masks, each fold of which tests a row
    (a fold with none is a ValueError).

    Each id is rendered once, as a list item with its leading separator, into
    one text.  A fold's test items are looked up, and its training items, the
    runs of rows between its test rows, are slices of the text, so a fold
    costs Python work in its test size, not in the row count.  A list's first
    item drops its separator's comma."""
    items = [",\n        " + int.__repr__(i) for i in assignment.ids]
    text = "".join(items)
    starts = np.cumsum([0, *map(len, items)])  # item i spans starts[i]:starts[i + 1]
    tests = assignment.tests
    rows = np.nonzero(tests)[1]  # each fold's test rows, folds in order
    positions = rows.tolist()
    edges = np.column_stack((starts[rows], starts[rows + 1])).ravel().tolist()
    parts = ['{\n  "dataset_fingerprint": ',
             encode_basestring_ascii(assignment.dataset_fingerprint), ',\n  "folds": [']
    begin = 0
    for end in np.cumsum(np.count_nonzero(tests, axis=1)).tolist():
        first, *rest = positions[begin:end]
        parts += (',\n    {\n      "test": [' if begin else '\n    {\n      "test": [',
                  items[first][1:], *map(items.__getitem__, rest), '\n      ],\n      "train": ')
        # the training items, the runs between test rows, span cuts[0]:cuts[1], cuts[2]:cuts[3], ...
        cuts = [0, *edges[2 * begin:2 * end], len(text)]
        spans = [(a, b) for a, b in zip(cuts[::2], cuts[1::2]) if a < b]
        if spans:
            (a, b), *spans = spans
            parts += ("[", text[a + 1:b], *[text[a:b] for a, b in spans], "\n      ]\n    }")
        else:
            parts.append("[]\n    }")
        begin = end
    parts += ("\n  ]" if len(tests) else "]", ',\n  "plan": ',
              encode_basestring_ascii(assignment.plan.label()),
              ',\n  "seed": ', int.__repr__(assignment.plan.seed), "\n}\n")
    return "".join(parts)


def _metric_cells(r: MetricReport) -> str:
    return ",".join([str(r.n)] + [format_number(getattr(r, m)) for m in METRIC_FIELDS])


def result_to_csv_text(result: ValidationResult) -> str:
    header = "fold,status," + ",".join(("n",) + METRIC_FIELDS)
    lines = [header]
    for o in result.outcomes:
        if o.failed:
            lines.append(f"{o.fold},{o.code}," + "," * len(METRIC_FIELDS))
        elif o.report is not None:
            lines.append(f"{o.fold},ok," + _metric_cells(o.report))
    if result.pooled_report is not None:
        lines.append("pooled,ok," + _metric_cells(result.pooled_report))
    if result.summary is not None:
        for stat, source in (("mean", result.summary.means), ("std", result.summary.stds)):
            cells = [""] + [format_number(source[m]) for m in METRIC_FIELDS]
            lines.append(f"{stat},," + ",".join(cells))
    return "\n".join(lines) + "\n"


def _aligned(rows) -> str:
    """Each row of cells as one line: every column padded to its widest cell,
    two spaces between columns, trailing blanks cut."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join(["  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip() + "\n"
                    for cells in rows])


def summary_table(rows) -> str:
    """Aligned table: one row per (label, summary) pair."""
    header = ["dataset"] + [title for _, title in TABLE_METRICS]
    body = [[label] + [f"{summary.means[key]:.2f} +/- {summary.stds[key]:.2f}"
                       for key, _ in TABLE_METRICS] for label, summary in rows]
    return _aligned([header, *body])


def result_to_table_text(result: ValidationResult, notes=()) -> str:
    lines = [f"plan {result.plan.label()}  seed {result.plan.seed}  "
             f"folds {result.n_succeeded}/{result.n_folds} succeeded"]
    if result.pooled_report is not None:
        lines.append("metrics computed over the pooled predictions of all folds")
    lines.extend(f"note: {note}" for note in notes)
    return summary_table([(result.dataset_name, result.summary)]) + "\n".join(lines) + "\n"


def transform_table_text(ds_name: str, table: TransformTable) -> str:
    header = ["variable", "kind", "chosen"] + [f"b1[{k}]" for k in TRANSFORM_KINDS]
    body = [[name, "categorical" if entry.categorical else "numeric", entry.kind]
            + [entry.describe(k) for k in TRANSFORM_KINDS]
            for name, entry in table.entries.items()]
    return f"dataset: {ds_name}\n" + _aligned([header, *body])


def transform_table_json(ds_name: str, table: TransformTable) -> dict:
    payload = table.to_json_dict()
    payload["dataset"] = ds_name
    return payload
