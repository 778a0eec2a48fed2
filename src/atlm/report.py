"""Rendering of evaluation results as JSON, CSV, and aligned text tables."""

from __future__ import annotations

import json

from .dataset import format_number
from .metrics import METRIC_FIELDS, MetricReport
from .transforms import TRANSFORM_KINDS, TransformTable
from .validation import ValidationResult

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
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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


def _pad(cells, widths) -> str:
    return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()


def summary_table(rows) -> str:
    """Aligned table: one row per (label, summary) pair."""
    header = ["dataset"] + [title for _, title in TABLE_METRICS]
    body = []
    for label, summary in rows:
        cells = [label]
        for key, _ in TABLE_METRICS:
            cells.append(f"{summary.means[key]:.2f} +/- {summary.stds[key]:.2f}")
        body.append(cells)
    widths = [max(len(r[i]) for r in [header] + body) for i in range(len(header))]
    lines = [_pad(header, widths)]
    lines.extend(_pad(r, widths) for r in body)
    return "\n".join(lines) + "\n"


def result_to_table_text(result: ValidationResult, notes=()) -> str:
    table = summary_table([(result.dataset_name, result.summary)])
    lines = [table.rstrip("\n")]
    lines.append(f"plan {result.plan.label()}  seed {result.plan.seed}  "
                 f"folds {result.n_succeeded}/{result.n_folds} succeeded")
    if result.pooled_report is not None:
        lines.append("metrics computed over the pooled predictions of all folds")
    for note in notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def transform_table_text(ds_name: str, table: TransformTable) -> str:
    header = ["variable", "kind", "chosen"] + [f"b1[{k}]" for k in TRANSFORM_KINDS]
    body = []
    for name, entry in table.entries.items():
        kind = "categorical" if entry.categorical else "numeric"
        row = [name, kind, entry.kind]
        for k in TRANSFORM_KINDS:
            row.append(entry.describe(k) if not entry.categorical else "-")
        body.append(row)
    widths = [max(len(r[i]) for r in [header] + body) for i in range(len(header))]
    lines = [f"dataset: {ds_name}", _pad(header, widths)]
    lines.extend(_pad(r, widths) for r in body)
    return "\n".join(lines) + "\n"


def transform_table_json(ds_name: str, table: TransformTable) -> dict:
    payload = table.to_json_dict()
    payload["dataset"] = ds_name
    return payload
