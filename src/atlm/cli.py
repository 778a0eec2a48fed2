"""Command-line interface.

Commands: ``inspect`` (schema and transform table), ``evaluate`` (run a
validation plan and report metrics as a table, or as JSON with the
fingerprint, plan, seed, notes and failures that trace them), ``reproduce``
(rerun the documented benchmark experiments with fixed seeds),
``export-folds`` (write fold assignments as JSON for other models to consume).

Exit codes: 0 success, 1 computation failure, 2 usage/configuration error.
Errors print a single line ``error[CODE]: message`` to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .bundled import builtin_names, builtin_recipe, load_builtin, load_builtin_raw
from .dataset import Dataset, PrepRecipe, apply_recipe, format_number, load_csv, load_schema
from .errors import AtlmError, ConfigError
from .report import (
    fold_assignment_json_text,
    result_to_json_dict,
    result_to_table_text,
    summary_table,
    to_json_text,
    transform_table_json,
    transform_table_text,
)
from .transforms import calculate_transforms
from .validation import ValidationPlan, generate_folds, repeat_cv_experiment, run_validation

#: seed used by every ``reproduce`` experiment
REPRODUCE_SEED = 1
#: number of cross-validation runs behind the run-variation experiment
FIGURE1_RUNS = 30

_REPRODUCE_PLANS = {
    "table1": (("cocomo81", "desharnais"), "holdout:10x30"),
    "table2": (("cocomo81", "maxwell"), "kfold:10"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error[E_USAGE]: {message}", file=sys.stderr)
        sys.exit(2)


def _add_dataset_options(parser) -> None:
    parser.add_argument("--dataset", required=True,
                        help="bundled dataset name or path to a CSV file")
    parser.add_argument("--schema", help="schema sidecar (required for CSV paths)")
    parser.add_argument("--recipe",
                        help="preparation recipe: bundled dataset name or JSON path")
    parser.add_argument("--out", help="write output to this path instead of stdout")


def _add_plan_options(parser) -> None:
    parser.add_argument("--plan", required=True, help="loocv | kfold:K | holdout:SxR")
    parser.add_argument("--seed", type=int, default=1, help="PRNG seed (default 1)")


def _resolve_dataset(args) -> tuple[Dataset, PrepRecipe]:
    name = args.dataset
    if name in builtin_names():
        raw = load_builtin_raw(name)
        recipe = builtin_recipe(name)
    else:
        path = Path(name)
        if path.suffix != ".csv" and not path.exists():
            raise ConfigError(
                f"unknown dataset {name!r}: not a bundled name "
                f"({', '.join(builtin_names())}) and not an existing file")
        if not args.schema:
            raise ConfigError("a CSV dataset needs --schema")
        raw = load_csv(path, load_schema(args.schema))
        recipe = PrepRecipe()
    if args.recipe:
        if args.recipe in builtin_names():
            recipe = builtin_recipe(args.recipe)
        else:
            recipe = PrepRecipe.from_json_file(args.recipe)
    return apply_recipe(raw, recipe), recipe


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_inspect(args) -> int:
    ds, _recipe = _resolve_dataset(args)
    table = calculate_transforms(ds)
    if args.format == "json":
        _emit(to_json_text(transform_table_json(ds.name, table)), args.out)
    else:
        _emit(transform_table_text(ds.name, table), args.out)
    return 0


def _cmd_evaluate(args) -> int:
    ds, recipe = _resolve_dataset(args)
    plan = ValidationPlan.parse(args.plan, seed=args.seed)
    result = run_validation(ds, plan)
    if args.format == "json":
        _emit(to_json_text(result_to_json_dict(result, notes=recipe.notes)), args.out)
    else:
        _emit(result_to_table_text(result, notes=recipe.notes), args.out)
    return 0


def _cmd_export_folds(args) -> int:
    ds, _recipe = _resolve_dataset(args)
    plan = ValidationPlan.parse(args.plan, seed=args.seed)
    _emit(fold_assignment_json_text(generate_folds(ds, plan)), args.out)
    return 0


def _cmd_reproduce(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.experiment in _REPRODUCE_PLANS:
        names, plan_text = _REPRODUCE_PLANS[args.experiment]
        plan = ValidationPlan.parse(plan_text, seed=REPRODUCE_SEED)
        results = {name: run_validation(load_builtin(name), plan) for name in names}
        shown = summary_table([(name, r.summary) for name, r in results.items()])
        payload = {"plan": plan_text, "seed": REPRODUCE_SEED, "datasets": {
            name: result_to_json_dict(r, notes=builtin_recipe(name).notes)
            for name, r in results.items()}}
        files = {f"{args.experiment}.txt": shown, f"{args.experiment}.json": to_json_text(payload)}
    else:  # figure1: between-run variation of tenfold cross-validation
        runs = repeat_cv_experiment(load_builtin("cocomo81"), k=10, runs=FIGURE1_RUNS,
                                    base_seed=REPRODUCE_SEED)
        shown = "".join(["run,re_star_mean,re_star_stderr\n"]
                        + [f"{s.run},{format_number(s.re_star_mean)},"
                           f"{format_number(s.re_star_stderr)}\n" for s in runs])
        files = {"figure1.csv": shown}
    for name, text in files.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    sys.stdout.write(shown)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``atlm`` parser, built on the first call and shared by every later
    one: parsing reads it and never changes it, so each ``main`` call stays
    independent of the ones before it."""
    parser = _Parser(prog="atlm",
                     description="Transformed linear baseline for effort estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="show schema and chosen transforms")
    _add_dataset_options(p)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("evaluate", help="run a validation plan and report metrics")
    _add_dataset_options(p)
    _add_plan_options(p)
    p.add_argument("--format", choices=("json", "table"), default="table",
                   help="table (default), or json: every fold, failure and note, "
                        "with the dataset fingerprint, plan and seed")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("reproduce", help="rerun the documented benchmark experiments")
    p.add_argument("experiment", choices=("table1", "table2", "figure1"))
    p.add_argument("--out", default="reports", help="output directory (default: reports)")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("export-folds", help="write fold assignments as JSON")
    _add_dataset_options(p)
    _add_plan_options(p)
    p.set_defaults(func=_cmd_export_folds)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AtlmError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_status
    except OSError as exc:  # e.g. --out names a directory, or a file where one is needed
        print(f"error[E_CONFIG]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
