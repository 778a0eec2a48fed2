from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import atlm
from atlm.cli import build_parser, main
from atlm.errors import AtlmError
from atlm.metrics import METRIC_FIELDS
from perfbench import synth

# chosen transforms for the bundled cocomo81 file, recorded once as a golden
COCOMO81_GOLDEN_TRANSFORMS = {
    "rely": "none", "data": "log", "cplx": "log", "time": "log", "stor": "log",
    "virt": "log", "turn": "none", "acap": "none", "aexp": "log", "pcap": "none",
    "vexp": "log", "lexp": "log", "modp": "log", "tool": "none", "sced": "log",
    "loc": "log", "mode": "none", "effort": "log",
}


def run_on_csv(tmp_path, text: str, argv) -> int:
    """The exit status of ``main(argv)`` on ``text`` as a CSV file of numeric
    columns ``a``, ``b`` and response ``y``."""
    (tmp_path / "data.csv").write_text(text, encoding="utf-8")
    (tmp_path / "data.schema").write_text(
        "a numeric explanatory\nb numeric explanatory\ny numeric response\n")
    return main([*argv, "--dataset", str(tmp_path / "data.csv"),
                 "--schema", str(tmp_path / "data.schema")])


def csv_cell(cell: str):
    """A cell of a CSV report: None if empty, else a float where it parses as one."""
    if not cell:
        return None
    try:
        return float(cell)
    except ValueError:
        return cell


class TestInspect:
    def test_cocomo81_table_lists_all_variables(self, capsys):
        assert main(["inspect", "--dataset", "cocomo81"]) == 0
        out = capsys.readouterr().out
        for variable in COCOMO81_GOLDEN_TRANSFORMS:
            assert variable in out

    def test_cocomo81_json_matches_golden_choices(self, capsys):
        assert main(["inspect", "--dataset", "cocomo81", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        chosen = {v: info["kind"] for v, info in payload["variables"].items()}
        assert chosen == COCOMO81_GOLDEN_TRANSFORMS

    def test_missing_schema_file_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "d.csv"
        csv.write_text("x,y\n1,2\n")
        code = main(["inspect", "--dataset", str(csv),
                     "--schema", str(tmp_path / "nope.schema")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[")
        assert "nope.schema" in err

    def test_degenerate_column_reported_exit_0(self, tmp_path, capsys):
        csv = tmp_path / "d.csv"
        csv.write_text("x,y\n5,1\n5,2\n5,9\n")
        schema = tmp_path / "d.schema"
        schema.write_text("x numeric explanatory\ny numeric response\n")
        assert main(["inspect", "--dataset", str(csv), "--schema", str(schema)]) == 0
        assert "degenerate" in capsys.readouterr().out

    def test_csv_dataset_requires_schema(self, tmp_path, capsys):
        csv = tmp_path / "d.csv"
        csv.write_text("x,y\n1,2\n")
        assert main(["inspect", "--dataset", str(csv)]) == 2


class TestEvaluate:
    def test_json_report_shape(self, capsys):
        code = main(["evaluate", "--dataset", "cocomo81", "--plan", "holdout:10x3",
                     "--seed", "1", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"] == "holdout:10x3"
        assert payload["seed"] == 1
        assert payload["n_folds"] == 3
        assert set(payload["aggregate"]["metrics"]) == {
            "mmre", "pred25", "lsd", "re_star", "sa", "mar"}
        assert len(payload["folds"]) == 3

    def test_plan_invariant_violation_exits_2(self, capsys):
        code = main(["evaluate", "--dataset", "cocomo81", "--plan", "kfold:200"])
        assert code == 2
        assert "error[E_PLAN]" in capsys.readouterr().err

    def test_table_format_headers(self, capsys):
        code = main(["evaluate", "--dataset", "cocomo81", "--plan", "kfold:10",
                     "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        for title in ("LSD", "MMRE", "PRED(25)", "RE*"):
            assert title in out

    def test_csv_format_has_fold_rows(self, capsys):
        code = main(["evaluate", "--dataset", "cocomo81", "--plan", "kfold:5",
                     "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("fold,status,n,")
        assert len([l for l in lines if l.endswith("") and l[0].isdigit()]) == 5

    @pytest.mark.parametrize("plan", ["loocv", "kfold:10"])
    def test_each_csv_row_matches_the_json_report(self, tmp_path, capsys, plan):
        # on the csv-loocv benchmark's CSV, folds fail with E_DOMAIN and E_UNSEEN_LEVEL
        # under both plans, and loocv adds the pooled row.  Numbers are compared as
        # floats, so the test holds wherever the two formats come from one run
        csv_path, schema_path = synth.write(synth.generate(1), tmp_path)
        argv = ["evaluate", "--dataset", str(csv_path), "--schema", str(schema_path),
                "--plan", plan, "--seed", "1", "--format"]
        assert main(argv + ["json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(argv + ["csv"]) == 0
        header, *rows = [list(map(csv_cell, line.split(",")))
                         for line in capsys.readouterr().out.splitlines()]

        def cells(report):
            return [report["n"], *(report[m] for m in METRIC_FIELDS)]

        expected = [[f["fold"], f["failed"]] + [None] * (1 + len(METRIC_FIELDS))
                    if "failed" in f else [f["fold"], "ok", *cells(f)]
                    for f in payload["folds"] if "failed" in f or "mar" in f]
        if plan == "loocv":
            expected.append(["pooled", "ok", *cells(payload["pooled"])])
        metrics = payload["aggregate"]["metrics"]
        expected += [[stat, None, None, *(metrics[m][stat] for m in METRIC_FIELDS)]
                     for stat in ("mean", "std")]
        assert header == ["fold", "status", "n", *METRIC_FIELDS]
        assert rows == expected
        assert {"E_DOMAIN", "E_UNSEEN_LEVEL"} <= {status for _, status, *_ in rows}

    def test_desharnais_report_carries_outlier_note(self, capsys):
        code = main(["evaluate", "--dataset", "desharnais", "--plan", "kfold:5",
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert any("outlier assumption" in note for note in payload["notes"])

    def test_metrics_whose_squares_overflow_keep_a_finite_std(self, tmp_path, capsys):
        # the re_star of the two folds are 2.18e174 and 1.0005
        text = "a,b,y\n1,1,1\n0.0,1,1\n1,1,2\n1,1,10\n134,1,1\n1,1,2\n"
        argv = ["evaluate", "--plan", "kfold:2", "--format", "json"]
        assert run_on_csv(tmp_path, text, argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["aggregate"]["metrics"]["re_star"] == {
            "mean": 1.0889035741469953e+174, "std": 1.539942202675218e+174}

    def test_unknown_dataset_exits_2(self, capsys):
        assert main(["evaluate", "--dataset", "nope", "--plan", "loocv"]) == 2
        assert "error[E_CONFIG]" in capsys.readouterr().err


class TestExportFolds:
    def test_loocv_singletons(self, capsys):
        code = main(["export-folds", "--dataset", "cocomo81", "--plan", "loocv"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["folds"]) == 63
        assert all(len(f["test"]) == 1 for f in payload["folds"])

    def test_same_seed_identical_bytes(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["export-folds", "--dataset", "desharnais",
                         "--plan", "holdout:10x30", "--seed", "7",
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_holdout_shape_on_desharnais(self, capsys):
        code = main(["export-folds", "--dataset", "desharnais",
                     "--plan", "holdout:10x30"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["folds"]) == 30
        assert all(len(f["test"]) == 10 for f in payload["folds"])
        assert all(len(f["train"]) == 64 for f in payload["folds"])


class TestUsage:
    def test_unknown_plan_format(self, capsys):
        assert main(["evaluate", "--dataset", "cocomo81", "--plan", "bogus"]) == 2

    def test_usage_error_is_machine_parseable(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--dataset", "cocomo81"])  # missing --plan
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error[E_USAGE]")

    def test_evaluate_and_export_folds_describe_plan_and_seed_alike(self, capsys):
        def described(command: str) -> list[str]:
            with pytest.raises(SystemExit):
                main([command, "--help"])
            lines = capsys.readouterr().out.splitlines()
            return [" ".join(line.split()) for line in lines
                    if line.lstrip().startswith(("--plan", "--seed"))]

        assert described("export-folds") == described("evaluate") == [
            "--plan PLAN loocv | kfold:K | holdout:SxR", "--seed SEED PRNG seed (default 1)"]


class TestErrorContract:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fault", ["not-utf8", "directory"])
    @pytest.mark.parametrize("target, code", [("csv", "E_PARSE"), ("schema", "E_SCHEMA"),
                                              ("recipe", "E_RECIPE")])
    def test_unreadable_input_file_is_one_error_line(self, tmp_path, capsys,
                                                     target, code, fault):
        paths = {"csv": tmp_path / "d.csv", "schema": tmp_path / "d.schema",
                 "recipe": tmp_path / "r.json"}
        paths["csv"].write_text("x,y\n1,2\n2,3\n3,5\n4,4\n")
        paths["schema"].write_text("x numeric explanatory\ny numeric response\n")
        paths["recipe"].write_text("{}")
        broken = paths[target]
        broken.unlink()
        if fault == "directory":
            broken.mkdir()
        else:
            broken.write_bytes(b"x,y\n1,\xff\n")  # 0xff never occurs in UTF-8
        status = main(["inspect", "--dataset", str(paths["csv"]),
                       "--schema", str(paths["schema"]), "--recipe", str(paths["recipe"])])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[{code}]: ")
        assert err.count("\n") == 1

    # cocomo81 has 63 rows, so kfold:32 is the smallest k with a 1-row test fold
    @pytest.mark.parametrize("plan", ["holdout:1x3", "kfold:32", "kfold:63"])
    def test_a_plan_with_one_row_test_folds_is_refused_before_any_fit(
            self, monkeypatch, capsys, plan):
        fitted = []
        monkeypatch.setattr(atlm.validation, "_fit_plan", lambda *args: fitted.append(args))
        assert main(["evaluate", "--dataset", "cocomo81", "--plan", plan]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error[E_PLAN]: plan {plan} leaves test folds of 1 row")
        assert captured.err.count("\n") == 1
        assert (captured.out, fitted) == ("", [])

    def test_a_response_only_schema_is_refused_by_evaluate_but_inspected(self, tmp_path,
                                                                         capsys):
        (tmp_path / "yonly.csv").write_text("y\n3\n5\n9\n17\n33\n70\n")
        (tmp_path / "yonly.schema").write_text("y numeric response\n")
        files = ["--dataset", str(tmp_path / "yonly.csv"),
                 "--schema", str(tmp_path / "yonly.schema")]
        assert main(["evaluate", *files, "--plan", "loocv"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error[E_SCHEMA]: dataset 'yonly' has no explanatory columns\n"
        assert captured.out == ""
        assert main(["inspect", *files]) == 0

    def test_loocv_on_three_rows_fails_every_fold_as_degenerate(self, tmp_path, capsys):
        (tmp_path / "three.csv").write_text("a,b,y\n1,2,3\n2,5,7\n4,1,9\n")
        (tmp_path / "three.schema").write_text(
            "a numeric explanatory\nb numeric explanatory\ny numeric response\n")
        assert main(["evaluate", "--dataset", str(tmp_path / "three.csv"),
                     "--schema", str(tmp_path / "three.schema"), "--plan", "loocv"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error[E_VALIDATION]: all 3 folds failed for 'three'; first "
                                "failure: training dataset 'three' has 2 rows; skewness "
                                "selection needs at least 3\n")
        assert captured.out == ""

    def test_one_row_test_folds_are_still_exported_and_two_row_ones_evaluated(self, capsys):
        assert main(["export-folds", "--dataset", "cocomo81", "--plan", "holdout:1x3"]) == 0
        folds = json.loads(capsys.readouterr().out)["folds"]
        assert [len(f["test"]) for f in folds] == [1, 1, 1]
        assert main(["evaluate", "--dataset", "cocomo81", "--plan", "kfold:31",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["n_succeeded"] == 31

    @pytest.mark.parametrize("command", ["evaluate", "export-folds"])
    def test_loocv_on_a_header_only_csv_is_refused(self, tmp_path, capsys, command):
        assert run_on_csv(tmp_path, "a,b,y\n", [command, "--plan", "loocv"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error[E_PLAN]: loocv has no folds in the 0 rows of 'data'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("text, line", [
        ('"' + "x" * (csv.field_size_limit() + 1) + '",b,y\n1,1,1\n', 1),
        ("a,b,y\n1,1,1\n2,\"" + "9" * (csv.field_size_limit() + 1) + '",1\n', 3),
        ("a,b,y\n1,1,1\n2," + "9" * (csv.field_size_limit() + 1) + ",1\n", 3),
    ], ids=["header", "record", "unquoted"])
    def test_a_field_over_the_csv_size_limit_is_one_parse_error(self, tmp_path, capsys,
                                                                 text, line):
        assert run_on_csv(tmp_path, text, ["inspect"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[E_PARSE]: ")
        assert err.endswith(f"data.csv:{line}: field larger than field limit "
                            f"({csv.field_size_limit()})\n")
        assert err.count("\n") == 1

    def test_a_prediction_that_overflows_fails_its_fold_without_a_warning(self, tmp_path,
                                                                          capsys):
        # the fold that leaves out row 2 predicts past the float range
        text = "a,b,y\n1,1,1\n5.650703843544496e+67,1,1\n1,1,6.362722891294486e+240\n0.0,1,1\n"
        assert run_on_csv(tmp_path, text, ["evaluate", "--plan", "loocv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[E_METRIC]: ")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, existing", [
        (["inspect", "--dataset", "cocomo81"], "directory"),
        (["reproduce", "table1"], "file"),
    ])
    def test_unwritable_out_is_one_error_line(self, tmp_path, capsys, argv, existing):
        out = tmp_path / "out"
        if existing == "directory":
            out.mkdir()
        else:
            out.write_text("")
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[E_CONFIG]: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--dataset", "cocomo81", "--plan", "kfold:10"],
        ["reproduce", "table1"],
    ])
    def test_jobs_flag_is_a_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out"), "--jobs", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error[E_USAGE]")

    def test_the_unseen_level_option_is_a_usage_error(self, capsys):
        # a fold whose test rows hold a level that training lacks fails: no option changes that
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--dataset", "maxwell", "--plan", "kfold:10",
                  "--unseen-level", "error"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[E_USAGE]") and err.count("\n") == 1


def documented_statuses() -> dict:
    """Error code -> exit status, from the error classes, plus argparse's usage errors."""
    statuses, classes = {"E_USAGE": 2}, [AtlmError]
    while classes:
        cls = classes.pop()
        statuses[cls.code] = cls.exit_status
        classes.extend(cls.__subclasses__())
    return statuses


ERROR_LINE = re.compile(r"error\[(E_[A-Z_]+)\]: [^\n]*\n")
JUNK = st.text(alphabet="abxyz:-_./019", max_size=8)
FILES = {"data.csv": "size,effort\n" + "".join(f"{i},{3 * i + 2}\n" for i in range(1, 13)),
         "data.schema": "size numeric explanatory\neffort numeric response\n",
         "recipe.json": '{"notes": ["x"]}'}
OPTION_VALUES = {
    "--dataset": st.sampled_from(["cocomo81", "desharnais", "maxwell", "data.csv",
                                  "gone.csv", "data.schema", "."]),
    "--schema": st.sampled_from(["data.schema", "gone.schema", "data.csv", "."]),
    "--recipe": st.sampled_from(["cocomo81", "maxwell", "recipe.json", "data.csv"]),
    "--format": st.sampled_from(["table", "json", "csv"]),
    "--plan": (st.just("loocv")
               | st.integers(-1, 70).map("kfold:{}".format)
               | st.tuples(st.integers(-1, 70), st.integers(0, 3)).map("holdout:{0[0]}x{0[1]}".format)),
    "--seed": st.integers(-2, 2 ** 64 + 1).map(str),
    # relative paths: each example runs inside its own temporary directory
    "--out": st.sampled_from(["out.txt", "outdir", "data.csv", ".", "gone/out.json"]),
}
#: each subcommand's required flags, then its optional ones
FLAGS = {"inspect": (["--dataset"], ["--schema", "--recipe", "--format", "--out"]),
         "evaluate": (["--dataset", "--plan"], ["--schema", "--recipe", "--seed", "--format",
                                                "--out"]),
         "export-folds": (["--dataset", "--plan"], ["--schema", "--recipe", "--seed", "--out"]),
         "reproduce": ([], ["--out"])}


@st.composite
def cli_argv(draw) -> list:
    """A subcommand with its required flags and some of its others, each with
    a real value; now and then a junk command, value or token, a flag of any
    subcommand, or a value left out."""
    def rarely() -> bool:
        return draw(st.integers(0, 15)) == 15

    command = draw(JUNK) if rarely() else draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    if command == "reproduce":
        argv.append(draw(JUNK) if rarely() else
                    draw(st.sampled_from(["table1", "table2", "figure1"])))
    required, optional = FLAGS.get(command, ([], []))
    if rarely():
        optional = [*OPTION_VALUES, "--help"]
    flags = required + draw(st.lists(st.sampled_from(optional), max_size=3)) if optional else required
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if flag in OPTION_VALUES and not rarely():
            argv.append(draw(JUNK) if rarely() else draw(OPTION_VALUES[flag]))
        if rarely():
            argv.append(draw(JUNK))
    return argv


def run_in_scratch_directory(argv, files=FILES) -> tuple:
    """Exit status, stdout, stderr and the files written of ``main(argv)``,
    run in a fresh directory holding ``files``; a traceback escapes as the
    test's failure."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        for name, text in files.items():
            Path(scratch, name).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    status = main(argv)
                except SystemExit as exc:
                    status = exc.code
        finally:
            os.chdir(home)
        written = {path.relative_to(scratch).as_posix(): path.read_bytes()
                   for path in sorted(Path(scratch).rglob("*"))
                   if path.is_file() and path.name not in files}
    return status, out.getvalue(), err.getvalue(), written


def assert_success_or_one_error_line(argv, status, err) -> None:
    if status == 0:
        event("success")
        assert err == ""
        return
    line = ERROR_LINE.fullmatch(err)
    assert line, (argv, err)
    event(line.group(1))
    assert status == DOCUMENTED_STATUSES[line.group(1)], (argv, err)


DOCUMENTED_STATUSES = documented_statuses()


class TestCliContract:
    """Any argv ends in success, or in one error line with its code's documented status."""

    @given(argv=cli_argv())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_success_or_one_documented_error_line(self, argv):
        status, _out, err, _written = run_in_scratch_directory(argv)
        assert_success_or_one_error_line(argv, status, err)


SCHEMA_LINES = (st.tuples(st.sampled_from(["a", "b", "y", ""]),
                          st.sampled_from(["numeric", "categorical", "text"]),
                          st.sampled_from(["explanatory", "response", "ignored", "target"]))
                .map(" ".join)
                | st.sampled_from(["# comment", "", "a numeric", "b numeric explanatory x"]))
CELLS = (st.integers(1, 400).map(str)
         | st.floats(-1e6, 1e300, allow_nan=False).map(repr)
         | st.sampled_from(["0", "-1", "", "?", "NA", " 2 ", "nan", "inf", "1e999", "abc",
                            "u", "v,w"]))


#: a recipe that drops row 12 of a generated file, which has at most 12 rows
ABSENT_ROW_RECIPE = '{"drop_row_ids": [12]}'


@st.composite
def data_files(draw) -> dict:
    """A small schema file, a CSV file whose header mostly matches it, and a
    recipe that may drop rows with missing cells, row 0 or row 12, which no
    generated file holds: mostly well formed, now and then a junk schema
    line, header name, cell or record length."""
    def rarely() -> bool:
        return draw(st.integers(0, 9)) == 0

    kind = draw(st.sampled_from(["numeric", "categorical"]))
    lines = draw(st.permutations(["a numeric explanatory", f"b {kind} explanatory",
                                  "y numeric response"]))
    if rarely():
        lines = draw(st.lists(SCHEMA_LINES, max_size=4))
    header = [line.split()[0] for line in lines if len(line.split()) == 3]
    if rarely():
        header = draw(st.permutations(header + ["z"]))[:len(header)]
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        cells = [draw(CELLS) if rarely() else str(draw(st.integers(1, 400))) for _ in header]
        if rarely():
            cells = cells[:-1] if draw(st.booleans()) else cells + ["7"]
        rows.append(",".join(f'"{c}"' if "," in c else c for c in cells))
    recipe = draw(st.sampled_from(["{}", '{"drop_rows_with_missing": true}',
                                   '{"drop_row_ids": [0]}', ABSENT_ROW_RECIPE]))
    return {"data.csv": "\n".join([",".join(header), *rows]) + "\n",
            "data.schema": "\n".join(lines) + "\n", "recipe.json": recipe}


class TestGeneratedInputFiles:
    """Any small CSV and schema file ends in success, or in one error line
    with its code's documented status."""

    @given(files=data_files())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_inspect_export_folds_and_evaluate(self, files):
        inputs = ["--dataset", "data.csv", "--schema", "data.schema", "--recipe", "recipe.json"]
        for argv in (["inspect", *inputs, "--format", "json"],
                     ["export-folds", *inputs, "--plan", "loocv"],
                     ["evaluate", *inputs, "--plan", "loocv", "--format", "json"],
                     ["evaluate", *inputs, "--plan", "kfold:2", "--format", "json"]):
            status, _out, err, _written = run_in_scratch_directory(argv, files)
            assert_success_or_one_error_line(argv, status, err)
            if files["recipe.json"] == ABSENT_ROW_RECIPE:
                # refused by the recipe (E_RECIPE, status 2), or by an input read before it
                assert status != 0, argv
                assert "row id 12" in err or not err.startswith("error[E_RECIPE]"), (argv, err)


#: call sequences where a parser kept from an earlier call could leak into a later one
REUSE_SEQUENCES = [
    [["inspect", "--dataset", "data.csv", "--schema", "data.schema", "--recipe", "recipe.json"],
     ["inspect", "--dataset", "data.csv"],
     ["inspect", "--dataset", "cocomo81", "--recipe", "maxwell"],
     ["inspect", "--dataset", "cocomo81"]],
    [["evaluate", "--dataset", "cocomo81"],
     ["export-folds", "--dataset", "cocomo81", "--plan", "kfold:3", "--out", "f.json"]],
    [["export-folds", "--dataset", "maxwell", "--plan", "loocv", "--seed", "x"],
     ["export-folds", "--dataset", "maxwell", "--plan", "loocv"]],
    [["--help"], ["inspect", "--help"], ["inspect", "--dataset", "desharnais", "--format", "json"]],
]


class TestParserReuse:
    """Each call through the parser kept from the first one gives what a
    freshly built parser gives: stdout, stderr, exit status and files."""

    @pytest.mark.parametrize("sequence", REUSE_SEQUENCES)
    def test_hand_picked_sequences(self, sequence):
        self.check(sequence)

    @given(st.lists(cli_argv(), min_size=2, max_size=4))
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_generated_sequences(self, sequence):
        self.check(sequence)

    @staticmethod
    def check(sequence):
        build_parser.cache_clear()
        reused = [run_in_scratch_directory(argv) for argv in sequence]
        assert build_parser.cache_info().misses == 1
        fresh = []
        for argv in sequence:
            build_parser.cache_clear()
            fresh.append(run_in_scratch_directory(argv))
        assert reused == fresh


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's atlm."""
    src = str(Path(atlm.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


class TestFreshProcess:
    def test_python_dash_m_atlm_runs_the_cli(self, capsys):
        done = run_python("-m", "atlm", "inspect", "--dataset", "cocomo81")
        assert main(["inspect", "--dataset", "cocomo81"]) == 0
        assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")

    def test_importing_the_cli_builds_no_parser(self):
        done = run_python("-c", "import atlm.cli as cli; print(cli.build_parser.cache_info())")
        assert "currsize=0" in done.stdout, done.stderr

    def test_scipy_never_loads_even_when_a_model_is_fitted(self):
        script = """
import contextlib, io, json, sys
import atlm
from atlm.cli import main
loaded = lambda: ("scipy" in sys.modules, "scipy.linalg" in sys.modules,
                  "atlm._flapack" in sys.modules)
seen = [loaded()]
atlm.load_builtin("desharnais")
seen.append(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["inspect", "--dataset", "maxwell"]),
             main(["export-folds", "--dataset", "cocomo81", "--plan", "kfold:10"])]
    seen.append(loaded())
    codes.append(main(["evaluate", "--dataset", "cocomo81", "--plan", "kfold:10"]))
seen.append(loaded())
print(json.dumps([codes, seen]))
"""
        done = run_python("-c", script)
        # (scipy, scipy.linalg, atlm._flapack) loaded: only the fit loads the extension
        nothing, flapack_only = [False, False, False], [False, False, True]
        assert json.loads(done.stdout) == [[0, 0, 0], [nothing] * 3 + [flapack_only]], done.stderr

    def test_fit_before_importing_scipy_linalg_gives_the_same_coefficients(self):
        script = """
import sys
import atlm
from atlm import linear
ds = atlm.load_builtin("maxwell")
first = atlm.atlm_fit(ds).linear
assert "scipy" not in sys.modules
import scipy.linalg
linear._flapack_file = lambda: None  # make the next fit resolve LAPACK through scipy.linalg
linear._lapack.cache_clear()
second = atlm.atlm_fit(ds).linear
assert linear._lapack() == tuple(scipy.linalg.get_lapack_funcs(("geqp3", "orgqr", "trtrs"),
                                                               dtype=float))
print(first.coefficients == second.coefficients and first.aliased == second.aliased,
      len(first.coefficients))
"""
        done = run_python("-c", script)
        assert done.stdout.split()[0] == "True", done.stderr

    def test_the_package_binds_the_user_api_and_no_submodule_import_rebinds_it(self):
        script = """
import importlib, json, pkgutil, sys, types
import atlm
def public(module):
    return {name: value for name, value in vars(module).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}
before = public(atlm)
for info in pkgutil.iter_modules(atlm.__path__):
    if info.name != "__main__":
        importlib.import_module("atlm." + info.name)
after = public(atlm)
print(json.dumps([sorted(before),
                  sorted(name for name in before.keys() | after.keys()
                         if before.get(name) is not after.get(name)),
                  [f"{module}.{name}" for module, name in json.loads(sys.argv[1])
                   if not hasattr(sys.modules["atlm." + module], name)]]))
"""
        done = run_python("-c", script, json.dumps(MODEL_INTERNALS))
        # the user API, no name rebound, and every internal still in its submodule
        assert json.loads(done.stdout) == [sorted(PACKAGE_NAMES), [], []], done.stderr


#: the public names of ``import atlm`` that are not submodules: the baseline's user API
PACKAGE_NAMES = (
    # bundled data and dataset handling
    "builtin_names", "builtin_recipe", "load_builtin", "load_builtin_raw",
    "CATEGORICAL", "EXPLANATORY", "IGNORED", "NUMERIC", "RESPONSE",
    "ColumnSchema", "Dataset", "PrepRecipe", "apply_recipe", "load_csv", "load_schema", "split",
    # errors
    "AtlmError", "ConfigError", "DegenerateSampleError", "FitError", "MetricError",
    "MissingValueError", "ParseError", "PlanError", "PredictionError", "RecipeError",
    "SchemaError", "SplitError", "TransformDomainError", "UnseenLevelError", "ValidationError",
    # the model
    "AtlmModel", "PredictionSet", "atlm_fit", "atlm_predict", "LOG", "NONE", "SQRT",
    "TRANSFORM_KINDS", "TransformTable", "calculate_transforms", "skewness_b1", "Pcg32",
    # measures
    "METRIC_FIELDS", "MetricReport", "MetricSummary", "aggregate", "lsd", "mar", "mmre", "pred",
    "re_star", "sa",
    # resampling
    "CvRunSummary", "FoldAssignment", "FoldOutcome", "HOLDOUT", "KFOLD", "LOOCV",
    "ValidationPlan", "ValidationResult", "generate_folds", "repeat_cv_experiment",
    "run_validation",
)

#: names that only their submodules export
MODEL_INTERNALS = [
    *(("linear", name) for name in ("DesignMatrix", "FittedLinearModel", "INTERCEPT",
                                    "RANK_TOL", "build_design", "fit_ols", "predict")),
    *(("transforms", name) for name in ("apply_transforms", "invert_predictions",
                                        "TransformEntry")),
    ("pipeline", "pooled"), ("metrics", "report")]
