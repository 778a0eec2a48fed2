from __future__ import annotations

import json

import pytest

from atlm.cli import main

# chosen transforms for the bundled cocomo81 file, recorded once as a golden
COCOMO81_GOLDEN_TRANSFORMS = {
    "rely": "none", "data": "log", "cplx": "log", "time": "log", "stor": "log",
    "virt": "log", "turn": "none", "acap": "none", "aexp": "log", "pcap": "none",
    "vexp": "log", "lexp": "log", "modp": "log", "tool": "none", "sced": "log",
    "loc": "log", "mode": "none", "effort": "log",
}


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

    def test_desharnais_report_carries_outlier_note(self, capsys):
        code = main(["evaluate", "--dataset", "desharnais", "--plan", "kfold:5",
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert any("outlier assumption" in note for note in payload["notes"])

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
