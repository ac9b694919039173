import csv
import io
import json
import math

import pytest

from amalgams import cli
from amalgams.cli import emit_report, main, parse_exponent, parse_grid, parse_window
from amalgams.verify import InequalityCase, SuiteConfig, error_case, run_suite


@pytest.fixture()
def spec_path(tmp_path):
    spec = {
        "group": "real-line",
        "cells": [{"lo": [0.0], "hi": [4.0], "value": 1.0}],
    }
    path = tmp_path / "f.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_parse_exponent_tokens():
    assert parse_exponent("inf") == math.inf
    assert parse_exponent("2") == 2.0
    with pytest.raises(Exception):
        parse_exponent("0.3")
    with pytest.raises(Exception):
        parse_exponent("many")


def test_norm_subcommand(capsys, spec_path):
    code, payload = _run(
        capsys,
        ["norm", "--form", "partition", "--q", "2", "--p", "2", "--r", "4",
         "--fn", spec_path],
    )
    assert code == 0
    # diagonal: ||chi||_2 with lambda-measure 2
    assert payload["value"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert payload["method"] == "exact"


def test_norm_ball_subcommand(capsys, spec_path):
    code, payload = _run(
        capsys,
        ["norm", "--form", "ball", "--q", "1", "--p", "inf", "--r", "0.25",
         "--fn", spec_path],
    )
    assert code == 0
    assert payload["value"] == pytest.approx(0.25, rel=1e-12)


def test_lorentz_subcommand(capsys, tmp_path):
    spec = {"group": "real-line", "cells": [{"lo": [0.0], "hi": [8.0], "value": 1.0}]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(spec))
    code, payload = _run(capsys, ["lorentz", "--q", "2", "--p", "inf", "--fn", str(path)])
    assert code == 0
    assert payload["value"] == pytest.approx(2.0, rel=1e-12)


def test_fracnorm_subcommand(capsys, tmp_path):
    spec = {"group": "real-line", "cells": [{"lo": [0.0], "hi": [2.0], "value": 1.0}]}
    path = tmp_path / "h.json"
    path.write_text(json.dumps(spec))
    code, payload = _run(
        capsys,
        ["fracnorm", "--q", "1", "--p", "inf", "--alpha", "2",
         "--grid", "0.0625:16:4", "--form", "ball", "--fn", str(path)],
    )
    assert code == 0
    assert payload["value"] == pytest.approx(1.0, rel=1e-12)
    assert payload["classification"] == "nontrivial"
    assert payload["argmax_r"] == pytest.approx(1.0)


def test_partition_info_subcommand(capsys):
    code, payload = _run(
        capsys,
        ["partition-info", "--group", "real-line", "--r", "2", "--window=-4:4"],
    )
    assert code == 0
    assert payload["cell_count"] == 8
    assert payload["u_radius"] == pytest.approx(0.5)
    assert payload["validation"]["ok"] is True
    assert payload["n_pi_bounds"]["paper_form"] == pytest.approx(7.0)


def test_counterexample_subcommand(capsys):
    code, payload = _run(
        capsys,
        ["counterexample", "--q", "1", "--alpha", "2", "--p", "4", "--levels", "2"],
    )
    assert code == 0
    assert len(payload["by_level"]) == 2
    assert payload["bound_constant"] == pytest.approx(21.14, abs=0.01)
    assert payload["by_level"][0]["measure"] == pytest.approx(1.25)
    assert all(lvl["margin"] > 0 for lvl in payload["by_level"])


def test_counterexample_out_of_float_range_is_a_usage_error(capsys):
    code = main(["counterexample", "--q", "1", "--alpha", "1.2", "--p", "4", "--levels", "8"])
    err = capsys.readouterr().err
    assert code == 2
    assert "level 7" in err and "radius 0.00390625" in err
    assert "Traceback" not in err


def test_counterexample_overflowing_separation_is_a_usage_error(capsys):
    # alpha - q = 1e-7 puts 2**2e7 in the level-1 separation bound
    code = main(["counterexample", "--q", "1", "--alpha", "1.0000001", "--p", "4", "--levels", "8"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: sparse union leaves the float range at level 1")


@pytest.mark.parametrize(
    ("grid", "message"),
    [
        # 7974 radii, the first of them below any lattice step build_pi_r takes
        ("1e-300:1e300:4", "error: scale r = 1e-300 out of range"),
        ("1e-300:1e300:8", "error: bad grid '1e-300:1e300:8': grid 1e-300:1e+300:8 holds more than"),
    ],
)
def test_fracnorm_unevaluable_grid_is_a_usage_error(capsys, spec_path, grid, message):
    code = main(["fracnorm", "--q", "1", "--p", "inf", "--alpha", "2", "--grid", grid, "--fn", spec_path])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith(message)


def test_partition_norm_of_too_many_pieces_is_a_usage_error(capsys, tmp_path):
    # the aniso-plane's unit square at r = 1e-4: about 1.6e13 partition pieces
    path = tmp_path / "square.json"
    path.write_text(json.dumps(
        {"group": "aniso-plane", "cells": [{"lo": [0.0, 0.0], "hi": [1.0, 1.0], "value": 1.0}]}
    ))
    code = main(["norm", "--form", "partition", "--q", "1", "--p", "1", "--r", "1e-4", "--fn", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: lattice step (5e-05, 1.25e-09) cuts the boxes into 1.6e+13 pieces")


def test_partition_info_counts_a_large_window_without_enumerating(capsys):
    code, payload = _run(
        capsys,
        ["partition-info", "--group", "heisenberg", "--r", "0.05", "--window=-20:20,-20:20,-5:5"],
    )
    assert code == 0
    assert payload["cell_count"] == 335_872_000_000
    assert payload["validation"]["ok"] is True
    assert payload["validation"]["cells_checked"] == 200


def test_any_uncaught_error_is_one_error_line(capsys, spec_path, monkeypatch):
    def broken(args):
        raise RuntimeError("handler broke\nacross two lines")

    monkeypatch.setattr(cli, "_cmd_norm", broken)
    code = main(["norm", "--form", "partition", "--q", "1", "--p", "2", "--r", "1", "--fn", spec_path])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: RuntimeError: handler broke across two lines\n"


def test_usage_errors(capsys, spec_path, tmp_path):
    # missing required flag
    assert main(["norm", "--form", "partition", "--p", "2", "--r", "1",
                 "--fn", spec_path]) == 2
    capsys.readouterr()
    # unknown flag
    assert main(["norm", "--florm", "partition"]) == 2
    capsys.readouterr()
    # malformed spec file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["lorentz", "--q", "2", "--p", "2", "--fn", str(bad)]) == 2
    capsys.readouterr()
    # exponent below 1
    assert main(["lorentz", "--q", "0.5", "--p", "2", "--fn", spec_path]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "--form", "ball", "--q", "1", "--p", "2", "--r", "inf"],
        ["norm", "--form", "ball", "--q", "1", "--p", "2", "--r", "nan"],
        ["norm", "--form", "ball", "--q", "1", "--p", "2", "--r", "1", "--mesh", "inf"],
        ["norm", "--form", "ball", "--q", "1", "--p", "2", "--r", "1", "--mesh", "nan"],
        ["norm", "--form", "partition", "--q", "1", "--p", "2", "--r", "inf"],
        ["norm", "--form", "partition", "--q", "1", "--p", "2", "--r", "nan"],
        ["fracnorm", "--q", "1", "--p", "inf", "--alpha", "2", "--grid", "0.1:inf:4"],
        ["fracnorm", "--q", "1", "--p", "inf", "--alpha", "2", "--grid", "nan:1:4"],
    ],
    ids=[
        "ball-r-inf", "ball-r-nan", "ball-mesh-inf", "ball-mesh-nan",
        "partition-r-inf", "partition-r-nan", "grid-rmax-inf", "grid-rmin-nan",
    ],
)
def test_non_finite_radius_mesh_or_grid_is_usage_error(capsys, spec_path, argv):
    code = main(argv + ["--fn", spec_path])
    out = capsys.readouterr().out
    assert code == 2
    assert out == ""


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def test_reports_are_strict_json():
    # holder-product-2 records p = inf in its context
    cases = run_suite(SuiteConfig(criteria=("holder-product",), n_holder=3))
    cases.append(error_case("synthetic", RuntimeError("boom")))  # margin -inf
    parsed = json.loads(emit_report(cases, "json", None), parse_constant=_reject_constant)
    assert parsed["cases"][-1]["margin"] == "-inf"
    assert "inf" in parsed["cases"][2]["context"]["factors"]
    for row in list(csv.DictReader(io.StringIO(emit_report(cases, "csv", None)))):
        json.loads(row["context"], parse_constant=_reject_constant)


def test_verify_subcommand_quick(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"criteria": ["diagonal-identity"], "n_identity": 3}))
    out = tmp_path / "report.json"
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out.read_text())
    assert all(c["status"] == "pass" for c in payload["cases"])
    # JSON report round-trips the in-memory cases
    rebuilt = [InequalityCase(**c) for c in payload["cases"]]
    assert all(isinstance(c.margin, float) for c in rebuilt)


def test_verify_report_times_each_criterion(capsys, tmp_path):
    criteria = ["degeneracy-slopes", "diagonal-identity", "degeneracy-slopes", "tail-norm-constant"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"criteria": criteria, "n_identity": 3}))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    seconds = payload["criterion_seconds"]
    assert sorted(seconds) == sorted(set(criteria))
    assert all(isinstance(s, float) and 0.0 <= s < math.inf for s in seconds.values())
    # the cases are those of run_suite
    cases = run_suite(SuiteConfig(criteria=tuple(criteria), n_identity=3))
    assert payload["cases"] == json.loads(emit_report(cases, "json", None))["cases"]
    assert "criterion_seconds" not in json.loads(emit_report(cases, "json", None))


def test_verify_bad_config_key(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert main(["verify", "--config", str(cfg)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "raw",
    [
        {"n_identity": "x"},
        {"n_identity": 2.5},
        {"n_identity": True},
        {"n_identity": -3},
        {"n_equivalence": 0},
        {"n_translates": None},
        {"seed": "s"},
        {"seed": False},
        {"seed": -1},
        {"max_levels": 0},
        {"max_levels": 7.0},
        {"window": [[1, -1]]},
        {"window": [[0, 0]]},
        {"window": [[0, math.inf]]},
        {"window": [[0, 1], [0, 1]]},
        {"window": [[0, 1, 2]]},
        {"window": [["a", 1]]},
        {"window": 4},
    ],
    ids=lambda raw: json.dumps(raw),
)
def test_verify_config_that_cannot_run(capsys, tmp_path, raw):
    # refused before any criterion runs: exit 2, one error line naming the key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["verify", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and repr(next(iter(raw))) in err


def test_emit_report_csv_and_roundtrip(tmp_path):
    cases = [
        InequalityCase("a", 1.0, 2.0, 1.5, 0.5, "pass", 1e-9, {"k": 1}),
        InequalityCase("b", 3.0, 1.0, 1.0, -0.6, "fail", 0.0, {}),
    ]
    text = emit_report(cases, "csv", None)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["id", "lhs", "rhs", "constant", "margin", "status", "context"]
    assert len(rows) == len(cases) + 1
    assert rows[1][1] == "1"
    # empty case list -> header only
    assert len(list(csv.reader(io.StringIO(emit_report([], "csv", None))))) == 1
    # JSON round-trip preserves numbers exactly
    jtext = emit_report(cases, "json", str(tmp_path / "r.json"))
    parsed = json.loads(jtext)
    assert [InequalityCase(**c) for c in parsed["cases"]] == cases


def test_out_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("AMALGAMS_OUT_DIR", str(tmp_path))
    cases = [InequalityCase("a", 1.0, 2.0, 1.0, 0.5, "pass", 0.0, {})]
    emit_report(cases, "json", "report.json")
    assert (tmp_path / "report.json").exists()


def _reject_constant(token):
    raise ValueError(f"non-finite number {token}")


@pytest.mark.parametrize(
    "argv",
    [
        ["lorentz", "--q", "2", "--p", "2"],
        ["norm", "--form", "partition", "--q", "2", "--p", "2", "--r", "1"],
        ["norm", "--form", "ball", "--q", "2", "--p", "2", "--r", "1"],
        ["fracnorm", "--form", "partition", "--q", "2", "--p", "4", "--alpha", "3",
         "--grid", "0.25:4:1"],
    ],
    ids=["lorentz", "norm-partition", "norm-ball", "fracnorm-partition"],
)
def test_huge_values_give_a_value_not_a_traceback(capsys, tmp_path, argv):
    spec = {
        "group": "real-line",
        "cells": [
            {"lo": [0], "hi": [1], "value": 1e300},
            {"lo": [2], "hi": [3], "value": 1},
        ],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(spec))
    code = main(argv + ["--fn", str(path)])
    captured = capsys.readouterr()
    assert code in (0, 2)
    assert "Traceback" not in captured.err
    if code == 0:
        payload = json.loads(captured.out, parse_constant=_reject_constant)
        assert 1e299 < payload["value"] < 1e301


@pytest.mark.parametrize(
    "argv",
    [
        ["partition-info", "--group", "real-line", "--r", "5e-324", "--window=-1:1"],
        ["partition-info", "--group", "real-line", "--r", "1e-310", "--window=-1:1"],
        ["norm", "--form", "partition", "--q", "2", "--p", "2", "--r", "1e-200"],
    ],
    ids=["step-zero", "step-subnormal", "heisenberg-t-step-underflows"],
)
def test_out_of_range_scale_is_usage_error(capsys, tmp_path, argv):
    if argv[0] == "norm":
        spec = {"group": "heisenberg",
                "cells": [{"lo": [0, 0, 0], "hi": [1e-200, 1e-200, 1e-300], "value": 1}]}
        path = tmp_path / "h.json"
        path.write_text(json.dumps(spec))
        argv = argv + ["--fn", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("triples", [[[1, 2]], [[1, 2, 3, 4]], [1, 2, 3], [[1, 0.5, 2]]], ids=json.dumps)
def test_verify_malformed_embedding_triple_is_a_usage_error(capsys, tmp_path, triples):
    # refused when the config is made: exit 2, one error line naming the key, no report
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(json.dumps({"criteria": ["lebesgue-embedding"], "embedding_triples": triples}))
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err.count("\n") == 1 and err.startswith("error:") and "'embedding_triples'" in err


def test_verify_embedding_triple_of_strings_runs(capsys, tmp_path):
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    raw = {"criteria": ["lebesgue-embedding"], "n_embedding": 3, "embedding_triples": [["1", "inf", "2"]]}
    cfg.write_text(json.dumps(raw))
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    cases = json.loads(out.read_text())["cases"]
    assert [(c["id"], c["status"]) for c in cases] == [("lebesgue-embedding-q=1.0-p=inf-alpha=2.0-real-line", "pass")]


def test_suite_config_refuses_a_malformed_triple_or_criterion():
    with pytest.raises(ValueError, match="'embedding_triples'"):
        SuiteConfig(embedding_triples=((1.0, 2.0),))
    with pytest.raises(ValueError, match="'criteria'.*'nope'"):
        SuiteConfig(criteria=("nope",))


@pytest.mark.parametrize(
    "raw, names",
    [
        ({"criteria": 3}, "'criteria'"),
        ({"criteria": "diagonal-identity"}, "'criteria'"),
        ({"criteria": {"a": 1}}, "'criteria'"),
        ([1, 2], "must be a JSON object"),
        (3, "must be a JSON object"),
        ("x", "must be a JSON object"),
        (None, "must be a JSON object"),
    ],
    ids=["criteria-number", "criteria-string", "criteria-object", "list", "number", "string", "null"],
)
def test_verify_config_of_the_wrong_shape_is_a_usage_error(capsys, tmp_path, raw, names):
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(raw))
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err.count("\n") == 1 and err.startswith("error:") and names in err


def test_suite_config_keeps_criteria_as_a_tuple_and_refuses_a_string():
    assert SuiteConfig(criteria=["diagonal-identity"]).criteria == ("diagonal-identity",)
    assert SuiteConfig().criteria is None
    with pytest.raises(ValueError, match="'criteria'"):
        SuiteConfig(criteria="diagonal-identity")


def test_verify_config_names_the_first_bad_key_in_field_order(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"window": 4, "n_identity": 0, "criteria": "x"}))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "'criteria'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "window",
    ["nan:1", "-1:nan", "nan:1,-1:1", "-1:1,-1:nan", "nan:1,0:1,0:1", "0:1,0:1,0:nan"],
)
def test_partition_info_refuses_a_nan_window(capsys, window):
    group = {1: "real-line", 2: "aniso-plane", 3: "heisenberg"}[window.count(",") + 1]
    code = main(["partition-info", "--group", group, "--r", "1", f"--window={window}"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: window")


@pytest.mark.parametrize("levels", ["0", "-1"])
def test_counterexample_needs_a_level(capsys, levels):
    code = main(["counterexample", "--q", "1", "--alpha", "2", "--p", "4", "--levels", levels])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "max_levels" in err
