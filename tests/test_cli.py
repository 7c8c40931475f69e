import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

import aumcf
from aumcf import write_records_csv
from aumcf.cli import main

from conftest import BAD_SCENARIO_FIELDS, make_arm, random_study, subject_rows

TOY_CSV = """id,time,status,arm
s1,2,1,1
s1,5,1,1
s1,10,2,1
s2,3,1,1
s2,8,0,1
s3,12,0,1
t1,2,1,2
t1,5,1,2
t1,10,2,2
t2,3,1,2
t2,8,0,2
t3,12,0,2
"""


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY_CSV)
    return str(path)


@pytest.fixture
def runner():
    return CliRunner()


def test_estimate_toy_value(runner, toy_csv):
    result = runner.invoke(main, ["estimate", toy_csv, "--tau", "12"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["arms"][0]["theta"] == pytest.approx(26 / 3)
    assert "input_sha256" in report["provenance"]
    assert report["provenance"]["s_convention"] == "left"


def test_estimate_single_arm(runner, tmp_path):
    path = tmp_path / "one.csv"
    lines = [l for l in TOY_CSV.splitlines() if l.endswith(",1") or l == "id,time,status,arm"]
    path.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["estimate", str(path), "--tau", "12"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert len(report["arms"]) == 1
    assert report["arms"][0]["theta"] == pytest.approx(26 / 3)


def test_curves_single_arm(runner, tmp_path):
    path = tmp_path / "one.csv"
    lines = [l for l in TOY_CSV.splitlines() if l.endswith(",1") or l == "id,time,status,arm"]
    path.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["curves", str(path), "--tau", "12"])
    assert result.exit_code == 0
    assert not any(l.startswith("2,") for l in result.output.splitlines())


def test_compare_requires_both_arms(runner, tmp_path):
    path = tmp_path / "one.csv"
    lines = [l for l in TOY_CSV.splitlines() if l.endswith(",1") or l == "id,time,status,arm"]
    path.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["compare", str(path), "--tau", "12"])
    assert result.exit_code == 2


def test_estimate_no_events(runner, tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("id,time,status,arm\na,5,0,1\nb,5,0,2\n")
    result = runner.invoke(main, ["estimate", str(path), "--tau", "5"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert all(a["theta"] == 0.0 for a in report["arms"])


def test_estimate_strict_tau_exit_code(runner, toy_csv):
    result = runner.invoke(main, ["estimate", toy_csv, "--tau", "99", "--strict-tau"])
    assert result.exit_code == 2
    err = json.loads(result.output.strip().splitlines()[-1])
    assert err["error"]["code"] == 2


def test_compare_mirrored_arms(runner, toy_csv):
    result = runner.invoke(main, ["compare", toy_csv, "--tau", "12"])
    assert result.exit_code == 0
    res = json.loads(result.output)["result"]
    assert res["point"] == 0.0 and res["p_value"] == 1.0


def test_compare_shifted_toy_point(runner, tmp_path):
    rows = TOY_CSV.splitlines()
    shifted = [rows[0]]
    for line in rows[1:]:
        sid, t, status, arm = line.split(",")
        if arm == "2" and status == "1":
            t = str(float(t) + 1)
        shifted.append(",".join([sid, t, status, arm]))
    path = tmp_path / "shifted.csv"
    path.write_text("\n".join(shifted) + "\n")
    result = runner.invoke(main, ["compare", str(path), "--tau", "12"])
    assert result.exit_code == 0
    res = json.loads(result.output)["result"]
    assert res["point"] == pytest.approx(1.0)


def test_compare_ratio(runner, toy_csv):
    result = runner.invoke(main, ["compare", toy_csv, "--tau", "12",
                                  "--contrast", "ratio"])
    assert result.exit_code == 0
    res = json.loads(result.output)["result"]
    assert res["kind"] == "ratio" and res["point"] == 1.0


def test_compare_constant_covariate_singularity(runner, tmp_path, rng):
    study = random_study(rng, n=10, n_cov=1)
    # overwrite w1 with a constant
    buf = io.StringIO()
    write_records_csv(study, buf)
    lines = buf.getvalue().splitlines()
    fixed = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        parts[-1] = "1.0"
        fixed.append(",".join(parts))
    path = tmp_path / "const.csv"
    path.write_text("\n".join(fixed) + "\n")
    result = runner.invoke(main, ["compare", str(path), "--tau", "2",
                                  "--covariates", "w1"])
    assert result.exit_code == 3


def test_compare_augmented_reports_both(runner, tmp_path, rng):
    study = random_study(rng, n=25, n_cov=1)
    path = tmp_path / "cov.csv"
    with open(path, "w") as fh:
        write_records_csv(study, fh)
    result = runner.invoke(main, ["compare", str(path), "--tau", "2",
                                  "--covariates", "w1"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert "adjusted" in report and "unadjusted" in report
    assert report["relative_efficiency"] >= 1.0


def test_compare_unknown_covariate_config_error(runner, toy_csv):
    result = runner.invoke(main, ["compare", toy_csv, "--tau", "12",
                                  "--covariates", "nope"])
    assert result.exit_code == 4


@pytest.mark.parametrize("spec", [",", " , ,"])
def test_compare_empty_covariate_list_exits_4(runner, toy_csv, spec):
    result = runner.invoke(main, ["compare", toy_csv, "--tau", "12", "--covariates", spec])
    assert result.exit_code == 4 and result.stdout == ""
    assert json.loads(result.stderr) == {"error": {
        "code": 4, "type": "ConfigError", "message": "empty covariate list"}}


def test_curves_toy_rows(runner, toy_csv):
    result = runner.invoke(main, ["curves", toy_csv, "--tau", "12"])
    assert result.exit_code == 0
    lines = [l for l in result.output.splitlines() if not l.startswith("#")]
    assert lines[0] == "arm,curve,time,value"
    mcf1 = [l.split(",") for l in lines[1:] if l.startswith("1,mcf")]
    times = [float(r[2]) for r in mcf1]
    vals = [float(r[3]) for r in mcf1]
    assert times == [0.0, 2.0, 3.0, 5.0, 12.0]
    assert vals == pytest.approx([0, 1/3, 2/3, 1, 1])
    km_vals = [float(l.split(",")[3]) for l in lines[1:] if ",km," in l]
    # km rows non-increasing within each arm (two arms concatenated)
    half = len(km_vals) // 2
    for arm_vals in (km_vals[:half], km_vals[half:]):
        assert all(a >= b for a, b in zip(arm_vals, arm_vals[1:]))


def test_curves_no_event_arm(runner, tmp_path):
    path = tmp_path / "none.csv"
    path.write_text("id,time,status,arm\na,5,0,1\nb,5,0,2\n")
    result = runner.invoke(main, ["curves", str(path), "--tau", "5"])
    lines = [l for l in result.output.splitlines() if l.startswith("1,mcf")]
    assert lines == ["1,mcf,0.0,0.0", "1,mcf,5.0,0.0"]


def test_cli_output_byte_identical(runner, toy_csv):
    a = runner.invoke(main, ["compare", toy_csv, "--tau", "12"]).output
    b = runner.invoke(main, ["compare", toy_csv, "--tau", "12"]).output
    assert a == b


def test_simulate_smoke_and_determinism(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "icr", "n_per_arm": 25,
                               "replicates": 2, "seed": 7, "tau": 1.0}))
    args = ["simulate", str(cfg), "--truth", "0"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.exit_code == 0 and a.output == b.output
    report = json.loads(a.output)
    assert report["rows"][0]["replicates"] == 2
    assert report["provenance"]["config_sha256"]
    assert report["provenance"]["stream_version"] == 2


def test_simulate_unknown_kind_config_error(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"kind": "bogus"}))
    result = runner.invoke(main, ["simulate", str(cfg), "--truth", "0"])
    assert result.exit_code == 4


def test_simulate_writes_out_file(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "icr", "n_per_arm": 20,
                               "replicates": 2, "seed": 7, "tau": 1.0}))
    out = tmp_path / "oc.csv"
    result = runner.invoke(main, ["simulate", str(cfg), "--truth", "0",
                                  "--format", "csv", "--out", str(out)])
    assert result.exit_code == 0
    text = out.read_text()
    assert text.startswith("#") and "rejection_rate" in text


@pytest.mark.parametrize("field,value,message", [
    case for case in BAD_SCENARIO_FIELDS if case[:2] != ("frailty_variance", 1e-320)
])
def test_bad_scenario_field_exits_4(runner, tmp_path, field, value, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "icr", "n_per_arm": 20, "replicates": 2,
                               "seed": 7, "tau": 1.0, field: value}))
    result = runner.invoke(main, ["simulate", str(cfg), "--truth", "0"])
    assert result.exit_code == 4 and result.stdout == ""
    assert json.loads(result.stderr) == {"error": {
        "code": 4, "type": "ConfigError", "message": f"bad scenario config: {message}"}}


@pytest.mark.parametrize("rate", [1e9, 1e300])
def test_too_many_events_exits_4(runner, tmp_path, rate):
    # 1e9 used to loop event by event forever; 1e300 is past numpy's Poisson
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "icr", "n_per_arm": 2, "replicates": 1,
                               "lambda_event": [rate, rate], "tau": 1.0}))
    result = runner.invoke(main, ["simulate", str(cfg), "--truth", "0"])
    assert result.exit_code == 4 and result.stdout == ""
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "ConfigError"
    assert re.fullmatch(r"bad scenario config: arm 1: \S+ expected events, "
                        r"more than the 10000000 one arm may hold", error["message"])


@pytest.mark.parametrize("name,fields", [
    ("event_log_effect", {"event_log_effect": 1000}),
    ("death_log_effect", {"death_log_effect": 1000, "lambda_death": [0, 0]}),
])
def test_overflowing_log_effect_exits_4(runner, tmp_path, name, fields):
    # both were reported as "nan expected events"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "icr", "n_per_arm": 20, "replicates": 1,
                               "covariate_mode": "informative", **fields}))
    result = runner.invoke(main, ["simulate", str(cfg), "--truth", "0"])
    assert result.exit_code == 4 and result.stdout == ""
    assert json.loads(result.stderr)["error"] == {
        "code": 4, "type": "ConfigError",
        "message": f"bad scenario config: arm 1: {name} 1000 makes exp(w * effect) "
                   "overflow for a drawn covariate w"}


@pytest.mark.parametrize("flag", ["--oracle-n", "--oracle-reps"])
def test_oracle_size_zero_exits_4(runner, tmp_path, flag):
    # --oracle-n 0 used to exit 1 with a traceback, --oracle-reps 0 exit 3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "icr", "n_per_arm": 5, "replicates": 1}))
    result = runner.invoke(main, ["simulate", str(cfg), "--oracle-n", "5",
                                  "--oracle-reps", "1", flag, "0"])
    assert result.exit_code == 4 and result.stdout == ""
    assert json.loads(result.stderr)["error"]["message"] == (
        "bad scenario config: n_per_arm and replicates must be positive")


@pytest.mark.parametrize("command", ["estimate", "compare"])
@pytest.mark.parametrize("tau,code", [("12", 0), ("13", 2)])
def test_strict_tau_boundary(runner, toy_csv, command, tau, code):
    # max follow-up is 12 in both arms: identifiable at tau = 12, not past it
    result = runner.invoke(main, [command, toy_csv, "--tau", tau, "--strict-tau"])
    assert result.exit_code == code
    if code:
        assert result.stdout == "" and json.loads(result.stderr) == {"error": {
            "code": 2, "type": "TruncationError",
            "message": "arm 1: max follow-up 12 < tau=13; MCF is not identifiable up to tau; "
                       "arm 2: max follow-up 12 < tau=13; MCF is not identifiable up to tau"}}
    else:
        assert json.loads(result.stdout) == json.loads(
            runner.invoke(main, [command, toy_csv, "--tau", tau]).stdout)


def test_error_paths_leave_no_partial_output(runner, toy_csv, tmp_path):
    out = tmp_path / "never.json"
    result = runner.invoke(main, ["estimate", toy_csv, "--tau", "99",
                                  "--strict-tau", "--out", str(out)])
    assert result.exit_code == 2
    assert not out.exists()


@pytest.mark.parametrize("row,match", [
    ("a,abc,0,1", "line 3: bad time 'abc'"),
    ("a,1.0,0,x", "line 3: bad arm 'x'"),
    ("a,1.0,0", "line 3: expected 4 fields, got 3"),
])
@pytest.mark.parametrize("command", ["estimate", "compare", "curves"])
def test_csv_field_error_exits_2_with_line(runner, tmp_path, command, row, match):
    path = tmp_path / "bad.csv"
    path.write_text(f"id,time,status,arm\nz,1.0,0,2\n{row}\n")
    result = runner.invoke(main, [command, str(path), "--tau", "1"])
    assert result.exit_code == 2
    err = json.loads(result.output.strip().splitlines()[-1])["error"]
    assert err["code"] == 2 and err["type"] == "ValidationError"
    assert match in err["message"]


@pytest.mark.parametrize("command,tau", [
    ("estimate", "-1"), ("curves", "-1"), ("estimate", "inf"), ("compare", "nan"),
])
def test_bad_tau_exits_2(runner, toy_csv, command, tau):
    result = runner.invoke(main, [command, toy_csv, "--tau", tau])
    assert result.exit_code == 2
    err = json.loads(result.output.strip().splitlines()[-1])["error"]
    assert err == {"code": 2, "type": "ValidationError",
                   "message": "tau must be positive and finite"}


def test_covariate_subset_matches_object_path(runner, tmp_path, rng):
    from aumcf import StudyDataset, augmented_contrast
    from aumcf.cli import _subset_covariates

    study = random_study(rng, n=40, n_cov=3)
    sub = _subset_covariates(study, ("w3", "w1"))
    arms = [
        make_arm(arm.arm, [(*row[:5], (row[5][2], row[5][0])) for row in subject_rows(arm)])
        for arm in study.arms()
    ]
    ref = StudyDataset(arms[0], arms[1], study.tau, covariate_names=("w3", "w1"))
    assert sub == ref
    for arm in sub.arms():
        assert arm.covariates.flags.c_contiguous and not arm.covariates.flags.writeable
    assert augmented_contrast(sub).to_dict() == augmented_contrast(ref).to_dict()


@pytest.mark.parametrize("command", ["estimate", "compare", "curves"])
def test_non_utf8_input_exits_2(runner, tmp_path, command):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"id,time,status,arm\n\xff,1,0,1\nb,1,0,2\n")
    result = runner.invoke(main, [command, str(path), "--tau", "1"])
    assert result.exit_code == 2
    assert result.stdout == ""
    err = json.loads(result.stderr)["error"]
    assert err == {"code": 2, "type": "ValidationError",
                   "message": "input is not UTF-8: byte 0xff at offset 19"}


def _zero_reps_result(runner, tmp_path, config, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict({"kind": "icr", "n_per_arm": 20, "seed": 7,
                                    "tau": 1.0}, **config)))
    return runner.invoke(main, ["simulate", str(cfg), "--truth", "0"] + flags)


def test_simulate_zero_reps_flag_is_config_error(runner, tmp_path):
    result = _zero_reps_result(runner, tmp_path, {"replicates": 2}, ["--reps", "0"])
    assert result.exit_code == 4
    assert json.loads(result.stderr)["error"]["type"] == "ConfigError"


def test_simulate_zero_reps_in_config_is_config_error(runner, tmp_path):
    result = _zero_reps_result(runner, tmp_path, {"replicates": 0}, [])
    assert result.exit_code == 4
    assert json.loads(result.stderr)["error"]["type"] == "ConfigError"


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


NO_EVENTS_CSV = "id,time,status,arm,w1\na,2,0,1,0.5\nb,3,0,1,1.5\nc,2,0,1,-1\n" \
                "d,2,0,2,0.1\ne,3,0,2,0.7\nf,4,0,2,2\n"


def test_compare_no_events_relative_efficiency_null(runner, tmp_path):
    path = tmp_path / "noev.csv"
    path.write_text(NO_EVENTS_CSV)
    args = ["compare", str(path), "--tau", "1", "--covariates", "w1"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    report = _strict_json(result.stdout)
    assert report["relative_efficiency"] is None
    assert report["adjusted"]["degenerate"] is True
    # the CSV comment line still states the value
    result = runner.invoke(main, args + ["--format", "csv"])
    assert result.exit_code == 0
    assert "# relative_efficiency=inf\n" in result.stdout


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("args", [["estimate"], ["compare"],
                                  ["compare", "--contrast", "ratio"]])
def test_non_finite_result_exits_3(runner, toy_csv, args, fmt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow must not warn
        result = runner.invoke(main, args + [toy_csv, "--tau", "1e308", "--format", fmt])
    assert result.exit_code == 3
    assert result.stdout == ""
    err = _strict_json(result.stderr)["error"]
    assert err["code"] == 3


@pytest.mark.parametrize("args", [["estimate"], ["compare"],
                                  ["compare", "--contrast", "ratio"]])
def test_huge_tau_stderr_is_one_error_record(toy_csv, args):
    # a fresh interpreter, so that numpy warnings would reach stderr
    env = dict(os.environ, PYTHONPATH=str(Path(aumcf.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "aumcf.cli", *args, toy_csv, "--tau", "1e308"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 3 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    err = _strict_json(lines[0])["error"]
    assert err["code"] == 3
    if "ratio" in args:
        assert err["type"] == "OverflowError" and "ratio CI" in err["message"]


def test_line_endings_read_alike(runner, tmp_path, rng):
    # LF, CRLF and bare CR files of one study: one report, as from a path
    buf = io.StringIO()
    write_records_csv(random_study(rng, n=15, n_cov=1, n_types=2), buf)
    crlf = buf.getvalue()
    assert "\r\n" in crlf
    outs = []
    for name, text in (("lf", crlf.replace("\r\n", "\n")), ("crlf", crlf),
                       ("cr", crlf.replace("\r\n", "\r"))):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode())
        result = runner.invoke(main, ["compare", str(path), "--tau", "3"])
        assert result.exit_code == 0, result.output
        report = _strict_json(result.stdout)
        del report["provenance"]["input_sha256"]
        outs.append(report)
    assert outs[0] == outs[1] == outs[2]


TYPED_CSV = "id,time,status,arm,event_type\na,1,1,1,1\na,2,1,1,2\na,3,0,1,\n" \
            "b,1.5,1,2,1\nb,3,0,2,\n"


def test_id_in_both_arms_is_two_subjects(runner, tmp_path):
    # ids are scoped by arm: "a" of arm 1 and "a" of arm 2 are two subjects
    path = tmp_path / "both.csv"
    path.write_text("id,time,status,arm\na,1,1,1\na,2,2,1\nb,3,0,1\n"
                    "a,0.5,1,2\na,3,0,2\n")
    result = runner.invoke(main, ["estimate", str(path), "--tau", "3"])
    assert result.exit_code == 0, result.output
    arms = _strict_json(result.stdout)["arms"]
    assert [(a["arm"], a["n"], a["theta"]) for a in arms] == [(1, 2, 1.0), (2, 1, 2.5)]


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "-1", "0"])
def test_bad_weight_exits_4(runner, tmp_path, weight):
    path = tmp_path / "ty.csv"
    path.write_text(TYPED_CSV)
    result = runner.invoke(main, ["compare", str(path), "--tau", "1",
                                  "--weights", f"1={weight},2=1"])
    assert result.exit_code == 4
    assert result.stdout == ""
    err = json.loads(result.stderr)["error"]
    assert err == {"code": 4, "type": "ConfigError",
                   "message": "event-type weights must be positive and finite"}


@pytest.mark.parametrize("alpha", ["1e-320", "1e-17", "0", "1", "nan"])
@pytest.mark.parametrize("command", ["estimate", "compare"])
def test_bad_alpha_exits_4(runner, toy_csv, command, alpha):
    result = runner.invoke(main, [command, toy_csv, "--tau", "12", "--alpha", alpha])
    assert result.exit_code == 4
    err = json.loads(result.stderr)["error"]
    assert err["type"] == "ConfigError" and "alpha must be in" in err["message"]


def test_simulate_bad_alpha_exits_4(runner, tmp_path):
    result = _zero_reps_result(runner, tmp_path, {"replicates": 2}, ["--alpha", "1e-320"])
    assert result.exit_code == 4
    assert json.loads(result.stderr)["error"]["type"] == "ConfigError"


def test_curves_build_each_km_once(runner, toy_csv, monkeypatch):
    import aumcf.cli
    import aumcf.estimation

    calls = []
    real = aumcf.estimation.km_survival

    def counted(arm):
        calls.append(arm.arm)
        return real(arm)

    for module in (aumcf.cli, aumcf.estimation):
        monkeypatch.setattr(module, "km_survival", counted)
    result = runner.invoke(main, ["curves", toy_csv, "--tau", "12"])
    assert result.exit_code == 0
    assert calls == [1, 2]


def test_compare_covariates_builds_no_extra_arm(runner, tmp_path, rng, monkeypatch):
    import aumcf.core

    path = tmp_path / "cov.csv"
    with open(path, "w") as fh:
        write_records_csv(random_study(rng, n=20, n_cov=2), fh)
    built = []
    real = aumcf.core.ArmDataset.__init__

    def counted(self, arm, *args):
        built.append(arm)
        real(self, arm, *args)

    monkeypatch.setattr(aumcf.core.ArmDataset, "__init__", counted)
    result = runner.invoke(main, ["compare", str(path), "--tau", "2", "--covariates", "w2,w1"])
    assert result.exit_code == 0
    assert built == [1, 2]  # the CSV read's two arms; subsetting builds none
