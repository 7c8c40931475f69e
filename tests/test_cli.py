import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import aumcf
from aumcf import StudyDataset, write_records_csv
from aumcf.cli import main
from aumcf.simulation import COVARIATE_MODES, SCENARIO_KINDS

from conftest import (
    BAD_SCENARIO_FIELDS, make_arm, near_collinear_study, random_study, subject_rows,
)

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


def test_compare_unknown_covariates_are_all_named(runner, tmp_path, rng):
    path = tmp_path / "cov.csv"
    with open(path, "w") as fh:
        write_records_csv(random_study(rng, n=5, n_cov=1), fh)
    result = runner.invoke(main, ["compare", str(path), "--tau", "1",
                                  "--covariates", "nope,w1,zz"])
    assert result.exit_code == 4 and result.stdout == ""
    assert json.loads(result.stderr) == {"error": {
        "code": 4, "type": "ConfigError",
        "message": "unknown covariate columns ['nope', 'zz']; available: ['w1']"}}


@pytest.mark.parametrize("spec", [",", " , ,", ""])
def test_compare_empty_covariate_list_exits_4(runner, toy_csv, spec):
    result = runner.invoke(main, ["compare", toy_csv, "--tau", "12", "--covariates", spec])
    assert result.exit_code == 4 and result.stdout == ""
    assert json.loads(result.stderr) == {"error": {
        "code": 4, "type": "ConfigError", "message": "empty covariate list"}}


@pytest.mark.parametrize("spec", ["", " "])
def test_compare_empty_weight_specification_exits_4(runner, toy_csv, spec):
    result = runner.invoke(main, ["compare", toy_csv, "--tau", "12", "--weights", spec])
    assert result.exit_code == 4 and result.stdout == ""
    assert json.loads(result.stderr) == {"error": {
        "code": 4, "type": "ConfigError", "message": "empty weight specification"}}


@pytest.mark.parametrize("flag", ["--covariates", "--weights"])
def test_compare_empty_flag_under_ratio_exits_4(runner, toy_csv, flag):
    # an empty value is given, not absent: it never falls back to the plain ratio
    result = runner.invoke(main, ["compare", toy_csv, "--tau", "12", "--contrast", "ratio",
                                  flag, ""])
    assert result.exit_code == 4 and result.stdout == ""
    assert json.loads(result.stderr)["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("args,message", [
    (["estimate", "-", "--tau", "abc"], "Invalid value for '--tau'"),
    (["estimate", "-", "--tau", "1", "--format", "xml"], "Invalid value for '--format'"),
    (["compare", "-", "--tau", "1", "--bogus"], "No such option"),
    (["curves", "-"], "Missing option '--tau'"),
    (["compare", "-", "--tau", "1", "--weights", "1:2"],
     "bad weight entry '1:2'; expected type=weight"),
    (["compare", "-", "--tau", "1", "--weights", "x=1"], "bad weight entry 'x=1'"),
    (["compare", "-", "--tau", "1", "--weights", "1=y"], "bad weight entry '1=y'"),
    # not the last weight winning silently
    (["compare", "-", "--tau", "1", "--weights", "0=1,0=5"], "--weights repeats the event type 0"),
    (["compare", "-", "--tau", "1", "--weights", "01=1,1=2"], "--weights repeats the event type 1"),
    # not a singular covariate covariance (exit 3)
    (["compare", "-", "--tau", "1", "--covariates", "w1, w1"],
     "--covariates repeats the name 'w1'"),
], ids=["bad float", "bad choice", "unknown option", "missing option",
        "weight entry without =", "weight entry with a bad type", "weight entry with a bad weight",
        "repeated event type", "repeated event type after int()", "repeated covariate"])
def test_flag_errors_exit_4_with_a_record(runner, args, message):
    result = runner.invoke(main, args, input=TOY_CSV)
    assert result.exit_code == 4 and result.stdout == ""
    assert result.stderr.count("\n") == 1
    err = json.loads(result.stderr)["error"]
    assert err["code"] == 4 and err["type"] == "ConfigError"
    assert err["message"].startswith(message)


@pytest.mark.parametrize("args", [["--help"], ["--version"], ["compare", "--help"]])
def test_help_and_version_exit_0(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0 and result.stdout and result.stderr == ""


def test_bare_aumcf_prints_the_help_and_exits_0(runner):
    result = runner.invoke(main, [])
    assert result.exit_code == 0 and result.stdout.startswith("Usage:")
    assert result.stderr == ""


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


def test_simulate_seed_flag_is_the_config_seed(runner, tmp_path):
    fields = {"kind": "icr", "n_per_arm": 20, "replicates": 2, "tau": 1.0}
    reports = []
    for name, config, flags in (("flag", fields, ["--seed", "11"]),
                                ("config", dict(fields, seed=11), [])):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, ["simulate", str(cfg), "--truth", "0", *flags])
        assert result.exit_code == 0, result.stderr
        reports.append(_strict_json(result.stdout))
        del reports[-1]["provenance"]["config_sha256"]
    assert reports[0] == reports[1] and reports[0]["provenance"]["seed"] == 11


def test_simulate_unknown_kind_config_error(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"kind": "bogus"}))
    result = runner.invoke(main, ["simulate", str(cfg), "--truth", "0"])
    assert result.exit_code == 4


def test_simulate_writes_out_file(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "icr", "covariate_mode": "uninformative",
                               "n_per_arm": 20, "replicates": 2, "seed": 7, "tau": 1.0}))
    out = tmp_path / "oc.csv"
    result = runner.invoke(main, ["simulate", str(cfg), "--truth", "0",
                                  "--format", "csv", "--out", str(out)])
    assert result.exit_code == 0
    text = out.read_text()
    assert text.startswith("#")
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert lines[0] == ("method,replicates,true_value,bias,ese,ase,rejection_rate,coverage,"
                        "mcse_bias,mcse_rejection,mcse_coverage")
    assert [line.split(",")[0] for line in lines[1:]] == ["unadjusted", "adjusted"]


_CONTRAST_HEADER = ("kind,tau,theta1,se1,theta2,se2,point,se,ci_lower,ci_upper,p_value,"
                    "n1,n2,alpha")


@pytest.mark.parametrize("args,header", [
    (["estimate", "--format", "csv"], "arm,n,theta,se,ci_lower,ci_upper"),
    (["curves"], "arm,curve,time,value"),
    (["compare", "--format", "csv"], _CONTRAST_HEADER),
    (["compare", "--format", "csv", "--covariates", "w1"], "method," + _CONTRAST_HEADER),
], ids=["estimate", "curves", "compare", "compare-covariates"])
def test_csv_report_headers_are_pinned(runner, tmp_path, rng, args, header):
    path = tmp_path / "in.csv"
    with open(path, "w") as fh:
        write_records_csv(random_study(rng, n=20, n_cov=1), fh)
    result = runner.invoke(main, [args[0], str(path), "--tau", "2", *args[1:]])
    assert result.exit_code == 0, result.stderr
    lines = [line for line in result.stdout.splitlines() if not line.startswith("#")]
    assert lines[0] == header


def test_cli_import_leaves_the_lazy_modules_unloaded():
    # each is imported only where it is used, to keep start-up short
    lazy = ("numpy.polynomial", "concurrent.futures", "multiprocessing")
    code = f"import sys, aumcf.cli; print([m for m in {lazy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(Path(aumcf.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


def test_simulate_truth_is_exact_or_given(runner, tmp_path, monkeypatch):
    fields = {"kind": "frailty", "covariate_mode": "informative", "n_per_arm": 20,
              "replicates": 3, "seed": 7, "tau": 2.0, "lambda_event": [1.0, 1.5]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    calls = []
    real = aumcf.simulation.generate_dataset

    def counted(config, replicate):
        calls.append(replicate)
        return real(config, replicate)

    monkeypatch.setattr(aumcf.simulation, "generate_dataset", counted)
    result = runner.invoke(main, ["simulate", str(cfg)])
    assert result.exit_code == 0, result.stderr
    report = _strict_json(result.stdout)
    want = aumcf.true_value_oracle(aumcf.ScenarioConfig.from_dict(fields)).delta
    assert [r["true_value"] for r in report["rows"]] == [want, want]
    assert report["provenance"]["truth"] == "exact"
    assert calls == [0, 1, 2]  # the replicates' datasets and nothing else
    result = runner.invoke(main, ["simulate", str(cfg), "--truth", "0.25"])
    report = _strict_json(result.stdout)
    assert [r["true_value"] for r in report["rows"]] == [0.25, 0.25]
    assert report["provenance"]["truth"] == "given"


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

    study = random_study(rng, n=40, n_cov=3)
    sub = study.select_covariates(("w3", "w1"))
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


def test_byte_order_mark_is_dropped(runner, tmp_path):
    # Excel's "CSV UTF-8" starts the file with a UTF-8 byte-order mark
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(TOY_CSV)
    bom.write_bytes(b"\xef\xbb\xbf" + TOY_CSV.encode())
    assert aumcf.read_study_csv(str(bom), 12.0) == aumcf.read_study_csv(str(plain), 12.0)
    results = [runner.invoke(main, ["compare", str(p), "--tau", "12"]) for p in (plain, bom)]
    assert [r.exit_code for r in results] == [0, 0]
    reports = [json.loads(r.stdout) for r in results]
    # the hash is that of the bytes as given, the mark included
    digests = [report["provenance"].pop("input_sha256") for report in reports]
    assert digests[0] != digests[1]
    assert reports[0] == reports[1]


def test_r_quoted_csv_reads_as_the_plain_file(runner, tmp_path):
    # R's write.csv quotes the header and every id
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    plain.write_text(TOY_CSV)
    header, *rows = TOY_CSV.splitlines()
    quoted.write_text("\n".join([",".join(f'"{name}"' for name in header.split(",")),
                                 *('"{}",{}'.format(*row.split(",", 1)) for row in rows)]) + "\n")
    results = [runner.invoke(main, ["compare", str(p), "--tau", "12"]) for p in (plain, quoted)]
    assert [r.exit_code for r in results] == [0, 0]
    reports = [json.loads(r.stdout) for r in results]
    for report in reports:
        del report["provenance"]["input_sha256"]
    assert reports[0] == reports[1]


def test_bad_byte_after_a_byte_order_mark_names_its_file_offset(runner, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\xef\xbb\xbfab\xff")
    result = runner.invoke(main, ["estimate", str(path), "--tau", "1"])
    assert result.exit_code == 2 and result.stdout == ""
    assert json.loads(result.stderr)["error"]["message"] == (
        "input is not UTF-8: byte 0xff at offset 5")


@pytest.mark.parametrize("read", [aumcf.read_arms_csv, lambda src: aumcf.read_study_csv(src, 1.0)],
                         ids=["read_arms_csv", "read_study_csv"])
def test_library_reader_decodes_a_path_or_bytes_as_the_cli_does(tmp_path, read):
    # the same ValidationError as the CLI's exit 2, by the offset in the
    # file, the byte-order mark counted
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\xef\xbb\xbfid,time,status,arm\n\xff,1,0,1\nb,1,0,2\n")
    for source in (str(path), path, path.read_bytes()):
        with pytest.raises(aumcf.ValidationError) as info:
            read(source)
        assert str(info.value) == "input is not UTF-8: byte 0xff at offset 22"
    path.write_bytes(b"\xef\xbb\xbf" + TOY_CSV.encode())
    assert read(path.read_bytes()) == read(str(path)) == read(io.StringIO(TOY_CSV))


@pytest.mark.parametrize("header,name", [
    ("id,time,status,arm,w1,w1", "w1"), ("id,time,status,arm,time", "time"),
])
@pytest.mark.parametrize("command", ["estimate", "compare"])
def test_repeated_header_name_exits_2(runner, tmp_path, command, header, name):
    # a second time column must not silently replace the follow-up times
    path = tmp_path / "twice.csv"
    extra = ",2" * (header.count(",") - 3)
    path.write_text(header + "\n" + "".join(f"{row}{extra}\n" for row in (
        "a,1,1,1", "a,2,2,1", "b,0.5,1,2", "b,3,0,2")))
    result = runner.invoke(main, [command, str(path), "--tau", "1"])
    assert result.exit_code == 2 and result.stdout == ""
    assert json.loads(result.stderr) == {"error": {
        "code": 2, "type": "ValidationError",
        "message": f"CSV header repeats the column name {name!r}"}}


def test_paths_read_as_utf8_under_an_ascii_locale(tmp_path):
    # the library opens a path as UTF-8, as the CLI decodes its input,
    # whatever encoding the locale prefers (ASCII for C on Linux)
    path = tmp_path / "utf8.csv"
    path.write_bytes("id,time,status,arm\n\u00e9,1,0,1\nb,1,0,2\n".encode())
    env = dict(os.environ, PYTHONPATH=str(Path(aumcf.__file__).parents[1]),
               LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    env.pop("PYTHONIOENCODING", None)
    code = ("import aumcf; print(ascii("
            f"aumcf.read_study_csv({str(path)!r}, 1.0).arm1.subject_ids.tolist()))")
    lib = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert lib.returncode == 0 and lib.stdout == "['\\xe9']\n", lib.stderr
    cli = subprocess.run([sys.executable, "-m", "aumcf.cli", "estimate", str(path), "--tau", "1"],
                         capture_output=True, text=True, env=env)
    assert cli.returncode == 0 and cli.stderr == ""


def _zero_reps_result(runner, tmp_path, config, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict({"kind": "icr", "n_per_arm": 20, "seed": 7,
                                    "tau": 1.0}, **config)))
    return runner.invoke(main, ["simulate", str(cfg), "--truth", "0"] + flags)


def test_simulate_zero_reps_flag_is_config_error(runner, tmp_path):
    result = _zero_reps_result(runner, tmp_path, {"replicates": 2}, ["--reps", "0"])
    assert result.exit_code == 4
    assert json.loads(result.stderr)["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_simulate_jobs_below_1_is_config_error(runner, tmp_path, jobs):
    result = _zero_reps_result(runner, tmp_path, {"replicates": 2}, ["--jobs", jobs])
    assert result.exit_code == 4 and result.stdout == ""
    err = json.loads(result.stderr)["error"]
    assert err["type"] == "ConfigError" and "--jobs" in err["message"]


def test_simulate_zero_reps_in_config_is_config_error(runner, tmp_path):
    result = _zero_reps_result(runner, tmp_path, {"replicates": 0}, [])
    assert result.exit_code == 4
    assert json.loads(result.stderr)["error"]["type"] == "ConfigError"


# config files that json cannot parse but that are not malformed JSON
_UNREADABLE_CONFIGS = {
    "not-utf8": (b"\xff{}", "bad scenario config: not UTF-8: byte 0xff at offset 0"),
    "nested-100000-deep": (b"[" * 100_000, "bad scenario config: maximum recursion depth"),
    "5000-digit-int": (b'{"replicates": 1, "seed": ' + b"9" * 5000 + b"}",
                       "bad scenario config: Exceeds the limit (4300 digits)"),
}


@pytest.mark.parametrize("raw,message", _UNREADABLE_CONFIGS.values(),
                         ids=_UNREADABLE_CONFIGS.keys())
def test_simulate_unreadable_config_is_one_config_error(runner, tmp_path, raw, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(raw)
    result = runner.invoke(main, ["simulate", str(cfg)])
    assert result.exit_code == 4 and result.stdout == ""
    assert result.stderr.count("\n") == 1
    err = json.loads(result.stderr)["error"]
    assert err["type"] == "ConfigError" and err["message"].startswith(message)


def test_simulate_malformed_json_keeps_its_record(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 1,}')
    result = runner.invoke(main, ["simulate", str(cfg)])
    assert result.exit_code == 4 and result.stdout == ""
    assert result.stderr == (
        '{"error": {"code": 4, "message": "Expecting property name enclosed in double quotes: '
        'line 1 column 12 (char 11)", "type": "JSONDecodeError"}}\n'
    )


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


def test_nearly_collinear_covariate_keeps_stderr_empty(tmp_path, rng):
    # the covariate explains the influence values to 1e-11, so the adjusted
    # variance is far below the round-off of the unadjusted one; a fresh
    # interpreter, so that any Python or numpy warning would reach stderr
    path = tmp_path / "cov.csv"
    with open(path, "w") as fh:
        write_records_csv(near_collinear_study(rng, 1e-11), fh)
    env = dict(os.environ, PYTHONPATH=str(Path(aumcf.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "aumcf.cli", "compare", str(path), "--tau", "2",
                           "--covariates", "w1"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stderr == ""
    report = _strict_json(proc.stdout)
    assert 0 < report["adjusted"]["se"] < 1e-9 * report["unadjusted"]["se"]
    assert "variance_clamped" not in report


@pytest.mark.parametrize("tau", ["1e-300", "1e-160"])
def test_ratio_at_tiny_tau(runner, tau):
    # theta**2 underflows here; the log-scale SE comes from psi / theta
    csv = "id,time,status,arm\na,0,1,1\na,2,0,1\nb,1,2,1\nc,0,1,2\nc,2,0,2\nd,1,2,2\n"
    result = runner.invoke(main, ["compare", "-", "--tau", tau, "--contrast", "ratio"],
                           input=csv)
    assert result.exit_code == 0, result.stderr
    res = _strict_json(result.stdout)["result"]
    assert res["point"] == 1.0 and res["se"] == 1.0 and not res["degenerate"]


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


# 6 subjects with events of types 0, 1 and 2 in both arms
TYPES3_CSV = "id,time,status,arm,event_type\na,0.5,1,1,0\na,0.8,1,1,2\na,2,2,1,\n" \
             "b,0.3,1,1,1\nb,1.5,0,1,\nc,1,0,1,\nd,0.2,1,2,1\nd,0.9,1,2,2\nd,1.2,2,2,\n" \
             "e,0.6,1,2,0\ne,3,0,2,\nf,0.4,2,2,\n"


def _result(runner, args):
    result = runner.invoke(main, args, input=TYPES3_CSV)
    assert result.exit_code == 0, result.stderr
    return _strict_json(result.stdout)


@pytest.mark.parametrize("spec", [",", " , ", "trailing comma"])
@pytest.mark.parametrize("flag,entries,empty", [
    ("--covariates", "w2,w1", "empty covariate list"),
    ("--weights", "0=1,1=2,2=1", "empty weight specification"),
])
def test_blank_comma_list_entries_are_skipped(runner, tmp_path, rng, flag, entries, empty, spec):
    # one rule for both flags: a blank entry is skipped; a list with none left is an error
    path = tmp_path / "in.csv"
    if flag == "--covariates":
        with open(path, "w") as fh:
            write_records_csv(random_study(rng, n=20, n_cov=2), fh)
    else:
        path.write_text(TYPES3_CSV)
    args = ["compare", str(path), "--tau", "1", flag]
    if spec == "trailing comma":
        result = runner.invoke(main, args + [entries + ","])
        assert result.exit_code == 0, result.stderr
        assert result.stdout == runner.invoke(main, args + [entries]).stdout
    else:
        result = runner.invoke(main, args + [spec])
        assert result.exit_code == 4 and result.stdout == ""
        assert json.loads(result.stderr) == {"error": {
            "code": 4, "type": "ConfigError", "message": empty}}


def test_provenance_records_weights_and_covariates(runner, tmp_path, rng):
    # each key only when its flag is given, the same text in JSON and CSV:
    # the weights sorted by type, each as repr(float); the names as given
    path = tmp_path / "in.csv"
    with open(path, "w") as fh:
        write_records_csv(random_study(rng, n=20, n_cov=2, n_types=3), fh)
    for flags, want in (([], {}),
                        (["--weights", "2=3,0=1,1=.5"], {"weights": "0=1.0,1=0.5,2=3.0"}),
                        (["--covariates", "w2,w1", "--weights", "0=1e300,1=1,2=2"],
                         {"covariates": "w2,w1", "weights": "0=1e+300,1=1.0,2=2.0"})):
        args = ["compare", str(path), "--tau", "2", *flags]
        prov = _strict_json(runner.invoke(main, args).stdout)["provenance"]
        assert {k: prov[k] for k in ("covariates", "weights") if k in prov} == want
        csv_lines = runner.invoke(main, args + ["--format", "csv"]).stdout.splitlines()
        assert [line for line in csv_lines if line.startswith(("# covariates=", "# weights="))] \
            == [f"# {k}={v}" for k, v in sorted(want.items())]


def test_csv_comment_writes_a_line_break_in_a_value_as_backslash_n(runner, tmp_path, rng):
    # a covariate name may hold a line break inside a quoted header field
    path = tmp_path / "nl.csv"
    study = random_study(rng, n=20, n_cov=1)
    with open(path, "w", newline="") as fh:
        write_records_csv(StudyDataset(study.arm1, study.arm2, 1.0, ("a\nb",)), fh)
    args = ["compare", str(path), "--tau", "1", "--covariates", "a\nb"]
    assert _strict_json(runner.invoke(main, args).stdout)["provenance"]["covariates"] == "a\nb"
    result = runner.invoke(main, [*args, "--format", "csv"])
    assert result.exit_code == 0, result.output
    lines = result.stdout.split("\n")
    comments = lines[:lines.index("method," + ",".join(aumcf.cli._CONTRAST_COLUMNS))]
    assert all(line.startswith("# ") for line in comments), comments
    assert "# covariates=a\\nb" in comments


def test_huge_weights_keep_a_finite_se(runner):
    # psi**2 overflows at 1e300 weights, the SEs (about 3e299) do not
    unit = _result(runner, ["compare", "-", "--tau", "1", "--weights", "0=1,1=1,2=1"])["result"]
    big = _result(runner, ["compare", "-", "--tau", "1", "--weights",
                           "0=1e300,1=1e300,2=1e300"])["result"]
    for key in ("se", "se1", "se2"):
        assert big[key] == pytest.approx(1e300 * unit[key], rel=1e-12)


def test_huge_tau_keeps_a_finite_arm_se(runner):
    # every event and death is before tau, so psi is linear in tau and
    # nearly proportional to it at these sizes
    small = _result(runner, ["estimate", "-", "--tau", "1e100"])["arms"]
    big = _result(runner, ["estimate", "-", "--tau", "1e200"])["arms"]
    for a, b in zip(small, big):
        assert b["se"] == pytest.approx(1e100 * a["se"], rel=1e-12)


def test_huge_tau_keeps_a_finite_adjusted_se(runner, tmp_path, rng):
    # psi**2 overflows at tau 1e200, the adjusted SE (about 1e199) does not
    path = tmp_path / "cov.csv"
    with open(path, "w") as fh:
        write_records_csv(random_study(rng, n=20, n_cov=2), fh)

    def report(tau):
        result = runner.invoke(main, ["compare", str(path), "--tau", tau, "--covariates", "w1,w2"])
        assert result.exit_code == 0, result.stderr
        return _strict_json(result.stdout)

    small, big = report("1e100"), report("1e200")
    assert big["adjusted"]["se"] == pytest.approx(1e100 * small["adjusted"]["se"], rel=1e-12)
    assert big["beta_hat"] == pytest.approx([1e100 * b for b in small["beta_hat"]], rel=1e-12)
    assert big["relative_efficiency"] == pytest.approx(small["relative_efficiency"], rel=1e-12)


# 2**-53 is the first alpha at which 1 - alpha/2 rounds to 1
_BAD_ALPHAS = ["1e-320", "1e-17", "0", "1", "nan", repr(2**-53)]


@pytest.mark.parametrize("alpha", _BAD_ALPHAS)
@pytest.mark.parametrize("command", ["estimate", "compare"])
def test_bad_alpha_exits_4(runner, toy_csv, command, alpha):
    result = runner.invoke(main, [command, toy_csv, "--tau", "12", "--alpha", alpha])
    assert result.exit_code == 4
    err = json.loads(result.stderr)["error"]
    assert err["type"] == "ConfigError" and "alpha must be in" in err["message"]


@pytest.mark.parametrize("alpha", _BAD_ALPHAS)
def test_simulate_bad_alpha_exits_4(runner, tmp_path, alpha):
    result = _zero_reps_result(runner, tmp_path, {"replicates": 2}, ["--alpha", alpha])
    assert result.exit_code == 4
    assert json.loads(result.stderr)["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("command", ["estimate", "compare", "simulate"])
def test_alpha_just_above_2_to_the_minus_53_exits_0(runner, toy_csv, tmp_path, command):
    flags = ["--alpha", repr(math.nextafter(2**-53, 1))]
    if command == "simulate":
        result = _zero_reps_result(runner, tmp_path, {"replicates": 2}, flags)
    else:
        result = runner.invoke(main, [command, toy_csv, "--tau", "12"] + flags)
    assert result.exit_code == 0, result.stderr


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


def test_each_command_fits_each_arm_once(runner, tmp_path, rng, monkeypatch):
    # estimate and every compare flag combination read each arm through one
    # fit and one set of influence values
    import itertools

    import aumcf.cli
    import aumcf.estimation
    import aumcf.inference

    path = tmp_path / "in.csv"
    with open(path, "w") as fh:
        write_records_csv(random_study(rng, n=20, n_cov=2, n_types=3), fh)
    calls = []
    real_fit, real_influence = aumcf.estimation.fit_arm, aumcf.estimation.fit_influence

    def fit(arm, *args, **kwargs):
        calls.append(("fit_arm", arm.arm))
        return real_fit(arm, *args, **kwargs)

    def influence(fit):
        calls.append(("fit_influence", fit.arm.arm))
        return real_influence(fit)

    # cli imports neither name; were it to, its own reference is counted too
    for module in (aumcf.cli, aumcf.estimation, aumcf.inference):
        monkeypatch.setattr(module, "fit_arm", fit, raising=False)
        monkeypatch.setattr(module, "fit_influence", influence, raising=False)
    runs = [["estimate"]] + [["compare", *kind, *weights, *covariates]
                             for kind, weights, covariates in itertools.product(
                                 [[], ["--contrast", "ratio"]],
                                 [[], ["--weights", "0=1,1=2,2=0.5"]],
                                 [[], ["--covariates", "w2,w1"]])]
    for args in runs:
        calls.clear()
        result = runner.invoke(main, [args[0], str(path), "--tau", "2", *args[1:]])
        assert result.exit_code == 0, (args, result.stderr)
        assert sorted(calls) == [("fit_arm", 1), ("fit_arm", 2),
                                 ("fit_influence", 1), ("fit_influence", 2)], args


# arm 1 has an event at its death time, where the two conventions differ
TIED_CSV = TOY_CSV.replace("s1,10,2,1\n", "s1,10,1,1\ns1,10,2,1\n")


@pytest.mark.parametrize("s_convention", ["left", "right"])
def test_estimate_arms_are_the_compare_arms(runner, tmp_path, s_convention):
    path = tmp_path / "tied.csv"
    path.write_text(TIED_CSV)
    flags = ["--tau", "12", "--s-convention", s_convention]
    arms = _strict_json(runner.invoke(main, ["estimate", str(path), *flags]).stdout)["arms"]
    res = _strict_json(runner.invoke(main, ["compare", str(path), *flags]).stdout)["result"]
    # repr round-trips a float, so equal JSON numbers are equal bits
    assert [(a["theta"], a["se"]) for a in arms] == [(res["theta1"], res["se1"]),
                                                     (res["theta2"], res["se2"])]
    assert arms[0]["theta"] != arms[1]["theta"]


@pytest.mark.parametrize("flags", [
    ["--contrast", "ratio", "--covariates", "w1"],
    ["--contrast", "ratio", "--weights", "0=1,1=2,2=0.5"],
    ["--covariates", "w1", "--weights", "0=1,1=2,2=0.5"],
    ["--contrast", "ratio", "--covariates", "w2,w1", "--weights", "0=1,1=2,2=0.5"],
], ids=["ratio+covariates", "ratio+weights", "covariates+weights", "all three"])
def test_contrast_flags_combine(runner, tmp_path, rng, flags):
    # each pair of these flags used to be a config error (exit 4)
    from aumcf import read_study_csv
    from aumcf.cli import _parse_weights
    from aumcf.inference import contrast

    path = tmp_path / "in.csv"
    with open(path, "w") as fh:
        write_records_csv(random_study(rng, n=20, n_cov=2, n_types=3), fh)
    args = ["compare", str(path), "--tau", "2", *flags]
    result = runner.invoke(main, args)
    assert result.exit_code == 0 and result.stderr == ""
    report = _strict_json(result.stdout)
    opts = dict(zip(flags[::2], flags[1::2]))
    study = read_study_csv(str(path), 2.0)
    if "--covariates" in opts:
        study = study.select_covariates(tuple(opts["--covariates"].split(",")))
    want = contrast(study, 0.05, "left", ratio="--contrast" in opts,
                    weights=_parse_weights(None, None, opts.get("--weights")),
                    augment="--covariates" in opts).to_dict()
    del report["provenance"]
    assert report == (want if "--covariates" in opts else {"result": want})

    result = runner.invoke(main, args + ["--format", "csv"])
    assert result.exit_code == 0 and result.stderr == ""
    rows = [line for line in result.stdout.splitlines() if not line.startswith("#")]
    assert len(rows) == (3 if "--covariates" in opts else 2)
    kinds = {row.split(",")[1 if "--covariates" in opts else 0] for row in rows[1:]}
    assert kinds == {"ratio" if "--contrast" in opts else "difference"}


@pytest.mark.parametrize("weights,thetas", [
    ("1=1e-300,2=1e300", "theta1=5e-301, theta2=5e+299"),
    ("1=1e300,2=1e-300", "theta1=5e+299, theta2=5e-301"),
], ids=["underflow", "overflow"])
def test_weighted_ratio_beyond_a_float_exits_3(runner, weights, thetas):
    # one subject per arm with one event, of type 1 in arm 1 and type 2 in arm 2
    csv = "id,time,status,arm,event_type\na,0.5,1,1,1\na,2,0,1,\nb,0.5,1,2,2\nb,2,0,2,\n"
    result = runner.invoke(main, ["compare", "-", "--tau", "1", "--contrast", "ratio",
                                  "--weights", weights], input=csv)
    assert result.exit_code == 3 and result.stdout == ""
    assert json.loads(result.stderr) == {"error": {
        "code": 3, "type": "OverflowError",
        "message": f"ratio CI overflows on the log scale: {thetas}"}}


def test_simulate_reps_past_the_bound_exits_4(runner, tmp_path):
    result = _zero_reps_result(runner, tmp_path, {"replicates": 2}, ["--reps", str(10 ** 20)])
    assert result.exit_code == 4 and result.stdout == ""
    assert json.loads(result.stderr) == {"error": {
        "code": 4, "type": "ConfigError",
        "message": "bad scenario config: replicates must be at most 1000000"}}


def test_simulate_integer_tau_past_int64_runs(runner, tmp_path):
    # JSON gives an int; it used to fail numpy's isfinite with a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"kind": "icr", "n_per_arm": 5, "replicates": 2, "tau": 99999999999999999999}')
    result = runner.invoke(main, ["simulate", str(cfg)])
    assert result.exit_code == 0 and result.stderr == ""
    _strict_json(result.stdout)


# ---------------------------------------------------------------------------
# The CLI contract on arbitrary input
# ---------------------------------------------------------------------------

_HEADERS = ("id,time,status,arm", "id,time,status,arm,event_type",
            "id,time,status,arm,w1", "id,time,status,arm,event_type,w1,w2",
            "time,id,arm,status,w2,w1")
_GRID_TIMES = ("0", "0.5", "1", "1.5", "2", "3")
# values that a field may be mutated to
_ODD_VALUES = ("", "-1", "3", "nan", "inf", "-0", "1e308", "1e-320", "x", " 1",
               "1_0", "0x1", "9223372036854775808", "\u0661", "a\0")


@st.composite
def _cli_input(draw):
    """Bytes for the CLI: a valid two-arm study with a few fields mutated,
    quoted or cut short; arbitrary text; or arbitrary bytes. Lines end
    with LF, CRLF or CR, and a few bytes may be spliced in anywhere."""
    kind = draw(st.sampled_from(["study"] * 6 + ["text", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=120))
    if kind == "text":
        text = draw(st.text(alphabet=st.sampled_from(list('ab01.,"\n\r\0 e-')), max_size=120))
    else:
        header = draw(st.sampled_from(_HEADERS))
        rows = []
        for arm in ("1", "2"):
            for i in range(draw(st.sampled_from([0, 1, 2, 3, 4, 4]))):
                x = draw(st.sampled_from(_GRID_TIMES[1:]))
                row = {"id": draw(st.sampled_from(["s", "é", "a b"])) + str(i), "arm": arm,
                       "w1": draw(st.sampled_from(["0.5", "-1", "2"])),
                       "w2": draw(st.sampled_from(["0", "1.5"]))}
                on_grid = [t for t in _GRID_TIMES if float(t) <= float(x)]
                for t in draw(st.lists(st.sampled_from(on_grid), max_size=3)):
                    rows.append(dict(row, time=t, status="1",
                                     event_type=draw(st.sampled_from(["1", "2", ""]))))
                rows.append(dict(row, time=x, status=draw(st.sampled_from(["0", "2"])),
                                 event_type=""))
        rows = [[r[c] for c in header.split(",")] for r in draw(st.permutations(rows))]
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            if not any(rows):
                break
            row = draw(st.sampled_from([r for r in rows if r]))
            k = draw(st.integers(0, len(row) - 1))
            edit = draw(st.sampled_from(["value", "value", "quote", "cut"]))
            if edit == "value":
                row[k] = draw(st.sampled_from(_ODD_VALUES))
            elif edit == "quote":
                row[k] = '"' + row[k] + '"'
            else:
                del row[k:]
        text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(
            [header] + [",".join(r) for r in rows])
        text += draw(st.sampled_from(["", "\n", "\r\n"]))
    raw = text.encode("utf-8")
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.binary(min_size=1, max_size=3)) + raw[at:]
    return raw


# the repeats make a tau that the inputs can support the likelier draw
_TAUS = ("1", "2", "0.5", "2.5", "1", "2", "0.5", "2.5", "4", "1e-300", "1e308", "1.7e308",
         "0", "-1", "nan", "inf")


# simulate's configs: small valid scenarios of each kind and covariate
# mode, some with a rejected field
_SCENARIOS = [{"kind": kind, "covariate_mode": mode}
              for kind in SCENARIO_KINDS for mode in COVARIATE_MODES]
_BAD_FIELDS = [{field: value} for field, value, _ in BAD_SCENARIO_FIELDS]
_FIELDS = sorted(aumcf.ScenarioConfig.__dataclass_fields__)


@st.composite
def _valid_json_config(draw):
    """A scenario config as a JSON object, some with a bad field."""
    config = dict(draw(st.sampled_from(_SCENARIOS)), n_per_arm=draw(st.integers(1, 20)),
                  replicates=draw(st.integers(1, 2)), seed=draw(st.integers(0, 3)),
                  tau=draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])))
    if draw(st.integers(0, 3)) == 0:
        config.update(draw(st.sampled_from(_BAD_FIELDS)))
    return config


@st.composite
def _flipped_bytes(draw):
    """A config's JSON with one to three bytes XORed with a nonzero byte."""
    raw = bytearray(json.dumps(draw(_valid_json_config())).encode())
    for _ in range(draw(st.integers(1, 3))):
        raw[draw(st.integers(0, len(raw) - 1))] ^= draw(st.integers(1, 255))
    return bytes(raw)


@st.composite
def _deep_nesting(draw):
    """A config nested in, or with a field holding, arrays or objects up to
    100,000 deep (past Python's recursion limit from about 1,000)."""
    depth = draw(st.sampled_from([1, 500, 999, 1000, 1001, 5000, 100_000]))
    opener, closer = draw(st.sampled_from([("[", "]"), ('{"a": ', "}")]))
    nested = opener * depth + draw(st.sampled_from(["1", ""])) + closer * draw(
        st.sampled_from([0, depth]))
    if draw(st.booleans()):
        return nested.encode()
    config = json.dumps(draw(_valid_json_config()))
    return (config[:-1] + f', "{draw(st.sampled_from(_FIELDS))}": {nested}}}').encode()


@st.composite
def _long_integer(draw):
    """A config with a field set to a long integer: 20 to 400 digits, too
    big for any count but parseable (a finite float up to 308 digits), or
    longer than the 4,300 digits that Python converts from a string."""
    config = json.dumps(draw(_valid_json_config()))
    digits = draw(st.one_of(st.integers(20, 400), st.sampled_from([4301, 5000, 20_000])))
    value = draw(st.sampled_from(["-", ""])) + "9" * digits
    return (config[:-1] + f', "{draw(st.sampled_from(_FIELDS))}": {value}}}').encode()


@st.composite
def _scenario_config(draw):
    """A scenario config's bytes for ``simulate -``: half of them valid
    JSON, the others arbitrary bytes, JSON with flipped bytes, deep
    nesting or a long integer."""
    if draw(st.booleans()):
        return json.dumps(draw(_valid_json_config())).encode()
    return draw(st.one_of(st.binary(max_size=64), _flipped_bytes(), _deep_nesting(),
                          _long_integer()))


@st.composite
def _cli_args(draw):
    command = draw(st.sampled_from(["estimate", "compare", "curves", "simulate"]))
    if command == "simulate":
        return [command, "-", "--format", draw(st.sampled_from(["json", "csv"]))]
    args = [command, "-", "--tau", draw(st.sampled_from(_TAUS))]
    if draw(st.integers(0, 3)) == 0:
        args.append("--strict-tau")
    if draw(st.booleans()):
        args += ["--s-convention", "right"]
    if command in ("estimate", "compare"):
        if draw(st.integers(0, 5)) == 0:
            args += ["--alpha", draw(st.sampled_from(["0.5", "0", "1", "nan", "1e-20",
                                                      repr(2**-53),
                                                      repr(math.nextafter(2**-53, 1))]))]
        args += ["--format", draw(st.sampled_from(["json", "csv"]))]
    if command == "compare":
        args += draw(st.sampled_from([
            [], [], ["--contrast", "ratio"], ["--contrast", "ratio"],
            ["--covariates", "w1"], ["--covariates", "w1,w2"], ["--covariates", "w2,w1"],
            ["--weights", "0=1,1=1,2=2"], ["--weights", "0=1,1=1,2=0.5,3=1"],
            ["--covariates", "zz"], ["--covariates", ","], ["--weights", "1=0"],
            ["--weights", "0=1,1=1e-300,2=1e300"], ["--weights", "0=1e300,1=1e300,2=1e300"],
            ["--weights", "0=5e-324,1=1,2=1e-300"],
            ["--weights", "x"], ["--weights", "0=1,1=1,2=2,"], ["--weights", ","],
            ["--contrast", "ratio", "--covariates", "w1"],
            ["--covariates", "w1", "--weights", "1=1"],
            ["--contrast", "ratio", "--weights", "0=1,1=1,2=2"],
            ["--contrast", "ratio", "--weights", "0=1e300,1=1e-300,2=1"],
            ["--contrast", "ratio", "--weights", "0=1,1=1e-300,2=1e300"],
            ["--covariates", "w2,w1", "--weights", "0=1,1=1,2=0.5"],
            ["--contrast", "ratio", "--covariates", "w1", "--weights", "0=1,1=1,2=2"],
            ["--contrast", "ratio", "--covariates", "w1,w2", "--weights", "1=1"],
            ["--covariates", ""], ["--weights", ""], ["--contrast", "ratio", "--weights", ""],
            ["--contrast", "bogus"], ["--bogus"],
        ]))
    return args


@settings(max_examples=400, deadline=None)
@given(raw=_cli_input(), config=_scenario_config(), args=_cli_args())
def test_cli_contract_holds_for_any_input(raw, config, args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning would reach stderr
        result = CliRunner().invoke(main, args, input=config if args[0] == "simulate" else raw)
    assert result.exit_code in ((0, 3, 4) if args[0] == "simulate" else (0, 2, 3, 4)), \
        result.exception
    assert caught == []
    if result.exit_code == 0:
        assert result.stderr == "" and result.stdout
        if args[0] == "curves" or "csv" in args:
            # every number in a CSV report's rows is finite
            for line in result.stdout.splitlines():
                if not line.startswith("#"):
                    for cell in line.split(","):
                        assert not re.fullmatch(r"[+-]?(nan|inf)", cell.strip(), re.I), line
        else:
            _strict_json(result.stdout)
    else:
        assert result.stdout == ""
        assert result.stderr.endswith("\n") and result.stderr.count("\n") == 1
        err = _strict_json(result.stderr)["error"]
        assert err["code"] == result.exit_code and set(err) == {"code", "type", "message"}
