import io
import json

import pytest
from click.testing import CliRunner

from aumcf import write_records_csv
from aumcf.cli import main

from conftest import random_study

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
    from aumcf import ArmDataset, StudyDataset, SubjectHistory, augmented_contrast
    from aumcf.cli import _subset_covariates

    study = random_study(rng, n=40, n_cov=3)
    sub = _subset_covariates(study, ("w3", "w1"))
    arms = [
        ArmDataset(arm.arm, [
            SubjectHistory(s.subject_id, s.follow_up, s.terminal, s.event_times,
                           s.event_types, (s.covariates[2], s.covariates[0]))
            for s in arm.subjects
        ])
        for arm in study.arms()
    ]
    ref = StudyDataset(arms[0], arms[1], study.tau, covariate_names=("w3", "w1"))
    assert sub == ref
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
