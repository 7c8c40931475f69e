import hashlib
import json
import math
import re

import numpy as np
import pytest

from aumcf import (
    ScenarioConfig,
    TrueValues,
    ValidationError,
    bootstrap_se,
    contrast_difference,
    generate_dataset,
    run_operating_characteristics,
    survival_bias_sensitivity,
    true_value_oracle,
)
from aumcf.core import StudyDataset
from aumcf.estimation import aumcf
from aumcf.simulation import _PURPOSE_BOOTSTRAP, _stream, simulate_subject

from conftest import BAD_SCENARIO_FIELDS, make_arm, random_study, subject_rows

# quadrature truths, frozen from an independent oracle
THETA_ICR_TAU1 = 0.4682688269495465
THETA_FRAILTY_TAU4 = 4.236282016799473
THETA_TV_NULL_TAU4 = 4.710265816855179


def test_config_validation():
    with pytest.raises(ValidationError, match="unknown scenario kind"):
        ScenarioConfig(kind="weibull")
    with pytest.raises(ValidationError, match="covariate mode"):
        ScenarioConfig(covariate_mode="sometimes")
    with pytest.raises(ValidationError, match="nonnegative"):
        ScenarioConfig(lambda_event=(-1.0, 1.0))
    with pytest.raises(ValidationError, match="change point"):
        ScenarioConfig(kind="time_varying", change_point=2.0, tau=1.0)


@pytest.mark.parametrize("field,value,message", BAD_SCENARIO_FIELDS)
def test_config_rejects_bad_field(field, value, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        ScenarioConfig(**{field: value})


def test_config_json_round_trip():
    cfg = ScenarioConfig(kind="frailty", n_per_arm=50, seed=9)
    assert ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
    with pytest.raises(ValidationError, match="unknown config field"):
        ScenarioConfig.from_dict({"kind": "icr", "lambda_events": [1, 1]})
    for data in ([1], "icr", 5):
        with pytest.raises(ValidationError, match="config must be a JSON object"):
            ScenarioConfig.from_dict(data)
    # a pair that is not a JSON list is the field check's to reject
    with pytest.raises(ValidationError, match="lambda_event must be a pair"):
        ScenarioConfig.from_dict({"lambda_event": 1})


def test_generate_dataset_deterministic():
    cfg = ScenarioConfig(n_per_arm=20, seed=4, replicates=1)
    a = generate_dataset(cfg, 0)
    b = generate_dataset(cfg, 0)
    assert a == b
    c = generate_dataset(cfg, 1)
    assert a.arm1 != c.arm1


def _column_digest(study):
    """SHA-256 over every column of both arms: name, dtype, shape and bytes
    (subject ids as NUL-joined UTF-8)."""
    h = hashlib.sha256()
    for arm in study.arms():
        for name in ("subject_ids", "follow_up", "terminal", "covariates",
                     "event_times", "event_subjects", "event_type_labels"):
            x = getattr(arm, name)
            h.update(f"{name} {x.dtype} {x.shape}\n".encode())
            h.update("\0".join(x.tolist()).encode() if x.dtype == object else x.tobytes())
    return h.hexdigest()


# generate_dataset at n=25, seed 7, recorded when arms were still built
# from per-subject objects; the columnar build must draw the same numbers
_PINNED = {
    ("icr", "none", 0): "b9ca23568154d9087e46422f1e9e9ea470900e7f0982a9351f3b960b5de44b5a",
    ("icr", "none", 1): "d169ef3ebbdce2b67556ed151fc784c5013ede1cbb945ce2f8ad63f2b13d4383",
    ("icr", "informative", 0): "8fdfdf0942f677fbe0a2d5cbaac2e9ad0565dcc7a64a34c567711f99eaa56a1c",
    ("icr", "informative", 1): "61c323c80346621f7319a8206eccd5aa4c057eb57a2d53bd59e493b5532e2d53",
    ("frailty", "none", 0): "bb51ce1dd53e2c954e2c0eeb92d747f6a1b307e7764bac87d05d3e3dc4c1ab85",
    ("frailty", "none", 1): "7910622bb6fc93bed7b99faa1abd2dd4d3fa4ff4ddca5156a48a3a258981cd28",
    ("frailty", "informative", 0): "cd763f71357452e2aa11e61755986b37295b25d271749fcbb39b0368489cb08c",
    ("frailty", "informative", 1): "dd10341907ff6dd127874e409c6cedae417cfc066ebde4cdd9960e09fc87d520",
    ("time_varying", "none", 0): "933a1f7b9604040ebbf3daa338e22db2e8ce5f3fadb213cd9e4aea9fd72789e8",
    ("time_varying", "none", 1): "d14db0e2e1540aef1bbd7a1ed3743da01e4829d569c3fa0dbde8514b21efb3f1",
    ("time_varying", "informative", 0): "5da03d670b07ecf2902b898b8ab108e93f10356a34c55a4701fd6f408938e369",
    ("time_varying", "informative", 1): "a1025d4631acc1af1c6b827a4d404a3201df94bddeb3b58e61e6189bd43f711c",
}


@pytest.mark.parametrize("kind,mode,replicate", list(_PINNED))
def test_generate_dataset_pinned(kind, mode, replicate):
    cfg = ScenarioConfig(kind=kind, covariate_mode=mode, n_per_arm=25, seed=7,
                         change_point=0.5, rate_multipliers=(1.0, 2.0))
    assert _column_digest(generate_dataset(cfg, replicate)) == _PINNED[kind, mode, replicate]


def test_generated_dataset_valid():
    cfg = ScenarioConfig(kind="frailty", covariate_mode="informative",
                         n_per_arm=200, seed=1)
    study = generate_dataset(cfg, 0)
    for arm in study.arms():
        assert arm.n == 200
        assert np.all(arm.follow_up >= 0)
        assert np.all(arm.event_times >= 0)
        assert np.all(arm.event_times <= arm.follow_up[arm.event_subjects])
        assert arm.covariates.shape == (200, 1)


def test_zero_event_rate():
    cfg = ScenarioConfig(lambda_event=(0.0, 0.0), n_per_arm=10, seed=2)
    study = generate_dataset(cfg, 0)
    assert study.arm1.event_times.size == 0


def test_no_risk_administrative_cap():
    cfg = ScenarioConfig(lambda_death=(0.0, 0.0), lambda_censor=0.0,
                         n_per_arm=5, tau=1.0, seed=3)
    study = generate_dataset(cfg, 0)
    assert np.all(study.arm1.follow_up == 10.0)  # horizon_factor * tau
    assert not study.arm1.terminal.any()


def test_event_count_matches_analytic_mean():
    # E[N(min(X, tau))] = lambda_E * E[min(X, tau)] with X ~ Exp(0.4)
    cfg = ScenarioConfig(lambda_event=(1.0, 1.0), lambda_death=(0.2, 0.2),
                         lambda_censor=0.2, tau=4.0, n_per_arm=10_000, seed=6)
    study = generate_dataset(cfg, 0)
    means = []
    for arm in study.arms():
        counts = np.zeros(arm.n)
        np.add.at(counts, arm.event_subjects[arm.event_times <= 4.0], 1.0)
        means.append(counts.mean())
    # pooled over both arms (20k subjects); events stop at X by construction
    expect = (1 - math.exp(-0.4 * 4.0)) / 0.4
    assert np.mean(means) == pytest.approx(expect, rel=0.02)


def test_time_varying_rate_change():
    # with upsilon = 0, no events occur after the change point
    cfg = ScenarioConfig(kind="time_varying", rate_multipliers=(0.0, 0.0),
                         change_point=1.0, tau=4.0, lambda_death=(0.0, 0.0),
                         lambda_censor=0.1, n_per_arm=500, seed=8)
    study = generate_dataset(cfg, 0)
    assert np.all(study.arm1.event_times <= 1.0)


def test_frailty_increases_dispersion():
    base = ScenarioConfig(kind="icr", lambda_censor=0.0, lambda_death=(0.0, 0.0),
                          tau=1.0, n_per_arm=4000, seed=10)
    frail = ScenarioConfig(kind="frailty", lambda_censor=0.0,
                           lambda_death=(0.0, 0.0), tau=1.0, n_per_arm=4000, seed=10)

    def counts(cfg):
        arm = generate_dataset(cfg, 0).arm1
        c = np.zeros(arm.n)
        np.add.at(c, arm.event_subjects[arm.event_times <= 1.0], 1.0)
        return c

    assert counts(frail).var() > 1.5 * counts(base).var()


@pytest.mark.slow
def test_oracle_matches_quadrature_truths():
    cfg = ScenarioConfig(kind="icr", tau=1.0, seed=17)
    tv = true_value_oracle(cfg, n_per_arm=2000, replicates=25)
    assert tv.theta1 == pytest.approx(THETA_ICR_TAU1, abs=0.01)
    assert tv.delta == pytest.approx(0.0, abs=0.01)

    cfg = ScenarioConfig(kind="frailty", tau=4.0, seed=17)
    tv = true_value_oracle(cfg, n_per_arm=2000, replicates=25)
    assert tv.theta1 == pytest.approx(THETA_FRAILTY_TAU4, rel=0.02)

    cfg = ScenarioConfig(kind="time_varying", rate_multipliers=(0.5, 0.5),
                         change_point=1.0, tau=4.0, seed=17)
    tv = true_value_oracle(cfg, n_per_arm=2000, replicates=25)
    assert tv.theta1 == pytest.approx(THETA_TV_NULL_TAU4, rel=0.02)


@pytest.mark.slow
def test_oracle_no_deaths_closed_form():
    # lambda_D = 0: theta = lambda_E * tau^2 / 2
    cfg = ScenarioConfig(lambda_death=(0.0, 0.0), tau=1.0, seed=12)
    tv = true_value_oracle(cfg, n_per_arm=2000, replicates=25)
    assert tv.theta1 == pytest.approx(0.5, rel=0.01)


def test_harness_small_run_deterministic():
    cfg = ScenarioConfig(n_per_arm=40, replicates=5, seed=13)
    a = run_operating_characteristics(cfg, truth=0.0)
    b = run_operating_characteristics(cfg, truth=0.0)
    assert a.rows == b.rows
    r = a.rows[0]
    assert r.replicates == 5
    assert 0.0 <= r.rejection_rate <= 1.0 and 0.0 <= r.coverage <= 1.0


def test_harness_parallel_equals_serial():
    cfg = ScenarioConfig(n_per_arm=30, replicates=8, seed=14)
    serial = run_operating_characteristics(cfg, truth=0.0, n_jobs=1)
    parallel = run_operating_characteristics(cfg, truth=0.0, n_jobs=2)
    assert serial.rows == parallel.rows


def test_harness_adjusted_requires_covariates():
    cfg = ScenarioConfig(n_per_arm=20, replicates=2, seed=15)
    with pytest.raises(ValidationError, match="covariate mode"):
        run_operating_characteristics(cfg, methods=("adjusted",), truth=0.0)


def test_sensitivity_null_endpoint():
    cfg = ScenarioConfig(tau=1.0, n_per_arm=100, replicates=50, seed=16)
    out = survival_bias_sensitivity(cfg, (0.2,))
    rate, oc = out[0]
    assert rate == 0.2
    r = oc.rows[0]
    assert abs(r.bias) < 4 * r.mcse_bias + 0.02


def test_bootstrap_deterministic_and_degenerate():
    cfg = ScenarioConfig(n_per_arm=40, seed=18)
    study = generate_dataset(cfg, 0)
    a = bootstrap_se(study, B=150, seed=5)
    b = bootstrap_se(study, B=150, seed=5)
    assert a == b
    with pytest.raises(ValidationError):
        bootstrap_se(study, B=10)
    same = [(f"s{i}", 2.0, True, (1.0,)) for i in range(20)]
    degen = StudyDataset(make_arm(1, same),
                         make_arm(2, list(same)), tau=2.0)
    assert bootstrap_se(degen, B=100, seed=1) == 0.0


def test_bootstrap_equals_resampling_subject_objects(rng):
    """Resampling on the columns gives bitwise the SE of rebuilding each
    resampled arm from per-subject rows, draw for draw."""
    study = random_study(rng, n=30, n_types=2)
    draws = _stream(11, _PURPOSE_BOOTSTRAP)
    deltas = []
    for _ in range(100):
        thetas = []
        for arm, rows in zip(study.arms(), map(subject_rows, study.arms())):
            idx = draws.integers(0, arm.n, size=arm.n)
            resampled = make_arm(arm.arm, [rows[i] for i in idx])
            thetas.append(aumcf(resampled, study.tau))
        deltas.append(thetas[0] - thetas[1])
    assert bootstrap_se(study, B=100, seed=11) == float(np.std(deltas, ddof=1))


def test_streams_are_distinct():
    g1 = _stream(0, 0, 0, 1, 0)
    g2 = _stream(0, 0, 0, 1, 1)
    g3 = _stream(0, 1, 0, 1, 0)
    x1, x2, x3 = (g.standard_normal(4) for g in (g1, g2, g3))
    assert not np.allclose(x1, x2) and not np.allclose(x1, x3)


def test_subject_draw_order_stable():
    cfg = ScenarioConfig(kind="frailty", covariate_mode="informative", seed=19)
    x, dead, events, w = simulate_subject(cfg, 1, _stream(cfg.seed, 0, 0, 1, 0))
    assert simulate_subject(cfg, 1, _stream(cfg.seed, 0, 0, 1, 0)) == (x, dead, events, w)
    # generate_dataset's first subject is that draw
    arm = generate_dataset(cfg, 0, n_per_arm=3).arm1
    first = arm.event_subjects == 0
    assert (arm.follow_up[0], arm.terminal[0], arm.covariates[0, 0]) == (x, dead, w)
    assert arm.event_times[first].tolist() == events
