import hashlib
import itertools
import json
import math
import re

import numpy as np
import pytest

from aumcf import (
    ScenarioConfig,
    ValidationError,
    bootstrap_se,
    contrast_difference,
    generate_dataset,
    run_operating_characteristics,
    survival_bias_sensitivity,
    true_value_oracle,
)
from aumcf import simulation
from aumcf.core import StudyDataset
from aumcf.estimation import aumcf, fit_arm
from aumcf.simulation import (COVARIATE_MODES, SCENARIO_KINDS, _PURPOSE_BOOTSTRAP, _draw_arm,
                              _stream)

from conftest import (BAD_SCENARIO_FIELDS, TIE_GRID, make_arm, monte_carlo_truth, random_study,
                      subject_rows)
from test_acceptance import THETA_ICR_ALT1, THETA_TV_ALT1

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


def test_config_accepts_the_largest_counts():
    # 10^5 per arm is the largest trial the harness is meant for; each bound
    # is inclusive (constructed only, never simulated)
    ScenarioConfig(n_per_arm=10 ** 5)
    ScenarioConfig(n_per_arm=10_000_000, replicates=1_000_000)


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


@pytest.mark.parametrize("n", [7, 25])
def test_subject_ids_are_built_once_and_shared_read_only(n):
    cfg = ScenarioConfig(n_per_arm=n, seed=3)
    for replicate in (0, 1):
        for arm in generate_dataset(cfg, replicate).arms():
            assert arm.subject_ids.tolist() == [f"a{arm.arm}s{i:06d}" for i in range(n)]
            assert not arm.subject_ids.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arm.subject_ids[0] = "x"
    for a in (1, 2):
        cached = simulation._subject_ids(a, n)
        assert cached is simulation._subject_ids(a, n)
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = "x"
        assert cached[0] == f"a{a}s000000"


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


# generate_dataset at n=25, seed 7, recorded at STREAM_VERSION 2 (one
# vector stream per arm); a change here changes the numbers drawn, so it
# needs a new STREAM_VERSION
_PINNED = {
    ("icr", "none", 0): "527ae2c51f2115198c7d6144f748de1e601db849f90a745f260b70d8daa13e1e",
    ("icr", "none", 1): "c91b01a515e809e17cfba0380cc3c8fc1bf11e72dd347b544393767c378d3857",
    ("icr", "informative", 0): "00b9a3cd1f1134878faf9ed6ff932b084d92e03cee0c944513af970385d9cf0f",
    ("icr", "informative", 1): "5f6d8132b244ef8c1b878bd8b9ea61b6fc7d179263780ed664ea8ec906eb2b0e",
    ("frailty", "none", 0): "b928a4367d165aa53234b583680a7d4c92843e8cf24efa1a0cd2900111e6b35b",
    ("frailty", "none", 1): "bda4cf3294faf71692be080380f41cf797ec7678bf298a254911886524a0da67",
    ("frailty", "informative", 0): "6bef7400b931b356df047b75baf4fede673b02d2e48d5cf1e9b4557c30a39f80",
    ("frailty", "informative", 1): "067e9ef7707f880fe0b78d580c3c9790cfaff5e876df3b97024d0cccc41e8be2",
    ("time_varying", "none", 0): "c979b2f5ba93248b06413b5fe02ab2ca322c33507fe2aacf3f144e3c5cd44f6b",
    ("time_varying", "none", 1): "367e27acac8b521adafcc2d277dda6323fe74ebcf074e418f7d0044f52c85477",
    ("time_varying", "informative", 0): "b7fc65376613fc8aae73947852340c343824111f578f029cf0fc17571edc6813",
    ("time_varying", "informative", 1): "09bde00445b50df8367bceeaa78ea25770b877d6d1ad94a267079094b285024b",
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


@pytest.mark.parametrize("fields,theta1", [
    ({"kind": "icr", "tau": 1.0}, THETA_ICR_TAU1),
    ({"kind": "icr", "tau": 1.0, "lambda_event": (1.4, 1.0)}, THETA_ICR_ALT1),
    ({"kind": "frailty", "tau": 4.0}, THETA_FRAILTY_TAU4),
    ({"kind": "time_varying", "rate_multipliers": (0.5, 0.5), "tau": 4.0}, THETA_TV_NULL_TAU4),
    ({"kind": "time_varying", "rate_multipliers": (1.0, 1.0), "tau": 4.0}, THETA_TV_ALT1),
])
def test_exact_truth_matches_frozen_constants(fields, theta1):
    assert true_value_oracle(ScenarioConfig(**fields)).theta1 == pytest.approx(theta1, rel=1e-12)


@pytest.mark.parametrize("fields", [
    {"frailty_variance": 50.0, "lambda_death": (5.0, 5.0), "tau": 10.0},
    {"frailty_variance": 3.0, "lambda_death": (5.0, 20.0), "tau": 4.0},
])
def test_exact_truth_matches_adaptive_quadrature(fields):
    # survival falls on a scale far below tau: one Gauss rule over each
    # piece of the rate was off by 5e-3 and 4e-7 here
    from scipy.integrate import quad

    cfg = ScenarioConfig(kind="frailty", **fields)
    tau, v = cfg.tau, cfg.frailty_variance
    tv = true_value_oracle(cfg)
    for theta, lam_d in zip((tv.theta1, tv.theta2), cfg.lambda_death):
        want, _ = quad(lambda u: (tau - u) * (1 + lam_d * v * u) ** -(1 / v + 1), 0, tau,
                       epsabs=0, epsrel=1.2e-14, limit=500)
        assert theta == pytest.approx(want, rel=1e-12)


def test_exact_truth_limits():
    # no deaths: theta = lambda_E * tau^2 / 2
    assert true_value_oracle(ScenarioConfig(lambda_death=(0.0, 0.0), tau=1.0)).theta1 == 0.5
    # ... and no events after the cap horizon_factor * tau = 1: int_0^1 (2 - u) du
    capped = ScenarioConfig(lambda_death=(0.0, 0.0), horizon_factor=0.5, tau=2.0)
    assert true_value_oracle(capped).theta1 == pytest.approx(1.5, rel=1e-12)
    # a vanishing frailty variance is no frailty (a plain power gives 8.0 here)
    icr = true_value_oracle(ScenarioConfig(kind="icr", tau=4.0))
    frail = true_value_oracle(ScenarioConfig(kind="frailty", frailty_variance=1e-300, tau=4.0))
    assert frail.theta1 == pytest.approx(icr.theta1, rel=1e-12)
    for kind in SCENARIO_KINDS:
        cfgs = {mode: ScenarioConfig(kind=kind, covariate_mode=mode, tau=4.0)
                for mode in COVARIATE_MODES}
        assert true_value_oracle(cfgs["uninformative"]) == true_value_oracle(cfgs["none"])
        for cfg in cfgs.values():
            assert true_value_oracle(cfg).delta == 0.0


@pytest.mark.slow
@pytest.mark.parametrize("lambda_death", [(0.2, 0.5), (0.0, 0.5)])
@pytest.mark.parametrize("mode", COVARIATE_MODES)
@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_exact_truth_matches_monte_carlo(kind, mode, lambda_death):
    # with no deaths in arm 1, follow-up stops at horizon_factor * tau = 1,
    # past the change point
    cfg = ScenarioConfig(kind=kind, covariate_mode=mode, lambda_event=(1.0, 1.4),
                         lambda_death=lambda_death, rate_multipliers=(0.5, 2.0),
                         change_point=0.5, horizon_factor=0.5, tau=2.0, seed=31)
    tv = true_value_oracle(cfg)
    mean, se = monte_carlo_truth(cfg)
    z = (mean - (tv.theta1, tv.theta2)) / se
    assert np.all(np.abs(z) < 4), z


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


class _StubPool:
    """A ProcessPoolExecutor stand-in that records its worker count and
    runs the tasks in this process."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize("n_jobs,workers", [(5000, [3]), (3, [3]), (2, [2]), (1, [])])
def test_harness_workers_capped_at_replicates(monkeypatch, n_jobs, workers):
    import concurrent.futures

    monkeypatch.setattr(_StubPool, "max_workers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _StubPool)
    cfg = ScenarioConfig(n_per_arm=10, replicates=3, seed=14)
    oc = run_operating_characteristics(cfg, truth=0.0, n_jobs=n_jobs)
    assert _StubPool.max_workers == workers
    assert oc.rows == run_operating_characteristics(cfg, truth=0.0).rows


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_harness_runs_replicates_in_order_from_a_generator(monkeypatch, n_jobs):
    import concurrent.futures
    import types

    ran, tasks_seen = [], []
    run = simulation._replicate_worker

    class Pool(_StubPool):
        def map(self, fn, tasks, chunksize=1):
            tasks_seen.append(tasks)
            return map(fn, tasks)

    def worker(args):
        ran.append(args[1])
        return run(args)

    cfg = ScenarioConfig(n_per_arm=10, replicates=4, seed=14)
    want = run_operating_characteristics(cfg, truth=0.0).rows
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(simulation, "_replicate_worker", worker)
    assert run_operating_characteristics(cfg, truth=0.0, n_jobs=n_jobs).rows == want
    assert ran == [0, 1, 2, 3]
    # no list of every replicate's task is built up front
    assert all(isinstance(t, types.GeneratorType) for t in tasks_seen)
    assert len(tasks_seen) == (n_jobs > 1)


@pytest.mark.parametrize("n_jobs", [0, -1])
def test_harness_rejects_jobs_below_1(n_jobs):
    cfg = ScenarioConfig(n_per_arm=10, replicates=2, seed=14)
    with pytest.raises(ValidationError, match="n_jobs must be at least 1"):
        run_operating_characteristics(cfg, truth=0.0, n_jobs=n_jobs)


@pytest.mark.parametrize("n_jobs", [2.5, 2.0, "2", True, None])
def test_harness_rejects_jobs_that_are_no_integer(n_jobs):
    cfg = ScenarioConfig(n_per_arm=10, replicates=2, seed=14)
    with pytest.raises(ValidationError, match="n_jobs must be an integer"):
        run_operating_characteristics(cfg, truth=0.0, n_jobs=n_jobs)


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


@pytest.mark.parametrize("arm", [0, 3, 1.0, "1"])
def test_sensitivity_rejects_an_arm_other_than_1_or_2(arm):
    # arm 0 would index arm 2's rate from the end of the list
    cfg = ScenarioConfig(tau=1.0, n_per_arm=10, replicates=2, seed=16)
    with pytest.raises(ValidationError, match="modified_arm must be 1 or 2"):
        survival_bias_sensitivity(cfg, (0.2,), modified_arm=arm)


def test_bootstrap_deterministic_and_degenerate():
    cfg = ScenarioConfig(n_per_arm=40, seed=18)
    study = generate_dataset(cfg, 0)
    a = bootstrap_se(study, B=150, seed=5)
    b = bootstrap_se(study, B=150, seed=5)
    assert a == b
    assert bootstrap_se(study, B=np.int64(150), seed=5) == a
    with pytest.raises(ValidationError):
        bootstrap_se(study, B=10)
    same = [(f"s{i}", 2.0, True, (1.0,)) for i in range(20)]
    degen = StudyDataset(make_arm(1, same),
                         make_arm(2, list(same)), tau=2.0)
    assert bootstrap_se(degen, B=100, seed=1) == 0.0


@pytest.mark.parametrize("B", [150.0, True, "150", None])
def test_bootstrap_rejects_non_integer_b(B):
    study = generate_dataset(ScenarioConfig(n_per_arm=10, seed=18), 0)
    with pytest.raises(ValidationError, match="B must be an integer"):
        bootstrap_se(study, B=B)


@pytest.mark.parametrize("seed, message", [(None, "an integer"), (True, "an integer"),
                                           (1.5, "an integer"), ("3", "an integer"),
                                           (-1, "nonnegative")])
def test_bootstrap_rejects_a_seed_that_is_no_nonnegative_integer(seed, message, monkeypatch):
    # None would seed the stream from fresh OS entropy; the check comes
    # before the stream is made
    study = generate_dataset(ScenarioConfig(n_per_arm=10, seed=18), 0)

    def no_stream(*args):
        raise AssertionError("a stream was made")

    monkeypatch.setattr(simulation, "_stream", no_stream)
    with pytest.raises(ValidationError, match=f"seed must be {message}"):
        bootstrap_se(study, B=100, seed=seed)


# the fits whose resamples are checked: the bootstrap's, a weighted one in
# which type 0 weighs 0, and one with the right-continuous survival curve
_RESAMPLED_FITS = (("left", None), ("left", {1: 1.0, 2: 2.5}), ("right", None))


def _check_against_refits(study, B=100, seed=11):
    """Compare each resample's count-weighted AUMCF under each of
    ``_RESAMPLED_FITS``, and ``bootstrap_se``, with refitting the resampled
    arm built from per-subject rows, draw for draw; a row of ones gives the
    fit's own theta. Returns the count matrices of the two arms."""
    draws = _stream(seed, _PURPOSE_BOOTSTRAP)
    rows = [subject_rows(arm) for arm in study.arms()]
    counts = [np.zeros((B, arm.n), dtype=np.int64) for arm in study.arms()]
    refits = np.empty((len(_RESAMPLED_FITS), B, 2))
    for b in range(B):
        for k, arm in enumerate(study.arms()):
            idx = draws.integers(0, arm.n, size=arm.n)
            resampled = make_arm(arm.arm, [rows[k][i] for i in idx])
            for f, (s_convention, weights) in enumerate(_RESAMPLED_FITS):
                refits[f, b, k] = aumcf(resampled, study.tau, s_convention, weights)
            np.add.at(counts[k][b], idx, 1)
    for f, (s_convention, weights) in enumerate(_RESAMPLED_FITS):
        fits = [fit_arm(arm, study.tau, s_convention, weights) for arm in study.arms()]
        weighted = np.column_stack([fit.thetas(c) for fit, c in zip(fits, counts)])
        # relative to each refit; with atol 0 a refit of 0 must be matched exactly
        np.testing.assert_allclose(weighted, refits[f], rtol=1e-12, atol=0)
        for fit in fits:
            ones = np.ones((1, fit.arm.n), dtype=np.int64)
            np.testing.assert_allclose(fit.thetas(ones), [fit.theta], rtol=1e-12, atol=0)
    want = float(np.std(refits[0, :, 0] - refits[0, :, 1], ddof=1))
    se = bootstrap_se(study, B=B, seed=seed)
    np.testing.assert_allclose(se, want, rtol=1e-12, atol=0)
    # the resamples of one generator call per arm and resample give the SE bitwise
    theta1, theta2 = (fit_arm(arm, study.tau).thetas(c) for arm, c in zip(study.arms(), counts))
    assert se == float(np.std(theta1 - theta2, ddof=1))
    return counts


def test_bootstrap_equals_resampling_subject_objects(rng, monkeypatch):
    """The resamples are the draws of a resample-and-refit loop, and the
    count-weighted AUMCFs and the SE agree with that loop to round-off."""
    equal = random_study(rng, n=30, n_types=2)
    _check_against_refits(equal)
    # two event types and covariates: the bootstrap fits all events
    _check_against_refits(random_study(rng, n=25, n_cov=2, n_types=2), seed=12)
    # three types: the weighted fit gives type 0 mass 0 and weighs type 2 by 2.5
    _check_against_refits(random_study(rng, n=25, n_types=3), seed=13)
    # arms of 30 and 23: a block draws each arm of each resample in its own call
    unequal = StudyDataset(equal.arm1, random_study(rng, n=23, n_types=2).arm2, tau=equal.tau)
    _check_against_refits(unequal, seed=14)
    # blocks of one resample, and of 7 with the last one short, give the
    # default blocks' SE bitwise
    for study, seed in ((equal, 11), (unequal, 14)):
        se = bootstrap_se(study, B=100, seed=seed)
        widest = max(arm.n + arm.event_times.size for arm in study.arms())
        assert simulation._BOOTSTRAP_CELLS // widest > 7  # the default blocks are wider
        for cells in (widest, 7 * widest):
            with monkeypatch.context() as patch:
                patch.setattr(simulation, "_BOOTSTRAP_CELLS", cells)
                assert bootstrap_se(study, B=100, seed=seed) == se


@pytest.mark.parametrize("seed", [0, 11, 2 ** 40])
def test_one_integers_call_draws_what_split_calls_draw(seed):
    """``bootstrap_se`` makes a run of draws of one bound in one call: the
    generator gives the same values, and is left in the same state, as
    when each resample's draws are their own call. Odd and even bounds,
    the bound 1 (no bits drawn), 2**31 (the last 32-bit bound) and bounds
    past 2**32 (64-bit draws); odd sizes leave half a 64-bit word."""

    def draw(calls):
        rng = _stream(seed, _PURPOSE_BOOTSTRAP)
        values = np.concatenate([rng.integers(0, n, size=m) for n, m in calls])
        # the next draws of both widths, and a float
        return values, rng.integers(0, 10, size=3), rng.integers(0, 2 ** 40, size=3), rng.random()

    for n, m in ((1, 1), (2, 2), (7, 7), (200, 200), (201, 201), (2 ** 31, 5), (2 ** 33 + 1, 4)):
        for k in (2, 5):
            for got, want in zip(draw([(n, k * m)]), draw([(n, m)] * k)):
                np.testing.assert_array_equal(got, want)
    # a mix of bounds, merged into one call at each run of one bound
    calls = [(7, 7), (7, 7), (4, 4), (2 ** 31, 3), (2 ** 31, 3), (7, 7), (1, 1), (1, 1),
             (201, 201), (201, 201), (2 ** 33 + 1, 4), (2 ** 33 + 1, 4), (3, 3)]
    merged = [(n, sum(m for _, m in run)) for n, run in itertools.groupby(calls, lambda c: c[0])]
    assert len(merged) == 8
    for got, want in zip(draw(merged), draw(calls)):
        np.testing.assert_array_equal(got, want)


def test_bootstrap_event_tied_with_death():
    arm1 = make_arm(1, [("a", 1.0, True, (1.0,)), ("b", 2.0, False, (1.0, 1.5)),
                        ("c", 1.0, True, ()), ("d", 3.0, True, (0.5, 1.0, 2.5))])
    arm2 = make_arm(2, [("e", 2.0, True, (2.0,)), ("f", 2.0, True, (0.5,)),
                        ("g", 2.5, False, (1.0, 2.0))])
    _check_against_refits(StudyDataset(arm1, arm2, tau=2.5))


def test_bootstrap_arm_without_deaths_or_events_up_to_tau():
    no_deaths = make_arm(1, [("a", 2.0, False, (0.5, 1.0)), ("b", 3.0, True, (1.5,)),
                             ("c", 1.0, False, (0.2,)), ("d", 2.5, False, ())])
    no_events = make_arm(2, [("e", 1.0, True, ()), ("f", 3.0, False, (2.5,)),
                             ("g", 1.5, True, ())])
    _check_against_refits(StudyDataset(no_deaths, no_events, tau=2.0))


def test_bootstrap_event_with_empty_risk_set():
    # only "d" and "e" are followed past 2: a resample without them has
    # nobody at risk at the death at 2.2 or at the event at 2.6 after it
    arm1 = make_arm(1, [("a", 1.0, True, (0.5,)), ("b", 2.0, False, (1.5,)),
                        ("c", 1.5, True, (0.2, 1.0)), ("d", 3.0, False, (2.6,)),
                        ("e", 2.2, True, ())])
    arm2 = make_arm(2, [("f", 3.0, True, (1.0, 2.0)), ("g", 2.0, True, (0.5,))])
    counts = _check_against_refits(StudyDataset(arm1, arm2, tau=3.0))
    drawn = counts[0][:, 3:].sum(axis=1)
    assert (drawn == 0).any() and (drawn > 0).any()


def _tied_study(seed, n1, n2):
    """Two arms of subjects on ``TIE_GRID``, heavily tied, drawn arm 1 first."""
    rng = np.random.default_rng(seed)

    def tied_arm(arm, n):
        subjects = []
        for i in range(n):
            x = float(rng.choice(TIE_GRID[1:]))
            times = np.sort(rng.choice([t for t in TIE_GRID if t <= x], size=rng.integers(0, 4)))
            subjects.append((f"s{i}", x, bool(rng.random() < 0.4), times.tolist()))
        return make_arm(arm, subjects)

    return StudyDataset(tied_arm(1, n1), tied_arm(2, n2), tau=1.5)


def test_bootstrap_on_tied_study_is_pinned():
    # the SE that the count-matrix bootstrap gave when it sorted each arm
    # itself; reading the arm's stored follow-up order leaves it bitwise
    study = _tied_study(20261018, 40, 40)
    assert bootstrap_se(study, B=200, seed=7).hex() == "0x1.3384305c4b4ecp-2"


def test_bootstrap_on_unequal_tied_study_is_pinned():
    # arms of 40 and 37: the SE that the bootstrap gave when it drew each
    # resample of each arm in its own call
    study = _tied_study(20261020, 40, 37)
    assert bootstrap_se(study, B=200, seed=7).hex() == "0x1.2244a5a801f41p-2"


def test_streams_are_distinct():
    keys = [(0, 0, 1), (0, 0, 2), (1, 0, 1), (0, 1, 1)]  # (purpose, replicate, arm)
    draws = [_stream(0, *key).standard_normal(4) for key in keys]
    assert not any(np.allclose(a, b) for a, b in itertools.combinations(draws, 2))
    # each arm of a dataset is the draw from its own stream
    cfg = ScenarioConfig(kind="frailty", covariate_mode="informative", n_per_arm=30, seed=3)
    study = generate_dataset(cfg, 4)
    for arm in (1, 2):
        assert study.arms()[arm - 1] == _draw_arm(cfg, arm, _stream(3, 0, 4, arm))
    assert not np.array_equal(study.arm1.follow_up, study.arm2.follow_up)


def test_subject_draw_order_stable():
    """Arm 1 replayed from its stream in the documented vector order:
    frailty, covariate, terminal, censoring, counts, event uniforms."""
    for kind in ("frailty", "time_varying"):
        cfg = ScenarioConfig(kind=kind, covariate_mode="informative", n_per_arm=40,
                             seed=19, change_point=0.5, rate_multipliers=(1.0, 3.0))
        n, c = cfg.n_per_arm, cfg.change_point
        rng = _stream(cfg.seed, 0, 2, 1)
        xi = (rng.gamma(1 / cfg.frailty_variance, cfg.frailty_variance, n)
              if kind == "frailty" else np.ones(n))
        w = rng.standard_normal(n)
        death = rng.standard_exponential(n) / (
            cfg.lambda_death[0] * (xi * np.exp(w * cfg.death_log_effect)))
        censor = rng.standard_exponential(n) / cfg.lambda_censor
        x = np.minimum(death, censor)
        r1 = cfg.lambda_event[0] * (xi * np.exp(w * cfg.event_log_effect))
        if kind == "frailty":
            rate_x = r1 * x
        else:
            r2 = cfg.rate_multipliers[0] * r1
            rate_x = r1 * np.minimum(x, c) + r2 * np.maximum(x - c, 0.0)
        counts = rng.poisson(rate_x)
        u = iter(rng.random(counts.sum()))
        events = []
        for i in range(n):
            for _ in range(counts[i]):
                target = next(u) * rate_x[i]
                if kind == "frailty" or target <= r1[i] * c:
                    t = target / r1[i]
                else:
                    t = c + (target - r1[i] * c) / r2[i]
                events.append((min(t, x[i]), i))
        events.sort()

        arm = generate_dataset(cfg, 2).arm1
        assert np.array_equal(arm.follow_up, x)
        assert np.array_equal(arm.terminal, death <= censor)
        assert np.array_equal(arm.covariates[:, 0], w)
        assert list(zip(arm.event_times, arm.event_subjects)) == events


def test_event_counts_match_cumulative_rate():
    # no deaths and no censoring: X = horizon_factor * tau = 2 for everyone
    base = dict(lambda_event=(1.5, 1.5), lambda_death=(0.0, 0.0), lambda_censor=0.0,
                tau=1.0, horizon_factor=2.0, n_per_arm=20_000, seed=23)
    arm = generate_dataset(ScenarioConfig(**base), 0).arm1
    assert np.all(arm.follow_up == 2.0)
    counts = np.bincount(arm.event_subjects, minlength=arm.n)
    # Poisson(lambda X = 3): mean = variance = 3, each within about 4 SE
    assert counts.mean() == pytest.approx(3.0, rel=0.02)
    assert counts.var(ddof=1) == pytest.approx(3.0, rel=0.05)

    # rate 1.5 up to c = 0.4, then 0.75: r1 c + r2 (X - c) = 0.6 + 1.2
    cfg = ScenarioConfig(kind="time_varying", change_point=0.4,
                         rate_multipliers=(0.5, 0.5), **base)
    arm = generate_dataset(cfg, 0).arm1
    counts = np.bincount(arm.event_subjects, minlength=arm.n)
    assert counts.mean() == pytest.approx(1.8, rel=0.025)
    assert np.all((arm.event_times >= 0.0) & (arm.event_times <= 2.0))
    # a third of the expected events fall before the change point
    assert np.mean(arm.event_times <= 0.4) == pytest.approx(1 / 3, abs=0.01)
