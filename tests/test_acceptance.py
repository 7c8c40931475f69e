"""Acceptance gate: full-scale operating characteristics plus the fast
property suite. Each check prints one PASS/FAIL line with the observed
values. Runtime is dominated by the 2000-replicate Monte Carlo runs
(several minutes total, single core)."""

import math

import numpy as np
import pytest

import aumcf
from aumcf import (
    RatioUndefinedError,
    ScenarioConfig,
    SingularCovariateError,
    StudyDataset,
    area_under_step,
    aumcf as aumcf_estimate,
    augmented_contrast,
    bootstrap_se,
    contrast_difference,
    contrast_ratio,
    generate_dataset,
    influence_values,
    mcf,
    rmst,
    run_operating_characteristics,
    survival_bias_sensitivity,
    time_lost_per_subject,
)

from conftest import make_arm, random_arm, random_study

SEED = 20260823

# truths from an independent quadrature oracle, frozen
THETA_ICR_NULL = 0.4682688269495465       # lambda_E=1, lambda_D=0.2, tau=1
THETA_ICR_ALT1 = 0.6555763577293651       # lambda_E=1.4
THETA_TV_NULL = 4.710265816855179         # upsilon=0.5, c=1, tau=4
THETA_TV_ALT1 = 6.2332241029305395        # upsilon=1


@pytest.fixture
def report(capfd):
    """Print one PASS/FAIL line per criterion on the real stdout."""

    def _report(label, ok, detail):
        with capfd.disabled():
            print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
        assert ok, f"{label}: {detail}"

    return _report


@pytest.mark.slow
def test_criterion_1_icr_null_calibration(report):
    cfg = ScenarioConfig(kind="icr", n_per_arm=200, tau=1.0,
                         replicates=2000, seed=SEED)
    r = run_operating_characteristics(cfg, truth=0.0).rows[0]
    ratio = r.ase / r.ese
    detail = (f"bias={r.bias:+.4f} ASE/ESE={ratio:.3f} "
              f"typeI={r.rejection_rate:.4f}")
    ok = abs(r.bias) <= 0.005 and 0.92 <= ratio <= 1.08 \
        and 0.035 <= r.rejection_rate <= 0.065
    report("criterion 1 (ICR null, tau=1)", ok, detail)


@pytest.mark.slow
def test_criterion_2_icr_alternative_power(report):
    cfg = ScenarioConfig(kind="icr", lambda_event=(1.4, 1.0), n_per_arm=200,
                         tau=1.0, replicates=2000, seed=SEED)
    truth = THETA_ICR_ALT1 - THETA_ICR_NULL
    r = run_operating_characteristics(cfg, truth=truth).rows[0]
    detail = f"power={r.rejection_rate:.4f} CP={r.coverage:.4f}"
    ok = 0.79 <= r.rejection_rate <= 0.86 and 0.93 <= r.coverage <= 0.965
    report("criterion 2 (ICR alternative, lambda_E1=1.4)", ok, detail)


@pytest.mark.slow
def test_criterion_3_frailty_null(report):
    cfg = ScenarioConfig(kind="frailty", n_per_arm=200, tau=4.0,
                         replicates=2000, seed=SEED)
    r = run_operating_characteristics(cfg, truth=0.0).rows[0]
    detail = (f"bias={r.bias:+.4f} (ESE={r.ese:.3f}) "
              f"typeI={r.rejection_rate:.4f}")
    ok = abs(r.bias) <= 0.06 and 0.035 <= r.rejection_rate <= 0.065
    report("criterion 3 (frailty null, tau=4)", ok, detail)


@pytest.mark.slow
def test_criterion_4_time_varying(report):
    null_cfg = ScenarioConfig(kind="time_varying", rate_multipliers=(0.5, 0.5),
                              change_point=1.0, n_per_arm=200, tau=4.0,
                              replicates=2000, seed=SEED)
    rn = run_operating_characteristics(null_cfg, truth=0.0).rows[0]
    alt_cfg = ScenarioConfig(kind="time_varying", rate_multipliers=(1.0, 0.5),
                             change_point=1.0, n_per_arm=200, tau=4.0,
                             replicates=2000, seed=SEED)
    truth = THETA_TV_ALT1 - THETA_TV_NULL
    ra = run_operating_characteristics(alt_cfg, truth=truth).rows[0]
    detail = (f"power={ra.rejection_rate:.4f} CP={ra.coverage:.4f} "
              f"null typeI={rn.rejection_rate:.4f}")
    ok = 0.84 <= ra.rejection_rate <= 0.92 and 0.93 <= ra.coverage <= 0.965 \
        and 0.035 <= rn.rejection_rate <= 0.065
    report("criterion 4 (time-varying, tau=4)", ok, detail)


@pytest.mark.slow
def test_criterion_5_augmentation_efficiency(report):
    results = {}
    for mode in ("informative", "uninformative"):
        cfg = ScenarioConfig(kind="icr", covariate_mode=mode, n_per_arm=200,
                             tau=1.0, replicates=2000, seed=SEED)
        oc = run_operating_characteristics(
            cfg, methods=("unadjusted", "adjusted"), truth=0.0)
        ru, ra = oc.row("unadjusted"), oc.row("adjusted")
        results[mode] = ((ru.ese / ra.ese) ** 2, ra.rejection_rate)
    re_inf, t1_inf = results["informative"]
    re_unf, t1_unf = results["uninformative"]
    detail = (f"RE(informative)={re_inf:.3f} RE(uninformative)={re_unf:.3f} "
              f"adjusted typeI={t1_inf:.4f}/{t1_unf:.4f}")
    ok = re_inf >= 1.2 and 0.95 <= re_unf <= 1.05 \
        and 0.035 <= t1_inf <= 0.065 and 0.035 <= t1_unf <= 0.065
    report("criterion 5 (augmentation efficiency)", ok, detail)


@pytest.mark.slow
def test_criterion_6_survival_bias_sensitivity(report):
    cfg = ScenarioConfig(kind="icr", n_per_arm=200, tau=4.0,
                         replicates=500, seed=SEED)
    # the grid lowers the modified arm's terminal rate to 0.10 while the
    # other stays at 0.20; under the exchangeable null the arm label is a
    # presentation choice, oriented here so the bias is reported positive
    _, oc = survival_bias_sensitivity(cfg, (0.10,), modified_arm=1)[0]
    r = oc.rows[0]
    detail = f"bias={r.bias:+.4f} CP={r.coverage:.4f}"
    ok = 0.65 <= r.bias <= 0.95 and r.coverage <= 0.72
    report("criterion 6 (survival-bias sensitivity)", ok, detail)


# --- criterion 7: property suite -------------------------------------------


def test_criterion_7a_switch_of_integration(rng, report):
    worst = 0.0
    for _ in range(200):
        arm = random_arm(rng, n=int(rng.integers(2, 15)))
        tau = float(rng.uniform(0.5, 6.0))
        lhs = aumcf_estimate(arm, tau)
        rhs = area_under_step(mcf(arm), tau)
        if max(abs(lhs), abs(rhs)) > 0:
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    report("criterion 7a (aumcf == area under MCF)", worst <= 1e-10,
            f"max rel err={worst:.2e}")


def test_criterion_7b_rmst_identity(rng, report):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 25))
        xs = rng.exponential(2.0, n)
        died = rng.random(n) < 0.7
        base = [(f"s{i}", float(x), bool(d))
                for i, (x, d) in enumerate(zip(xs, died))]
        withev = [(sid, x, d, (x,) if d else ()) for sid, x, d in base]
        tau = float(rng.uniform(0.5, 5.0))
        theta = aumcf_estimate(make_arm(1, withev), tau)
        ident = tau - rmst(make_arm(1, base), tau)
        if max(abs(theta), abs(ident)) > 0:
            worst = max(worst, abs(theta - ident) / max(abs(theta), abs(ident)))
    report("criterion 7b (theta == tau - RMST, death-only)", worst <= 1e-10,
            f"max rel err={worst:.2e}")


def test_criterion_7c_no_censoring_brute_force(rng, report):
    ok = True
    for _ in range(50):
        tau = float(rng.uniform(1.0, 6.0))
        subs = [(f"s{i}", tau, False,
                 tuple(sorted(rng.uniform(0, tau, int(rng.integers(0, 5))))))
                for i in range(int(rng.integers(2, 30)))]
        arm = make_arm(1, subs)
        brute = float(np.mean(time_lost_per_subject(arm, tau)))
        ok &= aumcf_estimate(arm, tau) == pytest.approx(brute, rel=1e-12, abs=1e-12)
    report("criterion 7c (theta == mean time lost, no censoring)", ok, "exact")


def test_criterion_7d_influence_sum_zero(rng, report):
    worst = 0.0
    for _ in range(100):
        arm = random_arm(rng, n=int(rng.integers(2, 60)))
        tau = float(rng.uniform(0.5, 5.0))
        psi = influence_values(arm, tau)
        scale = arm.n * max(float(np.abs(psi).max()), 1e-300)
        worst = max(worst, abs(float(psi.sum())) / scale)
    report("criterion 7d (sum of influence values == 0)", worst <= 1e-9,
            f"max |sum|/(n max|psi|)={worst:.2e}")


def test_criterion_7e_wald_ci_duality(rng, report):
    ok = True
    checked = 0
    for _ in range(200):
        study = random_study(rng, n=int(rng.integers(5, 25)))
        for alpha in (0.01, 0.05, 0.10):
            res = contrast_difference(study, alpha=alpha)
            ok &= (res.ci_lower > 0 or res.ci_upper < 0) == (res.p_value < alpha)
            try:
                rat = contrast_ratio(study, alpha=alpha)
            except RatioUndefinedError:
                continue
            ok &= (rat.ci_lower > 1 or rat.ci_upper < 1) == (rat.p_value < alpha)
            checked += 1
    report("criterion 7e (CI/p-value duality)", ok, f"{checked} ratio checks")


def test_criterion_7f_variance_reduction(rng, report):
    ok = True
    checked = 0
    for _ in range(100):
        study = random_study(rng, n=int(rng.integers(8, 40)),
                             n_cov=int(rng.integers(1, 3)))
        try:
            aug = augmented_contrast(study)
        except SingularCovariateError:
            continue
        ok &= aug.adjusted.se <= aug.unadjusted.se + 1e-12
        checked += 1
    report("criterion 7f (se_adj <= se_unadj)", ok, f"{checked} datasets")


def test_criterion_7g_bootstrap_agreement(report):
    hits = 0
    for r in range(50):
        cfg = ScenarioConfig(kind="icr", n_per_arm=200, tau=1.0, seed=SEED)
        study = generate_dataset(cfg, r)
        analytic = contrast_difference(study).se
        boot = bootstrap_se(study, B=1000, seed=SEED + r)
        if abs(boot - analytic) / analytic <= 0.10:
            hits += 1
    report("criterion 7g (bootstrap vs analytic se)", hits >= 45,
            f"{hits}/50 within 10%")


def test_criterion_7h_worked_time_lost_examples(report):
    arm = make_arm(1, [("o1", 24.0, False, (6.0, 12.0)), ("o3", 18.0, True, (6.0, 18.0))])
    v1, v3 = time_lost_per_subject(arm, 24.0).tolist()
    report("criterion 7h (worked 24-month examples)",
            v1 == 30.0 and v3 == 24.0, f"values {v1:g} and {v3:g}")
