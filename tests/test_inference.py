import math
from statistics import NormalDist

import numpy as np
import pytest

from aumcf import (
    ArmDataset,
    RatioUndefinedError,
    StudyDataset,
    SubjectHistory,
    ValidationError,
    arm_variance,
    aumcf,
    contrast_difference,
    contrast_ratio,
    ghosh_lin_Q,
    influence_values,
    km_survival,
    weighted_contrast,
)
from aumcf.inference import InfluenceSet, wald_pvalue

from conftest import dense_influence, martingale_residuals, random_arm, random_study


def _shifted_toy_study(toy_arm):
    arm2 = ArmDataset(2, [
        SubjectHistory("t1", 10.0, True, (3.0, 6.0)),
        SubjectHistory("t2", 8.0, False, (4.0,)),
        SubjectHistory("t3", 12.0, False, ()),
    ])
    return StudyDataset(toy_arm, arm2, tau=12.0)


def test_martingale_residual_column_sums(toy_arm):
    res = martingale_residuals(toy_arm)
    assert np.allclose(res.d_event.sum(axis=0), 0.0, atol=1e-12)
    assert np.allclose(res.d_terminal.sum(axis=0), 0.0, atol=1e-12)


def test_martingale_single_subject_self_compensates():
    arm = ArmDataset(1, [SubjectHistory("a", 2.0, False, (1.0,))])
    res = martingale_residuals(arm)
    assert np.allclose(res.d_event, 0.0)


def _rounded(arm, step=0.5):
    """The arm on a coarse time grid: tied events, tied deaths, and events
    tied with deaths."""
    def r(t):
        return round(t / step) * step
    return ArmDataset(arm.arm, [
        SubjectHistory(s.subject_id, r(s.follow_up), s.terminal,
                       tuple(min(r(t), r(s.follow_up)) for t in s.event_times),
                       s.event_types)
        for s in arm.subjects
    ])


def _assert_matches_oracle(arm, tau, s_convention="left", event_type=None):
    got = influence_values(arm, tau, s_convention, event_type).values
    want = dense_influence(arm, tau, s_convention, event_type)
    scale = np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale


def test_influence_matches_dense_oracle(rng):
    # an event tied with its own death and with another subject's death
    tied = ArmDataset(1, [
        SubjectHistory("a", 2.0, True, (1.0, 2.0)),
        SubjectHistory("b", 2.0, True, (2.0,)),
        SubjectHistory("c", 3.0, False, (1.0, 2.0, 2.5)),
        SubjectHistory("d", 4.0, True, (3.0,)),
    ])
    for tau in (0.5, 1.0, 2.0, 2.7, 3.5, 10.0):
        for conv in ("left", "right"):
            _assert_matches_oracle(tied, tau, conv)
    for _ in range(30):
        arm = _rounded(random_arm(rng, n=int(rng.integers(2, 40)), n_types=3))
        x_max = float(arm.follow_up.max())
        first = min(np.min(arm.event_times, initial=np.inf),
                    np.min(arm.follow_up[arm.terminal], initial=np.inf))
        taus = [float(rng.uniform(0.1, 5.0)), x_max + 1.0]
        if 0 < first < np.inf:
            taus.append(first / 2)  # before the first jump
        for tau in taus:
            for conv in ("left", "right"):
                for k in (None, 0, 1, 2):
                    _assert_matches_oracle(arm, tau, conv, k)


def test_influence_empty_jump_sets():
    # no events and no deaths by tau: every influence value is zero
    arm = ArmDataset(1, [
        SubjectHistory("a", 1.0, False),
        SubjectHistory("b", 5.0, True, (4.0,)),
        SubjectHistory("c", 2.0, False),
    ])
    psi = influence_values(arm, 3.0).values
    assert psi.shape == (3,) and np.all(psi == 0.0)


def test_influence_sums_to_zero(rng):
    for _ in range(40):
        arm = random_arm(rng, n=int(rng.integers(2, 40)))
        tau = float(rng.uniform(0.5, 5.0))
        psi = influence_values(arm, tau).values
        bound = 1e-9 * arm.n * max(np.abs(psi).max(), 1e-300)
        assert abs(psi.sum()) <= bound


def test_influence_reduces_without_deaths_or_censoring(rng):
    # single event per subject, everyone followed to tau:
    # psi_i = (tau - T_i) - theta
    tau = 4.0
    times = np.sort(rng.uniform(0.1, tau - 0.1, 12))
    subs = [SubjectHistory(f"s{i}", tau, False, (float(t),))
            for i, t in enumerate(times)]
    arm = ArmDataset(1, subs)
    theta = aumcf(arm, tau)
    psi = influence_values(arm, tau).values
    expected = (tau - times) - theta
    assert psi == pytest.approx(expected, rel=1e-10)


def test_influence_zero_for_identical_histories():
    subs = [SubjectHistory(f"s{i}", 5.0, True, (1.0, 2.0)) for i in range(4)]
    psi = influence_values(ArmDataset(1, subs), 5.0).values
    assert np.allclose(psi, 0.0, atol=1e-12)


def test_arm_variance_trivial():
    mk = lambda v: InfluenceSet(1, 1.0, np.array(v))
    assert arm_variance(mk([0.0, 0.0])) == 0.0
    assert arm_variance(mk([1.0, -1.0])) == 1.0


def test_normal_helpers():
    assert wald_pvalue(1.959964 * 2.0, 2.0) == pytest.approx(0.05, abs=1e-6)
    assert wald_pvalue(0.0, 2.0) == 1.0
    assert wald_pvalue(3.0, 1.0) == pytest.approx(0.0026998, abs=1e-7)
    # the Wald CI half-width is the standard normal quantile times the SE
    study = random_study(np.random.default_rng(5), n=15)
    for alpha in (0.001, 0.05, 0.5):
        res = contrast_difference(study, alpha=alpha)
        z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
        assert res.ci_upper - res.point == pytest.approx(z * res.se, rel=1e-12)
        assert wald_pvalue(z * res.se, res.se) == pytest.approx(alpha, rel=1e-9)


def test_wald_degenerate_conventions():
    assert wald_pvalue(0.0, 0.0) == 1.0
    assert wald_pvalue(1.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        wald_pvalue(1.0, -1.0)


def test_contrast_identical_arms(toy_arm):
    mirrored = ArmDataset(2, [
        SubjectHistory(s.subject_id, s.follow_up, s.terminal, s.event_times)
        for s in toy_arm.subjects
    ])
    study = StudyDataset(toy_arm, mirrored, tau=12.0)
    res = contrast_difference(study)
    assert res.point == 0.0 and res.p_value == 1.0
    rat = contrast_ratio(study)
    assert rat.point == 1.0 and rat.p_value == 1.0


def test_contrast_difference_hand_value(toy_arm):
    study = _shifted_toy_study(toy_arm)
    res = contrast_difference(study)
    # 26/3 - 23/3
    assert res.point == pytest.approx(1.0, rel=1e-12)
    assert res.theta1 == pytest.approx(26 / 3) and res.theta2 == pytest.approx(23 / 3)


def test_ratio_doubled_events(rng):
    # duplicating every event doubles theta with the same survival curve
    arm = random_arm(rng, n=25)
    doubled = ArmDataset(2, [
        SubjectHistory(s.subject_id, s.follow_up, s.terminal,
                       tuple(sorted(s.event_times * 2)))
        for s in arm.subjects
    ])
    study = StudyDataset(ArmDataset(1, doubled.subjects), ArmDataset(2, arm.subjects), tau=3.0)
    res = contrast_ratio(study)
    assert res.point == pytest.approx(2.0, rel=1e-12)


def test_ratio_undefined_for_zero_theta():
    a1 = ArmDataset(1, [SubjectHistory("a", 5.0, False, (1.0,))])
    a2 = ArmDataset(2, [SubjectHistory("b", 5.0, False)])
    with pytest.raises(RatioUndefinedError):
        contrast_ratio(StudyDataset(a1, a2, tau=5.0))


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.10])
def test_wald_ci_duality(rng, alpha):
    # CI excludes 0 (or 1 for ratios) exactly when p < alpha
    for _ in range(200):
        study = random_study(rng, n=int(rng.integers(5, 25)))
        res = contrast_difference(study, alpha=alpha)
        excludes = res.ci_lower > 0 or res.ci_upper < 0
        assert excludes == (res.p_value < alpha)
        try:
            rat = contrast_ratio(study, alpha=alpha)
        except RatioUndefinedError:
            continue
        excludes = rat.ci_lower > 1 or rat.ci_upper < 1
        assert excludes == (rat.p_value < alpha)


def test_ghosh_lin_identical_arms(toy_arm):
    mirrored = ArmDataset(2, toy_arm.subjects)
    assert ghosh_lin_Q(StudyDataset(toy_arm, mirrored, tau=12.0)) == 0.0


def test_ghosh_lin_sign_and_hand_value(toy_arm):
    empty2 = ArmDataset(2, [
        SubjectHistory(s.subject_id, s.follow_up, s.terminal, ())
        for s in toy_arm.subjects
    ])
    study = StudyDataset(toy_arm, empty2, tau=12.0)
    q = ghosh_lin_Q(study)
    d = contrast_difference(study).point
    assert q > 0 and d > 0
    # brute-force evaluation of the weighted integrand over the union jumps
    shifted = _shifted_toy_study(toy_arm)
    u = np.unique(np.concatenate([
        shifted.arm1.event_times, shifted.arm2.event_times
    ]))
    total = 0.0
    for t in u:
        y1 = shifted.arm1.at_risk(np.array([t]))[0]
        y2 = shifted.arm2.at_risk(np.array([t]))[0]
        s1 = km_survival(shifted.arm1).left_limit(t)
        s2 = km_survival(shifted.arm2).left_limit(t)
        d1 = np.sum(shifted.arm1.event_times == t)
        d2 = np.sum(shifted.arm2.event_times == t)
        w = (y1 * y2 / (3 * 3)) / ((y1 + y2) / 6)
        total += w * (s1 * d1 / y1 - s2 * d2 / y2)
    assert ghosh_lin_Q(shifted) == pytest.approx(total, rel=1e-12)


def test_weighted_contrast_reduces_to_difference(rng):
    study = random_study(rng, n=20)
    plain = contrast_difference(study)
    weighted = weighted_contrast(study, {0: 1.0})
    assert weighted.point == pytest.approx(plain.point, rel=1e-12)
    assert weighted.se == pytest.approx(plain.se, rel=1e-12)


def test_weighted_contrast_linearity(rng):
    study = random_study(rng, n=20, n_types=2)
    w2 = weighted_contrast(study, {0: 2.0, 1: 1e-12})
    # type-0-only study for comparison
    def only_type0(arm, label):
        return ArmDataset(label, [
            SubjectHistory(
                s.subject_id, s.follow_up, s.terminal,
                tuple(t for t, k in zip(s.event_times, s.event_types) if k == 0),
            )
            for s in arm.subjects
        ])
    sub = StudyDataset(only_type0(study.arm1, 1), only_type0(study.arm2, 2), study.tau)
    base = contrast_difference(sub)
    assert w2.point == pytest.approx(2 * base.point, rel=1e-6, abs=1e-9)


def test_weighted_contrast_death_as_extra_type(rng):
    # the double-weight-on-death sensitivity construction: encode the
    # terminal event as an extra event type with weight 2
    study = random_study(rng, n=25)
    def with_death_type(arm, label):
        return ArmDataset(label, [
            SubjectHistory(
                s.subject_id, s.follow_up, s.terminal,
                s.event_times + ((s.follow_up,) if s.terminal else ()),
                tuple([0] * len(s.event_times)) + ((9,) if s.terminal else ()),
            )
            for s in arm.subjects
        ])
    aug = StudyDataset(with_death_type(study.arm1, 1), with_death_type(study.arm2, 2), study.tau)
    res = weighted_contrast(aug, {0: 1.0, 9: 2.0})
    assert math.isfinite(res.point) and math.isfinite(res.se) and res.se >= 0


def test_weighted_contrast_validation(rng):
    study = random_study(rng, n=10, n_types=2)
    with pytest.raises(ValidationError, match="positive"):
        weighted_contrast(study, {0: 1.0, 1: -1.0})
    with pytest.raises(ValidationError, match="no weight supplied"):
        weighted_contrast(study, {0: 1.0})
