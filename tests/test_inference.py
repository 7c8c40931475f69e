import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings

from aumcf import (
    RatioUndefinedError,
    StudyDataset,
    ValidationError,
    arm_variance,
    aumcf,
    contrast_difference,
    contrast_ratio,
    fit_arm,
    fit_influence,
    influence_values,
    weighted_contrast,
)
from aumcf.inference import contrast, wald_pvalue

from conftest import (
    dense_influence, make_arm, martingale_residuals, per_type_sum, random_arm,
    random_study, reference_fit, reference_influence, subject_rows, tied_arms,
)


def _shifted_toy_study(toy_arm):
    arm2 = make_arm(2, [
        ("t1", 10.0, True, (3.0, 6.0)),
        ("t2", 8.0, False, (4.0,)),
        ("t3", 12.0, False, ()),
    ])
    return StudyDataset(toy_arm, arm2, tau=12.0)


def test_martingale_residual_column_sums(toy_arm):
    res = martingale_residuals(toy_arm)
    assert np.allclose(res.d_event.sum(axis=0), 0.0, atol=1e-12)
    assert np.allclose(res.d_terminal.sum(axis=0), 0.0, atol=1e-12)


def test_martingale_single_subject_self_compensates():
    arm = make_arm(1, [("a", 2.0, False, (1.0,))])
    res = martingale_residuals(arm)
    assert np.allclose(res.d_event, 0.0)


def _rounded(arm, step=0.5):
    """The arm on a coarse time grid: tied events, tied deaths, and events
    tied with deaths."""
    def r(t):
        return round(t / step) * step
    return make_arm(arm.arm, [
        (sid, r(x), d, tuple(min(r(t), r(x)) for t in times), types)
        for sid, x, d, times, types, _ in subject_rows(arm)
    ])


def _assert_matches_oracle(arm, tau, s_convention="left", weights=None):
    got = influence_values(arm, tau, s_convention, weights)
    want = dense_influence(arm, tau, s_convention, weights)
    scale = np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale


# one type alone; every type weighted; and a map with a type (7) that no
# arm has and one (1) that it leaves out
_ORACLE_WEIGHTS = (None, {0: 1.0}, {1: 1.0}, {2: 1.0}, {0: 0.5, 1: 2.0, 2: 3.0},
                   {0: 1.5, 2: 0.25, 7: 4.0})


def test_influence_matches_dense_oracle(rng):
    # an event tied with its own death and with another subject's death
    tied = make_arm(1, [
        ("a", 2.0, True, (1.0, 2.0)),
        ("b", 2.0, True, (2.0,)),
        ("c", 3.0, False, (1.0, 2.0, 2.5)),
        ("d", 4.0, True, (3.0,)),
    ])
    for tau in (0.5, 1.0, 2.0, 2.7, 3.5, 10.0):
        for conv in ("left", "right"):
            _assert_matches_oracle(tied, tau, conv)
            _assert_matches_oracle(tied, tau, conv, {0: 2.5, 7: 1.0})
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
                for weights in _ORACLE_WEIGHTS:
                    _assert_matches_oracle(arm, tau, conv, weights)


def test_influence_empty_jump_sets():
    # no events and no deaths by tau: every influence value is zero
    arm = make_arm(1, [
        ("a", 1.0, False),
        ("b", 5.0, True, (4.0,)),
        ("c", 2.0, False),
    ])
    psi = influence_values(arm, 3.0)
    assert psi.shape == (3,) and np.all(psi == 0.0)


def test_influence_sums_to_zero(rng):
    for _ in range(40):
        arm = random_arm(rng, n=int(rng.integers(2, 40)))
        tau = float(rng.uniform(0.5, 5.0))
        psi = influence_values(arm, tau)
        bound = 1e-9 * arm.n * max(np.abs(psi).max(), 1e-300)
        assert abs(psi.sum()) <= bound


def test_influence_reduces_without_deaths_or_censoring(rng):
    # single event per subject, everyone followed to tau:
    # psi_i = (tau - T_i) - theta
    tau = 4.0
    times = np.sort(rng.uniform(0.1, tau - 0.1, 12))
    subs = [(f"s{i}", tau, False, (float(t),))
            for i, t in enumerate(times)]
    arm = make_arm(1, subs)
    theta = aumcf(arm, tau)
    psi = influence_values(arm, tau)
    expected = (tau - times) - theta
    assert psi == pytest.approx(expected, rel=1e-10)


def test_influence_zero_for_identical_histories():
    subs = [(f"s{i}", 5.0, True, (1.0, 2.0)) for i in range(4)]
    psi = influence_values(make_arm(1, subs), 5.0)
    assert np.allclose(psi, 0.0, atol=1e-12)


def test_arm_variance_trivial():
    assert arm_variance(np.array([0.0, 0.0])) == 0.0
    assert arm_variance(np.array([1.0, -1.0])) == 1.0


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
    mirrored = make_arm(2, subject_rows(toy_arm))
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
    doubled = make_arm(1, [
        (sid, x, d, tuple(sorted(times * 2))) for sid, x, d, times, *_ in subject_rows(arm)
    ])
    study = StudyDataset(doubled, make_arm(2, subject_rows(arm)), tau=3.0)
    res = contrast_ratio(study)
    assert res.point == pytest.approx(2.0, rel=1e-12)


def test_ratio_undefined_for_zero_theta():
    # either arm with no events: theta is 0 there
    events, none = [("a", 5.0, False, (1.0,))], [("b", 5.0, False)]
    for first, second, thetas in ((events, none, "theta1=4, theta2=0"),
                                  (none, events, "theta1=0, theta2=4")):
        study = StudyDataset(make_arm(1, first), make_arm(2, second), tau=5.0)
        with pytest.raises(RatioUndefinedError, match=thetas):
            contrast_ratio(study)


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
        return make_arm(label, [
            (sid, x, d, tuple(t for t, k in zip(times, types) if k == 0))
            for sid, x, d, times, types, _ in subject_rows(arm)
        ])
    sub = StudyDataset(only_type0(study.arm1, 1), only_type0(study.arm2, 2), study.tau)
    base = contrast_difference(sub)
    assert w2.point == pytest.approx(2 * base.point, rel=1e-6, abs=1e-9)


def _with_death_type(study):
    """The double-weight-on-death sensitivity construction: the terminal
    event encoded as an extra event type 9, to be given weight 2."""
    def arm(a):
        return make_arm(a.arm, [
            (sid, x, d, times + ((x,) if d else ()), (0,) * len(times) + ((9,) if d else ()))
            for sid, x, d, times, *_ in subject_rows(a)
        ])
    return StudyDataset(arm(study.arm1), arm(study.arm2), study.tau)


_DEATH_WEIGHTS = {0: 1.0, 9: 2.0}


def test_weighted_contrast_death_as_extra_type(rng):
    res = weighted_contrast(_with_death_type(random_study(rng, n=25)), _DEATH_WEIGHTS)
    assert math.isfinite(res.point) and math.isfinite(res.se) and res.se >= 0


def _assert_weighted_is_per_type_sum(study, weights, s_convention):
    estimates = []
    for arm in study.arms():
        fit = fit_arm(arm, study.tau, s_convention, weights)
        theta, psi = per_type_sum(arm, study.tau, s_convention, weights)
        assert abs(fit.theta - theta) <= 1e-12 * abs(theta)
        # round-off scales with the summands w_k psi_k, not with their sum,
        # which may cancel to round-off itself
        scale = sum(w * np.max(np.abs(fit_influence(fit_arm(arm, study.tau, s_convention,
                                                            {k: 1.0}))), initial=0.0)
                    for k, w in weights.items())
        assert np.max(np.abs(fit_influence(fit) - psi), initial=0.0) <= 1e-12 * scale
        estimates.append((theta, psi))
    res = weighted_contrast(study, weights, s_convention=s_convention)
    (t1, psi1), (t2, psi2) = estimates
    se = math.sqrt(arm_variance(psi1) / study.arm1.n + arm_variance(psi2) / study.arm2.n)
    assert res.point == pytest.approx(t1 - t2, rel=1e-12, abs=1e-12 * max(t1, t2))
    assert res.se == pytest.approx(se, rel=1e-12)


@pytest.mark.parametrize("s_convention", ["left", "right"])
def test_weighted_fit_is_the_per_type_sum(rng, s_convention):
    for _ in range(10):
        study = random_study(rng, n=int(rng.integers(2, 40)), n_types=3,
                             tau=float(rng.uniform(0.5, 5.0)))
        for weights in ({0: 1.0, 1: 2.0, 2: 0.5}, {0: 3.0, 1: 1e-3, 2: 1e3, 7: 2.0}):
            _assert_weighted_is_per_type_sum(study, weights, s_convention)
        _assert_weighted_is_per_type_sum(_with_death_type(study), _DEATH_WEIGHTS, s_convention)


# four events at time 0 with the same weighted mass, 2, for each of three
# subjects: the weighted influence values are exactly 0, while the per-type
# sum 1 psi_0 + 2 psi_1 cancels to round-off
_TIED_WEIGHTS = {0: 1.0, 1: 2.0, 2: 0.5}
_EQUAL_MASS_ARM = make_arm(2, [("s0", 0.0, False, (0.0,), (1,)),
                               ("s1", 0.0, False, (0.0, 0.0), (0, 0)),
                               ("s2", 0.0, False, (0.0,), (1,))])


def _exact_influence_without_deaths(arm, tau, weights):
    """psi_i = sum over event jumps u <= tau of (tau - u) n / Y(u) times
    subject i's residual dN_i(u) - [x_i >= u] dR(u), in exact rationals:
    with no deaths S_D is 1 and the terminal term vanishes."""
    assert not arm.terminal.any()
    tau, n = Fraction(tau), arm.n
    events = [(Fraction(t), int(i), Fraction(weights.get(int(k), 0))) for t, i, k
              in zip(arm.event_times, arm.event_subjects, arm.event_type_labels)]
    psi = [Fraction(0)] * n
    for u in sorted({t for t, _, w in events if t <= tau and w}):
        at_risk = [Fraction(x) >= u for x in arm.follow_up]
        mass = [Fraction(0)] * n
        for t, i, w in events:
            if t == u:
                mass[i] += w
        y = sum(at_risk)
        for i in range(n):
            psi[i] += (tau - u) * n / y * (mass[i] - at_risk[i] * sum(mass) / y)
    return psi


@pytest.mark.parametrize("s_convention", ["left", "right"])
def test_weighted_influence_is_exact_where_the_per_type_sum_cancels(s_convention):
    arm, tau = _EQUAL_MASS_ARM, 0.25
    assert _exact_influence_without_deaths(arm, tau, _TIED_WEIGHTS) == [0, 0, 0]
    psi = fit_influence(fit_arm(arm, tau, s_convention, _TIED_WEIGHTS))
    assert psi.tolist() == [0.0, 0.0, 0.0]
    _, summed = per_type_sum(arm, tau, s_convention, _TIED_WEIGHTS)
    assert 0 < np.max(np.abs(summed)) < 1e-15


@settings(max_examples=100, deadline=None)
@given(arm1=tied_arms(arm=1), arm2=tied_arms(arm=2))
@example(arm1=make_arm(1, [("s0", 1.0, True, (0.5,), (0,))]), arm2=_EQUAL_MASS_ARM)
def test_weighted_fit_is_the_per_type_sum_on_tied_grids(arm1, arm2):
    for tau in (0.25, 1.0, 1.75, 3.0):
        for s_convention in ("left", "right"):
            _assert_weighted_is_per_type_sum(StudyDataset(arm1, arm2, tau), _TIED_WEIGHTS,
                                             s_convention)


@pytest.mark.parametrize("s_convention", ["left", "right"])
def test_weighted_ratio_is_the_delta_method_on_the_per_type_sums(rng, s_convention):
    z = NormalDist().inv_cdf(0.975)
    for _ in range(10):
        study = random_study(rng, n=int(rng.integers(5, 40)), n_types=3,
                             tau=float(rng.uniform(0.5, 5.0)))
        for weights in ({0: 1.0, 1: 2.0, 2: 0.5}, {0: 3.0, 1: 1e-3, 2: 1e3, 7: 2.0}):
            (t1, psi1), (t2, psi2) = (per_type_sum(arm, study.tau, s_convention, weights)
                                      for arm in study.arms())
            se_log = math.sqrt(arm_variance(psi1 / t1) / study.arm1.n
                               + arm_variance(psi2 / t2) / study.arm2.n)
            res = contrast(study, 0.05, s_convention, ratio=True, weights=weights)
            assert res.kind == "ratio"
            assert res.point == pytest.approx(t1 / t2, rel=1e-12)
            assert res.se == pytest.approx(t1 / t2 * se_log, rel=1e-12)
            assert res.ci_lower == pytest.approx(t1 / t2 * math.exp(-z * se_log), rel=1e-12)
            assert res.ci_upper == pytest.approx(t1 / t2 * math.exp(z * se_log), rel=1e-12)
            assert res.p_value == pytest.approx(wald_pvalue(math.log(t1 / t2), se_log),
                                                rel=1e-9, abs=1e-300)


def test_uniform_weight_cancels_in_a_ratio(rng):
    for _ in range(10):
        study = random_study(rng, n=int(rng.integers(5, 40)), n_types=3)
        plain = contrast_ratio(study)
        for c in (1e-3, 2.0, 1e3):
            res = contrast(study, 0.05, "left", ratio=True, weights={0: c, 1: c, 2: c})
            assert res.point == pytest.approx(plain.point, rel=1e-12)
            assert res.se == pytest.approx(plain.se, rel=1e-12)


def test_fit_keeps_its_own_weights(rng):
    # changing the caller's map after the fit must not change its influence
    arm = random_arm(rng, n=30, n_types=3)
    weights = {0: 1.0, 1: 2.0, 2: 0.5}
    fit = fit_arm(arm, 2.0, weights=weights)
    expected = fit_influence(fit_arm(arm, 2.0, weights=dict(weights)))
    weights[1] = 0.0
    assert np.array_equal(fit_influence(fit), expected)


def test_weighted_contrast_validation(rng):
    study = random_study(rng, n=10, n_types=2)
    with pytest.raises(ValidationError, match="positive"):
        weighted_contrast(study, {0: 1.0, 1: -1.0})
    with pytest.raises(ValidationError, match="no weight supplied"):
        weighted_contrast(study, {0: 1.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_weighted_contrast_rejects_non_finite_weights(rng, bad):
    study = random_study(rng, n=10, n_types=2)
    with pytest.raises(ValidationError, match="positive and finite"):
        weighted_contrast(study, {0: 1.0, 1: bad})


@pytest.mark.parametrize("alpha", [1e-320, 2.0 ** -53, 0.0, 1.0, math.nan])
def test_contrasts_reject_bad_alpha(rng, alpha):
    study = random_study(rng, n=10)
    for preset in (contrast_difference, contrast_ratio):
        with pytest.raises(ValidationError, match="alpha must be in"):
            preset(study, alpha=alpha)
    with pytest.raises(ValidationError, match="alpha must be in"):
        weighted_contrast(study, {0: 1.0}, alpha=alpha)


def test_smallest_alpha_keeps_normal_quantile(rng):
    alpha = 2.0 ** -52
    res = contrast_difference(random_study(rng, n=10), alpha=alpha)
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    assert res.ci_upper == res.point + z * res.se


@settings(max_examples=150, deadline=None)
@given(arm=tied_arms())
def test_fit_and_influence_are_bitwise_the_subject_order_computation(arm):
    # tau before the first jump (on the grid without 0), between grid
    # points, on one, and beyond the last follow-up; type 2 may be absent;
    # a type missing from the weights or weighted 0 is dropped
    for tau in (0.25, 1.0, 1.75, 3.0):
        for s_convention in ("left", "right"):
            for weights in (None, {0: 1.0}, {2: 1.0}, {0: 0.0, 1: 2.0, 2: 1.0}):
                fit = fit_arm(arm, tau, s_convention, weights)
                want = reference_fit(arm, tau, s_convention, weights)
                assert float(fit.theta).hex() == float(want.pop("theta")).hex()
                for name, ref in want.items():
                    got = getattr(fit, name)
                    assert (got.dtype, got.tobytes()) == (ref.dtype, ref.tobytes()), name
                psi, ref = fit_influence(fit), reference_influence(fit)
                assert (psi.dtype, psi.tobytes()) == (ref.dtype, ref.tobytes())
