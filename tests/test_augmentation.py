import json
import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest

from aumcf import (
    SingularCovariateError,
    StudyDataset,
    augmentation_weights,
    augmented_contrast,
    contrast_difference,
    influence_values,
)
from aumcf.inference import _contrast

from conftest import (
    dense_influence, make_arm, near_collinear_study, per_type_sum, random_arm, random_study,
    subject_rows,
)


def _with_covariates(arm, label, covs):
    return make_arm(label, [
        (*row[:5], (float(w),)) for row, w in zip(subject_rows(arm), covs)
    ])


def test_constant_covariate_singular(rng):
    arm1 = _with_covariates(random_arm(rng, n=15), 1, np.ones(15))
    arm2 = _with_covariates(random_arm(rng, n=15), 2, np.ones(15))
    study = StudyDataset(arm1, arm2, tau=2.0, covariate_names=("w1",))
    with pytest.raises(SingularCovariateError, match="w1"):
        augmented_contrast(study)


def test_scalar_beta_closed_form(rng):
    study = random_study(rng, n=20, n_cov=1)
    psi1 = influence_values(study.arm1, study.tau)
    psi2 = influence_values(study.arm2, study.tau)
    summary = augmentation_weights(study, psi1, psi2)
    n = study.n
    gamma = sigma_w = 0.0
    for arm, psi in ((study.arm1, psi1), (study.arm2, psi2)):
        w = arm.covariates[:, 0]
        c = w - w.mean()
        gamma += n / arm.n**2 * float(c @ psi)
        sigma_w += n / arm.n**2 * float(c @ c)
    assert summary.beta_hat[0] == pytest.approx(gamma / sigma_w, rel=1e-12)


def test_permuted_covariate_near_zero_beta(rng):
    # covariate independent of outcomes: gamma within MC noise of zero
    betas = []
    for _ in range(30):
        study = random_study(rng, n=60, n_cov=1)
        psi1 = influence_values(study.arm1, study.tau)
        psi2 = influence_values(study.arm2, study.tau)
        betas.append(augmentation_weights(study, psi1, psi2).beta_hat[0])
    assert abs(np.mean(betas)) < 3 * np.std(betas) / np.sqrt(len(betas)) + 0.15


def test_mirrored_covariates_keep_point(rng):
    base1 = random_arm(rng, n=16, arm=1)
    base2 = random_arm(rng, n=16, arm=2)
    covs = rng.standard_normal(16)
    study = StudyDataset(
        _with_covariates(base1, 1, covs),
        _with_covariates(base2, 2, covs),
        tau=2.5,
        covariate_names=("w1",),
    )
    aug = augmented_contrast(study)
    # Wbar1 == Wbar2 exactly, so the augmentation shift vanishes
    assert aug.adjusted.point == pytest.approx(aug.unadjusted.point, abs=1e-12)


def test_variance_reduction_inequality(rng):
    for _ in range(40):
        study = random_study(rng, n=int(rng.integers(8, 40)), n_cov=int(rng.integers(1, 3)))
        try:
            aug = augmented_contrast(study)
        except SingularCovariateError:
            continue
        assert aug.adjusted.se <= aug.unadjusted.se + 1e-12
        assert aug.relative_efficiency >= 1.0 - 1e-12


def test_unadjusted_matches_contrast_difference(rng):
    study = random_study(rng, n=25, n_cov=1)
    aug = augmented_contrast(study)
    plain = contrast_difference(study)
    assert aug.unadjusted.point == plain.point
    assert aug.unadjusted.se == plain.se


def test_zero_covariates_passthrough(rng):
    study = random_study(rng, n=15)
    aug = augmented_contrast(study)
    assert aug.adjusted == aug.unadjusted
    assert aug.relative_efficiency == 1.0


def test_collinear_covariates_singular(rng):
    base1 = random_arm(rng, n=20, arm=1)
    base2 = random_arm(rng, n=20, arm=2)
    w1 = rng.standard_normal(20)
    w2 = rng.standard_normal(20)

    def dup(arm, label, w):
        return make_arm(label, [
            (*row[:5], (float(v), float(2 * v))) for row, v in zip(subject_rows(arm), w)
        ])

    study = StudyDataset(dup(base1, 1, w1), dup(base2, 2, w2), tau=2.0,
                         covariate_names=("w1", "w2"))
    with pytest.raises(SingularCovariateError):
        augmented_contrast(study)


def test_no_events_relative_efficiency_is_null():
    arms = [
        make_arm(k, [(f"{k}{i}", 2.0 + i, False, (), (), (float(w),))
                     for i, w in enumerate(ws)])
        for k, ws in ((1, (0.5, 1.5, -1.0)), (2, (0.1, 0.7, 2.0)))
    ]
    aug = augmented_contrast(StudyDataset(arms[0], arms[1], tau=1.0))
    assert aug.relative_efficiency == math.inf and aug.adjusted.degenerate
    out = aug.to_dict()
    assert out["relative_efficiency"] is None
    json.dumps(out, allow_nan=False)


def _least_squares_augmentation(study, psis, point):
    """The augmented working point, its SE and beta, by direct weighted least
    squares: beta minimizes sum over arms of ||psi_a - C_a beta||^2 / n_a^2,
    C_a the arm's centered covariates, and that minimum is the adjusted
    variance of point - beta' (Wbar1 - Wbar2)."""
    rows, targets, means = [], [], []
    for arm, psi in zip(study.arms(), psis):
        w = arm.covariates
        means.append(w.mean(axis=0))
        rows.append((w - w.mean(axis=0)) / arm.n)
        targets.append(psi / arm.n)
    design, target = np.vstack(rows), np.concatenate(targets)
    beta = np.linalg.lstsq(design, target, rcond=None)[0]
    rss = float(np.sum((target - design @ beta) ** 2))
    return point - float(beta @ (means[0] - means[1])), math.sqrt(rss), beta


_WEIGHTS = {0: 1.5, 1: 2.0, 2: 0.5}


def _random_covariate_study(rng):
    return random_study(rng, n=int(rng.integers(8, 40)), n_cov=int(rng.integers(1, 3)),
                        n_types=3, tau=float(rng.uniform(0.5, 4.0)))


@pytest.mark.parametrize("s_convention", ["left", "right"])
def test_augmented_ratio_is_least_squares_on_the_log_scale(rng, s_convention):
    # the log ratio's influence values psi / theta, augmented directly
    for _ in range(15):
        study = _random_covariate_study(rng)
        thetas = [per_type_sum(arm, study.tau, s_convention, {0: 1.0, 1: 1.0, 2: 1.0})[0]
                  for arm in study.arms()]
        psis = [dense_influence(arm, study.tau, s_convention) / t
                for arm, t in zip(study.arms(), thetas)]
        log_point, se_log, beta = _least_squares_augmentation(
            study, psis, math.log(thetas[0] / thetas[1]))
        aug = _contrast(study, 0.05, s_convention, ratio=True, augment=True)
        assert aug.adjusted.kind == aug.unadjusted.kind == "ratio"
        assert aug.summary.beta_hat == pytest.approx(beta, rel=1e-9, abs=1e-12)
        ratio = math.exp(log_point)
        assert aug.adjusted.point == pytest.approx(ratio, rel=1e-12)
        assert aug.adjusted.se == pytest.approx(ratio * se_log, rel=1e-9)
        z = NormalDist().inv_cdf(0.975)
        assert aug.adjusted.ci_lower == pytest.approx(math.exp(log_point - z * se_log), rel=1e-9)
        assert aug.adjusted.ci_upper == pytest.approx(math.exp(log_point + z * se_log), rel=1e-9)
        # the relative efficiency is on the log scale
        se_unadjusted = aug.unadjusted.se / aug.unadjusted.point
        assert aug.relative_efficiency == pytest.approx((se_unadjusted / se_log) ** 2, rel=1e-9)
        assert aug.unadjusted == _contrast(study, 0.05, s_convention, ratio=True)


@pytest.mark.parametrize("s_convention", ["left", "right"])
def test_augmented_weighted_is_least_squares_on_the_weighted_influence(rng, s_convention):
    for _ in range(15):
        study = _random_covariate_study(rng)
        thetas, psis = zip(*(per_type_sum(arm, study.tau, s_convention, _WEIGHTS)
                             for arm in study.arms()))
        point, se, beta = _least_squares_augmentation(study, psis, thetas[0] - thetas[1])
        aug = _contrast(study, 0.05, s_convention, weights=_WEIGHTS, augment=True)
        assert aug.adjusted.kind == "difference"
        assert aug.summary.beta_hat == pytest.approx(beta, rel=1e-9, abs=1e-12)
        assert aug.adjusted.point == pytest.approx(point, rel=1e-9, abs=1e-12)
        assert aug.adjusted.se == pytest.approx(se, rel=1e-9)
        assert aug.unadjusted == _contrast(study, 0.05, s_convention, weights=_WEIGHTS)


def _exact_adjusted_se(study, psis):
    """The adjusted SE of a one-covariate difference as the root of an exact
    rational least-squares residual sum of squares, in the weighting of
    ``_least_squares_augmentation``, from the float inputs."""
    arms = []
    for arm, psi in zip(study.arms(), psis):
        w = [Fraction(v) for v in arm.covariates[:, 0].tolist()]
        mean = sum(w) / len(w)
        arms.append(([v - mean for v in w], [Fraction(v) for v in psi.tolist()], arm.n))
    beta = (sum(sum(c * p for c, p in zip(cs, ps)) / n**2 for cs, ps, n in arms)
            / sum(sum(c * c for c in cs) / n**2 for cs, _, n in arms))
    rss = sum(sum((p - c * beta) ** 2 for c, p in zip(cs, ps)) / n**2 for cs, ps, n in arms)
    return math.sqrt(rss)


def test_adjusted_se_is_exact_for_a_nearly_collinear_covariate(rng):
    # the covariate explains the influence values to 1e-8: the adjusted
    # variance is about 1e-16 of the unadjusted one, which a difference of
    # the two variances cannot resolve
    for _ in range(5):
        study = near_collinear_study(rng, 1e-8)
        psis = [influence_values(arm, study.tau) for arm in study.arms()]
        aug = augmented_contrast(study)
        assert aug.adjusted.se == pytest.approx(_exact_adjusted_se(study, psis), rel=1e-6)
        assert 0 < aug.adjusted.se < 1e-6 * aug.unadjusted.se


def test_augmentation_weights_is_finite_when_beta_is(rng):
    # at tau 1e300 with covariates of order 1e10, C'psi and so gamma
    # overflow, but beta, about psi / W, is far inside the float range
    study = random_study(rng, tau=1e300, n=30, n_cov=2)
    arms = [make_arm(arm.arm, [(*row[:5], tuple(1e10 * w for w in row[5]))
                               for row in subject_rows(arm)]) for arm in study.arms()]
    study = StudyDataset(*arms, tau=study.tau, covariate_names=study.covariate_names)
    psi1, psi2 = (influence_values(arm, study.tau) for arm in study.arms())
    with np.errstate(over="ignore"):
        summary = augmentation_weights(study, psi1, psi2)
        aug = augmented_contrast(study)
    assert np.isfinite(summary.beta_hat).all()
    assert summary.beta_hat.tobytes() == aug.summary.beta_hat.tobytes()
    # scaling psi by a power of two scales beta exactly
    small = augmentation_weights(study, np.ldexp(psi1, -900), np.ldexp(psi2, -900))
    assert summary.beta_hat.tobytes() == np.ldexp(small.beta_hat, 900).tobytes()
