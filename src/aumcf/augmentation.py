"""Covariate-adjusted (augmented) two-sample contrast.

The unadjusted difference is shifted by beta' (Wbar1 - Wbar2), with beta
chosen to minimize the asymptotic variance: the solution of the pooled
covariate-covariance system against the covariate/influence covariances.
Under randomization the shift has mean zero, so the point estimate stays
consistent while the variance can only shrink.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import StudyDataset, ValidationError
from .inference import (
    ContrastResult,
    InfluenceSet,
    _arm_estimates,
    _difference_result,
    _wald_result,
    arm_variance,
)


class SingularCovariateError(ValidationError):
    """Raised when the pooled covariate covariance is numerically singular."""


@dataclass(frozen=True)
class CovariateSummary:
    """Augmentation weight computation: arm means, covariances, and beta."""

    mean1: np.ndarray
    mean2: np.ndarray
    gamma_hat: np.ndarray
    sigma_w_hat: np.ndarray
    beta_hat: np.ndarray


@dataclass(frozen=True)
class AugmentedResult:
    """Adjusted and unadjusted contrasts plus the augmentation diagnostics.

    ``relative_efficiency`` is (se_unadjusted / se_adjusted)^2;
    ``variance_clamped`` flags a negative plug-in adjusted variance that was
    clamped to zero.
    """

    adjusted: ContrastResult
    unadjusted: ContrastResult
    summary: CovariateSummary
    covariate_names: tuple[str, ...]
    relative_efficiency: float
    variance_clamped: bool = False

    def to_dict(self) -> dict:
        return {
            "adjusted": self.adjusted.to_dict(),
            "unadjusted": self.unadjusted.to_dict(),
            "beta_hat": self.summary.beta_hat.tolist(),
            "covariate_names": list(self.covariate_names),
            "relative_efficiency": self.relative_efficiency,
            "variance_clamped": self.variance_clamped,
        }


def augmentation_weights(
    study: StudyDataset,
    inf1: InfluenceSet,
    inf2: InfluenceSet,
    ridge: float | None = None,
) -> CovariateSummary:
    """Optimal augmentation weight beta solving Sigma_W beta = gamma.

    ``ridge`` adds eps * trace(Sigma_W)/p to the diagonal for nearly
    collinear covariates; without it a singular system raises
    :class:`SingularCovariateError` naming the offending directions.
    """
    p = study.arm1.covariate_dim
    if p < 1:
        raise ValidationError("augmentation requires at least one covariate")
    n = study.n
    gamma = np.zeros(p)
    sigma_w = np.zeros((p, p))
    means = []
    for arm, inf in zip(study.arms(), (inf1, inf2)):
        if arm.n < p + 1:
            raise ValidationError(
                f"arm {arm.arm}: need at least p+1={p + 1} subjects for augmentation"
            )
        w = arm.covariates
        wbar = w.mean(axis=0)
        means.append(wbar)
        centered = w - wbar
        scale = n / arm.n**2
        gamma += scale * centered.T @ inf.values
        sigma_w += scale * centered.T @ centered
    sigma_w = 0.5 * (sigma_w + sigma_w.T)
    if ridge is not None:
        sigma_w = sigma_w + ridge * np.trace(sigma_w) / p * np.eye(p)
    eigvals, eigvecs = np.linalg.eigh(sigma_w)
    if eigvals[-1] <= 0 or eigvals[0] <= 1e-10 * eigvals[-1]:
        bad = eigvals <= 1e-10 * max(eigvals[-1], 0.0)
        names = study.covariate_names or tuple(f"w{k + 1}" for k in range(p))
        directions = []
        for vec in eigvecs[:, bad].T:
            k = int(np.argmax(np.abs(vec)))
            directions.append(names[k])
        raise SingularCovariateError(
            "covariate covariance is numerically singular along direction(s) "
            f"dominated by: {sorted(set(directions))}"
        )
    beta = np.linalg.solve(sigma_w, gamma)
    return CovariateSummary(
        mean1=means[0], mean2=means[1],
        gamma_hat=gamma, sigma_w_hat=sigma_w, beta_hat=beta,
    )


def augmented_contrast(
    study: StudyDataset,
    alpha: float = 0.05,
    s_convention: str = "left",
    ridge: float | None = None,
) -> AugmentedResult:
    """Covariate-adjusted difference in AUMCFs with both results reported.

    With zero covariates the adjusted result equals the unadjusted one. A
    negative plug-in adjusted variance is clamped to zero with a warning.
    """
    estimates = _arm_estimates(study, s_convention)
    unadjusted = _difference_result(study, alpha, estimates)
    (_, inf1), (_, inf2) = estimates

    p = study.arm1.covariate_dim
    if p == 0:
        summary = CovariateSummary(
            mean1=np.empty(0), mean2=np.empty(0),
            gamma_hat=np.empty(0), sigma_w_hat=np.empty((0, 0)),
            beta_hat=np.empty(0),
        )
        return AugmentedResult(
            adjusted=unadjusted, unadjusted=unadjusted, summary=summary,
            covariate_names=study.covariate_names, relative_efficiency=1.0,
        )

    summary = augmentation_weights(study, inf1, inf2, ridge=ridge)
    point = unadjusted.point - float(summary.beta_hat @ (summary.mean1 - summary.mean2))
    n1, n2 = study.arm1.n, study.arm2.n
    n = n1 + n2
    sigma_delta = n * (arm_variance(inf1) / n1 + arm_variance(inf2) / n2)
    sigma_adj = sigma_delta - float(summary.gamma_hat @ summary.beta_hat)
    clamped = False
    if sigma_adj < 0:
        warnings.warn(
            "negative plug-in adjusted variance clamped to zero",
            RuntimeWarning,
            stacklevel=2,
        )
        sigma_adj = 0.0
        clamped = True
    se_adj = math.sqrt(sigma_adj / n)
    adjusted = _wald_result(
        "difference", study.tau, alpha, point, se_adj, 0.0,
        unadjusted.theta1, unadjusted.se1, unadjusted.theta2, unadjusted.se2, n1, n2,
    )
    rel_eff = (unadjusted.se / se_adj) ** 2 if se_adj > 0 else math.inf
    return AugmentedResult(
        adjusted=adjusted,
        unadjusted=unadjusted,
        summary=summary,
        covariate_names=study.covariate_names,
        relative_efficiency=rel_eff,
        variance_clamped=clamped,
    )
