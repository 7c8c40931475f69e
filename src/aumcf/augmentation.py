"""The covariate algebra of an augmented (covariate-adjusted) contrast.

A contrast on its working scale is shifted by beta' (Wbar1 - Wbar2), with
beta chosen to minimize the asymptotic variance: the solution of the
pooled covariate-covariance system against the covariate/influence
covariances. Under randomization the shift has mean zero, so the point
estimate stays consistent while the variance can only shrink. The
contrast itself, ``augmented_contrast`` included, is built in
:mod:`aumcf.inference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import StudyDataset, ValidationError

if TYPE_CHECKING:
    from .inference import ContrastResult


class SingularCovariateError(ValidationError):
    """Raised when the pooled covariate covariance is numerically singular."""


@dataclass(frozen=True)
class CovariateSummary:
    """Augmentation weight computation: the arms' covariate means and beta."""

    mean1: np.ndarray
    mean2: np.ndarray
    beta_hat: np.ndarray


@dataclass(frozen=True)
class AugmentedResult:
    """Adjusted and unadjusted contrasts plus the augmentation diagnostics.

    ``relative_efficiency`` is (se_unadjusted / se_adjusted)^2 on the
    working scale (the log scale for a ratio).
    """

    adjusted: ContrastResult
    unadjusted: ContrastResult
    summary: CovariateSummary
    covariate_names: tuple[str, ...]
    relative_efficiency: float

    def to_dict(self) -> dict:
        return {
            "adjusted": self.adjusted.to_dict(),
            "unadjusted": self.unadjusted.to_dict(),
            "beta_hat": self.summary.beta_hat.tolist(),
            "covariate_names": list(self.covariate_names),
            # null when the adjusted se is 0, which ``adjusted.degenerate`` flags
            "relative_efficiency": (self.relative_efficiency
                                    if math.isfinite(self.relative_efficiency) else None),
        }


def augmentation_weights(
    study: StudyDataset, psi1: np.ndarray, psi2: np.ndarray
) -> CovariateSummary:
    """Optimal augmentation weight beta solving Sigma_W beta = gamma, with
    gamma = sum over arms j of (n / n_j^2) C_j' psi_j and C_j the arm's
    centered covariates.

    ``psi1`` and ``psi2`` are the arms' influence values on the contrast's
    working scale, and beta is on that scale too. It is solved from psi
    scaled by one power of two and scaled back, which is exact: it is
    finite whenever it is representable, though the sums on psi itself
    may overflow. A singular system raises
    :class:`SingularCovariateError` naming the offending directions.
    """
    p = study.arm1.covariate_dim
    if p < 1:
        raise ValidationError("augmentation requires at least one covariate")
    n = study.n
    gamma = np.zeros(p)
    sigma_w = np.zeros((p, p))
    means = []
    e = _scale_exponent(psi1, psi2)
    for arm, psi in zip(study.arms(), (psi1, psi2)):
        if arm.n < p + 1:
            raise ValidationError(
                f"arm {arm.arm}: need at least p+1={p + 1} subjects for augmentation"
            )
        w = arm.covariates
        wbar = w.mean(axis=0)
        means.append(wbar)
        centered = w - wbar
        scale = n / arm.n**2
        gamma += scale * centered.T @ np.ldexp(psi, -e)
        sigma_w += scale * centered.T @ centered
    sigma_w = 0.5 * (sigma_w + sigma_w.T)
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
    return CovariateSummary(mean1=means[0], mean2=means[1], beta_hat=np.ldexp(beta, e))


def _scale_exponent(*psis: np.ndarray) -> int:
    """The e with max |psi| in [2**(e-1), 2**e): psi * 2**-e squares finitely."""
    return math.frexp(max(float(np.abs(psi).max()) for psi in psis))[1]
