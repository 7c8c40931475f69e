"""The two-sample contrasts and their influence-function Wald inference.

Every contrast (difference or ratio, with or without event-type weights,
with or without covariate augmentation) is one pipeline, ``_contrast``;
the public contrast functions are one call into it each. The arm variance
is the sample mean of the squared influence values; the two-sample
standard error follows from independence of arms.

Covariate augmentation shifts a contrast on its working scale by
beta' (Wbar1 - Wbar2), with beta chosen to minimize the asymptotic
variance: the solution of the pooled covariate-covariance system against
the covariate/influence covariances. Under randomization the shift has
mean zero, so the point estimate stays consistent while the variance can
only shrink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from statistics import NormalDist

import numpy as np

from .core import StudyDataset, ValidationError
from .estimation import fit_arm, fit_influence


class RatioUndefinedError(ValueError):
    """Raised when a ratio contrast is requested with a nonpositive AUMCF."""


class SingularCovariateError(ValidationError):
    """Raised when the pooled covariate covariance is numerically singular."""


@dataclass(frozen=True)
class ContrastResult:
    """Two-sample contrast with Wald inference.

    The CI is symmetric about the point estimate on the working scale
    (identity for a difference, log for a ratio). ``se`` is on the point's
    own scale. ``degenerate`` flags a zero-variance result.
    """

    kind: str
    tau: float
    alpha: float
    point: float
    se: float
    ci_lower: float
    ci_upper: float
    p_value: float
    theta1: float
    se1: float
    theta2: float
    se2: float
    n1: int
    n2: int
    degenerate: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    CSV_FIELDS = (
        "kind", "tau", "theta1", "se1", "theta2", "se2", "point", "se",
        "ci_lower", "ci_upper", "p_value", "n1", "n2", "alpha",
    )

    def to_csv_row(self) -> list:
        return [getattr(self, f) for f in self.CSV_FIELDS]


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


def arm_variance(psi: np.ndarray) -> float:
    """Plug-in arm variance: mean of squared influence values."""
    return float(np.mean(psi**2))


def _standard_errors(*arms: tuple[np.ndarray, int]) -> list[float]:
    """The SE sqrt(arm_variance(psi) / n) of each arm's ``(psi, n)``, then
    that of their difference. Every psi is scaled by one power of two
    before squaring and the SEs back after, which is exact: an SE is
    finite when it is representable, though psi**2 may overflow."""
    e = _scale_exponent(*(psi for psi, _ in arms))
    v = [arm_variance(np.ldexp(psi, -e)) / n for psi, n in arms]
    return [math.ldexp(math.sqrt(x), e) for x in (*v, sum(v))]


def _scale_exponent(*psis: np.ndarray) -> int:
    """The e with max |psi| in [2**(e-1), 2**e): psi * 2**-e squares finitely."""
    return math.frexp(max(float(np.abs(psi).max()) for psi in psis))[1]


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


def wald_pvalue(point: float, se: float) -> float:
    """Two-sided Wald p-value 2 * (1 - Phi(|point| / se)) against a null of 0.

    A zero standard error yields 0 for a nonzero deviation and 1 otherwise
    (the degenerate convention used by the contrast operations).
    """
    if se < 0:
        raise ValueError("se must be nonnegative")
    dev = abs(point)
    if se == 0.0:
        return 1.0 if dev == 0.0 else 0.0
    return math.erfc(dev / se / math.sqrt(2.0))


def contrast_difference(
    study: StudyDataset, alpha: float = 0.05, s_convention: str = "left"
) -> ContrastResult:
    """Difference in AUMCFs with influence-function Wald inference."""
    return _contrast(study, alpha, s_convention)


def contrast_ratio(
    study: StudyDataset, alpha: float = 0.05, s_convention: str = "left"
) -> ContrastResult:
    """Ratio of AUMCFs; delta-method inference on the log scale."""
    return _contrast(study, alpha, s_convention, ratio=True)


def weighted_contrast(
    study: StudyDataset,
    weights: dict[int, float],
    alpha: float = 0.05,
    s_convention: str = "left",
) -> ContrastResult:
    """Difference in weighted multi-type AUMCFs, from one fit per arm in
    which an event of type k has mass w_k; every observed type needs a w_k.

    Theta and the influence values are linear in the event mass, so they are
    the weighted sums of the type-specific ones (a construction of this
    artifact, not a published variance formula).
    """
    return _contrast(study, alpha, s_convention, weights=weights)


def augmented_contrast(
    study: StudyDataset, alpha: float = 0.05, s_convention: str = "left"
) -> AugmentedResult:
    """Covariate-adjusted difference in AUMCFs with both results reported.

    With zero covariates the adjusted result equals the unadjusted one.
    """
    return _contrast(study, alpha, s_convention, augment=True)


def _contrast(
    study: StudyDataset,
    alpha: float,
    s_convention: str,
    *,
    ratio: bool = False,
    weights: dict[int, float] | None = None,
    augment: bool = False,
) -> ContrastResult | AugmentedResult:
    """The one contrast pipeline behind every public contrast and the CLI.

    1. One fit per arm; with ``weights``, an event of type k has mass w_k.
    2. Influence values on the working scale: psi for the difference,
       psi / theta for the log ratio.
    3. With ``augment``, the working point is shifted by
       beta' (Wbar1 - Wbar2), beta from ``augmentation_weights`` (finite
       whenever representable), and its SE is that of the adjusted
       influence values psi - (W - Wbar) beta, the residuals of the
       least-squares fit for beta; an :class:`AugmentedResult` is returned.
    4. Wald on the working scale; a ratio's point, CI and SE are mapped
       back from the log scale.

    Augmenting a ratio or a weighted difference is a construction of this
    artifact: the augmentation applies to any asymptotically linear
    statistic (Tian et al. 2012; Zhang et al. 2008).
    """
    if weights is not None:
        _check_weights(weights.values())
        labels = np.concatenate([arm.event_type_labels for arm in study.arms()])
        missing = sorted(set(labels.tolist()) - set(weights))
        if missing:
            raise ValidationError(f"no weight supplied for event type(s): {missing}")
    z = _z(alpha)
    fits = [fit_arm(arm, study.tau, s_convention, weights) for arm in study.arms()]
    t1, t2 = (fit.theta for fit in fits)
    psi1, psi2 = (fit_influence(fit) for fit in fits)
    n1, n2 = study.arm1.n, study.arm2.n
    se1, se2, se = _standard_errors((psi1, n1), (psi2, n2))
    common = dict(tau=study.tau, alpha=alpha, theta1=t1, se1=se1, theta2=t2, se2=se2,
                  n1=n1, n2=n2)
    point = t1 - t2
    if ratio:
        if t1 <= 0 or t2 <= 0:
            raise RatioUndefinedError(
                f"ratio undefined for nonpositive AUMCF: theta1={t1:g}, theta2={t2:g}"
            )
        # the relative influence values psi / theta, which neither underflow
        # at a tiny tau nor overflow when squared at a huge one
        psi1, psi2 = psi1 / t1, psi2 / t2
    try:
        if ratio:
            se = _standard_errors((psi1, n1), (psi2, n2))[2]
            if t1 / t2 == 0.0:  # a log of -inf, as from weights of 1e-300 and 1e300
                raise OverflowError("the ratio underflows to 0")
            point = math.log(t1 / t2)
        unadjusted = _wald_result(ratio, z, common, point, se, t1 / t2 if ratio else None)
        if not augment:
            return unadjusted
        if study.arm1.covariate_dim == 0:
            empty = np.empty(0)
            return AugmentedResult(
                adjusted=unadjusted, unadjusted=unadjusted,
                summary=CovariateSummary(empty, empty, empty),
                covariate_names=study.covariate_names, relative_efficiency=1.0,
            )
        summary = augmentation_weights(study, psi1, psi2)
        point -= float(summary.beta_hat @ (summary.mean1 - summary.mean2))
        # the adjusted influence values psi - (W - Wbar) beta, whose SE is
        # the adjusted SE: the residuals of the least-squares fit for beta
        adjusted = [(psi - (arm.covariates - mean) @ summary.beta_hat, arm.n) for arm, psi, mean
                    in zip(study.arms(), (psi1, psi2), (summary.mean1, summary.mean2))]
        se_adj = _standard_errors(*adjusted)[2]
        return AugmentedResult(
            adjusted=_wald_result(ratio, z, common, point, se_adj),
            unadjusted=unadjusted,
            summary=summary,
            covariate_names=study.covariate_names,
            relative_efficiency=(se / se_adj) ** 2 if se_adj > 0 else math.inf,
        )
    except OverflowError as exc:
        if not ratio:
            raise
        raise OverflowError(
            f"ratio CI overflows on the log scale: theta1={t1:g}, theta2={t2:g}"
        ) from exc


def _check_weights(weights) -> None:
    """Event-type weights (an iterable of them) must be positive and finite."""
    if not all(w > 0 and math.isfinite(w) for w in weights):
        raise ValidationError("event-type weights must be positive and finite")


def _wald_result(
    ratio: bool, z: float, common: dict, point: float, se: float,
    ratio_point: float | None = None,
) -> ContrastResult:
    """Wald inference from ``point`` and ``se`` on the working scale: the
    CI point -+ z se and the p-value against 0. For a ratio they are on the
    log scale, and the ratio (``ratio_point``, else exp(point)), its CI and
    its delta-method SE are mapped back; ``common`` holds the other fields."""
    ci = (point - z * se, point + z * se)
    p_value, degenerate = wald_pvalue(point, se), se == 0.0
    if ratio:
        ci = tuple(map(math.exp, ci))
        if not all(map(math.isfinite, (se, *ci))):
            raise OverflowError("non-finite log-scale SE or CI")
        point = math.exp(point) if ratio_point is None else ratio_point
        se = point * se
    return ContrastResult(
        kind="ratio" if ratio else "difference", point=point, se=se,
        ci_lower=ci[0], ci_upper=ci[1], p_value=p_value, degenerate=degenerate, **common,
    )


def _z(alpha: float) -> float:
    """The two-sided normal quantile z_{1 - alpha/2} of a Wald interval."""
    if not 0 < alpha < 1 or 1.0 - alpha / 2.0 == 1.0:
        raise ValidationError(f"alpha must be in (2**-53, 1), got {alpha!r}")
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)
