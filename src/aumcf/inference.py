"""Influence-function variance estimation and the two-sample contrasts.

The per-subject influence value combines two martingale integrals: the
event-process residual weighted by (tau - u) S_D(u) / (Ybar/n), minus the
terminal-event residual weighted by the tail integral
B(u) = sum over v in (u, tau] of (tau - v) dm(v).
Influence values are plain arrays in the arm's subject order. The arm
variance is the sample mean of their squares; the two-sample standard
error follows from independence of arms.

Every contrast (difference or ratio, with or without event-type weights,
with or without covariate augmentation) is one pipeline, ``_contrast``;
the public contrast functions are one call into it each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from statistics import NormalDist

import numpy as np

from .augmentation import AugmentedResult, CovariateSummary, _scale_exponent, augmentation_weights
from .core import ArmDataset, StudyDataset, ValidationError
from .estimation import ArmFit, _counts_below, fit_arm


class RatioUndefinedError(ValueError):
    """Raised when a ratio contrast is requested with a nonpositive AUMCF."""


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


def fit_influence(fit: ArmFit) -> np.ndarray:
    """Per-subject influence values of the AUMCF from one arm fit, in the
    arm's subject order; they sum to zero up to floating-point error.

    psi_i = sum over event jumps u of w(u) dM_i(u), with w(u) = (tau - u)
    S_D(u) n / Y(u), minus the sum over death jumps v of B(v) n / Y(v)
    dM^D_i(v), where dM_i and dM^D_i are subject i's event and terminal
    residuals (observed jump minus the compensator dR or dLambda = d / Y
    while at risk) and B(v) = theta minus the AUMCF mass at jumps <= v.

    The compensators and B are prefix sums over the jumps at or before a
    time, counted from the risk-set positions rather than searched for:
    te <= x[k] exactly when at_te <= k (likewise for td), so the sums are
    indexed by the integers a search would give.
    """
    arm, tau, n = fit.arm, fit.tau, fit.arm.n
    order = arm._follow_up_order
    te = fit.te
    # events_before[k + 1]: event jumps at or before the k-th follow-up time
    events_before = _counts_below(fit.at_te, n)

    w_e = (tau - te) * fit.s * (n / fit.y_e)
    # the counted events come in runs, one per event jump, and each takes
    # its jump's weight times its own mass; likewise the deaths in
    # follow-up order
    obs_event = np.bincount(fit.owners, weights=np.repeat(w_e, fit.e) * fit.mass, minlength=n)

    # the other terms are per subject in follow-up order
    comp_event = _prefix_sums(w_e * fit.dr)[events_before[1:]]
    b = fit.theta - _prefix_sums((tau - te) * fit.s * fit.dr)[events_before[fit.at_td + 1]]
    w_d = b * (n / fit.y_d)
    obs_death = np.zeros(n)
    obs_death[fit.death_rows] = np.repeat(w_d, fit.d)
    comp_death = _prefix_sums(w_d * (fit.d / fit.y_d))[fit.deaths_before[1:]]

    psi = np.empty(n)
    psi[order] = (obs_event[order] - comp_event) - (obs_death - comp_death)
    return psi


def _prefix_sums(mass: np.ndarray) -> np.ndarray:
    """0, then the running totals of ``mass``: entry j is the mass of the
    first j knots."""
    return np.concatenate(([0.0], np.cumsum(mass)))


def influence_values(
    arm: ArmDataset,
    tau: float,
    s_convention: str = "left",
    weights: dict[int, float] | None = None,
) -> np.ndarray:
    """Estimated per-subject influence values for the arm AUMCF at tau.

    With ``weights`` given, each event counts with the weight of its type
    (shared survival curve and risk sets), as in the weighted multi-type
    contrast.
    """
    return fit_influence(fit_arm(arm, tau, s_convention, weights))


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
