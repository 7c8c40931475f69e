"""Influence-function variance estimation and two-sample contrasts.

The per-subject influence value combines two martingale integrals: the
event-process residual weighted by (tau - u) S_D(u) / (Ybar/n), minus the
terminal-event residual weighted by the tail integral
B(u) = sum over v in (u, tau] of (tau - v) dm(v).
Influence values are plain arrays in the arm's subject order. The arm
variance is the sample mean of their squares; the two-sample standard
error follows from independence of arms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from statistics import NormalDist

import numpy as np

from .core import ArmDataset, StudyDataset, ValidationError
from .estimation import ArmFit, fit_arm


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
    """
    arm, tau, n = fit.arm, fit.tau, fit.arm.n
    order, x = arm._follow_up_order, arm._sorted_follow_up
    te, td = fit.te, fit.td

    w_e = (tau - te) * fit.s * (n / fit.y_e)
    # the counted events come in runs, one per event jump, and each takes
    # its jump's weight times its own mass; likewise the deaths in
    # follow-up order
    obs_event = np.bincount(fit.owners, weights=np.repeat(w_e, fit.e) * fit.mass, minlength=n)

    # the other terms are per subject in follow-up order
    comp_event = _prefix_at(w_e * fit.dr, te, x)
    b = fit.theta - _prefix_at((tau - te) * fit.s * fit.dr, te, td)
    w_d = b * (n / fit.y_d)
    obs_death = np.zeros(n)
    obs_death[fit.death_rows] = np.repeat(w_d, fit.d)
    comp_death = _prefix_at(w_d * (fit.d / fit.y_d), td, x)

    psi = np.empty(n)
    psi[order] = (obs_event[order] - comp_event) - (obs_death - comp_death)
    return psi


def _prefix_at(mass: np.ndarray, knots: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Total mass at the knots <= t, for each t of an ascending ``t``
    (closed inequality)."""
    cum = np.concatenate(([0.0], np.cumsum(mass)))
    return cum[np.searchsorted(knots, t, side="right")]


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


def _scale_exponent(*psis: np.ndarray) -> int:
    """The e with max |psi| in [2**(e-1), 2**e): psi * 2**-e squares finitely."""
    return math.frexp(max(float(np.abs(psi).max()) for psi in psis))[1]


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


def _arm_estimates(
    study: StudyDataset, s_convention: str, weights: dict[int, float] | None = None
) -> list[tuple[float, np.ndarray]]:
    """Theta and influence values of each arm, from one fit per arm."""
    fits = [fit_arm(arm, study.tau, s_convention, weights) for arm in study.arms()]
    return [(fit.theta, fit_influence(fit)) for fit in fits]


def _difference_result(study: StudyDataset, alpha: float, estimates) -> ContrastResult:
    """Wald difference contrast from the per-arm ``_arm_estimates``."""
    (t1, inf1), (t2, inf2) = estimates
    n1, n2 = study.arm1.n, study.arm2.n
    se1, se2, se = _standard_errors((inf1, n1), (inf2, n2))
    return _wald_result("difference", study.tau, alpha, t1 - t2, se, t1, se1, t2, se2, n1, n2)


def contrast_difference(
    study: StudyDataset, alpha: float = 0.05, s_convention: str = "left"
) -> ContrastResult:
    """Difference in AUMCFs with influence-function Wald inference."""
    return _difference_result(study, alpha, _arm_estimates(study, s_convention))


def contrast_ratio(
    study: StudyDataset, alpha: float = 0.05, s_convention: str = "left"
) -> ContrastResult:
    """Ratio of AUMCFs; delta-method inference on the log scale."""
    (t1, inf1), (t2, inf2) = _arm_estimates(study, s_convention)
    if t1 <= 0 or t2 <= 0:
        raise RatioUndefinedError(
            f"ratio undefined for nonpositive AUMCF: theta1={t1:g}, theta2={t2:g}"
        )
    n1, n2 = study.arm1.n, study.arm2.n
    se1, se2, _ = _standard_errors((inf1, n1), (inf2, n2))
    point = t1 / t2
    z = _z(alpha)
    try:
        # from the relative influence values psi / theta, which neither
        # underflow at a tiny tau nor overflow when squared at a huge one
        se_log = math.sqrt(arm_variance(inf1 / t1) / n1 + arm_variance(inf2 / t2) / n2)
        log_point = math.log(point)
        ci_lower = math.exp(log_point - z * se_log)
        ci_upper = math.exp(log_point + z * se_log)
        if not all(map(math.isfinite, (se_log, ci_lower, ci_upper))):
            raise OverflowError("non-finite log-scale SE or CI")
    except OverflowError as exc:
        raise OverflowError(
            f"ratio CI overflows on the log scale: theta1={t1:g}, theta2={t2:g}"
        ) from exc
    return ContrastResult(
        kind="ratio",
        tau=study.tau,
        alpha=alpha,
        point=point,
        se=point * se_log,
        ci_lower=ci_lower,
        ci_upper=ci_upper,
        p_value=wald_pvalue(log_point, se_log),
        theta1=t1, se1=se1, theta2=t2, se2=se2,
        n1=n1, n2=n2, degenerate=se_log == 0.0,
    )


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
    if not all(w > 0 and math.isfinite(w) for w in weights.values()):
        raise ValidationError("event-type weights must be positive and finite")
    labels = np.concatenate([arm.event_type_labels for arm in study.arms()])
    missing = sorted(set(labels.tolist()) - set(weights))
    if missing:
        raise ValidationError(f"no weight supplied for event type(s): {missing}")
    return _difference_result(study, alpha, _arm_estimates(study, s_convention, weights))


def _wald_result(kind, tau, alpha, point, se, t1, se1, t2, se2, n1, n2) -> ContrastResult:
    z = _z(alpha)
    return ContrastResult(
        kind=kind,
        tau=tau,
        alpha=alpha,
        point=point,
        se=se,
        ci_lower=point - z * se,
        ci_upper=point + z * se,
        p_value=wald_pvalue(point, se),
        theta1=t1, se1=se1, theta2=t2, se2=se2,
        n1=n1, n2=n2, degenerate=(se == 0.0),
    )


def _z(alpha: float) -> float:
    """The two-sided normal quantile z_{1 - alpha/2} of a Wald interval."""
    if not 0 < alpha < 1 or 1.0 - alpha / 2.0 == 1.0:
        raise ValidationError(f"alpha must be in (2**-53, 1), got {alpha!r}")
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)
