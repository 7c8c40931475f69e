"""Influence-function variance estimation and two-sample contrasts.

The per-subject influence value combines two martingale integrals: the
event-process residual weighted by (tau - u) S_D(u) / (Ybar/n), minus the
terminal-event residual weighted by the tail integral
B(u) = sum over v in (u, tau] of (tau - v) dm(v).
The arm variance is the sample mean of squared influence values; the
two-sample standard error follows from independence of arms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from statistics import NormalDist

import numpy as np

from .core import ArmDataset, StudyDataset, ValidationError
from .estimation import ArmFit, _survival_at, fit_arm, km_survival


class RatioUndefinedError(ValueError):
    """Raised when a ratio contrast is requested with a nonpositive AUMCF."""


@dataclass(frozen=True)
class InfluenceSet:
    """Per-subject influence values for one arm at truncation tau.

    Values align with the subject order of the originating ArmDataset and
    sum to zero up to floating-point error.
    """

    arm: int
    tau: float
    values: np.ndarray


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


def fit_influence(fit: ArmFit) -> InfluenceSet:
    """Per-subject influence values of the AUMCF from one arm fit.

    psi_i = sum over event jumps u of w(u) dM_i(u), with w(u) = (tau - u)
    S_D(u) n / Y(u), minus the sum over death jumps v of B(v) n / Y(v)
    dM^D_i(v), where dM_i and dM^D_i are subject i's event and terminal
    residuals (observed jump minus the compensator dR or dLambda = d / Y
    while at risk) and B(v) = theta minus the AUMCF mass at jumps <= v.
    """
    arm, tau, n = fit.arm, fit.tau, fit.arm.n
    x = arm.follow_up
    te, td = fit.te, fit.td

    w_e = (tau - te) * fit.s * (n / fit.y_e)
    ev = arm.event_times <= tau
    if fit.event_type is not None:
        ev &= arm.event_type_labels == fit.event_type
    obs_event = np.zeros(n)
    np.add.at(obs_event, arm.event_subjects[ev], w_e[np.searchsorted(te, arm.event_times[ev])])
    comp_event = _prefix_at(w_e * fit.dr, te, x)

    b = fit.theta - _prefix_at((tau - te) * fit.s * fit.dr, te, td)
    w_d = b * (n / fit.y_d)
    dead = arm.terminal & (x <= tau)
    obs_death = np.zeros(n)
    obs_death[dead] = w_d[np.searchsorted(td, x[dead])]
    comp_death = _prefix_at(w_d * (fit.d / fit.y_d), td, x)

    psi = (obs_event - comp_event) - (obs_death - comp_death)
    return InfluenceSet(arm=arm.arm, tau=float(tau), values=psi)


def _prefix_at(mass: np.ndarray, knots: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Total mass at the knots <= t, for each t (closed inequality)."""
    cum = np.concatenate(([0.0], np.cumsum(mass)))
    return cum[np.searchsorted(knots, t, side="right")]


def influence_values(
    arm: ArmDataset,
    tau: float,
    s_convention: str = "left",
    event_type: int | None = None,
) -> InfluenceSet:
    """Estimated per-subject influence values for the arm AUMCF at tau.

    With ``event_type`` given, the event process is restricted to that
    type (shared survival curve and risk sets), as used by the weighted
    multi-type contrast.
    """
    return fit_influence(fit_arm(arm, tau, s_convention, event_type))


def arm_variance(inf: InfluenceSet) -> float:
    """Plug-in arm variance: mean of squared influence values."""
    return float(np.mean(inf.values**2))


def wald_pvalue(point: float, se: float, null_value: float = 0.0) -> float:
    """Two-sided Wald p-value 2 * (1 - Phi(|point - null| / se)).

    A zero standard error yields 0 for a nonzero deviation and 1 otherwise
    (the degenerate convention used by the contrast operations).
    """
    if se < 0:
        raise ValueError("se must be nonnegative")
    dev = abs(point - null_value)
    if se == 0.0:
        return 1.0 if dev == 0.0 else 0.0
    return math.erfc(dev / se / math.sqrt(2.0))


def _arm_estimates(study: StudyDataset, s_convention: str) -> list[tuple[float, InfluenceSet]]:
    """Theta and influence values of each arm, from one fit per arm."""
    fits = [fit_arm(arm, study.tau, s_convention) for arm in study.arms()]
    return [(fit.theta, fit_influence(fit)) for fit in fits]


def _difference_result(study: StudyDataset, alpha: float, estimates) -> ContrastResult:
    """Wald difference contrast from the per-arm ``_arm_estimates``."""
    (t1, inf1), (t2, inf2) = estimates
    n1, n2 = study.arm1.n, study.arm2.n
    s1, s2 = arm_variance(inf1), arm_variance(inf2)
    return _wald_result(
        "difference", study.tau, alpha, t1 - t2, math.sqrt(s1 / n1 + s2 / n2), 0.0,
        t1, math.sqrt(s1 / n1), t2, math.sqrt(s2 / n2), n1, n2,
    )


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
    s1, s2 = arm_variance(inf1), arm_variance(inf2)
    point = t1 / t2
    se_log = math.sqrt(s1 / (n1 * t1**2) + s2 / (n2 * t2**2))
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    degenerate = se_log == 0.0
    log_point = math.log(point)
    return ContrastResult(
        kind="ratio",
        tau=study.tau,
        alpha=alpha,
        point=point,
        se=point * se_log,
        ci_lower=math.exp(log_point - z * se_log),
        ci_upper=math.exp(log_point + z * se_log),
        p_value=wald_pvalue(log_point, se_log, 0.0),
        theta1=t1, se1=math.sqrt(s1 / n1), theta2=t2, se2=math.sqrt(s2 / n2),
        n1=n1, n2=n2, degenerate=degenerate,
    )


def ghosh_lin_Q(study: StudyDataset, s_convention: str = "left") -> float:
    """Log-rank-style diagnostic statistic for recurrent events.

    Exposed without a p-value: its limit under general alternatives depends
    on the arm censoring distributions, so it is not a basis for inference
    here.
    """
    tau = study.tau
    arms = study.arms()
    jump_sets = [
        arm.event_times[arm.event_times <= tau] for arm in arms
    ]
    u = np.unique(np.concatenate(jump_sets)) if any(j.size for j in jump_sets) else np.empty(0)
    if u.size == 0:
        return 0.0
    n1, n2 = arms[0].n, arms[1].n
    y1 = arms[0].at_risk(u).astype(np.float64)
    y2 = arms[1].at_risk(u).astype(np.float64)
    terms = []
    for arm, y in zip(arms, (y1, y2)):
        km = km_survival(arm)
        s = _survival_at(km, u, s_convention)
        counts = np.zeros(u.size)
        ev = arm.event_times[arm.event_times <= tau]
        np.add.at(counts, np.searchsorted(u, ev), 1.0)
        terms.append(np.divide(s * counts, y, out=np.zeros_like(counts), where=y > 0))
    n = n1 + n2
    denom = (y1 + y2) / n
    weight = np.divide(
        y1 * y2 / (n1 * n2), denom, out=np.zeros(u.size), where=denom > 0
    )
    return float(np.sum(weight * (terms[0] - terms[1])))


def weighted_contrast(
    study: StudyDataset,
    weights: dict[int, float],
    alpha: float = 0.05,
    s_convention: str = "left",
) -> ContrastResult:
    """Difference in weighted multi-type AUMCFs.

    Each event type k contributes w_k times its type-specific AUMCF; the
    per-subject influence is the matching weighted sum, by linearity of the
    influence expansion (a construction of this artifact, not a published
    variance formula).
    """
    if any(w <= 0 for w in weights.values()):
        raise ValidationError("event-type weights must be positive")
    observed = set(np.concatenate([
        study.arm1.event_type_labels, study.arm2.event_type_labels
    ]).tolist())
    missing = sorted(observed - set(weights))
    if missing:
        raise ValidationError(f"no weight supplied for event type(s): {missing}")
    estimates = []
    for arm in study.arms():
        theta, psi = 0.0, np.zeros(arm.n)
        for k, w in sorted(weights.items()):
            fit = fit_arm(arm, study.tau, s_convention, event_type=k)
            theta += w * fit.theta
            psi += w * fit_influence(fit).values
        estimates.append((theta, InfluenceSet(arm=arm.arm, tau=float(study.tau), values=psi)))
    return _difference_result(study, alpha, estimates)


def _wald_result(kind, tau, alpha, point, se, null_value,
                 t1, se1, t2, se2, n1, n2) -> ContrastResult:
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    return ContrastResult(
        kind=kind,
        tau=tau,
        alpha=alpha,
        point=point,
        se=se,
        ci_lower=point - z * se,
        ci_upper=point + z * se,
        p_value=wald_pvalue(point, se, null_value),
        theta1=t1, se1=se1, theta2=t2, se2=se2,
        n1=n1, n2=n2, degenerate=(se == 0.0),
    )
