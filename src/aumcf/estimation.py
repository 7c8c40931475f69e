"""Step-function estimators: Kaplan-Meier survival of the terminal event,
Nelson-Aalen increments, the mean cumulative function (MCF), and the area
under the MCF (AUMCF) on [0, tau].

All integrals are exact sums over jump points; there is no quadrature grid.
The MCF integrand uses the left limit of the Kaplan-Meier curve by default
so an event simultaneous with a death is not discounted by that death; pass
``s_convention="right"`` for a sensitivity check with the right-continuous
curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ArmDataset, SubjectHistory

S_CONVENTIONS = ("left", "right")


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous piecewise-constant function.

    ``values[k]`` holds the value on [jump_times[k], jump_times[k+1]);
    ``initial_value`` holds the value on [0, jump_times[0]). Evaluation
    beyond the last jump returns the last value (flat extrapolation).
    """

    jump_times: np.ndarray
    values: np.ndarray
    initial_value: float

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.float64)
        if jt.shape != vals.shape or jt.ndim != 1:
            raise ValueError("jump_times and values must be 1-d of equal length")
        if jt.size and np.any(np.diff(jt) <= 0):
            raise ValueError("jump_times must be strictly ascending")
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "values", vals)

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.jump_times, t, side="right")
        full = np.concatenate(([self.initial_value], self.values))
        return full[idx] if t.ndim else float(full[idx])

    def left_limit(self, t) -> np.ndarray:
        """Value just before t (equals the initial value at t = 0)."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.jump_times, t, side="left")
        full = np.concatenate(([self.initial_value], self.values))
        return full[idx] if t.ndim else float(full[idx])

    def to_rows(self, tau: float | None = None):
        """(time, value) pairs starting at t=0, optionally clipped at tau."""
        rows = [(0.0, float(self.initial_value))]
        for t, v in zip(self.jump_times, self.values):
            if tau is not None and t > tau:
                break
            rows.append((float(t), float(v)))
        if tau is not None and (not rows or rows[-1][0] < tau):
            rows.append((float(tau), float(self(tau))))
        return rows


@dataclass(frozen=True)
class JumpIncrements:
    """Positive jump masses of an aggregated rate estimator.

    ``increments[k]`` is the mass at ``times[k]`` (events at that time
    divided by the at-risk count ``at_risk[k]``).
    """

    times: np.ndarray
    increments: np.ndarray
    at_risk: np.ndarray


@dataclass(frozen=True)
class ArmFit:
    """The jumps on [0, tau] that the AUMCF and its influence values sum over.

    One fit per (arm, tau, s_convention, event_type). Event jumps: distinct
    event times ``te`` <= tau with at-risk counts ``y_e``, rate increments
    ``dr`` = events / ``y_e`` and the survival ``s`` at ``te`` under the
    convention. Death jumps: distinct terminal-event times ``td`` <= tau
    with death counts ``d`` and at-risk counts ``y_d``. ``theta`` is the
    AUMCF point estimate.
    """

    arm: ArmDataset
    tau: float
    event_type: int | None
    te: np.ndarray
    y_e: np.ndarray
    dr: np.ndarray
    s: np.ndarray
    td: np.ndarray
    d: np.ndarray
    y_d: np.ndarray
    theta: float


def fit_arm(
    arm: ArmDataset,
    tau: float,
    s_convention: str = "left",
    event_type: int | None = None,
) -> ArmFit:
    """Fit one arm on [0, tau]: its event and death jumps and its AUMCF.

    With ``event_type`` given, only events of that type carry rate mass;
    the survival curve and the risk sets are the arm's own.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    keep = arm.event_times <= tau
    if event_type is not None:
        keep &= arm.event_type_labels == event_type
    te, counts = np.unique(arm.event_times[keep], return_counts=True)
    y_e = arm.at_risk(te).astype(np.float64)
    dr = counts / y_e
    td, d, y_d = _death_jumps(arm, tau)
    s = _survival_at(StepFunction(td, np.cumprod(1.0 - d / y_d), 1.0), te, s_convention)
    theta = float(np.sum((tau - te) * s * dr))
    return ArmFit(arm, tau, event_type, te, y_e, dr, s, td, d, y_d, theta)


def km_survival(arm: ArmDataset) -> StepFunction:
    """Kaplan-Meier product-limit estimator of the terminal-event survival."""
    td, d, y = _death_jumps(arm)
    return StepFunction(td, np.cumprod(1.0 - d / y), 1.0)


def nelson_aalen_terminal(arm: ArmDataset) -> StepFunction:
    """Nelson-Aalen estimator of the terminal-event cumulative hazard."""
    td, d, y = _death_jumps(arm)
    return StepFunction(td, np.cumsum(d / y), 0.0)


def event_rate_increments(arm: ArmDataset, event_type: int | None = None) -> JumpIncrements:
    """Aggregated event-rate jumps dR(u) = (events at u) / (at risk at u).

    With ``event_type`` given, only events of that type contribute mass;
    the at-risk counts are unchanged.
    """
    times = arm.event_times
    if event_type is not None:
        times = times[arm.event_type_labels == event_type]
    te, counts = np.unique(times, return_counts=True)
    y = arm.at_risk(te).astype(np.float64)
    return JumpIncrements(te, counts / y, arm.at_risk(te))


def mcf(arm: ArmDataset, s_convention: str = "left") -> StepFunction:
    """Estimated mean cumulative function m(t) = sum of S_D * dR over jumps."""
    inc = event_rate_increments(arm)
    if inc.times.size == 0:
        return StepFunction(np.empty(0), np.empty(0), 0.0)
    s = _survival_at(km_survival(arm), inc.times, s_convention)
    return StepFunction(inc.times, np.cumsum(s * inc.increments), 0.0)


def aumcf(
    arm: ArmDataset,
    tau: float,
    s_convention: str = "left",
    event_type: int | None = None,
) -> float:
    """AUMCF point estimate: sum of (tau - u) * S_D * dR over jumps u <= tau."""
    return fit_arm(arm, tau, s_convention, event_type).theta


def area_under_step(f: StepFunction, tau: float) -> float:
    """Exact integral of a step function on [0, tau]."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    knots = np.concatenate(([0.0], f.jump_times[f.jump_times < tau], [tau]))
    vals = np.concatenate(([f.initial_value], f.values[f.jump_times < tau]))
    return float(np.sum(vals * np.diff(knots)))


def rmst(arm: ArmDataset, tau: float) -> float:
    """Restricted mean survival time: area under the Kaplan-Meier curve."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    return area_under_step(km_survival(arm), tau)


def time_lost_per_subject(subject: SubjectHistory, tau: float) -> float:
    """Total event-free time lost by one subject: sum of (tau - T)+ over events."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    return float(sum(max(tau - t, 0.0) for t in subject.event_times))


def _death_jumps(arm: ArmDataset, tau: float = np.inf):
    """Distinct terminal-event times <= tau, death counts and at-risk counts."""
    x = arm.follow_up
    td, d = np.unique(x[arm.terminal & (x <= tau)], return_counts=True)
    return td, d, arm.at_risk(td).astype(np.float64)


def _survival_at(km: StepFunction, times: np.ndarray, s_convention: str) -> np.ndarray:
    if s_convention not in S_CONVENTIONS:
        raise ValueError(f"s_convention must be one of {S_CONVENTIONS}")
    return km.left_limit(times) if s_convention == "left" else km(times)
