"""Step-function estimators: Kaplan-Meier survival of the terminal event,
the mean cumulative function (MCF), and the area under the MCF (AUMCF) on
[0, tau], with the one arm fit (``ArmFit``) that the AUMCF and its
influence values are sums over.

All integrals are exact sums over jump points; there is no quadrature grid.
The MCF integrand uses the left limit of the Kaplan-Meier curve by default
so an event simultaneous with a death is not discounted by that death; pass
``s_convention="right"`` for a sensitivity check with the right-continuous
curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ArmDataset

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

    def to_rows(self, tau: float):
        """(time, value) pairs from t=0 up to tau, ending with the value at tau."""
        rows = [(0.0, float(self.initial_value))]
        for t, v in zip(self.jump_times, self.values):
            if t > tau:
                break
            rows.append((float(t), float(v)))
        if rows[-1][0] < tau:
            rows.append((float(tau), float(self(tau))))
        return rows


@dataclass(frozen=True)
class ArmFit:
    """The jumps on [0, tau] that the AUMCF and its influence values sum over.

    One fit per (arm, tau, s_convention, weights). Event jumps: distinct
    event times ``te`` <= tau with at-risk counts ``y_e``, rate increments
    ``dr`` = event mass (see ``fit_arm``) / ``y_e`` and the survival ``s``
    at ``te`` under the convention. Death jumps: distinct terminal-event
    times ``td`` <= tau with death counts ``d`` and at-risk counts ``y_d``.
    ``theta`` is the AUMCF point estimate.
    """

    arm: ArmDataset
    tau: float
    weights: dict[int, float] | None
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
    weights: dict[int, float] | None = None,
) -> ArmFit:
    """Fit one arm on [0, tau]: its event and death jumps and its AUMCF.

    Each event carries rate mass 1, or with ``weights`` the weight of its
    type (0 for a type not in the map, so ``{k: 1.0}`` fits type k alone);
    the survival curve and the risk sets are the arm's own.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    if weights is not None:
        weights = dict(weights)  # the fit's own copy, read again by fit_influence
    times, _, w = _events(arm, tau, weights)
    first, _ = _runs(times)
    te = times[first]
    y_e = arm.at_risk(te).astype(np.float64)
    dr = np.add.reduceat(w, first) / y_e
    td, d, y_d = _death_jumps(arm, tau)
    s = _survival_at(StepFunction(td, np.cumprod(1.0 - d / y_d), 1.0), te, s_convention)
    theta = float(np.sum((tau - te) * s * dr))
    return ArmFit(arm, tau, weights, te, y_e, dr, s, td, d, y_d, theta)


class _ResampleFit:
    """The jumps of one arm on [0, tau], set up to give the AUMCF of any
    resample of its subjects from how often each subject was drawn.

    ``thetas`` takes a ``(rows, n)`` count matrix and returns one AUMCF per
    row: the sums of ``fit_arm`` (left-limit survival, no weights) over the
    original arm's jumps, each subject weighted by its count.
    At-risk counts are reverse cumulative sums of a row over the subjects
    in follow-up order; event and death counts are row sums over the
    subjects that own them. A jump whose risk set is empty in a resample
    adds nothing to it.
    """

    def __init__(self, arm: ArmDataset, tau: float):
        self.order = arm._follow_up_order
        x = arm._sorted_follow_up
        times, self.event_subjects, _ = _events(arm, tau)
        self.event_first, _ = _runs(times)
        te = times[self.event_first]
        self.death_rows = _death_rows(arm, tau)
        dead = x[self.death_rows]
        self.death_first, _ = _runs(dead)
        td = dead[self.death_first]
        # the columns of y at the jumps, and of km just before each event
        self.at_te = np.searchsorted(x, te, side="left")
        self.at_td = np.searchsorted(x, td, side="left")
        self.km_at_te = np.searchsorted(td, te, side="left")
        self.lost = tau - te

    def thetas(self, counts: np.ndarray) -> np.ndarray:
        rows, n = counts.shape
        if self.lost.size == 0:
            return np.zeros(rows)
        c = counts[:, self.order]
        # y[:, k]: drawn subjects followed to at least the k-th follow-up
        # time; the column past the last is 0
        y = np.zeros((rows, n + 1), dtype=counts.dtype)
        np.cumsum(c[:, ::-1], axis=1, out=y[:, -2::-1])
        dn = np.add.reduceat(counts[:, self.event_subjects], self.event_first, axis=1)
        y_e = y[:, self.at_te]
        dr = np.divide(dn, y_e, out=np.zeros(dn.shape), where=y_e > 0)
        km = np.ones((rows, self.at_td.size + 1))
        if self.at_td.size:
            d = np.add.reduceat(c[:, self.death_rows], self.death_first, axis=1)
            y_d = y[:, self.at_td]
            hazard = np.divide(d, y_d, out=np.zeros(d.shape), where=y_d > 0)
            np.cumprod(1.0 - hazard, axis=1, out=km[:, 1:])
        return np.sum(self.lost * km[:, self.km_at_te] * dr, axis=1)


def km_survival(arm: ArmDataset) -> StepFunction:
    """Kaplan-Meier product-limit estimator of the terminal-event survival."""
    td, d, y = _death_jumps(arm)
    return StepFunction(td, np.cumprod(1.0 - d / y), 1.0)


def mcf(arm: ArmDataset, s_convention: str = "left") -> StepFunction:
    """Estimated mean cumulative function m(t) = sum of S_D * dR over jumps."""
    return _mcf_given_km(arm, km_survival(arm), s_convention)


def _mcf_given_km(arm: ArmDataset, km: StepFunction, s_convention: str) -> StepFunction:
    """The MCF of ``arm`` with its Kaplan-Meier curve ``km`` already built."""
    first, counts = _runs(arm.event_times)
    if first.size == 0:
        return StepFunction(np.empty(0), np.empty(0), 0.0)
    te = arm.event_times[first]
    s = _survival_at(km, te, s_convention)
    return StepFunction(te, np.cumsum(s * (counts / arm.at_risk(te))), 0.0)


def aumcf(
    arm: ArmDataset,
    tau: float,
    s_convention: str = "left",
    weights: dict[int, float] | None = None,
) -> float:
    """AUMCF point estimate: sum of (tau - u) * S_D * dR over jumps u <= tau."""
    return fit_arm(arm, tau, s_convention, weights).theta


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


def time_lost_per_subject(arm: ArmDataset, tau: float) -> np.ndarray:
    """Event-free time lost by each subject: the sum of (tau - T)+ over its
    events T, in subject order."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    return np.bincount(arm.event_subjects, weights=np.maximum(tau - arm.event_times, 0.0),
                       minlength=arm.n)


def _events(arm: ArmDataset, tau: float, weights: dict[int, float] | None = None):
    """Times, owning subjects and weights of the events at or before tau,
    in time order: each event weighs the ``weights`` entry of its type, 0
    for a type not in the map, and events of weight 0 are dropped. With no
    map every event weighs 1."""
    m = np.searchsorted(arm.event_times, tau, side="right")
    times, owners = arm.event_times[:m], arm.event_subjects[:m]
    if weights is None:
        return times, owners, np.ones(m)
    labels, w = arm.event_type_labels[:m], np.zeros(m)
    for k, v in weights.items():
        w[labels == k] = v
    keep = w != 0
    return times[keep], owners[keep], w[keep]


def _death_jumps(arm: ArmDataset, tau: float = np.inf):
    """Distinct terminal-event times <= tau, death counts and at-risk counts."""
    x = arm._sorted_follow_up[_death_rows(arm, tau)]
    first, d = _runs(x)
    td = x[first]
    return td, d, arm.at_risk(td).astype(np.float64)


def _death_rows(arm: ArmDataset, tau: float) -> np.ndarray:
    """Positions in follow-up order of the subjects who died at or before tau."""
    m = np.searchsorted(arm._sorted_follow_up, tau, side="right")
    return np.flatnonzero(arm.terminal[arm._follow_up_order[:m]])


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first element and length of each run of equal values
    in a sorted array."""
    edge = np.ones(values.size + 1, dtype=bool)
    edge[1:-1] = values[1:] != values[:-1]
    bounds = np.flatnonzero(edge)
    return bounds[:-1], bounds[1:] - bounds[:-1]


def _survival_at(km: StepFunction, times: np.ndarray, s_convention: str) -> np.ndarray:
    if s_convention not in S_CONVENTIONS:
        raise ValueError(f"s_convention must be one of {S_CONVENTIONS}")
    return km.left_limit(times) if s_convention == "left" else km(times)
