"""Step-function estimators: Kaplan-Meier survival of the terminal event,
the mean cumulative function (MCF), and the area under the MCF (AUMCF) on
[0, tau], with the one arm fit (``ArmFit``) that every sum over an arm's
jumps reads: the AUMCF, its bootstrap resamples, the MCF and the
per-subject influence values.

All integrals are exact sums over jump points; there is no quadrature grid.
The MCF integrand uses the left limit of the Kaplan-Meier curve by default
so an event simultaneous with a death is not discounted by that death; pass
``s_convention="right"`` for a sensitivity check with the right-continuous
curve. The influence value of a subject combines two martingale integrals:
the event-process residual weighted by (tau - u) S_D(u) / (Ybar/n), minus
the terminal-event residual weighted by the tail integral
B(u) = sum over v in (u, tau] of (tau - v) dm(v). Influence values are
plain arrays in the arm's subject order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ArmDataset, ValidationError

S_CONVENTIONS = ("left", "right")


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous piecewise-constant function.

    ``values[k]`` holds the value on [jump_times[k], jump_times[k+1]);
    ``initial_value`` holds the value on [0, jump_times[0]). Evaluation
    beyond the last jump returns the last value (flat extrapolation), and
    at NaN returns NaN.
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
        # a search sorts NaN past every jump, which would read the last value
        out = np.where(np.isnan(t), np.nan, full[idx])
        return out if t.ndim else float(out)

    def to_rows(self, tau: float):
        """(time, value) pairs from t=0 up to tau, ending with the value at tau."""
        if not tau >= 0:
            raise ValueError("tau must be nonnegative")
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
    """The jumps on [0, tau] that the AUMCF, its influence values, its
    bootstrap resamples and the MCF are sums over.

    One fit per (arm, tau, s_convention, weights); ``mcf`` fits with tau
    inf. Event jumps: distinct event times ``te`` <= tau with event counts
    ``e`` (the number of events at each), at-risk counts ``y_e``,
    rate increments ``dr`` = event mass (see ``fit_arm``) / ``y_e`` and the
    survival ``s`` at ``te`` under the convention. Death jumps: distinct
    terminal-event times ``td`` <= tau with death counts ``d`` and at-risk
    counts ``y_d``. Behind them: the ``owners`` and ``mass`` of the events
    in time order and ``event_first``, the first event of each jump;
    ``death_rows``, the follow-up positions of the counted deaths, and
    ``death_first``, the first of each jump; ``at_te`` and ``at_td``, where
    the risk sets start in follow-up order (``y = n - at``);
    ``deaths_before``, whose k-th entry counts the death jumps with
    ``at_td < k`` for k = 0..n (entry k + 1: the death times at or before
    the k-th follow-up time); and ``km_at``, the index of each ``s`` into
    the arm's Kaplan-Meier curve with 1 prepended.

    The jumps on [0, tau] are a prefix of the arm's jump index (see
    ``ArmDataset``), whatever the ``weights``, and the arrays taken from it
    are read-only views of it: ``te``, ``e``, ``event_first``, ``at_te``,
    ``owners`` and every death array but ``y_d`` and ``deaths_before``.
    The weights set only ``mass``, and through it ``dr``.

    Every other position, here and in ``fit_influence``, is counted from
    ``at_te`` and ``at_td``, not searched for: a jump time is at or before
    the k-th follow-up time exactly when its risk set starts at or before
    position k, and td < te exactly when at_td < at_te. So the counts are
    the integers a search would give.
    """

    arm: ArmDataset
    tau: float
    weights: dict[int, float] | None
    te: np.ndarray
    e: np.ndarray
    y_e: np.ndarray
    dr: np.ndarray
    s: np.ndarray
    td: np.ndarray
    d: np.ndarray
    y_d: np.ndarray
    owners: np.ndarray
    mass: np.ndarray
    event_first: np.ndarray
    death_rows: np.ndarray
    death_first: np.ndarray
    at_te: np.ndarray
    at_td: np.ndarray
    deaths_before: np.ndarray
    km_at: np.ndarray

    @property
    def theta(self) -> float:
        """The AUMCF point estimate: sum of (tau - u) * S_D * dR over jumps u.

        A jump with S_D or dR 0 adds 0, even at tau inf."""
        span = self.tau - self.te
        if self.tau == np.inf:  # where (inf - u) * 0 would be NaN
            span[(self.s == 0) | (self.dr == 0)] = 0.0
        return float(np.sum(span * self.s * self.dr))

    def thetas(self, counts: np.ndarray) -> np.ndarray:
        """The AUMCF of resamples of the arm's subjects, one per row of a
        ``(rows, n)`` matrix of how often each subject was drawn: this fit's
        sums with each subject weighted by its count. At-risk counts are
        reverse cumulative sums of a row over the subjects in follow-up
        order; event and death counts are row sums over the subjects that
        own them. A jump whose risk set is empty in a resample adds nothing.
        """
        rows, n = counts.shape
        if self.te.size == 0:
            return np.zeros(rows)
        c = counts[:, self.arm._follow_up_order]
        # y[:, k]: drawn subjects followed to at least the k-th follow-up
        # time; the column past the last is 0
        y = np.zeros((rows, n + 1), dtype=counts.dtype)
        np.cumsum(c[:, ::-1], axis=1, out=y[:, -2::-1])
        drawn = counts[:, self.owners]
        if self.weights is not None:  # with no weights every mass is 1
            drawn = drawn * self.mass
        dn = np.add.reduceat(drawn, self.event_first, axis=1)
        y_e = y[:, self.at_te]
        dr = np.divide(dn, y_e, out=np.zeros(dn.shape), where=y_e > 0)
        km = np.ones((rows, self.td.size + 1))
        if self.td.size:
            d = np.add.reduceat(c[:, self.death_rows], self.death_first, axis=1)
            y_d = y[:, self.at_td]
            hazard = np.divide(d, y_d, out=np.zeros(d.shape), where=y_d > 0)
            np.cumprod(1.0 - hazard, axis=1, out=km[:, 1:])
        return np.sum((self.tau - self.te) * km[:, self.km_at] * dr, axis=1)


def fit_arm(
    arm: ArmDataset,
    tau: float,
    s_convention: str = "left",
    weights: dict[int, float] | None = None,
) -> ArmFit:
    """Fit one arm on [0, tau]: its event and death jumps and its AUMCF.

    Each event carries rate mass 1, or with ``weights`` the weight of its
    type (0 for a type not in the map, so ``{k: 1.0}`` fits type k alone);
    a weight that is negative, NaN or infinite raises
    :class:`ValidationError`. The jumps, the survival curve and the risk
    sets are the arm's own, read from the prefix of its jump index up to
    tau; an event of mass 0 keeps its jump, where ``dr`` may be 0.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    if s_convention not in S_CONVENTIONS:
        raise ValueError(f"s_convention must be one of {S_CONVENTIONS}")
    if weights is not None:
        weights = dict(weights)  # the fit's own copy of the map it was fitted with
        if not all(0 <= w < np.inf for w in weights.values()):
            raise ValidationError("event-type weights must be nonnegative and finite")
    # the jumps up to tau are a prefix of the arm's index
    k = arm._te.searchsorted(tau, side="right")
    te, e, event_first, at_te = arm._te[:k], arm._e[:k], arm._event_first[:k], arm._at_te[:k]
    m = arm._event_first[k] if k < arm._te.size else arm.event_times.size
    owners = arm.event_subjects[:m]
    if weights is None:
        mass = np.ones(m)
    else:  # each event weighs its type's entry, 0 for a type not in the map
        labels, mass = arm.event_type_labels[:m], np.zeros(m)
        for label, v in weights.items():
            mass[labels == label] = v
    y_e = (arm.n - at_te).astype(np.float64)
    j = arm._td.searchsorted(tau, side="right")
    td, d, death_first, at_td = arm._td[:j], arm._d[:j], arm._death_first[:j], arm._at_td[:j]
    death_rows = arm._death_rows[:arm._death_first[j] if j < arm._td.size
                                 else arm._death_rows.size]
    y_d = (arm.n - at_td).astype(np.float64)
    deaths_before = _counts_below(at_td, arm.n)
    # the left limit counts the deaths before te, the right one adds a
    # death at te, which can only be the next death time
    km_at = deaths_before[at_te]
    if s_convention == "right":
        km_at = km_at + (np.append(td, np.inf)[km_at] == te)
    s = arm._km[km_at]
    dr = np.add.reduceat(mass, event_first) / y_e
    return ArmFit(arm, tau, weights, te, e, y_e, dr, s, td, d, y_d, owners, mass, event_first,
                  death_rows, death_first, at_te, at_td, deaths_before, km_at)


def fit_influence(fit: ArmFit) -> np.ndarray:
    """Per-subject influence values of the AUMCF from one arm fit, in the
    arm's subject order; they sum to zero up to floating-point error.

    psi_i = sum over event jumps u of w(u) dM_i(u), with w(u) = (tau - u)
    S_D(u) n / Y(u), minus the sum over death jumps v of B(v) n / Y(v)
    dM^D_i(v), where dM_i and dM^D_i are subject i's event and terminal
    residuals (observed jump minus the compensator dR or dLambda = d / Y
    while at risk) and B(v) = theta minus the AUMCF mass at jumps <= v.
    The compensators and B are prefix sums over the jumps at or before a
    time, indexed by counted positions (see ``ArmFit``). Raises
    ``ValueError`` for a fit with tau inf, where theta and B are infinite.
    """
    arm, tau, n = fit.arm, fit.tau, fit.arm.n
    if tau == np.inf:
        raise ValueError("influence values need a finite tau")
    order = arm._follow_up_order
    te = fit.te
    # events_before[k + 1]: event jumps at or before the k-th follow-up time
    events_before = _counts_below(fit.at_te, n)

    w_e = (tau - te) * fit.s * (n / fit.y_e)
    # the events come in runs, one per event jump, and each takes
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


def km_survival(arm: ArmDataset) -> StepFunction:
    """Kaplan-Meier product-limit estimator of the terminal-event survival."""
    return StepFunction(arm._td, arm._km[1:], 1.0)


def mcf(arm: ArmDataset, s_convention: str = "left") -> StepFunction:
    """Estimated mean cumulative function m(t) = sum of S_D * dR over jumps."""
    fit = fit_arm(arm, np.inf, s_convention)
    return StepFunction(fit.te, np.cumsum(fit.s * fit.dr), 0.0)


def aumcf(
    arm: ArmDataset,
    tau: float,
    s_convention: str = "left",
    weights: dict[int, float] | None = None,
) -> float:
    """AUMCF point estimate: sum of (tau - u) * S_D * dR over jumps u <= tau."""
    return fit_arm(arm, tau, s_convention, weights).theta


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


def area_under_step(f: StepFunction, tau: float) -> float:
    """Exact integral of a step function on [0, tau]."""
    if not tau >= 0:
        raise ValueError("tau must be nonnegative")
    knots = np.concatenate(([0.0], f.jump_times[f.jump_times < tau], [tau]))
    vals = np.concatenate(([f.initial_value], f.values[f.jump_times < tau]))
    # a segment of value 0 adds 0, even one of infinite width
    area = np.multiply(vals, np.diff(knots), out=np.zeros_like(vals), where=vals != 0)
    return float(np.sum(area))


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


def _counts_below(at: np.ndarray, n: int) -> np.ndarray:
    """c[k] = the number of entries of ``at`` below k, for k = 0..n, where
    ``at`` holds follow-up positions in [0, n)."""
    c = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(at, minlength=n), out=c[1:])
    return c


def _prefix_sums(mass: np.ndarray) -> np.ndarray:
    """0, then the running totals of ``mass``: entry j is the mass of the
    first j knots."""
    return np.concatenate(([0.0], np.cumsum(mass)))
