import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import strategies as st

from aumcf import (
    ArmDataset, Status, StudyDataset, ValidationError, aumcf, fit_arm, fit_influence,
    generate_dataset,
)


def make_arm(arm, subjects):
    """An arm from one ``(id, x, terminal, times=(), types=(), covs=())``
    tuple per subject, in the order given; missing types are 0."""
    ids, follow_up, terminal, covs = [], [], [], []
    times, owners, types = [], [], []
    for i, (sid, x, dead, *rest) in enumerate(subjects):
        ev, ty, w = (*rest, (), (), ())[:3]
        ids.append(sid)
        follow_up.append(x)
        terminal.append(dead)
        covs.append(tuple(w))
        times.extend(ev)
        owners.extend([i] * len(ev))
        types.extend(ty or [0] * len(ev))
    return ArmDataset(arm, ids, follow_up, terminal, covs, times, owners, types)


def subject_rows(arm):
    """The ``make_arm`` tuples of an arm: each subject's events in time
    order, found by a plain loop over the event columns."""
    rows = []
    for i in range(arm.n):
        mine = [k for k in range(arm.event_times.size) if arm.event_subjects[k] == i]
        rows.append((
            arm.subject_ids[i], float(arm.follow_up[i]), bool(arm.terminal[i]),
            tuple(float(arm.event_times[k]) for k in mine),
            tuple(int(arm.event_type_labels[k]) for k in mine),
            tuple(float(w) for w in arm.covariates[i]),
        ))
    return rows


def unique_grouping(ids, time, status, arm, event_type, covariates):
    """``core._arms_from_rows`` as ``np.unique`` computes the grouping: the
    same columns in, the same arms or error out, for checking the grouping
    by counting. Subjects are (arm, id) pairs in arm order, then in
    ``sorted()`` order of the ids; a subject's covariates are those of its
    first row."""
    if not ids:
        raise ValidationError("no records supplied")
    bad_arm = (arm != 1) & (arm != 2)
    if bad_arm.any():
        raise ValidationError(f"subject {ids[int(np.argmax(bad_arm))]!r}: arm must be 1 or 2")
    uid = sorted(set(ids))
    rank = {sid: k for k, sid in enumerate(uid)}
    id_code = np.array([rank[sid] for sid in ids], dtype=np.int64)
    keys, first, subj = np.unique((arm - 1) * len(uid) + id_code, return_index=True,
                                  return_inverse=True)
    subject_ids = np.array(uid, dtype=object)[keys % len(uid)]
    n_subj = keys.size
    is_end = status != Status.EVENT
    n_end = np.bincount(subj[is_end], minlength=n_subj)
    follow_up = np.zeros(n_subj)
    follow_up[subj[is_end]] = time[is_end]
    terminal = np.zeros(n_subj, dtype=bool)
    terminal[subj[is_end]] = status[is_end] == Status.DEATH
    ref_row = first[subj]
    differs = (np.arange(len(ids)) != ref_row) & (covariates != covariates[ref_row]).any(axis=1)
    conflict = np.zeros(n_subj, dtype=bool)
    conflict[subj[differs]] = True
    for s in range(n_subj):
        for bad, msg in ((n_end[s] == 0, "missing terminal/censor record"),
                         (n_end[s] > 1, "multiple terminal/censor records"),
                         (conflict[s], "conflicting covariate values")):
            if bad:
                raise ValidationError(f"subject {subject_ids[s]!r}: {msg}")
    arms = {}
    n1 = int(np.searchsorted(keys, len(uid)))
    for a, lo, hi in ((1, 0, n1), (2, n1, n_subj)):
        on = ~is_end & (arm == a)
        if lo < hi:
            arms[a] = ArmDataset(
                a, subject_ids[lo:hi], follow_up[lo:hi], terminal[lo:hi],
                covariates[first[lo:hi]], time[on], subj[on] - lo, event_type[on],
            )
    return arms


def random_arm(rng, n=30, arm=1, event_rate=1.0, death_rate=0.3,
               censor_rate=0.3, horizon=10.0, n_cov=0, n_types=1):
    """Small ad-hoc recurrent-event arm for property tests.

    Independent homogeneous processes; not tied to the simulation module
    so the two generators can cross-check each other.
    """
    subjects = []
    for i in range(n):
        death = rng.exponential(1 / death_rate) if death_rate > 0 else np.inf
        censor = rng.exponential(1 / censor_rate) if censor_rate > 0 else np.inf
        x = min(death, censor, horizon)
        terminal = death <= min(censor, horizon)
        events, t = [], 0.0
        while event_rate > 0:
            t += rng.exponential(1 / event_rate)
            if t > x:
                break
            events.append(t)
        types = tuple(int(k) for k in rng.integers(0, n_types, len(events)))
        cov = tuple(rng.standard_normal(n_cov)) if n_cov else ()
        subjects.append((f"a{arm}s{i}", x, terminal, events, types, cov))
    return make_arm(arm, subjects)


def random_study(rng, tau=3.0, n=30, n_cov=0, **kw):
    a1 = random_arm(rng, n=n, arm=1, n_cov=n_cov, **kw)
    a2 = random_arm(rng, n=n, arm=2, n_cov=n_cov, **kw)
    names = tuple(f"w{k+1}" for k in range(n_cov))
    return StudyDataset(a1, a2, tau=tau, covariate_names=names)


def near_collinear_study(rng, eps, n=40, tau=2.0):
    """A study whose one covariate, w1, is each arm's influence values + 5
    plus noise of scale ``eps``: the augmentation explains all but the noise."""
    arms = []
    for arm in random_study(rng, n=n, tau=tau).arms():
        w = fit_influence(fit_arm(arm, tau)) + 5.0 + eps * rng.standard_normal(arm.n)
        arms.append(make_arm(arm.arm, [(*row[:5], (float(v),))
                                       for row, v in zip(subject_rows(arm), w)]))
    return StudyDataset(*arms, tau=tau, covariate_names=("w1",))


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def toy_arm():
    # 3-subject worked example: theta(tau=12) = 26/3
    return make_arm(1, [
        ("s1", 10.0, True, (2.0, 5.0)),
        ("s2", 8.0, False, (3.0,)),
        ("s3", 12.0, False, ()),
    ])


@dataclass(frozen=True)
class MartingaleResiduals:
    """Dense per-subject residual increments at the aggregated jump times.

    ``d_event[i, k]`` is the event-process residual mass of subject i at
    ``event_times[k]``: its own events there minus ``dr[k]`` while at risk;
    ``d_terminal`` likewise at ``death_times`` with hazard jumps
    ``dlam``. Column sums of both matrices are identically zero.
    """

    event_times: np.ndarray
    dr: np.ndarray
    d_event: np.ndarray
    death_times: np.ndarray
    dlam: np.ndarray
    d_terminal: np.ndarray


def event_weights(arm, weights=None):
    """Each event's weight, in the arm's event order: ``weights`` of its
    type, 0 for a type not in the map, 1 with no map."""
    if weights is None:
        return np.ones(arm.event_times.size)
    return np.array([weights.get(int(k), 0.0) for k in arm.event_type_labels])


def martingale_residuals(arm, weights=None):
    """Per-subject event and terminal-event residual increments.

    Built from the arm's columns with dense at-risk matrices, sharing no
    estimator code with the package; with ``weights`` each event counts
    with the weight of its type, and events of weight 0 not at all.
    """
    x = arm.follow_up
    w = event_weights(arm, weights)
    keep = w != 0
    times, subjects, w = arm.event_times[keep], arm.event_subjects[keep], w[keep]
    te = np.unique(times)
    at_risk = x[:, None] >= te[None, :]
    dr = ((times[:, None] == te[None, :]) * w[:, None]).sum(axis=0) / at_risk.sum(axis=0)
    d_event = -(at_risk * dr[None, :])
    np.add.at(d_event, (subjects, np.searchsorted(te, times)), w)
    td = np.unique(x[arm.terminal])
    at_risk = x[:, None] >= td[None, :]
    observed = arm.terminal[:, None] & (x[:, None] == td[None, :])
    dlam = observed.sum(axis=0) / at_risk.sum(axis=0)
    d_terminal = observed - at_risk * dlam[None, :]
    return MartingaleResiduals(te, dr, d_event, td, dlam, d_terminal)


def dense_influence(arm, tau, s_convention="left", weights=None):
    """Influence values as dense martingale sums, for checking the package.

    psi = d_event @ w_e - d_terminal @ (B(td) n / Y(td)) with w_e =
    (tau - u) S(u) n / Y(u) and B(v) the AUMCF mass at event jumps in
    (v, tau]; jumps past tau get zero weight. S is the Kaplan-Meier
    product over deaths before u (``"left"``) or up to u (``"right"``).
    """
    res = martingale_residuals(arm, weights)
    n, x = arm.n, arm.follow_up
    te, td = res.event_times, res.death_times
    y_e = (x[:, None] >= te[None, :]).sum(axis=0)
    y_d = (x[:, None] >= td[None, :]).sum(axis=0)
    before = td[None, :] < te[:, None] if s_convention == "left" else td[None, :] <= te[:, None]
    s = np.prod(np.where(before, 1.0 - res.dlam[None, :], 1.0), axis=1)
    w_e = np.where(te <= tau, (tau - te) * s * n / y_e, 0.0)
    area = np.where(te <= tau, (tau - te) * s * res.dr, 0.0)
    b = (area[None, :] * (te[None, :] > td[:, None])).sum(axis=1)
    w_d = np.where(td <= tau, b * n / y_d, 0.0)
    return res.d_event @ w_e - res.d_terminal @ w_d


# a coarse grid of times makes ties: events with events, deaths and
# censorings, and all of them with time 0
TIE_GRID = (0.0, 0.5, 1.0, 1.5, 2.0)


@st.composite
def tied_arms(draw, arm=1):
    """Arms of up to 12 subjects on ``TIE_GRID``, or on the grid without 0,
    with event types 0-2; some have no deaths and some no events."""
    grid = draw(st.sampled_from([TIE_GRID, TIE_GRID[1:]]))
    deaths, events = draw(st.booleans()), draw(st.booleans())
    subjects = []
    for i in range(draw(st.integers(1, 12))):
        x = draw(st.sampled_from(TIE_GRID))
        dead = deaths and draw(st.booleans())
        on_grid = [t for t in grid if t <= x and events]
        times = draw(st.lists(st.sampled_from(on_grid), max_size=3)) if on_grid else []
        types = [draw(st.integers(0, 2)) for _ in times]
        subjects.append((f"s{i}", x, dead, sorted(times), types))
    return make_arm(arm, subjects)


def at_risk(arm, times):
    """The number of subjects of ``arm`` with X >= t for each t (closed
    inequality), from a fresh sort of the follow-up times."""
    return arm.n - np.searchsorted(np.sort(arm.follow_up), times, side="left")


def reference_fit(arm, tau, s_convention="left", weights=None):
    """The ``ArmFit`` jump arrays and theta as computed from the columns in
    subject order: ``np.unique`` of the event times up to tau, event mass
    by ``np.bincount``, at-risk counts from a fresh sort of the follow-up
    times. Keys are the ``ArmFit`` fields."""
    x = arm.follow_up
    w = event_weights(arm, weights)
    keep = arm.event_times <= tau
    te, at, e = np.unique(arm.event_times[keep], return_inverse=True, return_counts=True)
    y_e = at_risk(arm, te).astype(np.float64)
    dr = np.bincount(at, weights=w[keep], minlength=te.size) / y_e
    td, d = np.unique(x[arm.terminal & (x <= tau)], return_counts=True)
    y_d = at_risk(arm, td).astype(np.float64)
    km = np.concatenate(([1.0], np.cumprod(1.0 - d / y_d)))
    s = km[np.searchsorted(td, te, side="left" if s_convention == "left" else "right")]
    theta = float(np.sum((tau - te) * s * dr))
    return dict(te=te, e=e, y_e=y_e, dr=dr, s=s, td=td, d=d, y_d=y_d, theta=theta)


def reference_influence(fit):
    """``fit_influence`` computed per subject in subject order: risk-set
    lookups with unsorted queries and observed jumps by ``np.add.at``."""
    arm, tau, n = fit.arm, fit.tau, fit.arm.n
    x = arm.follow_up
    te, td = fit.te, fit.td

    def prefix_at(mass, knots, t):
        return np.concatenate(([0.0], np.cumsum(mass)))[np.searchsorted(knots, t, side="right")]

    w_e = (tau - te) * fit.s * (n / fit.y_e)
    w = event_weights(arm, fit.weights)
    ev = arm.event_times <= tau
    obs_event = np.zeros(n)
    np.add.at(obs_event, arm.event_subjects[ev],
              w_e[np.searchsorted(te, arm.event_times[ev])] * w[ev])
    comp_event = prefix_at(w_e * fit.dr, te, x)
    b = fit.theta - prefix_at((tau - te) * fit.s * fit.dr, te, td)
    w_d = b * (n / fit.y_d)
    dead = arm.terminal & (x <= tau)
    obs_death = np.zeros(n)
    obs_death[dead] = w_d[np.searchsorted(td, x[dead])]
    comp_death = prefix_at(w_d * (fit.d / fit.y_d), td, x)
    return (obs_event - comp_event) - (obs_death - comp_death)


def per_type_sum(arm, tau, s_convention, weights):
    """Theta and influence values of a weighted fit as the sum over types
    k of w_k times the fit of type k alone, ``{k: 1.0}``: the per-type
    refit that one weighted fit replaces."""
    theta, psi = 0.0, np.zeros(arm.n)
    for k, w in sorted(weights.items()):
        fit = fit_arm(arm, tau, s_convention, {k: 1.0})
        theta += w * fit.theta
        psi += w * fit_influence(fit)
    return theta, psi


def monte_carlo_truth(config, n_per_arm=2000, replicates=25):
    """Each arm's mean AUMCF estimate over ``replicates`` censoring-free
    datasets of ``n_per_arm`` subjects, and its Monte Carlo SE: with no
    censoring the estimate is unbiased, so this checks the exact truth with
    nothing shared but the data generator."""
    cfg = replace(config, lambda_censor=0.0, n_per_arm=n_per_arm, replicates=replicates)
    thetas = np.array([[aumcf(arm, cfg.tau) for arm in generate_dataset(cfg, r).arms()]
                       for r in range(replicates)])
    return thetas.mean(axis=0), thetas.std(axis=0, ddof=1) / math.sqrt(replicates)


# ScenarioConfig fields that must be rejected, with the message naming why;
# the first case hung the simulator (Gamma shape 1 / v overflows to inf),
# so it is only ever constructed, never simulated
BAD_SCENARIO_FIELDS = [
    ("frailty_variance", 1e-320, "frailty variance must be 0, or positive with a finite reciprocal"),
    ("frailty_variance", math.inf, "frailty_variance must be a finite number"),
    ("n_per_arm", 2.5, "n_per_arm must be an integer"),
    ("n_per_arm", True, "n_per_arm must be an integer"),
    ("replicates", 2.0, "replicates must be an integer"),
    # counts past what the harness can hold: each bound names its limit
    ("n_per_arm", 10 ** 20, "n_per_arm must be at most 10000000"),
    ("n_per_arm", 10_000_001, "n_per_arm must be at most 10000000"),
    ("replicates", 10 ** 20, "replicates must be at most 1000000"),
    ("replicates", 1_000_001, "replicates must be at most 1000000"),
    ("seed", -1, "seed must be nonnegative"),
    ("seed", 1.5, "seed must be an integer"),
    ("lambda_event", (1.0,), "lambda_event must be a pair of finite numbers"),
    ("lambda_death", (0.2, 0.2, 0.2), "lambda_death must be a pair of finite numbers"),
    ("rate_multipliers", (1.0, math.inf), "rate_multipliers must be a pair of finite numbers"),
    ("rate_multipliers", (1.0, -0.5), "rates and rate multipliers must be nonnegative"),
    ("lambda_censor", True, "lambda_censor must be a finite number"),
    ("horizon_factor", -1.0, "horizon_factor must be positive"),
    ("horizon_factor", math.nan, "horizon_factor must be a finite number"),
    ("change_point", math.nan, "change_point must be a finite number"),
    ("tau", math.inf, "tau must be a finite number"),
    ("event_log_effect", math.nan, "event_log_effect must be a finite number"),
    # integers too large for a float, as JSON may give
    ("lambda_event", (1.0, -10 ** 400), "lambda_event must be a pair of finite numbers"),
    ("lambda_death", (10 ** 400, 0.2), "lambda_death must be a pair of finite numbers"),
]
