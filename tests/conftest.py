from dataclasses import dataclass

import numpy as np
import pytest

from aumcf import ArmDataset, StudyDataset, SubjectHistory


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
        subjects.append(SubjectHistory(
            subject_id=f"a{arm}s{i}", follow_up=x, terminal=terminal,
            event_times=tuple(events), event_types=types, covariates=cov,
        ))
    return ArmDataset(arm, subjects)


def random_study(rng, tau=3.0, n=30, n_cov=0, **kw):
    a1 = random_arm(rng, n=n, arm=1, n_cov=n_cov, **kw)
    a2 = random_arm(rng, n=n, arm=2, n_cov=n_cov, **kw)
    names = tuple(f"w{k+1}" for k in range(n_cov))
    return StudyDataset(a1, a2, tau=tau, covariate_names=names)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def toy_arm():
    # 3-subject worked example: theta(tau=12) = 26/3
    return ArmDataset(1, [
        SubjectHistory("s1", 10.0, True, (2.0, 5.0)),
        SubjectHistory("s2", 8.0, False, (3.0,)),
        SubjectHistory("s3", 12.0, False, ()),
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


def martingale_residuals(arm, event_type=None):
    """Per-subject event and terminal-event residual increments.

    Built from the arm's columns with dense at-risk matrices, sharing no
    estimator code with the package; with ``event_type`` only events of
    that type count.
    """
    x = arm.follow_up
    times, subjects = arm.event_times, arm.event_subjects
    if event_type is not None:
        keep = arm.event_type_labels == event_type
        times, subjects = times[keep], subjects[keep]
    te = np.unique(times)
    at_risk = x[:, None] >= te[None, :]
    dr = (times[:, None] == te[None, :]).sum(axis=0) / at_risk.sum(axis=0)
    d_event = -(at_risk * dr[None, :])
    np.add.at(d_event, (subjects, np.searchsorted(te, times)), 1.0)
    td = np.unique(x[arm.terminal])
    at_risk = x[:, None] >= td[None, :]
    observed = arm.terminal[:, None] & (x[:, None] == td[None, :])
    dlam = observed.sum(axis=0) / at_risk.sum(axis=0)
    d_terminal = observed - at_risk * dlam[None, :]
    return MartingaleResiduals(te, dr, d_event, td, dlam, d_terminal)


def dense_influence(arm, tau, s_convention="left", event_type=None):
    """Influence values as dense martingale sums, for checking the package.

    psi = d_event @ w_e - d_terminal @ (B(td) n / Y(td)) with w_e =
    (tau - u) S(u) n / Y(u) and B(v) the AUMCF mass at event jumps in
    (v, tau]; jumps past tau get zero weight. S is the Kaplan-Meier
    product over deaths before u (``"left"``) or up to u (``"right"``).
    """
    res = martingale_residuals(arm, event_type)
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
