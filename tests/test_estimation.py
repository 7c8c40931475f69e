import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aumcf import (
    StepFunction,
    ValidationError,
    area_under_step,
    aumcf,
    fit_arm,
    fit_influence,
    influence_values,
    km_survival,
    mcf,
    rmst,
    time_lost_per_subject,
)

from aumcf.estimation import S_CONVENTIONS, _counts_below

from conftest import event_weights, make_arm, random_arm, reference_fit, tied_arms


def test_step_function_evaluation():
    f = StepFunction(np.array([2.0]), np.array([1.0]), 0.0)
    assert f(1.9) == 0.0 and f(2.0) == 1.0 and f(5.0) == 1.0
    assert area_under_step(f, 5.0) == 3.0
    assert area_under_step(StepFunction(np.empty(0), np.empty(0), 1.0), 5.0) == 5.0


def test_step_function_is_nan_at_nan(toy_arm):
    # a search sorts NaN last: the curve must not read its final value there
    for f in (mcf(toy_arm), km_survival(toy_arm),
              StepFunction(np.empty(0), np.empty(0), 1.0)):
        assert math.isnan(f(math.nan))
        got = f(np.array([1.0, math.nan, 12.0]))
        assert got[0] == f(1.0) and math.isnan(got[1]) and got[2] == f(12.0)


@pytest.mark.parametrize("tau", [math.nan, -1.0, -math.inf])
def test_area_under_step_rejects_a_tau_that_is_not_nonnegative(tau):
    f = StepFunction(np.array([2.0]), np.array([1.0]), 0.0)
    for use in (lambda t: area_under_step(f, t), f.to_rows):
        with pytest.raises(ValueError, match="tau must be nonnegative"):
            use(tau)
    assert area_under_step(f, 0.0) == 0.0
    assert f.to_rows(0.0) == [(0.0, 0.0)]


def test_step_function_rejects_unsorted():
    with pytest.raises(ValueError):
        StepFunction(np.array([2.0, 1.0]), np.array([1.0, 2.0]), 0.0)


def test_km_survival_hand_example(toy_arm):
    km = km_survival(toy_arm)
    # only death at t=10 with at-risk {X=10, X=12}: factor 1 - 1/2
    assert km(9.99) == 1.0
    assert km(10.0) == 0.5
    assert km(12.0) == 0.5


def test_km_no_deaths_constant_one():
    arm = make_arm(1, [("a", 3.0, False)])
    assert km_survival(arm)(100.0) == 1.0


def test_km_single_death():
    arm = make_arm(1, [("a", 5.0, True)])
    km = km_survival(arm)
    assert km(4.99) == 1.0 and km(5.0) == 0.0


def test_nelson_aalen_hand_example():
    # Nelson-Aalen jumps d / Y of the fit: one death of two at risk, then of one
    fit = fit_arm(make_arm(1, [
        ("a", 10.0, True),
        ("b", 12.0, False),
    ]), 12.0)
    assert fit.td.tolist() == [10.0] and (fit.d / fit.y_d).tolist() == [0.5]
    fit = fit_arm(make_arm(1, [("a", 5.0, True)]), 5.0)
    assert (fit.d / fit.y_d).tolist() == [1.0]
    # a death after tau is not a jump of the fit
    assert fit_arm(make_arm(1, [("a", 5.0, True)]), 4.0).td.size == 0


def test_event_rate_increments_distinct_and_tied():
    fit = fit_arm(make_arm(1, [
        ("a", 5.0, False, (2.0,)),
        ("b", 5.0, False, (3.0,)),
        ("c", 5.0, False, (5.0,)),
    ]), 5.0)
    assert fit.te.tolist() == [2.0, 3.0, 5.0] and fit.y_e.tolist() == [3.0, 3.0, 3.0]
    assert np.allclose(fit.dr, [1 / 3, 1 / 3, 1 / 3])
    fit = fit_arm(make_arm(1, [
        ("a", 5.0, False, (4.0,)),
        ("b", 5.0, False, (4.0,)),
    ]), 5.0)
    assert fit.te.tolist() == [4.0] and fit.dr.tolist() == [1.0] and fit.y_e.tolist() == [2.0]


def test_mcf_hand_example(toy_arm):
    m = mcf(toy_arm)
    assert m(8.0) == pytest.approx(1.0)
    assert [v for _, v in m.to_rows(12.0)] == pytest.approx([0, 1/3, 2/3, 1, 1])


def test_mcf_single_subject_indicator():
    arm = make_arm(1, [("a", 2.0, False, (1.0,))])
    m = mcf(arm)
    assert m(0.5) == 0.0 and m(1.0) == 1.0 and m(2.0) == 1.0


_CURVE_EDGE_ARMS = {
    "all follow-up at 0": [("a", 0.0, True, (0.0,)), ("b", 0.0, False, (0.0, 0.0)),
                           ("c", 0.0, True)],
    "no events": [("a", 1.0, True), ("b", 2.0, False), ("c", 2.0, True)],
    # everyone left at 2 dies there, so the right limit of S is 0 at 2
    "deaths tied with events": [("a", 1.0, True, (0.5, 1.0)), ("b", 1.0, True, (1.0,)),
                                ("c", 2.0, True, (1.0, 2.0)), ("d", 2.0, True, (2.0,))],
}


@pytest.mark.parametrize("subjects", _CURVE_EDGE_ARMS.values(), ids=_CURVE_EDGE_ARMS.keys())
def test_curves_are_the_reference_fit_over_all_time(subjects):
    arm = make_arm(1, subjects)
    # no event or death is later than the last follow-up
    tau = float(arm.follow_up.max())
    for s_convention in ("left", "right"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the fit over all time computes no inf * 0
            m = mcf(arm, s_convention)
        ref = reference_fit(arm, tau, s_convention)
        assert m.initial_value == 0.0
        assert m.jump_times.tobytes() == ref["te"].tobytes()
        assert m.values.tobytes() == np.cumsum(ref["s"] * ref["dr"]).tobytes()
    km = km_survival(arm)
    assert km.initial_value == 1.0
    assert km.jump_times.tobytes() == ref["td"].tobytes()
    assert km.values.tobytes() == np.cumprod(1.0 - ref["d"] / ref["y_d"]).tobytes()


def test_aumcf_hand_example(toy_arm):
    assert aumcf(toy_arm, 12.0) == pytest.approx(26 / 3, abs=1e-12)


def test_aumcf_empty_and_early_tau(toy_arm):
    empty = make_arm(1, [("a", 5.0, False)])
    assert aumcf(empty, 3.0) == 0.0
    assert aumcf(toy_arm, 1.5) == 0.0  # tau before the first event


def test_switch_of_integration_identity(rng):
    # theta == area under the MCF, both exact Stieltjes sums
    for _ in range(200):
        arm = random_arm(rng, n=int(rng.integers(2, 15)))
        tau = float(rng.uniform(0.5, 6.0))
        lhs = aumcf(arm, tau)
        rhs = area_under_step(mcf(arm), tau)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_rmst_hand_examples(toy_arm):
    assert rmst(toy_arm, 12.0) == pytest.approx(11.0)
    no_deaths = make_arm(1, [("a", 5.0, False)])
    assert rmst(no_deaths, 4.0) == 4.0
    single = make_arm(1, [("a", 5.0, True)])
    assert rmst(single, 8.0) == 5.0
    # to infinity: a curve that ends at 0 adds 0 beyond its last jump, not
    # 0 * inf = nan; one that stays positive has an infinite area
    ends_at_zero = make_arm(1, [("a", 10.0, True, (2.0, 5.0)), ("b", 8.0, False, (3.0,)),
                                ("c", 12.0, True, ())])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rmst(ends_at_zero, math.inf) == 11.0
        assert rmst(no_deaths, math.inf) == math.inf


def test_rmst_identity_death_only(rng):
    # with each terminal event also recorded as an event of interest,
    # theta = tau - RMST exactly (product-limit identity)
    for _ in range(50):
        n = int(rng.integers(2, 20))
        xs = rng.exponential(2.0, n)
        died = rng.random(n) < 0.7
        base = [(f"s{i}", float(x), bool(d))
                for i, (x, d) in enumerate(zip(xs, died))]
        withev = [(sid, x, d, (x,) if d else ()) for sid, x, d in base]
        tau = float(rng.uniform(0.5, 5.0))
        theta = aumcf(make_arm(1, withev), tau)
        assert theta == pytest.approx(tau - rmst(make_arm(1, base), tau),
                                      rel=1e-10, abs=1e-12)


def test_no_censoring_brute_force(rng):
    # everyone followed to tau: theta equals the mean per-subject time lost
    tau = 5.0
    subs = []
    for i in range(40):
        k = int(rng.integers(0, 5))
        subs.append((f"s{i}", tau, False, tuple(sorted(rng.uniform(0, tau, k)))))
    arm = make_arm(1, subs)
    lost = time_lost_per_subject(arm, tau)
    assert lost.tolist() == [sum(max(tau - t, 0.0) for t in s[3]) for s in subs]
    assert aumcf(arm, tau) == pytest.approx(lost.mean(), rel=1e-12)


def test_time_lost_worked_examples():
    # 24-month window: events at 6 and 12 lose 18 + 12 = 30 event-months;
    # an event at 6 plus a terminal event at 18 counted as an event: 18 + 6 = 24
    arm = make_arm(1, [
        ("o1", 24.0, False, (6.0, 12.0)),
        ("o2", 12.0, False),
        ("o3", 18.0, True, (6.0, 18.0)),
    ])
    assert time_lost_per_subject(arm, 24.0).tolist() == [30.0, 0.0, 24.0]


def test_curve_rows_include_origin_and_tau(toy_arm):
    rows = mcf(toy_arm).to_rows(12.0)
    assert rows[0] == (0.0, 0.0) and rows[-1][0] == 12.0
    empty = make_arm(1, [("a", 5.0, False)])
    assert mcf(empty).to_rows(5.0) == [(0.0, 0.0), (5.0, 0.0)]
    # a jump exactly at tau gives one row there, and a curve whose value
    # is above tau still ends with a row at tau
    f = StepFunction(np.array([0.5, 2.0]), np.array([0.25, 0.125]), 1.0)
    assert f.to_rows(0.5) == [(0.0, 1.0), (0.5, 0.25)]
    assert StepFunction([1.0], [0.5], 1.0).to_rows(0.5) == [(0.0, 1.0), (0.5, 1.0)]


@settings(max_examples=60, deadline=None)
@given(
    jumps=st.lists(st.floats(0.01, 9.9), min_size=1, max_size=8, unique=True),
    tau=st.floats(0.1, 10.0),
)
def test_area_under_step_matches_dense_riemann(jumps, tau):
    jt = np.sort(np.array(jumps))
    vals = np.cumsum(np.ones_like(jt))
    f = StepFunction(jt, vals, 0.0)
    grid = np.linspace(0, tau, 20001)[:-1]
    approx = float(np.mean(f(grid)) * tau)
    assert area_under_step(f, tau) == pytest.approx(approx, abs=vals[-1] * tau / 1000)


def test_km_monotone_and_bounded(rng):
    for _ in range(30):
        arm = random_arm(rng, n=int(rng.integers(2, 25)))
        km = km_survival(arm)
        vals = np.concatenate(([1.0], km.values))
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all((vals >= 0) & (vals <= 1))


def _jump_oracle(arm, tau, s_convention, weights):
    """The event and death arrays and the survival of a fit on [0, tau],
    from scratch: the events up to tau by a mask over the columns, the deaths
    by a fresh sort of the follow-up times, jumps by ``np.unique``, the
    first of each jump and the risk sets by searches, and the Kaplan-Meier
    product over the deaths up to tau."""
    w = event_weights(arm, weights)
    keep = arm.event_times <= tau
    times = arm.event_times[keep]
    te, e = np.unique(times, return_counts=True)
    order = np.argsort(arm.follow_up, kind="stable")
    x = arm.follow_up[order]
    death_rows = np.flatnonzero(arm.terminal[order] & (x <= tau))
    td, d = np.unique(x[death_rows], return_counts=True)
    y_d = (arm.n - np.searchsorted(x, td, side="left")).astype(np.float64)
    km = np.concatenate(([1.0], np.cumprod(1.0 - d / y_d)))
    return dict(te=te, e=e, event_first=np.searchsorted(times, te, side="left"),
                owners=arm.event_subjects[keep], mass=w[keep], death_rows=death_rows,
                death_first=np.searchsorted(x[death_rows], td, side="left"), d=d, td=td,
                s=km[np.searchsorted(td, te, side=s_convention)])


# a jump at 1.0 holds only events of type 1, so {0: 1.0} gives it mass 0
@example(arm=make_arm(1, [("a", 2.0, True, (0.5, 1.0), (0, 1)),
                          ("b", 1.0, True, (1.0,), (1,)), ("c", 1.5, False)]))
@settings(max_examples=150, deadline=None)
@given(arm=tied_arms())
def test_fit_positions_are_the_searches_they_count(arm):
    # every position a fit counts, byte for byte against the search it
    # replaces, and every jump array it reads from the arm's index against
    # one built from scratch; tau inf is the fit behind mcf
    x = arm.follow_up[arm._follow_up_order]
    for tau in (0.25, 1.0, 1.75, 3.0, math.inf):
        for s_convention in ("left", "right"):
            for weights in (None, {0: 1.0}, {2: 1.0}, {0: 0.0, 1: 2.0, 2: 1.0}):
                fit = fit_arm(arm, tau, s_convention, weights)
                te, td = fit.te, fit.td
                want = {
                    "at_te": np.searchsorted(x, te, side="left"),
                    "at_td": np.searchsorted(x, td, side="left"),
                    "km_at": np.searchsorted(td, te, side=s_convention),
                    "deaths_before": np.concatenate(
                        ([0], np.searchsorted(td, x, side="right"))),
                    **_jump_oracle(arm, tau, s_convention, weights),
                }
                for name, ref in want.items():
                    got = getattr(fit, name)
                    assert (got.dtype, got.tobytes()) == (ref.dtype, ref.tobytes()), name
                # the event counts of fit_influence: event jumps at or
                # before each follow-up time, and at or before each death
                events_before = _counts_below(fit.at_te, arm.n)
                for got, ref in ((events_before[1:], np.searchsorted(te, x, side="right")),
                                 (events_before[fit.at_td + 1],
                                  np.searchsorted(te, td, side="right"))):
                    assert (got.dtype, got.tobytes()) == (ref.dtype, ref.tobytes())


def test_fit_jump_arrays_are_read_only_views_of_the_arm_index_for_any_weights():
    # the weights set only the event mass: with a type weighted 0 and one
    # left out, the jump at 0.5 holds mass 0 and is still read from the index
    arm = make_arm(1, [("a", 2.0, True, (0.5, 1.0, 1.8), (0, 1, 1)),
                       ("b", 1.0, True, (1.0,), (1,)), ("c", 1.5, False, (0.5,), (2,))])
    index = dict(te=arm._te, e=arm._e, event_first=arm._event_first, at_te=arm._at_te,
                 owners=arm.event_subjects, td=arm._td, d=arm._d, at_td=arm._at_td,
                 death_first=arm._death_first, death_rows=arm._death_rows)
    for weights in (None, {0: 1.0, 1: 2.0, 2: 0.5}, {0: 0.0, 1: 2.0}):
        fit = fit_arm(arm, 1.0, "left", weights)
        assert fit.te.tolist() == [0.5, 1.0]
        for name, base in index.items():
            got = getattr(fit, name)
            assert np.shares_memory(got, base) and not got.flags.writeable, (weights, name)


@pytest.mark.parametrize("weight", [math.nan, -1.0, math.inf])
@pytest.mark.parametrize("call", [fit_arm, aumcf, influence_values])
def test_fit_rejects_a_weight_that_is_no_event_mass(call, weight):
    # 0 gives a type mass 0; a negative, NaN or infinite weight raises in the fit
    arm = make_arm(1, [("a", 1.0, True, (0.5,)), ("b", 2.0, True, (2.0,))])
    with pytest.raises(ValidationError, match="weights must be nonnegative and finite"):
        call(arm, 2.0, weights={0: weight})


def test_influence_at_tau_inf_raises_without_warning():
    # theta is infinite at tau inf, and so would be B = theta - inf
    arm = make_arm(1, [("a", 2.0, True, (0.5,)), ("b", 3.0, False, (1.0, 2.5))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: influence_values(arm, math.inf),
                     lambda: fit_influence(fit_arm(arm, math.inf, "right"))):
            with pytest.raises(ValueError, match="finite tau"):
                call()
        # the point estimate and the MCF still fit at tau inf
        assert aumcf(arm, math.inf) == math.inf
        assert mcf(arm)(3.0) == 0.5 + 0.5 + 0.5 * 1.0
        # a jump where S is 0 adds 0, not (inf - u) * 0
        dies = make_arm(1, [("a", 1.0, True, (0.5,)), ("b", 2.0, True, (2.0,))])
        for convention in S_CONVENTIONS:
            assert aumcf(dies, math.inf, convention) == math.inf
